"""The n-generator ternary Clifford algebra.

Generators q_1..q_n satisfy q_k^3 = 1 and the j-commutation
q_l q_k = j^2 q_k q_l for l > k (equivalently q_k q_l = j q_l q_k).
Normal form is generator-index order with exponents in {0,1,2};
phases are exact powers of j, so the quotient algebra is realized
concretely without symbolic ideal reduction.  The dimension is 3^n and
the monomial count per total degree is the coefficient sequence of
(1 + t + t^2)^n.

With 2m generators the algebra is the full matrix algebra M_(3^m)
(Morris 1967), and the nonions are the case m = 1.  The faithful
representation used here puts q_(2i) and q_(2i+1) on tensor factor i as
the shift X and X diag(j^2, 1, j), behind a clock on every earlier
factor; at n = 2 these are the q1, q2 of `bases.nonion_basis`.  For odd
n the algebra is the subalgebra of the (n+1)-generator one whose
monomials have last exponent 0.  Every monomial is a monomial matrix
j^c X^a Z^b in closed form (`_column_action`).

Products have two exact kernels, chosen by a cost model on the term
counts: the pairwise kernel sums the normal-ordered product of every
term pair, and the matrix kernel multiplies the two d x d images
(d = 3^ceil(n/2)) and reads each coefficient back as tr(M^dagger P)/d.
Sparse products, such as generator words, take the first; dense ones
the second.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from operator import mul
from typing import Iterable, Mapping

from .field import (
    ONE,
    ZERO,
    FieldElem,
    add_pairs,
    common_numerators,
    fold_phases,
    j_pow,
    mul_accumulate,
    numerator_pairs,
    sum_terms,
)

__all__ = [
    "LengthMismatchError",
    "CliffElement",
    "normal_order_product",
    "generator",
    "unit",
    "s3_symmetric_sum",
    "weighted_identity_check",
    "weighted_identities",
    "dimension",
    "degree_census",
    "grade",
]

MAX_GENERATORS = 12


class LengthMismatchError(Exception):
    """Operands belong to algebras with different generator counts."""


def _suffix_sums(a: tuple[int, ...]) -> list[int]:
    """higher[k] = a[k+1] + ... + a[n-1]: the exponents of a above index k."""
    higher = [0] * len(a)
    total = 0
    for k in range(len(a) - 1, 0, -1):
        total += a[k]
        higher[k - 1] = total
    return higher


def _normal_order(
    higher: list[int], a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """(monomial, j-exponent) of a*b, given the suffix sums of a.

    A factor j^2 accrues for every elementary swap that carries one of
    b's generators leftward past a higher-index generator of a;
    exponents then reduce mod 3 via q_k^3 = 1.
    """
    return (
        tuple([(x + y) % 3 for x, y in zip(a, b)]),
        2 * sum(map(mul, b, higher)) % 3,
    )


def normal_order_product(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[FieldElem, tuple[int, ...]]:
    """Product of two normal-form monomials: (phase, monomial)."""
    if len(a) != len(b):
        raise LengthMismatchError(f"monomial lengths differ: {len(a)} vs {len(b)}")
    mono, e = _normal_order(_suffix_sums(a), a, b)
    return j_pow(e), mono


Terms = Mapping[tuple[int, ...], FieldElem]


def _pairwise_product(a: Terms, b: Terms) -> dict:
    """Raw integer sums per (monomial, phase) over all term pairs, then
    one normalised FieldElem per output monomial."""
    left, da = common_numerators(a.values())
    right, db = common_numerators(b.values())
    acc: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for ma, xa in zip(a, left):
        higher = _suffix_sums(ma)
        for mb, xb in zip(b, right):
            key = _normal_order(higher, ma, mb)
            cell = acc.get(key)
            if cell is None:
                cell = acc[key] = [0] * 8
            mul_accumulate(cell, xa, xb)
    return {
        mono: FieldElem(
            fold_phases(acc.get((mono, 0)), acc.get((mono, 1)), acc.get((mono, 2))),
            da * db,
        )
        for mono in {m for m, _ in acc}
    }


def _column_action(mono: tuple[int, ...]) -> list[tuple[int, int]]:
    """(row, j-exponent) of the one nonzero entry of each column of the
    clock-and-shift matrix of the monomial q^mono (odd lengths padded with 0).

    The monomial is j^c X^a Z^b on m = ceil(n/2) tensor factors, with
    X e_v = e_(v-1) and Z e_v = j^v e_v on each factor, so column v holds
    j^(c + b.v) in row v - a.  Generator q_(2i) is X on factor i and
    q_(2i+1) is X diag(j^2, 1, j) = j^2 X Z there; both carry Z on every
    earlier factor, so X^a Z^b collects the exponents in closed form.
    """
    if len(mono) % 2:
        mono = (*mono, 0)
    a, b, c, later = [], [], 0, 0
    for i in range(len(mono) - 2, -1, -2):
        e0, e1 = mono[i], mono[i + 1]
        a.append((e0 + e1) % 3)
        b.append((e1 + later) % 3)
        later += e0 + e1
        c += 2 * (e1 == 1)  # (j^2 X Z)^e = j^(2e - e(e-1)/2) X^e Z^e
    phases = _clock_phases(tuple(reversed(b)))
    return [(row, (c + p) % 3) for row, p in zip(_shifted_rows(tuple(reversed(a))), phases)]


@lru_cache(maxsize=1024)
def _shifted_rows(a: tuple[int, ...]) -> tuple[int, ...]:
    """The row v - a (digit by digit, mod 3) of each column v."""
    rows = [0]
    for ai in a:
        rows = [3 * r + (t - ai) % 3 for r in rows for t in range(3)]
    return tuple(rows)


@lru_cache(maxsize=1024)
def _clock_phases(b: tuple[int, ...]) -> tuple[int, ...]:
    """b.v mod 3 for each column v."""
    phases = [0]
    for bi in b:
        phases = [(p + bi * t) % 3 for p in phases for t in range(3)]
    return tuple(phases)


def _matrix_is_cheaper(n: int, ta: int, tb: int) -> bool:
    """Cost model: ta*tb term pairs against one d x d product (d = 3^ceil(n/2))
    plus the conversions, about (ta + tb + 3^n) * d cell updates.  A term
    pair (normal ordering, a dict lookup and a cell update) costs about
    two cell updates."""
    d = 3 ** ((n + 1) // 2)
    return 2 * ta * tb > d**3 + (ta + tb + 3**n) * d


def _matrix_product(n: int, a: Terms, b: Terms) -> dict:
    """The product through the faithful d x d clock-and-shift representation.

    Both operands become matrices of sparse numerator-pair cells, one
    product of those matrices into raw 8-int cells follows (zero cells
    skipped), and each monomial's coefficient is read back as
    tr(M^dagger P) / d.
    """
    d = 3 ** ((n + 1) // 2)
    ma, da = _to_matrix(a, d)
    mb, db = _to_matrix(b, d)
    prod = [[[0] * 8 for _ in range(d)] for _ in range(d)]
    for out, row in zip(prod, ma):
        for k, x in row:
            for col, y in mb[k]:
                mul_accumulate(out[col], x, y)
    coeffs = {}
    for mono in product(range(3), repeat=n):
        classes: list[list] = [[], [], []]
        for col, (row, e) in enumerate(_column_action(mono)):
            classes[-e % 3].append(prod[row][col])
        nums = fold_phases(*[[sum(z) for z in zip(*c)] if c else None for c in classes])
        if any(nums):
            coeffs[mono] = FieldElem(nums, da * db * d)
    return coeffs


def _to_matrix(terms: Terms, d: int) -> tuple[list[list[tuple[int, tuple]]], int]:
    """Rows of sparse (column, numerator pairs) cells of the d x d matrix
    sum c_m M_m over one shared denominator, which is returned with them."""
    nums, den = common_numerators(terms.values())
    cells = [[[0] * 8 for _ in range(d)] for _ in range(d)]
    for mono, x in zip(terms, nums):
        dense = [0] * 8
        add_pairs(dense, x)
        turns = [
            numerator_pairs(fold_phases(*rot))
            for rot in ((dense, None, None), (None, dense, None), (None, None, dense))
        ]
        for col, (row, e) in enumerate(_column_action(mono)):
            add_pairs(cells[row][col], turns[e])
    sparse = [
        [(col, numerator_pairs(cell)) for col, cell in enumerate(row) if any(cell)]
        for row in cells
    ]
    return sparse, den


class CliffElement:
    """Sparse element: map normal-form monomial -> FieldElem."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], FieldElem] | None = None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                if len(mono) != n:
                    raise LengthMismatchError(f"monomial {mono} is not length {n}")
                if any(not 0 <= e <= 2 for e in mono):
                    raise ValueError(f"exponents must be in 0..2: {mono}")
                if not c.is_zero():
                    clean[tuple(mono)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CliffElement is immutable")

    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def coeff(self, mono: Iterable[int]) -> FieldElem:
        return self.terms.get(tuple(mono), ZERO)

    def _require_same_n(self, other: "CliffElement") -> None:
        if self.n != other.n:
            raise LengthMismatchError(f"generator counts differ: {self.n} vs {other.n}")

    def __add__(self, other: "CliffElement") -> "CliffElement":
        self._require_same_n(other)
        return CliffElement(self.n, sum_terms([*self.terms.items(), *other.terms.items()]))

    def __neg__(self) -> "CliffElement":
        return CliffElement(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "CliffElement") -> "CliffElement":
        return self + (-other)

    def scale(self, c: FieldElem) -> "CliffElement":
        if c.is_zero():
            return CliffElement(self.n)
        return CliffElement(self.n, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "CliffElement") -> "CliffElement":
        """Exact product, through whichever kernel the term counts make cheaper."""
        if not isinstance(other, CliffElement):
            return NotImplemented
        self._require_same_n(other)
        if _matrix_is_cheaper(self.n, len(self.terms), len(other.terms)):
            return CliffElement(self.n, _matrix_product(self.n, self.terms, other.terms))
        return CliffElement(self.n, _pairwise_product(self.terms, other.terms))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CliffElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.items():
            word = " ".join(
                f"q{k + 1}" + ("^2" if e == 2 else "")
                for k, e in enumerate(mono)
                if e
            ) or "1"
            parts.append(f"({c}) {word}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CliffElement(n={self.n}, {self})"


def unit(n: int) -> CliffElement:
    return CliffElement(n, {(0,) * n: ONE})


def generator(n: int, k: int, power: int = 1) -> CliffElement:
    """q_{k+1}^power as an element of the n-generator algebra."""
    if not 0 <= k < n:
        raise IndexError(f"generator index {k} out of range for n={n}")
    mono = [0] * n
    mono[k] = power % 3
    return CliffElement(n, {tuple(mono): ONE})


def s3_symmetric_sum(k: int, l: int, m: int, n: int) -> CliffElement:
    """Sum of the six permuted words q_a q_b q_c over orderings of (k,l,m)."""
    for idx in (k, l, m):
        if not 0 <= idx < n:
            raise IndexError(f"index {idx} out of range for n={n}")
    total = CliffElement(n)
    for a, b, c in permutations((k, l, m)):
        total = total + generator(n, a) * generator(n, b) * generator(n, c)
    return total


_IDENTITY_WEIGHTS = {1: (0, 0), 2: (2, 1), 3: (1, 2)}  # kind -> j-exponents (w1, w2)


def weighted_identity_check(kind: int, k: int, l: int, n: int) -> CliffElement:
    """q_k q_l q_k + w1 q_k^2 q_l + w2 q_l q_k^2 with the kind's weights.

    Weights are (1,1), (j^2,j), (j,j^2) for kinds 1..3.  The value is
    returned as computed; callers judge it against their expectations.
    """
    if kind not in _IDENTITY_WEIGHTS:
        raise ValueError(f"kind must be 1..3, got {kind}")
    if not 0 <= k < l < n:
        raise IndexError(f"need 0 <= k < l < n, got k={k}, l={l}, n={n}")
    e1, e2 = _IDENTITY_WEIGHTS[kind]
    qk, ql = generator(n, k), generator(n, l)
    qk2 = generator(n, k, 2)
    return qk * ql * qk + (qk2 * ql).scale(j_pow(e1)) + (ql * qk2).scale(j_pow(e2))


def weighted_identities(n: int) -> dict[tuple[int, int], tuple[CliffElement, ...]]:
    """Kinds 1..3 of the weighted identity, keyed by each pair k < l in order."""
    return {
        (k, l): tuple(weighted_identity_check(kind, k, l, n) for kind in (1, 2, 3))
        for k in range(n)
        for l in range(k + 1, n)
    }


def dimension(n: int) -> int:
    """3^n, the number of normal-form monomials."""
    if not 1 <= n <= MAX_GENERATORS:
        raise ValueError(f"generator count must be 1..{MAX_GENERATORS}, got {n}")
    return 3**n


def degree_census(n: int) -> list[int]:
    """Monomial count per total degree 0..2n: the coefficients of
    (1 + t + t^2)^n."""
    if n < 1:
        raise ValueError("generator count must be >= 1")
    coeffs = [1]
    for _ in range(n):
        out = [0] * (len(coeffs) + 2)
        for i, c in enumerate(coeffs):
            out[i] += c
            out[i + 1] += c
            out[i + 2] += c
        coeffs = out
    return coeffs


def grade(mono: Iterable[int]) -> int:
    """Total degree mod 3 of a normal-form monomial."""
    return sum(mono) % 3
