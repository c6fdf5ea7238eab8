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
factor; at n = 2 these are the q1, q2 of `bases.nonion_basis`.  Every
monomial is a monomial matrix j^c X^a Z^b in closed form
(`_column_action`; odd n pad a last exponent 0).  With 2m + 1 generators
the algebra is three copies of M_(3^m), split by the Z3 of its centre:
the padded image of a monomial with last exponent t is M' (x) X^t, so an
element is sum_t A_t (x) X^t, and the finite Fourier transform
A^_k = sum_t j^(kt) A_t over t turns its products into three independent
3^m x 3^m products.

Products have two exact kernels, chosen by a cost model on the term
counts: the pairwise kernel sums the normal-ordered product of every
term pair, and the matrix kernel multiplies the images block by block
(d = 3^floor(n/2); one block for even n, three for odd n) and reads
each coefficient back as a trace tr(M^dagger P).  Sparse products, such
as generator words, take the first; dense ones the second.  The matrix
kernel lives in `nonion._clifford_matrix`, imported at the first product
the cost model sends there, so a program that makes only sparse
products never compiles it.

The radix-3 stage `_dft` serves both graded algebras: besides the dense
conversions of `_clifford_matrix`, at n = 2, where the monomials are up
to a phase the nonion units, it reads nonion coefficients back
(`matrix.decompose_in_basis`) and builds nonion matrices
(`cubic.qhat_at`).
"""

from __future__ import annotations

from itertools import permutations
from operator import mul
from typing import Iterable, Mapping, Sequence

from .field import (
    ONE,
    ZERO,
    FieldElem,
    common_numerators,
    fold_phases,
    j_pow,
    mul_accumulate,
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
    one normalised FieldElem per output monomial whose sum is nonzero."""
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
    den = da * db
    return {
        mono: FieldElem(nums, den, den == 1)
        for mono in {m for m, _ in acc}
        if any(nums := fold_phases(acc.get((mono, 0)), acc.get((mono, 1)), acc.get((mono, 2))))
    }


def _image(mono: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(a, b, c) of the clock-and-shift matrix j^c X^a Z^b of the monomial
    q^mono (odd lengths padded with 0): the digits of a and b, one per
    tensor factor, and c mod 3.

    The matrix acts on m = ceil(n/2) tensor factors, with X e_v = e_(v-1)
    and Z e_v = j^v e_v on each, so column v holds j^(c + b.v) in row
    v - a.  Generator q_(2i) is X on factor i and q_(2i+1) is
    X diag(j^2, 1, j) = j^2 X Z there; both carry Z on every earlier
    factor, so X^a Z^b collects the exponents in closed form.
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
    return tuple(reversed(a)), tuple(reversed(b)), c % 3


def _column_action(mono: tuple[int, ...]) -> list[tuple[int, int]]:
    """(row, j-exponent) of the one nonzero entry of each column of the
    matrix of q^mono (`_image`): j^(c + b.v) in row v - a (digit by digit,
    mod 3) of column v."""
    a, b, c = _image(mono)
    cols = [(0, c)]
    for ai, bi in zip(a, b):
        cols = [(3 * r + (t - ai) % 3, (p + bi * t) % 3) for r, p in cols for t in range(3)]
    return cols


def _shape(n: int) -> tuple[int, int]:
    """(blocks, d): the image of the n-generator algebra is `blocks` d x d
    blocks, d = 3^floor(n/2), one block for even n and three for odd n."""
    return 3 if n % 2 else 1, 3 ** (n // 2)


def _matrix_is_cheaper(n: int, ta: int, tb: int) -> bool:
    """Cost model, in cell products: ta*tb term pairs against the block
    products (`_shape`: one d x d block for even n, three for odd n) plus
    the conversions.  A term pair (normal ordering, a dict lookup and a
    Z[j] product) costs about two cell products, and the conversions 8 per
    monomial of either operand and of the readback.

    Both terms overstate the matrix kernel (live Z[j] pairs on packed
    radix-3 stages; four dot products per block row and radical pair), so
    every product the model sends there belongs there.  Alternating
    medians on t random terms per operand, Z[j] coefficients in [-4, 4] or
    of 12 digits, put the crossovers at t = 12 at n = 3, 12 and 16 at n = 4,
    21 and 25 at n = 5, 28 and 37 at n = 6 and 49 and 64 at n = 7, where
    the model switches at 17, 31, 50, 118 and 200.
    """
    blocks, d = _shape(n)
    return 2 * ta * tb > blocks * d**3 + 8 * (ta + tb + 3**n)


def _dft(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """sum_t j^(kt) a_t for k = 0, 1, 2, on three equal runs of Z[j] pairs
    of raw numerators, or of packed integers (8 for a field element).

    So _dft(c)[-t % 3] is sum_k j^(-kt) c_k, three times the inverse."""
    a0, a1, a2 = a
    total = [x + y + z for x, y, z in zip(a0, a1, a2)]
    return [total, fold_phases(a0, a1, a2), fold_phases(a0, a2, a1)]


def _rotate(nums: Sequence[int], e: int) -> list[int]:
    """j^e times 8 raw numerators."""
    return fold_phases(*[nums if k == e % 3 else None for k in range(3)])


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

    @classmethod
    def _of(cls, n: int, terms: Terms) -> "CliffElement":
        """A kernel result, kept as it is: both kernels return a fresh dict
        of valid monomials with nonzero coefficients only."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)
        return self

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
        return CliffElement(self.n, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "CliffElement") -> "CliffElement":
        """Exact product, through whichever kernel the term counts make cheaper."""
        if not isinstance(other, CliffElement):
            return NotImplemented
        self._require_same_n(other)
        if _matrix_is_cheaper(self.n, len(self.terms), len(other.terms)):
            from ._clifford_matrix import _matrix_product

            return CliffElement._of(self.n, _matrix_product(self.n, self.terms, other.terms))
        return CliffElement._of(self.n, _pairwise_product(self.terms, other.terms))

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
