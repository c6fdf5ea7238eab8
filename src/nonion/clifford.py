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
the second.  The matrix kernel packs each row of the right image into
big integers of d 64-bit slots (Kronecker substitution), so one raw
product per nonzero cell of the left image does a whole output row; it
falls back to one raw product per cell triple when the operands'
numerators are too wide for the slots.

One readback (`_read_back`) serves both graded algebras: at n = 2 the
monomials, up to a phase, are the nonion units, and
`matrix.decompose_in_basis` reads a 3x3 matrix's nonion coefficients
through it, three cells folded by phase per coefficient.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import chain, permutations, product
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
    rows = _shifted_rows(tuple(reversed(a)))
    phases = _clock_phases(tuple(reversed(b)))
    entries = _entries(len(rows))
    return [entries[3 * row + (c + p) % 3] for row, p in zip(rows, phases)]


@lru_cache(maxsize=16)
def _entries(d: int) -> tuple[tuple[int, int], ...]:
    """Every (row, j-exponent) pair, (row, e) at 3 * row + e.  The column
    actions of all 3^n monomials, which a dense product holds at once,
    share these pairs instead of holding d tuples each."""
    return tuple((row, e) for row in range(d) for e in range(3))


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
    two cell updates.

    d^3 is the cost of the per-cell product, which wide operands still
    take; the packed-row product that narrow operands take is never
    slower, so for them d^3 is an upper bound and every product the model
    sends to the matrix kernel still belongs there."""
    d = 3 ** ((n + 1) // 2)
    return 2 * ta * tb > d**3 + (ta + tb + 3**n) * d


def _matrix_product(n: int, a: Terms, b: Terms) -> dict:
    """The product through the faithful d x d clock-and-shift representation.

    Both operands become d x d matrices of raw 8-int cells over one shared
    denominator each, their product follows (`_packed_product` when its
    slots provably fit, else `_cell_product`), and `_read_back` gives each
    monomial's coefficient as tr(M^dagger P) / d.  Each monomial's column
    action is computed once and serves both conversions and the readback.
    """
    d = 3 ** ((n + 1) // 2)
    monos = list(product(range(3), repeat=n))
    actions = dict(zip(monos, map(_column_action, monos)))
    ca, da = _to_matrix(a, d, actions)
    cb, db = _to_matrix(b, d, actions)
    ra = _sparse_rows(ca)
    if _bit_length(ca) + _bit_length(cb) + (36 * d).bit_length() <= 63:
        prod = _packed_product(ra, cb, d)
    else:
        prod = _cell_product(ra, _sparse_rows(cb), d)
    return {
        mono: FieldElem(nums, da * db * d)
        for mono, nums in zip(monos, _read_back(prod, actions.values()))
        if any(nums)
    }


def _cell_product(ra: list, rb: list, d: int) -> list[list[list[int]]]:
    """The product of two matrices of sparse rows, one Z[j] pair product
    per (row i, inner k, column) triple whose two cells are nonzero."""
    prod = [[[0] * 8 for _ in range(d)] for _ in range(d)]
    for out, row in zip(prod, ra):
        for k, x in row:
            for col, y in rb[k]:
                mul_accumulate(out[col], x, y)
    return prod


def _packed_product(ra: list, cb: list, d: int) -> list[list[tuple[int, ...]]]:
    """The product of sparse rows ra by dense cells cb, one row at a time.

    Each of the 8 numerator coordinates of a row of cb is packed into one
    integer of d signed 64-bit slots, column c in slot c (Kronecker
    substitution).  mul_accumulate is linear in its second operand, so one
    call per nonzero cell (i, k) of ra adds cell (i, k) times all of row k
    into row i; CPython's big-integer arithmetic does the d column
    products.  The packed sums stay exact; only their unpacking needs each
    slot to fit.

    Slot bound: an output coordinate sums, over the d inner indices k, the
    Z[j] products of the radical pairs landing on its radical, whose
    factors m add up to at most 12 (1 + 2 + 3 + 6 on the rational part),
    and each part x1 x2 - y1 y2 or x1 y2 + y1 x2 - y1 y2 is below
    3 2^(bits_a + bits_b) in size.  So every slot c has
    |c| < 36 d 2^(bits_a + bits_b) <= 2^63 whenever
    bits_a + bits_b + bit_length(36 d) <= 63, the test in `_matrix_product`.

    Signed slots pack and unpack through the offset O with bit 63 of every
    slot set: the two's complement bytes of the slots read as an integer U
    pack to (U ^ O) - O, and a packed value V unpacks as the slots of
    (V + O) ^ O, since V + O holds c + 2^63 in [0, 2^64) in slot c.
    """
    offset = int.from_bytes(b"\0\0\0\0\0\0\0\x80" * d, "little")
    order = sys.byteorder

    def pack(values) -> int:
        return (int.from_bytes(array("q", values).tobytes(), order) ^ offset) - offset

    packed = [numerator_pairs([pack(col) for col in zip(*row)]) for row in cb]
    prod = []
    for row in ra:
        acc = [0] * 8
        for k, x in row:
            mul_accumulate(acc, x, packed[k])
        slots = [((v + offset) ^ offset).to_bytes(8 * d, order) for v in acc]
        prod.append(list(zip(*[memoryview(s).cast("q") for s in slots])))
    return prod


def _bit_length(cells: list[list[list[int]]]) -> int:
    """The largest bit length of any raw numerator in the cells."""
    flat = list(chain.from_iterable(chain.from_iterable(cells)))
    return max(max(flat), -min(flat)).bit_length()


def _read_back(cells: list[list], actions: Iterable[list[tuple[int, int]]]) -> list[list[int]]:
    """tr(M^dagger P) for each phase-monomial matrix M, on raw numerators.

    P is d x d cells of 8 raw numerators over one shared denominator (a
    zero cell may be None), and each M is given by its column action,
    the (row, j-exponent) of its one nonzero entry in each column.  The
    trace picks one cell of P per column, and the conjugated phase
    j^-e sorts it into a phase class; the three class sums fold into one
    value.  For a clock-and-shift monomial, dividing by d and by the
    cells' denominator gives its coefficient in P.
    """
    out = []
    for action in actions:
        classes: list[list] = [[], [], []]
        for col, (row, e) in enumerate(action):
            cell = cells[row][col]
            if cell is not None:
                classes[-e % 3].append(cell)
        out.append(fold_phases(*[[sum(z) for z in zip(*c)] if c else None for c in classes]))
    return out


def _to_matrix(
    terms: Terms, d: int, actions: Mapping[tuple[int, ...], list[tuple[int, int]]]
) -> tuple[list[list[list[int]]], int]:
    """The d x d matrix sum c_m M_m as raw 8-int cells over one shared
    denominator, which is returned with them; actions maps each monomial
    to its column action."""
    nums, den = common_numerators(terms.values())
    cells = [[[0] * 8 for _ in range(d)] for _ in range(d)]
    for mono, x in zip(terms, nums):
        dense = [0] * 8
        add_pairs(dense, x)
        turns = [
            [(i, v) for i, v in enumerate(fold_phases(*rot)) if v]
            for rot in ((dense, None, None), (None, dense, None), (None, None, dense))
        ]
        for col, (row, e) in enumerate(actions[mono]):
            cell = cells[row][col]
            for i, v in turns[e]:
                cell[i] += v
    return cells, den


def _sparse_rows(cells: list[list[list[int]]]) -> list[list[tuple[int, tuple]]]:
    """Rows of sparse (column, numerator pairs) cells, zero cells dropped."""
    return [
        [(col, numerator_pairs(cell)) for col, cell in enumerate(row) if any(cell)]
        for row in cells
    ]


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
