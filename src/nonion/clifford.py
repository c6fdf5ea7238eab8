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
each coefficient back as a trace tr(M^dagger P).
Sparse products, such as generator words, take the first; dense ones
the second.  Both conversions work along the shift diagonals: monomial
j^c X^a Z^b fills diagonal a, with phase j^(c + b.v) in column v.  So the
forward map adds each coefficient, times one column mask per clock
pattern, into integers packed with one slot per column, and the
readback, the finite Fourier transform of each diagonal over the column
digits (Schwinger 1960), runs one radix-3 stage per digit on integers
packed with one slot per diagonal.  The product packs each row of the
right image into big integers of d slots (Kronecker substitution), so
one raw product per nonzero cell of the left image does a whole output
row; the slots are 64 bits, or a wider multiple of 64 when the
operands' numerators are wide.

The radix-3 stage `_dft` serves both graded algebras: besides the odd-n
block split and the dense readback, at n = 2, where the monomials are up
to a phase the nonion units, it reads nonion coefficients back
(`matrix.decompose_in_basis`) and builds nonion matrices
(`cubic.qhat_at`).
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import chain, permutations, product
from operator import itemgetter, mul
from typing import Iterable, Mapping, Sequence

from .field import (
    ONE,
    ZERO,
    FieldElem,
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
_ORDER = sys.byteorder


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
    matrix of q^mono (`_image`)."""
    a, b, c = _image(mono)
    return [(row, (c + p) % 3) for row, p in zip(_shifted_rows(a), _clock_phases(b))]


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


def _shape(n: int) -> tuple[int, int]:
    """(blocks, d): the image of the n-generator algebra is `blocks` d x d
    blocks, d = 3^floor(n/2), one block for even n and three for odd n."""
    return 3 if n % 2 else 1, 3 ** (n // 2)


def _getter(items: Sequence[int]) -> itemgetter:
    """An itemgetter of the items that gives a sequence even for one item
    (a one-item slice)."""
    return itemgetter(*items) if len(items) > 1 else itemgetter(slice(items[0], items[0] + 1))


@lru_cache(maxsize=4)
def _clifford_plan(n: int) -> tuple:
    """Each monomial's `_image` j^c X^a Z^b on the d x d blocks, with a and
    b indexed by their position in product(range(3), repeat=n // 2); for
    odd n its last digits (a = t, b = 0) are dropped, the image being
    M' (x) X^t.  Returns, per block t, its monomials (last exponent t for
    odd n, all for even n) as (monomial, readback slot k d + a with k the
    index of -b, c); for the forward map, each monomial's (t, index of a,
    clock pattern b.v, c); and the getters that put a vector of d slots
    per diagonal in row-major order and a row-major vector in
    column-major order, one slot per diagonal.
    """
    blocks, d = _shape(n)
    m = n // 2
    digits = list(product(range(3), repeat=m))
    index = {v: i for i, v in enumerate(digits)}
    plans: list = [[] for _ in range(blocks)]
    forward = {}
    for mono in product(range(3), repeat=n):
        a, b, c = _image(mono)
        a, b, t = a[:m], b[:m], mono[-1] % blocks
        plans[t].append((mono, index[tuple([-x % 3 for x in b])] * d + index[a], c))
        forward[mono] = (t, index[a], _clock_phases(b), c)
    cells = [row * d + v for a in digits for v, row in enumerate(_shifted_rows(a))]
    to_rows = _getter(sorted(range(d * d), key=cells.__getitem__))
    return plans, forward, to_rows, _getter([cells[i * d + v] for v in range(d) for i in range(d)])


@lru_cache(maxsize=256)
def _phase_masks(pattern: tuple[int, ...], width: int) -> tuple:
    """For c = 0, 1, 2, the pair form ((0, x, y),) of the column phases
    j^(c + s) of a clock pattern, x and y packed with one slot (of `width`
    bits) per column: 1, j and j^2 are (1, 0), (0, 1) and (-1, -1)."""
    masks = []
    for c in range(3):
        phases = [(c + s) % 3 for s in pattern]
        values = [(1, 0, -1)[p] for p in phases] + [(0, 1, -1)[p] for p in phases]
        x, y = _pack(values, len(pattern), width)
        masks.append(((0, x, y),))
    return tuple(masks)


def _slot_width(bits: int) -> int:
    """The least multiple of 64 that holds values of magnitude below 2^bits
    as signed slots: bits + 1 bits with the sign."""
    return 64 * -(-(bits + 1) // 64)


@lru_cache(maxsize=16)
def _offset(d: int, width: int) -> int:
    """The integer with bit width - 1 of each of d slots of `width` bits set."""
    return int.from_bytes((1 << (width - 1)).to_bytes(width // 8, _ORDER) * d, _ORDER)


def _pack(values: Iterable[int], d: int, width: int) -> list[int]:
    """Each run of d signed values packed into one integer, value k of the
    run in slot k of `width` bits.

    The two's complement bytes of a run read as an integer U pack to
    (U ^ O) - O, with O the `_offset`; a packed value V unpacks as the
    slots of (V + O) ^ O, since V + O holds value + 2^(width - 1), in
    [0, 2^width), in each slot."""
    if width == 64:
        raw = array("q", values).tobytes()
    else:
        raw = b"".join(v.to_bytes(width // 8, _ORDER, signed=True) for v in values)
    offset = _offset(d, width)
    size = width // 8 * d
    return [
        (int.from_bytes(raw[k : k + size], _ORDER) ^ offset) - offset
        for k in range(0, len(raw), size)
    ]


def _unpack(packed: Iterable[int], d: int, width: int) -> Sequence[int]:
    """The d slots of each packed integer, one after another; every slot
    must fit `width` signed bits."""
    offset = _offset(d, width)
    size = width // 8
    raw = b"".join([((v + offset) ^ offset).to_bytes(size * d, _ORDER) for v in packed])
    if width == 64:
        return memoryview(raw).cast("q")
    return [int.from_bytes(raw[k : k + size], _ORDER, signed=True) for k in range(0, len(raw), size)]


def _matrix_is_cheaper(n: int, ta: int, tb: int) -> bool:
    """Cost model, in cell products: ta*tb term pairs against the block
    products (`_shape`: one d x d block for even n, three for odd n) plus
    the conversions.  A term pair (normal ordering, a dict lookup and a
    Z[j] product) costs about two cell products.  The conversions cost
    about 8 per monomial of either operand and of the readback, whatever
    d: the forward map makes one raw product on packed integers per
    monomial, the readback a slot lookup and a phase rotation.

    blocks d^3 (3 d^3 = 2,187 at n = 5) is only an upper bound on the
    block products: the packed rows make at most blocks d^2 raw products,
    each on integers of d slots of 64 bits or, for wide operands, a wider
    multiple of 64.  So every product the model sends to the matrix kernel
    belongs there, and narrow operands would gain from fewer terms; the
    term counts cannot tell them apart.  Alternating medians
    on t random terms per operand, with Z[j] coefficients in [-4, 4] or
    with 12-digit ones: the matrix kernel wins from about t = 16 (either
    width) at n = 3, t = 35 and 40 at n = 5, and t = 80 and 145 at n = 7,
    where the model switches at 17, 50 and 200; at even n from about
    t = 20 at n = 4 and t = 55 at n = 6 (narrow), against 31 and 118.
    """
    blocks, d = _shape(n)
    return 2 * ta * tb > blocks * d**3 + 8 * (ta + tb + 3**n)


def _dft(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """sum_t j^(kt) a_t for k = 0, 1, 2, on three sequences of 8 integers.

    So _dft(c)[-t % 3] is sum_k j^(-kt) c_k, three times the inverse."""
    a0, a1, a2 = a
    total = [x + y + z for x, y, z in zip(a0, a1, a2)]
    return [total, fold_phases(a0, a1, a2), fold_phases(a0, a2, a1)]


def _matrix_product(n: int, a: Terms, b: Terms) -> dict:
    """The product through the faithful clock-and-shift representation.

    Both operands become their block images A^_k (`_to_vectors`: per block
    k, 8 flat row-major d x d vectors of raw numerators over one shared
    denominator each), block k of the product is A^_k B^_k
    (`_packed_product`, with slots wide enough for every output value),
    and the inverse transform gives 3 C_t = sum_k j^(-kt) (A^_k B^_k) on
    the packed rows, before they are unpacked.  For odd n the
    padded product is sum_t C_t (x) X^t; `_read_back` then gives each
    monomial M' (x) X^t its coefficient tr(M'^dagger C_t) / d, all of
    block t in floor(n/2) packed stages, as tr(M'^dagger 3 C_t) / (3 d).

    Slot bound: an output coordinate of 3 C_t sums, over the blocks k, the
    d inner indices and the radical pairs landing on its radical (their
    factors add up to at most 12: 1 + 2 + 3 + 6 on the rational part), a
    Z[j] product times j^(-kt); each coordinate of j^r (x1 + y1 j)(x2 + y2 j)
    is a sum of at most three products x1 x2, x1 y2, y1 x2 or y1 y2, each
    below 2^(bits_a + bits_b) with bits the bit length of the widest
    numerator of each operand's block images.  So every unpacked value has
    |v| < 36 blocks d 2^(bits_a + bits_b) <= 2^(bits_a + bits_b +
    bit_length(36 blocks d)), and the slots take `_slot_width` of that
    exponent: 64 bits while it is at most 63.  The packed sums before
    unpacking are exact at any size.
    """
    blocks, d = _shape(n)
    va, da = _to_vectors(n, a)
    vb, db = _to_vectors(n, b)
    flat = [[x for block in v for x in block] for v in (va, vb)]
    bits = sum(max(max(map(max, v)), -min(map(min, v))).bit_length() for v in flat)
    width = _slot_width(bits + (36 * blocks * d).bit_length())
    prods = [_packed_product(_sparse_rows(x, d), y, d, width) for x, y in zip(va, vb)]
    if blocks == 3:
        prods = list(zip(*map(_dft, zip(*prods))))
    den = da * db * blocks * d
    out = {}
    for t in range(blocks):
        vecs = [_unpack(coord, d, width) for coord in zip(*prods[-t % 3])]
        for mono, nums in _read_back(n, t, vecs):
            out[mono] = FieldElem(nums, den)
    return out


def _to_vectors(n: int, terms: Terms) -> tuple[list[list[Sequence[int]]], int]:
    """The block images A^_k of sum c_m M_m, each as 8 flat row-major d x d
    vectors of raw numerators, one per coordinate, over one shared
    denominator, which is returned with them.

    Monomial j^c X^a Z^b of block t puts its numerators x, times
    j^(c + b.v), in column v of shift diagonal a of A_t.  So each diagonal
    of each block keeps 8 integers packed with one slot per column, and
    the monomial adds x times its packed column phases there with one
    `mul_accumulate` (linear in its second operand) by `_phase_masks`.
    `_dft` then makes each diagonal's 8 packed coordinates of
    A^_k = sum_t j^(kt) A_t (for even n, A^_0 = A_0), and each coordinate
    of each block unpacks once and is permuted into row-major order.

    Slot bound: each of the 3^n / d monomials on a diagonal (of all blocks
    t) adds j^p x to every slot of A^_k, and a coordinate of j^p x is
    x, y, -y, x - y, y - x or -x of a Z[j] pair of x, so every slot holds
    |cell| <= 2 (3^n / d) max|x| < 2^(bits + bit_length(2 3^n / d - 1))
    with bits the bit length of max|x|.  The slots take `_slot_width` of
    this; the packed sums before unpacking are exact at any size.
    """
    blocks, d = _shape(n)
    nums, den = common_numerators(terms.values())
    top = max((max(abs(x), abs(y)) for pairs in nums for _, x, y in pairs), default=0)
    width = _slot_width(top.bit_length() + (2 * 3**n // d - 1).bit_length())
    _, forward, to_rows, _ = _clifford_plan(n)
    diagonals = [[[0] * 8 for _ in range(d)] for _ in range(blocks)]
    for mono, x in zip(terms, nums):
        t, i, pattern, c = forward[mono]
        mul_accumulate(diagonals[t][i], x, _phase_masks(pattern, width)[c])
    if blocks == 3:
        diagonals = list(zip(*map(_dft, zip(*diagonals))))
    return [[to_rows(_unpack(coord, d, width)) for coord in zip(*block)] for block in diagonals], den


def _sparse_rows(vecs: Sequence[Sequence[int]], d: int) -> list[list[tuple[int, tuple]]]:
    """Rows of sparse (column, numerator pairs) cells, zero cells dropped."""
    cells = list(zip(*vecs))
    return [
        [(col, numerator_pairs(cell)) for col, cell in enumerate(cells[i : i + d]) if any(cell)]
        for i in range(0, d * d, d)
    ]


def _packed_product(ra: list, vb: Sequence[Sequence[int]], d: int, width: int) -> list[list[int]]:
    """The product of sparse rows ra by the flat vectors vb, as d rows of
    8 packed numerator coordinates.

    Each of the 8 numerator coordinates of a row of vb is packed into one
    integer of d signed slots of `width` bits, column c in slot c
    (Kronecker substitution).  mul_accumulate is linear in its second
    operand, so one call per nonzero cell (i, k) of ra adds cell (i, k)
    times all of row k into row i; CPython's big-integer arithmetic does
    the d column products.  The packed sums stay exact; only their
    unpacking (`_unpack` with the same width, after any linear map of the
    rows) needs each slot to fit, as bounded in `_matrix_product`.
    """
    packed = [numerator_pairs(row) for row in zip(*[_pack(v, d, width) for v in vb])]
    rows = []
    for row in ra:
        acc = [0] * 8
        for k, x in row:
            mul_accumulate(acc, x, packed[k])
        rows.append(acc)
    return rows


def _rotate(nums: Sequence[int], e: int) -> list[int]:
    """j^e times 8 raw numerators."""
    return fold_phases(*[nums if k == e % 3 else None for k in range(3)])


def _read_back(n: int, t: int, vecs: Sequence[Sequence[int]]) -> list[tuple]:
    """(monomial, tr(M^dagger P)) on raw numerators for each monomial M of
    block t whose value is nonzero, P given as 8 flat row-major d x d
    vectors of raw numerators.

    The trace takes cell (v - a, v) of each column v times the conjugate
    phase j^-(c + b.v), so it is j^-c F_a[-b], with
    F_a[k] = sum_v j^(k.v) P[v - a, v].  Each coordinate is packed into
    one integer per column, diagonal a in slot a, so m = floor(n/2) `_dft`
    stages, one per column digit, transform every diagonal at once
    (`fold_phases` is linear), and one unpack puts F_a[k] in slot k d + a.

    Slot bound: a coordinate of j^r (x + y j) is x, y, -y, x - y, y - x or
    -x, at most 2 max(|x|, |y|), so every slot holds at most
    2 d max|cell| < 2^(bits + bit_length(2 d)), bits the bit length of
    max|cell|: the slots take `_slot_width` of that.
    """
    plans, _, _, to_cols = _clifford_plan(n)
    d = 3 ** (n // 2)
    top = max(max(map(max, vecs)), -min(map(min, vecs)))
    width = _slot_width(top.bit_length() + (2 * d).bit_length())
    packed = _pack(chain.from_iterable(map(to_cols, vecs)), d, width)
    cols = list(zip(*[packed[s : s + d] for s in range(0, 8 * d, d)]))
    stride = 1
    while stride < d:
        for base in range(d):
            if base // stride % 3 == 0:
                span = slice(base, base + 3 * stride, stride)
                cols[span] = _dft(cols[span])
        stride *= 3
    flat = _unpack([x for coord in zip(*cols) for x in coord], d, width)
    cells = list(zip(*[flat[s : s + d * d] for s in range(0, 8 * d * d, d * d)]))
    return [(mono, _rotate(cells[slot], -c)) for mono, slot, c in plans[t] if any(cells[slot])]


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
        """A kernel result: its monomials are valid by construction, so only
        zero coefficients are dropped."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})
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
        if c.is_zero():
            return CliffElement(self.n)
        return CliffElement(self.n, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "CliffElement") -> "CliffElement":
        """Exact product, through whichever kernel the term counts make cheaper."""
        if not isinstance(other, CliffElement):
            return NotImplemented
        self._require_same_n(other)
        if _matrix_is_cheaper(self.n, len(self.terms), len(other.terms)):
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
