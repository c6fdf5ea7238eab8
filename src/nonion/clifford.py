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
as generator words, take the first; dense ones the second.  Monomial
j^c X^a Z^b fills shift diagonal a with j^(c + b.v) in column v, so both
conversions are finite Fourier transforms over the digits (Schwinger
1960): the same radix-3 stages, on integers packed with one slot per
diagonal, run over the clock digits (and the block, for odd n) forward
and over the column digits back, on the coordinates of the radicals the
operands use only.  Each row of the right image packs into big integers
of d slots (Kronecker substitution), so C-level dot products with a left
row give a whole output row.  Each trace is a multiple of blocks d,
divided out exactly, so integer operands need no gcd normalisation.

The radix-3 stage `_dft` serves both graded algebras: besides the dense
conversions, at n = 2, where the monomials are up to a phase the nonion
units, it reads nonion coefficients back (`matrix.decompose_in_basis`)
and builds nonion matrices (`cubic.qhat_at`).
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache
from itertools import chain, compress, permutations, product, repeat
from operator import floordiv, getitem, itemgetter, mul, neg, sub
from typing import Iterable, Mapping, Sequence

from .field import (
    _RAD,
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


def _getter(items: Sequence[int]) -> itemgetter:
    """An itemgetter of the items that gives a sequence even for one item
    (a one-item slice)."""
    return itemgetter(*items) if len(items) > 1 else itemgetter(slice(items[0], items[0] + 1))


@lru_cache(maxsize=4)
def _clifford_plan(n: int) -> tuple:
    """The monomial and the c of each slot, and the block re-layouts.

    With a and b of the `_image` j^c X^a Z^b indexed by their position in
    product(range(3), repeat=n // 2), odd n dropping the last digits
    (a = t, b = 0) of the image M' (x) X^t, monomial (t, b, a) has slot
    (t d + index of -b) d + index of a, t = 0 for even n.  The getters put
    a block held in the forward map's order, slot w d + a for column -w
    of diagonal a, in row-major order, and a row-major block in the
    readback's order, slot v d + a for column v of diagonal a.
    """
    blocks, d = _shape(n)
    m = n // 2
    digits = list(product(range(3), repeat=m))
    index = {v: i for i, v in enumerate(digits)}
    minus = [index[tuple([-x % 3 for x in v])] for v in digits]
    monos: list = [None] * 3**n
    phases = [0] * 3**n
    for mono in product(range(3), repeat=n):
        a, b, c = _image(mono)
        slot = (mono[-1] % blocks * d + minus[index[b[:m]]]) * d + index[a[:m]]
        monos[slot], phases[slot] = mono, c
    # the row-major position of column v of diagonal a, row v - a
    rows = [[index[tuple([(x - y) % 3 for x, y in zip(v, a)])] for v in digits] for a in digits]
    cells = [row * d + v for shifted in rows for v, row in enumerate(shifted)]
    forward = [cells[i * d + minus[w]] for w in range(d) for i in range(d)]
    to_rows = _getter(sorted(range(d * d), key=forward.__getitem__))
    return monos, phases, to_rows, _getter([cells[i * d + v] for v in range(d) for i in range(d)])


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


def _matrix_product(n: int, a: Terms, b: Terms) -> dict:
    """The product through the faithful clock-and-shift representation.

    Block k of the product is A^_k B^_k (`_to_vectors`, `_packed_product`)
    on the radicals _RAD[r1][r2] of the operands' live radicals, and the
    inverse transform 3 C_t = sum_k j^(-kt) (A^_k B^_k) runs on the packed
    rows.  For odd n the padded product is sum_t C_t (x) X^t, and
    `_read_back` gives monomial M' (x) X^t its coefficient
    tr(M'^dagger C_t) / d as tr(M'^dagger 3 C_t) / (3 d).

    Slot bound: an output coordinate of 3 C_t sums, over the blocks k, the
    d inner indices and the radical pairs landing on its radical (their
    factors add up to at most 12: 1 + 2 + 3 + 6 on the rational part), a
    Z[j] product times j^(-kt); each coordinate of j^r (x1 + y1 j)(x2 + y2 j)
    is a sum of at most three products x1 x2, x1 y2, y1 x2 or y1 y2, each
    below 2^(bits_a + bits_b) with bits the bit length of the widest
    numerator of each operand's block images.  So every unpacked value has
    |v| < 36 blocks d 2^(bits_a + bits_b) <= 2^(bits_a + bits_b +
    bit_length(36 blocks d)), and the slots take `_slot_width` of that
    exponent: 64 bits while it is at most 63.
    """
    blocks, d = _shape(n)
    live_a, va, da = _to_vectors(n, a)
    live_b, vb, db = _to_vectors(n, b)
    live = sorted({_RAD[r][s][1] // 2 for r in live_a for s in live_b})
    if not live:
        return {}
    bits = sum(max(max(max(v), -min(v)) for k in x for v in k).bit_length() for x in (va, vb))
    width = _slot_width(bits + (36 * blocks * d).bit_length())
    pick = _getter([i for r in live for i in (2 * r, 2 * r + 1)])
    prods = [_packed_product(x, y, d, width, live_a, live_b, pick) for x, y in zip(va, vb)]
    if blocks == 3:
        prods = list(zip(*map(_dft, zip(*prods))))
    images = [[_unpack(coord, d, width) for coord in zip(*prods[-t % 3])] for t in range(blocks)]
    den = da * db
    return {mono: FieldElem(nums, den, den == 1) for mono, nums in _read_back(n, live, images)}


def _to_vectors(n: int, terms: Terms) -> tuple[list[int], list[list[Sequence[int]]], int]:
    """(live, images, den): the radicals on which some coefficient of
    sum c_m M_m has a nonzero coordinate, in order; per block k the image
    A^_k as flat row-major d x d vectors of raw numerators, x and y of
    each live radical in turn; and their one shared denominator.

    Column v of shift diagonal a of A_t is sum_b j^(c + b.v) x over the
    monomials j^c X^a Z^b of block t: an inverse Fourier transform over
    the clock digits b.  So each live coordinate, each Z[j] pair rotated
    by j^c, goes in `_clifford_plan` slot order to `_transform`, whose
    stages on the digits of b put column -w of each diagonal at index w,
    and for odd n one more on t gives A^_k = sum_t j^(kt) A_t.

    Slot bound: each of the 3^n / d monomials on a diagonal (of all blocks
    t) adds j^p x to every slot of A^_k, and a coordinate of j^p x is
    x, y, -y, x - y, y - x or -x of a Z[j] pair of x, so every unpacked
    slot holds |cell| <= 2 (3^n / d) max|x| < 2^(bits + bit_length(2 3^n
    / d - 1)) with bits the bit length of max|x|: the slots take
    `_slot_width` of this.
    """
    blocks, d = _shape(n)
    monos, phases, to_rows, _ = _clifford_plan(n)
    den = math.lcm(*[x.den for x in terms.values()])
    coords = list(zip(*[
        (0,) * 8 if x is None else x.nums if x.den == den else [v * (den // x.den) for v in x.nums]
        for x in map(terms.get, monos)
    ]))
    live = [r for r in range(4) if any(coords[2 * r]) or any(coords[2 * r + 1])]
    top = max((max(max(v), -min(v)) for r in live for v in coords[2 * r : 2 * r + 2]), default=0)
    width = _slot_width(top.bit_length() + (2 * 3**n // d - 1).bit_length())
    values: list[int] = []
    for r in live:
        x, y = coords[2 * r], coords[2 * r + 1]
        # j (x + y j) = -y + (x - y) j and j^2 (x + y j) = (y - x) - x j
        values += map(getitem, zip(x, map(neg, y), map(sub, y, x)), phases)
        values += map(getitem, zip(y, map(sub, x, y), map(neg, x)), phases)
    flat = _transform(values, n, width, blocks * d)
    starts = range(0, len(flat), d * d)
    images = [[to_rows(flat[s : s + d * d]) for s in starts[k::blocks]] for k in range(blocks)]
    return live, images, den


def _packed_product(
    va: Sequence[Sequence[int]], vb: Sequence[Sequence[int]], d: int, width: int,
    live_a: Sequence[int], live_b: Sequence[int], pick: itemgetter,
) -> list[tuple[int, ...]]:
    """The product of two d x d blocks, flat row-major vectors of the
    coordinates of the radicals live_a and live_b, as d rows of the packed
    coordinates `pick` takes out of 8.

    Each coordinate of a row of vb packs into one integer of d signed
    slots of `width` bits, column c in slot c (Kronecker substitution), so
    a coordinate of row i of va dotted with the packed rows of vb is packed
    row i of their product.  Per pair of live radicals, four C-level dot
    products `sum(map(mul, ...))` of x1, y1 with x2, y2 add (x1 + y1 j)
    (x2 + y2 j) = (x1 x2 - y1 y2) + (x1 y2 + y1 x2 - y1 y2) j, times m, to
    the row on coordinate c, (m, c) = _RAD[r1][r2].  Only the unpacking
    needs each slot to fit, as bounded in `_matrix_product`.
    """
    packed = _pack(chain.from_iterable(vb), d, width)
    right = [packed[s : s + d] for s in range(0, len(packed), d)]
    pairs = [
        (*_RAD[r][s], 2 * p, 2 * q) for p, r in enumerate(live_a) for q, s in enumerate(live_b)
    ]
    rows = []
    for i in range(0, d * d, d):
        left = [v[i : i + d] for v in va]
        acc = [0] * 8
        for m, c, ka, kb in pairs:
            x1, y1, x2, y2 = left[ka], left[ka + 1], right[kb], right[kb + 1]
            yy = sum(map(mul, y1, y2))
            acc[c] += m * (sum(map(mul, x1, x2)) - yy)
            acc[c + 1] += m * (sum(map(mul, x1, y2)) + sum(map(mul, y1, x2)) - yy)
        rows.append(pick(acc))
    return rows


def _rotate(nums: Sequence[int], e: int) -> list[int]:
    """j^e times 8 raw numerators."""
    return fold_phases(*[nums if k == e % 3 else None for k in range(3)])


def _transform(values: Iterable[int], n: int, width: int, span: int) -> Sequence[int]:
    """The radix-3 stages of both conversions, on one run of 3^n values per
    coordinate, in Z[j] pairs, returned in the same layout.

    Each d values pack into one integer of d slots of `width` bits, and
    `_dft` runs, on all coordinates at once, on each base-3 digit below
    span of the integers' index in their run: the column digits for span
    d, and the block too for span blocks d.  Packing is linear and so are
    the stages (`fold_phases`), and the packed integers stay exact at any
    size, so only the values of the one unpack need to fit the slots.
    """
    blocks, d = _shape(n)
    run = blocks * d
    packed = _pack(values, d, width)
    cols = list(zip(*[packed[s : s + run] for s in range(0, len(packed), run)]))
    stride = 1
    while stride < span:
        for base in range(len(cols)):
            if base // stride % 3 == 0:
                part = slice(base, base + 3 * stride, stride)
                cols[part] = _dft(cols[part])
        stride *= 3
    return _unpack(chain.from_iterable(zip(*cols)), d, width)


def _read_back(n: int, live: Sequence[int], images: Sequence[Sequence]) -> list[tuple]:
    """(monomial, tr(M^dagger P_t) / (blocks d) as 8 raw numerators) for
    each nonzero value, M of block t, P_t given as flat row-major d x d
    vectors of raw numerators, x and y of each live radical in turn: exact
    for a product over da db, whose coefficients have integer numerators.

    The trace takes cell (v - a, v) of each column v times the conjugate
    phase j^-(c + b.v), so it is j^-c F_a[-b], with
    F_a[k] = sum_v j^(k.v) P_t[v - a, v]: `_transform`, on each diagonal
    in slot order over the column digits, puts F_a[-b] at the monomial's
    `_clifford_plan` slot, and each coordinate is rotated by j^-c there.

    Slot bound: a coordinate of j^r (x + y j) is x, y, -y, x - y, y - x or
    -x, at most 2 max(|x|, |y|), so every slot holds at most
    2 d max|cell| < 2^(bits + bit_length(2 d)), bits the bit length of
    max|cell|: the slots take `_slot_width` of that.
    """
    monos, phases, _, to_cols = _clifford_plan(n)
    blocks, d = _shape(n)
    top = max(max(max(v), -min(v)) for block in images for v in block)
    width = _slot_width(top.bit_length() + (2 * d).bit_length())
    flat = _transform(chain.from_iterable(map(to_cols, chain(*zip(*images)))), n, width, d)
    flat = list(map(floordiv, flat, repeat(blocks * d)))
    size = 3**n
    coords: list = [(0,) * size] * 8
    for k, r in enumerate(live):
        x, y = (flat[i * size : (i + 1) * size] for i in (2 * k, 2 * k + 1))
        # j^-1 (x + y j) = (y - x) - x j and j^-2 (x + y j) = -y + (x - y) j
        coords[2 * r] = map(getitem, zip(x, map(sub, y, x), map(neg, y)), phases)
        coords[2 * r + 1] = map(getitem, zip(y, map(neg, x), map(sub, x, y)), phases)
    cells = list(zip(*coords))
    return list(compress(zip(monos, cells), map(any, cells)))


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
