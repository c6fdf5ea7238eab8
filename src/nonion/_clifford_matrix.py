"""The matrix kernel of the ternary Clifford algebra: dense products.

`clifford.CliffElement.__mul__` imports this module at the first product
its cost model (`clifford._matrix_is_cheaper`) sends here; sparse
products, such as generator words, never load it.

The product multiplies the images of the operands in the faithful
clock-and-shift representation of `nonion.clifford`, block by block
(d = 3^floor(n/2); one block for even n, three for odd n), and reads
each coefficient back as a trace tr(M^dagger P).  Monomial j^c X^a Z^b
fills shift diagonal a with j^(c + b.v) in column v, so both
conversions are finite Fourier transforms over the digits (Schwinger
1960): the same radix-3 stages (`clifford._dft`), on integers packed
with one slot per diagonal, run over the clock digits (and the block,
for odd n) forward and over the column digits back, on the coordinates
of the radicals the operands use only.  Each row of the right image
packs into big integers of d slots (Kronecker substitution), so C-level
dot products with a left row give a whole output row.  Each trace is a
multiple of blocks d, divided out exactly, so integer operands need no
gcd normalisation.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache
from itertools import chain, compress, product, repeat
from operator import floordiv, getitem, itemgetter, mul, neg, sub
from typing import Iterable, Sequence

from .clifford import Terms, _dft, _image, _shape
from .field import _RAD, FieldElem

_ORDER = sys.byteorder


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
