"""Raw integer kernels of both graded algebras, on Z[j] numerators.

A graded product (such as CliffElement.__mul__) sums many coefficient
products per output term; so do a matrix entry, a determinant, the
Hilbert-Schmidt pairing and a polynomial value.  The raw kernels keep
such a sum in integer numerators, so only its final value is built (and
gcd-normalised) as a FieldElem.

The sparse factor form of the kernels is the tuple of nonzero Z[j]
pairs (radical, x, y) of the integer numerators (numerator_pairs), and
every field product is one Z[j] product per pair of pairs
(mul_accumulate): at most 16 for two dense elements, where the 8
coordinates would take 64.  The graded products put all operands over
one shared denominator (`field.common_numerators`).
`field.sum_of_products` keeps each product over its own factors'
denominators and lifts the products once to the lcm of those; with
wide, unrelated operand denominators that is far smaller than one
denominator shared by all operands.

The radix-3 stage `dft` serves both graded algebras: besides the dense
conversions of `_clifford_matrix`, at n = 2, where the monomials are up
to a phase the nonion units, it reads nonion coefficients back
(`matrix.decompose_in_basis`) and builds nonion matrices
(`cubic.qhat_at`).

The module imports nothing from `nonion`; it is private, so its names
carry no underscore, and none of them is part of the public API.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence

# Radical multiplication: RAD[r1][r2] = (integer factor m, coordinate
# index 2r) for radical_r1 * radical_r2 = m * radical_r, with radical
# indices 0:1, 1:sqrt2, 2:sqrt3, 3:sqrt6; coordinates 2r and 2r + 1 hold
# the 1- and j-parts on radical r.
RAD = (
    ((1, 0), (1, 2), (1, 4), (1, 6)),
    ((1, 2), (2, 0), (1, 6), (2, 4)),
    ((1, 4), (1, 6), (3, 0), (3, 2)),
    ((1, 6), (2, 4), (3, 2), (6, 0)),
)


def numerator_pairs(nums: Sequence[int]) -> tuple:
    """The nonzero Z[j] pairs ``(radical, x, y)`` of 8 raw numerators, with
    x and y the numerators of radical and j*radical."""
    n0, n1, n2, n3, n4, n5, n6, n7 = nums
    if not (n2 or n3 or n4 or n5 or n6 or n7):
        return ((0, n0, n1),) if n0 or n1 else ()
    out = [(0, n0, n1)] if n0 or n1 else []
    if n2 or n3:
        out.append((1, n2, n3))
    if n4 or n5:
        out.append((2, n4, n5))
    if n6 or n7:
        out.append((3, n6, n7))
    return tuple(out)


def add_pairs(acc: list[int], pairs: Iterable[tuple[int, int, int]], s: int = 1) -> None:
    """``acc += s * pairs`` on 8 raw numerators."""
    for r, x, y in pairs:
        i = 2 * r
        acc[i] += x * s
        acc[i + 1] += y * s


def mul_accumulate(acc: list[int], a: Iterable[tuple], b: Sequence[tuple]) -> None:
    """``acc += a * b`` on 8 raw numerators; a and b in pair form, as above.

    Each pair of pairs is one Z[j] product,
    (x1 + y1 j)(x2 + y2 j) = (x1 x2 - y1 y2) + (x1 y2 + y1 x2 - y1 y2) j,
    on the product of the two radicals, scaled by its integer factor.
    """
    for r1, x1, y1 in a:
        rad = RAD[r1]
        for r2, x2, y2 in b:
            m, i = rad[r2]
            yy = y1 * y2
            acc[i] += m * (x1 * x2 - yy)
            acc[i + 1] += m * (x1 * y2 + y1 * x2 - yy)


def fold_phases(c0: list[int] | None, c1: list[int] | None, c2: list[int] | None) -> list[int]:
    """``c0 + j c1 + j^2 c2`` on raw numerators, runs of Z[j] pairs of one
    even length (8 for a field element); a missing class is None, and
    with all three missing the sum is 8 zeros.

    Multiplying by j rotates each radical's pair of coordinates:
    j (x + y j) = -y + (x - y) j, and so j^2 (x + y j) = (y - x) - x j.
    """
    given = c0 if c0 is not None else c1 if c1 is not None else c2 if c2 is not None else range(8)
    out = [0] * len(given) if c0 is None else list(c0)
    if c1 is not None:
        for r in range(0, len(out), 2):
            x, y = c1[r], c1[r + 1]
            out[r] -= y
            out[r + 1] += x - y
    if c2 is not None:
        for r in range(0, len(out), 2):
            x, y = c2[r], c2[r + 1]
            out[r] += y - x
            out[r + 1] -= x
    return out


def dft(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """sum_t j^(kt) a_t for k = 0, 1, 2, on three equal runs of Z[j] pairs
    of raw numerators, or of packed integers (8 for a field element).

    So dft(c)[-t % 3] is sum_k j^(-kt) c_k, three times the inverse."""
    a0, a1, a2 = a
    total = [x + y + z for x, y, z in zip(a0, a1, a2)]
    return [total, fold_phases(a0, a1, a2), fold_phases(a0, a2, a1)]


def rotate(nums: Sequence[int], e: int) -> list[int]:
    """j^e times 8 raw numerators."""
    return fold_phases(*[nums if k == e % 3 else None for k in range(3)])


def suffix_sums(a: tuple[int, ...]) -> list[int]:
    """higher[k] = a[k+1] + ... + a[n-1]: the exponents of a above index k."""
    higher = [0] * len(a)
    total = 0
    for k in range(len(a) - 1, 0, -1):
        total += a[k]
        higher[k - 1] = total
    return higher


def normal_order(
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


def grade(mono: Iterable[int]) -> int:
    """Total degree mod 3 of a normal-form monomial."""
    return sum(mono) % 3


def image(mono: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(a, b, c) of the clock-and-shift matrix j^c X^a Z^b of the monomial
    q^mono in the faithful representation of `nonion.clifford` (odd
    lengths padded with 0): the digits of a and b, one per tensor factor,
    and c mod 3.

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


def shape(n: int) -> tuple[int, int]:
    """(blocks, d): the image of the n-generator algebra is `blocks` d x d
    blocks, d = 3^floor(n/2), one block for even n and three for odd n."""
    return 3 if n % 2 else 1, 3 ** (n // 2)
