"""Exact arithmetic in Q(j, sqrt2, sqrt3).

Elements live in the 8-dimensional Q-vector space with fixed basis

    [1, j, sqrt2, j*sqrt2, sqrt3, j*sqrt3, sqrt6, j*sqrt6]

where j is the primitive cube root of unity (j^2 = -1 - j) and the
radicals multiply by sqrt2*sqrt3 = sqrt6, sqrt2^2 = 2, sqrt3^2 = 3,
sqrt6^2 = 6.  This is the smallest field containing every scalar the
library needs: cube-root phases and the radical entries 1/sqrt2,
1/sqrt6, sqrt(2/3) of the diagonal operators.

The field is Q(j) over Q(sqrt2, sqrt3): coordinates 2r and 2r + 1 are
the pair x + y*j on the radical r (1, sqrt2, sqrt3, sqrt6), and every
product, including `FieldElem.__mul__`, is computed one Z[j] pair
product at a time by the raw kernel `mul_accumulate` below.

Internally an element is stored as 8 integer numerators over a single
shared positive denominator, reduced so gcd(n0..n7, den) = 1.  That
form is canonical (it is uniquely determined by the 8 rational
coordinates), so structural equality is field equality; the `coeffs`
property exposes the coordinates as lowest-terms `Fraction`s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Hashable, Iterable, Sequence

__all__ = [
    "FieldElem",
    "ZERO",
    "ONE",
    "J",
    "J2",
    "SQRT2",
    "SQRT3",
    "SQRT6",
    "j_pow",
    "rational",
    "parse_rational",
]

BASIS_NAMES = ("1", "j", "√2", "j√2", "√3", "j√3", "√6", "j√6")

# Radical multiplication: _RAD[r1][r2] = (integer factor m, coordinate
# index 2r) for radical_r1 * radical_r2 = m * radical_r, with radical
# indices 0:1, 1:sqrt2, 2:sqrt3, 3:sqrt6; coordinates 2r and 2r + 1 hold
# the 1- and j-parts on radical r.
_RAD = (
    ((1, 0), (1, 2), (1, 4), (1, 6)),
    ((1, 2), (2, 0), (1, 6), (2, 4)),
    ((1, 4), (1, 6), (3, 0), (3, 2)),
    ((1, 6), (2, 4), (3, 2), (6, 0)),
)
_gcd = math.gcd


class FieldElem:
    """An exact element of Q(j, sqrt2, sqrt3).

    Immutable and hashable; arithmetic never leaves the field and is
    exact.  Use the module constants (ONE, J, SQRT2, ...) and
    :func:`rational` to build values.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: Sequence[int], den: int = 1, _reduced: bool = False):
        if not _reduced:
            if den == 0:
                raise ZeroDivisionError("denominator must be nonzero")
            if den < 0:
                nums = [-n for n in nums]
                den = -den
            g = _gcd(den, *nums)
            if g > 1:
                nums = [n // g for n in nums]
                den //= g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FieldElem is immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_int(cls, n: int) -> "FieldElem":
        return cls((n, 0, 0, 0, 0, 0, 0, 0), 1, _reduced=True)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "FieldElem":
        return cls((f.numerator, 0, 0, 0, 0, 0, 0, 0), f.denominator, _reduced=True)

    @classmethod
    def from_coeffs(cls, coords: Iterable[Fraction | int | str]) -> "FieldElem":
        """Build from 8 rational coordinates in the fixed basis order."""
        fr = [Fraction(c) for c in coords]
        if len(fr) != 8:
            raise ValueError(f"expected 8 coordinates, got {len(fr)}")
        den = math.lcm(*(f.denominator for f in fr))
        return cls([f.numerator * (den // f.denominator) for f in fr], den)

    @classmethod
    def from_json(cls, data) -> "FieldElem":
        if not isinstance(data, (list, tuple)) or len(data) != 8:
            raise ValueError("FieldElem JSON must be a list of 8 'p/q' strings")
        return cls.from_coeffs([parse_rational(s) for s in data])

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The 8 rational coordinates, each in lowest terms."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def to_json(self) -> list[str]:
        """Encode as 8 'p/q' strings ('0/1' for zero coordinates)."""
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def has_zero_j_part(self) -> bool:
        """True when the element lies in the real subfield Q(sqrt2, sqrt3)."""
        return not (self.nums[1] or self.nums[3] or self.nums[5] or self.nums[7])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------
    def __add__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return FieldElem([a + b for a, b in zip(self.nums, other.nums)], da)
        return FieldElem(
            [a * db + b * da for a, b in zip(self.nums, other.nums)], da * db
        )

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return FieldElem([a - b for a, b in zip(self.nums, other.nums)], da)
        return FieldElem(
            [a * db - b * da for a, b in zip(self.nums, other.nums)], da * db
        )

    def __neg__(self) -> "FieldElem":
        return FieldElem(tuple(-n for n in self.nums), self.den, _reduced=True)

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        out = [0, 0, 0, 0, 0, 0, 0, 0]
        mul_accumulate(out, numerator_pairs(self.nums), numerator_pairs(other.nums))
        return FieldElem(out, self.den * other.den)

    def __pow__(self, n: int) -> "FieldElem":
        if n < 0:
            return self.invert() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no squaring after the last bit
                base = base * base
        return result

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self * other.invert()

    # ------------------------------------------------------------------
    # conjugations and inversion
    # ------------------------------------------------------------------
    def conjugate_j(self) -> "FieldElem":
        """Field automorphism j -> j^2; fixes the real subfield."""
        # (x, y) -> (x - y, -y) is its own inverse over Z, so the gcd with
        # the denominator is unchanged and the result is already reduced
        n = self.nums
        return FieldElem(
            (n[0] - n[1], -n[1], n[2] - n[3], -n[3], n[4] - n[5], -n[5], n[6] - n[7], -n[7]),
            self.den,
            _reduced=True,
        )

    def _conj_sqrt3(self) -> "FieldElem":
        # sqrt3 -> -sqrt3 (hence sqrt6 -> -sqrt6)
        n = self.nums
        return FieldElem(
            (n[0], n[1], n[2], n[3], -n[4], -n[5], -n[6], -n[7]), self.den, _reduced=True
        )

    def _conj_sqrt2(self) -> "FieldElem":
        # sqrt2 -> -sqrt2 (hence sqrt6 -> -sqrt6)
        n = self.nums
        return FieldElem(
            (n[0], n[1], -n[2], -n[3], n[4], n[5], -n[6], -n[7]), self.den, _reduced=True
        )

    def invert(self) -> "FieldElem":
        """Multiplicative inverse via conjugation down the field tower.

        A rational element is inverted directly.  Otherwise multiplying
        by the j-conjugate lands in Q(sqrt2, sqrt3); the sqrt3- and
        sqrt2-conjugates then reduce the norm to a rational, which is
        inverted directly.
        """
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        if self.is_rational():
            return FieldElem.from_fraction(Fraction(self.den, self.nums[0]))
        b = self.conjugate_j()
        n1 = self * b
        c = n1._conj_sqrt3()
        n2 = n1 * c
        d = n2._conj_sqrt2()
        n3 = n2 * d
        if not n3.is_rational():  # pragma: no cover - norm is rational by construction
            raise ArithmeticError("field norm failed to reduce to a rational")
        scale = Fraction(n3.den, n3.nums[0])
        return b * c * d * FieldElem.from_fraction(scale)

    # ------------------------------------------------------------------
    # numeric embedding (display only; never used in verification logic)
    # ------------------------------------------------------------------
    def approx_complex(self) -> tuple[float, float]:
        """Approximate as a complex number with j = -1/2 + i*sqrt3/2."""
        n = self.nums
        rad = (1.0, math.sqrt(2), math.sqrt(3), math.sqrt(6))
        re = sum((n[2 * r] - n[2 * r + 1] / 2) * rad[r] for r in range(4))
        im = math.sqrt(3) / 2 * sum(n[2 * r + 1] * rad[r] for r in range(4))
        return (re / self.den, im / self.den)

    # ------------------------------------------------------------------
    # comparisons / hashing / display
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElem)
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for c, name in zip(self.coeffs, BASIS_NAMES):
            if not c:
                continue
            mag = abs(c)
            if name == "1":
                term = str(mag)
            elif mag == 1:
                term = name
            else:
                term = f"{mag}{name}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"FieldElem({self})"


def rational(p: int, q: int = 1) -> FieldElem:
    """The rational number p/q as a field element."""
    return FieldElem.from_fraction(Fraction(p, q))


def parse_rational(text: str) -> Fraction:
    """Parse exact rational text 'p/q' (or a bare integer 'p')."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


# ----------------------------------------------------------------------
# sparse sums and raw numerator kernels
#
# sum_terms adds coefficients key by key for the sparse element types.
# A graded product (such as CliffElement.__mul__) sums many coefficient
# products per output term; so do a matrix entry, a determinant, the
# Hilbert-Schmidt pairing and a polynomial value.  The raw kernels keep
# such a sum in integer numerators, so only its final value is built (and
# gcd-normalised) as a FieldElem.
#
# The sparse factor form of the kernels is the tuple of nonzero Z[j]
# pairs (radical, x, y) of the integer numerators (numerator_pairs), and
# every field product is one Z[j] product per pair of pairs
# (mul_accumulate): at most 16 for two dense elements, where the 8
# coordinates would take 64.  The graded
# products put all operands over one shared denominator
# (common_numerators).  sum_of_products keeps each product over its own
# factors' denominators and lifts the products once to the lcm of those;
# with wide, unrelated operand denominators that is far smaller than one
# denominator shared by all operands.  None of these helpers is part of
# the public API.
# ----------------------------------------------------------------------

def sum_terms(pairs: Iterable[tuple[Hashable, FieldElem]]) -> dict:
    """Sum the coefficients of equal keys; sums that cancel stay as zeros,
    which the sparse constructors (MPoly, CliffElement) drop."""
    out: dict = {}
    for key, c in pairs:
        cur = out.get(key)
        out[key] = c if cur is None else cur + c
    return out


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


def common_numerators(elems: Collection[FieldElem]) -> tuple[list[tuple], int]:
    """Put elements over one shared denominator as sparse numerators.

    Returns ``(sparse, den)`` where ``sparse[t]`` is the tuple of nonzero
    Z[j] pairs ``(radical, x, y)`` of ``elems[t] * den``.
    """
    den = math.lcm(*[e.den for e in elems])
    sparse = []
    for e in elems:
        s = den // e.den
        sparse.append(numerator_pairs([n * s for n in e.nums]))
    return sparse, den


def mul_accumulate(acc: list[int], a: Iterable[tuple], b: Sequence[tuple]) -> None:
    """``acc += a * b`` on 8 raw numerators; a and b in pair form, as above.

    Each pair of pairs is one Z[j] product,
    (x1 + y1 j)(x2 + y2 j) = (x1 x2 - y1 y2) + (x1 y2 + y1 x2 - y1 y2) j,
    on the product of the two radicals, scaled by its integer factor.
    """
    for r1, x1, y1 in a:
        rad = _RAD[r1]
        for r2, x2, y2 in b:
            m, i = rad[r2]
            yy = y1 * y2
            acc[i] += m * (x1 * x2 - yy)
            acc[i + 1] += m * (x1 * y2 + y1 * x2 - yy)


def sparse_numerators(e: FieldElem) -> tuple[tuple, int]:
    """``(sparse, den)`` of one element: its nonzero Z[j] pairs
    ``(radical, x, y)`` over its own denominator, the factor form of
    sum_of_products."""
    return numerator_pairs(e.nums), e.den


def sum_of_products(rows: Iterable[Sequence[tuple[tuple, int]]]) -> FieldElem:
    """Sum over rows of the product of each row's factors, as one FieldElem.

    A factor is ``(sparse, den)`` as from sparse_numerators; a row with a
    zero factor (empty sparse) adds nothing.  Each product stays in raw
    numerators over the product of its factors' denominators; the
    products are lifted once to the lcm of those denominators and summed.
    """
    prods = []
    for row in rows:
        acc, den = row[0]
        for sparse, d in row[1:]:
            if not acc:
                break
            out = [0, 0, 0, 0, 0, 0, 0, 0]
            mul_accumulate(out, acc, sparse)
            acc = numerator_pairs(out)
            den *= d
        if acc:
            prods.append((acc, den))
    if not prods:
        return ZERO
    den = math.lcm(*[d for _, d in prods])
    out = [0, 0, 0, 0, 0, 0, 0, 0]
    for acc, d in prods:
        add_pairs(out, acc, den // d)
    return FieldElem(out, den)


def fold_phases(c0: list[int] | None, c1: list[int] | None, c2: list[int] | None) -> list[int]:
    """``c0 + j c1 + j^2 c2`` on 8 raw numerators; a missing class is None.

    Multiplying by j rotates each radical's pair of coordinates:
    j (x + y j) = -y + (x - y) j, and so j^2 (x + y j) = (y - x) - x j.
    """
    out = [0] * 8 if c0 is None else list(c0)
    if c1 is not None:
        for r in range(0, 8, 2):
            x, y = c1[r], c1[r + 1]
            out[r] -= y
            out[r + 1] += x - y
    if c2 is not None:
        for r in range(0, 8, 2):
            x, y = c2[r], c2[r + 1]
            out[r] += y - x
            out[r + 1] -= x
    return out


ZERO = FieldElem.from_int(0)
ONE = FieldElem.from_int(1)
J = FieldElem((0, 1, 0, 0, 0, 0, 0, 0), 1, _reduced=True)
J2 = FieldElem((-1, -1, 0, 0, 0, 0, 0, 0), 1, _reduced=True)
SQRT2 = FieldElem((0, 0, 1, 0, 0, 0, 0, 0), 1, _reduced=True)
SQRT3 = FieldElem((0, 0, 0, 0, 1, 0, 0, 0), 1, _reduced=True)
SQRT6 = FieldElem((0, 0, 0, 0, 0, 0, 1, 0), 1, _reduced=True)

_J_POWERS = (ONE, J, J2)


def j_pow(k: int) -> FieldElem:
    """j**k for any integer k (period 3)."""
    return _J_POWERS[k % 3]
