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
product at a time by the raw kernel `_zj.mul_accumulate`.

Internally an element is stored as 8 integer numerators over a single
shared positive denominator, reduced so gcd(n0..n7, den) = 1.  That
form is canonical (it is uniquely determined by the 8 rational
coordinates), so structural equality is field equality.  Exact-rational
text is read straight into these integers (`parse_rational`), and `str`
and `to_json` print each coordinate in lowest terms from them.
"""

from __future__ import annotations

import math
from typing import Collection, Hashable, Iterable, Sequence

from ._zj import add_pairs, mul_accumulate, numerator_pairs

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

_BASIS_NAMES = ("1", "j", "√2", "j√2", "√3", "j√3", "√6", "j√6")

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

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_int(cls, n: int) -> "FieldElem":
        return cls((n, 0, 0, 0, 0, 0, 0, 0), 1, _reduced=True)

    @classmethod
    def from_json(cls, data) -> "FieldElem":
        if not isinstance(data, (list, tuple)) or len(data) != 8:
            raise ValueError("FieldElem JSON must be a list of 8 'p/q' strings")
        ratios = [_ratio(s) for s in data]
        den = math.lcm(*[q for _, q in ratios])
        return cls([p * (den // q) for p, q in ratios], den)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def _lowest_terms(self) -> list[tuple[int, int]]:
        """Each coordinate as (p, q) in lowest terms, q > 0; zero is (0, 1)."""
        d = self.den
        return [(n // g, d // g) for n in self.nums for g in (_gcd(n, d),)]

    def to_json(self) -> list[str]:
        """Encode as 8 'p/q' strings ('0/1' for zero coordinates)."""
        return [f"{p}/{q}" for p, q in self._lowest_terms()]

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def has_zero_j_part(self) -> bool:
        """True when the element lies in the real subfield Q(sqrt2, sqrt3)."""
        return not (self.nums[1] or self.nums[3] or self.nums[5] or self.nums[7])

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
            return rational(self.den, self.nums[0])
        b = self.conjugate_j()
        n1 = self * b
        c = n1._conj_sqrt3()
        n2 = n1 * c
        d = n2._conj_sqrt2()
        n3 = n2 * d
        return b * c * d * rational(n3.den, n3.nums[0])

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
        for (p, q), name in zip(self._lowest_terms(), _BASIS_NAMES):
            if not p:
                continue
            mag = str(abs(p)) if q == 1 else f"{abs(p)}/{q}"
            term = mag if name == "1" else name if mag == "1" else mag + name
            if not parts:
                parts.append(term if p > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if p > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"FieldElem({self})"


def rational(p: int, q: int = 1) -> FieldElem:
    """The rational number p/q as a field element."""
    if q < 0:
        p, q = -p, -q
    elif not q:
        raise ZeroDivisionError(f"rational({p}, 0)")
    g = _gcd(p, q)
    return FieldElem((p // g, 0, 0, 0, 0, 0, 0, 0), q // g, _reduced=True)


def parse_rational(text: str) -> FieldElem:
    """Exact rational text as a rational field element.

    The one coefficient grammar: optional surrounding whitespace, an
    optional "-", ASCII digits, then optionally "/" and ASCII digits with
    a nonzero value.  Anything else ("0.5", "1e3", "1_000", "+2/4", "1/0",
    non-ASCII digits, a JSON number) raises ValueError.
    """
    return rational(*_ratio(text))


def _ratio(text: str) -> tuple[int, int]:
    """The integers (p, q) of text in `parse_rational`'s grammar, q > 0."""
    if isinstance(text, str):
        num, slash, den = text.strip().partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit() and (
            not slash or den.isascii() and den.isdigit() and den.strip("0")
        ):
            return int(num), int(den) if slash else 1
    raise ValueError(f"not an exact rational: {text!r}")


# ----------------------------------------------------------------------
# sparse sums and the FieldElem boundary of the raw kernels (`_zj`)
# ----------------------------------------------------------------------

def sum_terms(pairs: Iterable[tuple[Hashable, FieldElem]]) -> dict:
    """Sum the coefficients of equal keys; sums that cancel stay as zeros,
    which the sparse constructors (MPoly, CliffElement) drop."""
    out: dict = {}
    for key, c in pairs:
        cur = out.get(key)
        out[key] = c if cur is None else cur + c
    return out


def common_numerators(elems: Collection[FieldElem]) -> tuple[list[tuple], int]:
    """Put elements over one shared denominator as sparse numerators.

    Returns ``(sparse, den)`` where ``sparse[t]`` is the tuple of nonzero
    Z[j] pairs ``(radical, x, y)`` of ``elems[t] * den``.
    """
    den = math.lcm(*[e.den for e in elems])
    return [
        numerator_pairs(e.nums if e.den == den else [n * (den // e.den) for n in e.nums])
        for e in elems
    ], den


def sum_of_products(rows: Iterable[Sequence[tuple[tuple, int]]]) -> FieldElem:
    """Sum over rows of the product of each row's factors, as one FieldElem.

    A factor is ``(sparse, den)``, an element's numerator_pairs over its
    own denominator; a row with a zero factor (empty sparse) adds
    nothing.  Each product stays in raw numerators over the product of
    its factors' denominators; the products are lifted once to the lcm of
    those denominators and summed.
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
