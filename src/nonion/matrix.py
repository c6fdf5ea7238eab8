"""Exact dense 3x3 matrices over the scalar field.

Carries the unit bases, the diagonal/step operators and the rotation
matrices; provides the determinant, the Hermitian (Hilbert-Schmidt)
pairing and orthogonal-projection decomposition used to extract
structure constants.

The product, the determinant and the pairing are sums of products of
entries.  Each goes through the raw kernel `field.sum_of_products`: the
entries are put in sparse numerator form once per call, products with a
zero entry are skipped, and each output value is built (and
gcd-normalised) once, not after every partial product and sum.

The dagger uses only the j-conjugation: the radicals sqrt2, sqrt3,
sqrt6 are real numbers and are left untouched.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

from .clifford import _dft, _image, _rotate
from .field import ZERO, ONE, FieldElem, j_pow, numerator_pairs, sum_of_products

__all__ = [
    "Mat3",
    "SingularGramError",
    "hs_inner",
    "decompose_in_basis",
]


class SingularGramError(Exception):
    """A basis element has vanishing self inner product."""


class Mat3:
    """Immutable 3x3 matrix of FieldElem, row-major."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[FieldElem]):
        if len(entries) != 9:
            raise ValueError("Mat3 needs 9 entries")
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Mat3 is immutable")

    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[FieldElem]]) -> "Mat3":
        return cls([e for row in rows for e in row])

    @classmethod
    def zero(cls) -> "Mat3":
        return _ZERO3

    @classmethod
    def identity(cls) -> "Mat3":
        return _ID3

    @classmethod
    def diag(cls, a: FieldElem, b: FieldElem, c: FieldElem) -> "Mat3":
        return cls([a, ZERO, ZERO, ZERO, b, ZERO, ZERO, ZERO, c])

    @classmethod
    def scalar(cls, c: FieldElem) -> "Mat3":
        return cls.diag(c, c, c)

    def __getitem__(self, ij: tuple[int, int]) -> FieldElem:
        i, j = ij
        return self.entries[3 * i + j]

    # ------------------------------------------------------------------
    def __add__(self, other: "Mat3") -> "Mat3":
        return Mat3([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat3") -> "Mat3":
        return Mat3([a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Mat3":
        return Mat3([-a for a in self.entries])

    def scale(self, c: FieldElem) -> "Mat3":
        return Mat3([c * a for a in self.entries])

    def __mul__(self, other: "Mat3") -> "Mat3":
        if not isinstance(other, Mat3):
            return NotImplemented
        a = [(numerator_pairs(x.nums), x.den) for x in self.entries]
        b = [(numerator_pairs(y.nums), y.den) for y in other.entries]
        return Mat3([
            sum_of_products(((a[i], b[j]), (a[i + 1], b[3 + j]), (a[i + 2], b[6 + j])))
            for i in (0, 3, 6)
            for j in (0, 1, 2)
        ])

    def __pow__(self, n: int) -> "Mat3":
        if n < 0:
            raise ValueError(f"Mat3 power needs an exponent >= 0, got {n}")
        result = _ID3
        for _ in range(n):
            result = result * self
        return result

    # ------------------------------------------------------------------
    def transpose(self) -> "Mat3":
        e = self.entries
        return Mat3([e[0], e[3], e[6], e[1], e[4], e[7], e[2], e[5], e[8]])

    def conjugate_j(self) -> "Mat3":
        return Mat3([a.conjugate_j() for a in self.entries])

    def dagger(self) -> "Mat3":
        """Conjugate transpose, conjugating only j (radicals are real)."""
        return self.transpose().conjugate_j()

    def trace(self) -> FieldElem:
        e = self.entries
        return e[0] + e[4] + e[8]

    def det(self) -> FieldElem:
        """Exact determinant by cofactor expansion along the first row."""
        entries = self.entries
        e = [(numerator_pairs(x.nums), x.den) for x in entries]
        n1, n4, n5 = ((numerator_pairs((-entries[k]).nums), entries[k].den) for k in (1, 4, 5))
        minors = (
            sum_of_products(((e[4], e[8]), (n5, e[7]))),
            sum_of_products(((e[3], e[8]), (n5, e[6]))),
            sum_of_products(((e[3], e[7]), (n4, e[6]))),
        )
        return sum_of_products(
            (f, (numerator_pairs(m.nums), m.den)) for f, m in zip((e[0], n1, e[2]), minors)
        )

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.entries)

    def commutes_with(self, other: "Mat3") -> bool:
        return self * other == other * self

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Mat3) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        rows = []
        for i in range(3):
            rows.append("[" + ", ".join(str(self[i, j]) for j in range(3)) + "]")
        return "[" + "; ".join(rows) + "]"

    def __repr__(self) -> str:
        return f"Mat3({self})"

    def to_json(self) -> list[list[list[str]]]:
        return [[self[i, j].to_json() for j in range(3)] for i in range(3)]

    @classmethod
    def from_json(cls, data) -> "Mat3":
        if not isinstance(data, (list, tuple)) or len(data) != 3:
            raise ValueError("Mat3 JSON must be a 3x3 nested array")
        return cls([FieldElem.from_json(c) for row in data for c in row])


_ZERO3 = Mat3([ZERO] * 9)
_ID3 = Mat3([ONE, ZERO, ZERO, ZERO, ONE, ZERO, ZERO, ZERO, ONE])


def hs_inner(a: Mat3, b: Mat3) -> FieldElem:
    """Hilbert-Schmidt pairing tr(a^dagger * b), exact."""
    return sum_of_products(
        ((numerator_pairs(x.conjugate_j().nums), x.den), (numerator_pairs(y.nums), y.den))
        for x, y in zip(a.entries, b.entries)
        if x and y
    )


def decompose_in_basis(
    m: Mat3, basis: Sequence[Mat3], gram: Sequence[FieldElem]
) -> tuple[FieldElem, ...]:
    """Coefficients of m in an hs-orthogonal basis, by projection.

    The basis must be hs-orthogonal with nine elements, as both bases in
    `nonion.bases` are; it then spans M3 and the coefficients rebuild m
    exactly.  Raises ValueError unless the basis and the grams have nine
    entries each, and SingularGramError on a zero gram entry.

    Each coefficient is tr(b^dagger m) divided by its gram value.  For the
    nonion basis (`_nonion_units`, or an equal copy of it) the pairing
    with q_c = j^e X^a Z^k is j^-e F_a[-k], F_a the finite Fourier
    transform `clifford._dft` of shift diagonal a of m lifted to the lcm
    of its denominators: one radix-3 stage per diagonal.  Any other basis
    (TU3) pairs with `hs_inner`.
    """
    basis = tuple(basis)
    if len(basis) != 9 or len(gram) != 9:
        raise ValueError(f"need 9 basis elements and 9 grams, got {len(basis)} and {len(gram)}")
    if any(g.is_zero() for g in gram):
        raise SingularGramError("basis has a zero-norm element")
    elements, plan = _nonion_units()
    if basis != elements:
        return tuple(hs_inner(b, m) / g for b, g in zip(basis, gram))
    den = math.lcm(*[x.den for x in m.entries])
    cells = [[n * (den // x.den) for n in x.nums] for x in m.entries]
    out: list = [None] * 9
    for positions, units in plan:
        for (i, e), nums in zip(units, _dft([cells[p] for p in positions])):
            out[i] = FieldElem(_rotate(nums, -e), den) / gram[i]
    return tuple(out)


def _compose(coeffs: Sequence[FieldElem]) -> list[FieldElem]:
    """The nine cells, row-major, of sum_i coeffs[i] q_i over the nonion
    units (`_nonion_units`): per shift diagonal, cell (v - a, v) is
    sum_k j^(k v) j^e c with c the coefficient of j^e X^a Z^k, so the
    three coefficients, lifted to the lcm of their denominators and
    rotated by their phases, take one `_dft`."""
    cells: list = [None] * 9
    for positions, units in _nonion_units()[1]:
        den = math.lcm(*[coeffs[i].den for i, _ in units])
        lifted = [_rotate([x * (den // coeffs[i].den) for x in coeffs[i].nums], e) for i, e in units]
        # units come by -k, and _dft(c)[-v] is sum_k j^(-kv) c_k
        for k, nums in enumerate(_dft(lifted)):
            cells[positions[-k % 3]] = FieldElem(nums, den)
    return cells


# q1^a q2^b = j^s q_c, keyed (a, b) -> (s, c).  The nonions are the
# ternary Clifford algebra on two generators (Sylvester's nonions; Morris
# 1967), so clifford._normal_order and this table give every product.
LABELS = {
    (0, 0): (0, 0), (0, 1): (0, 2), (0, 2): (0, 5),
    (1, 0): (0, 1), (1, 1): (2, 6), (1, 2): (1, 8),
    (2, 0): (0, 4), (2, 1): (1, 7), (2, 2): (2, 3),
}


@lru_cache(maxsize=1)
def _nonion_units() -> tuple[tuple[Mat3, ...], tuple]:
    """The nine nonion units q_c = j^-s q1^a q2^b (`LABELS`) and their
    projection plan, in closed form.

    `clifford._image` gives q1^a q2^b = j^e' X^a' Z^k, so q_c = j^e X^a' Z^k
    with e = e' - s: column v holds j^(e + k v) in row v - a'.  The plan
    holds, per shift diagonal a', the row-major positions of its cells
    (v - a', v) and, per clock -k, the (c, e) of its unit.
    """
    entries = [[ZERO] * 9 for _ in range(9)]
    units = {}
    for word, (s, c) in LABELS.items():
        (a,), (k,), e = _image(word)
        e = (e - s) % 3
        for v in range(3):
            entries[c][(v - a) % 3 * 3 + v] = j_pow(e + k * v)
        units[a, -k % 3] = (c, e)
    plan = tuple(
        (tuple((v - a) % 3 * 3 + v for v in range(3)), tuple(units[a, k] for k in range(3)))
        for a in range(3)
    )
    return tuple(map(Mat3, entries)), plan
