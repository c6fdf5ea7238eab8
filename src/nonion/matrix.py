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

from .clifford import _dft, _rotate
from .field import ZERO, ONE, J, J2, FieldElem, numerator_pairs, sum_of_products

__all__ = [
    "Mat3",
    "SingularGramError",
    "hs_inner",
    "decompose_in_basis",
]


class SingularGramError(Exception):
    """A basis element has vanishing self inner product."""


class Mat3:
    """Immutable 3x3 matrix of FieldElem, row-major.

    The hash is computed on first use and kept: `decompose_in_basis` looks
    its basis up by hash on every call.
    """

    __slots__ = ("entries", "_hash")

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
        try:
            return self._hash
        except AttributeError:
            h = hash(self.entries)
            object.__setattr__(self, "_hash", h)
            return h

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
    exactly.  Raises SingularGramError on a zero gram entry.

    Each coefficient is tr(b^dagger m) divided by its gram value.  When
    the basis is the nine clock-and-shift matrices j^e X^a Z^k, one per
    (a, k), as the nonion basis is, the pairing with j^e X^a Z^k is
    j^-e F_a[-k], F_a the finite Fourier transform `clifford._dft` of
    shift diagonal a of m lifted to the lcm of its denominators: one
    radix-3 stage per diagonal.  Any other basis (TU3) pairs with
    `hs_inner`.
    """
    if any(g.is_zero() for g in gram):
        raise SingularGramError("basis has a zero-norm element")
    basis = tuple(basis)
    plan = _projection_plan(basis)
    if plan is None:
        return tuple(hs_inner(b, m) / g for b, g in zip(basis, gram))
    den = math.lcm(*[x.den for x in m.entries])
    cells = [[n * (den // x.den) for n in x.nums] for x in m.entries]
    out: list = [None] * 9
    for positions, units in plan:
        for (i, e), nums in zip(units, _dft([cells[p] for p in positions])):
            out[i] = FieldElem(_rotate(nums, -e), den) / gram[i]
    return tuple(out)


def _compose(plan: tuple, coeffs: Sequence[FieldElem]) -> list[FieldElem]:
    """The nine cells, row-major, of sum_i coeffs[i] b_i over the basis of
    a `_projection_plan`: per shift diagonal, cell (v - a, v) is
    sum_k j^(k v) j^e c with c the coefficient of j^e X^a Z^k, so the
    three coefficients, lifted to the lcm of their denominators and
    rotated by their phases, take one `_dft`."""
    cells: list = [None] * 9
    for positions, units in plan:
        den = math.lcm(*[coeffs[i].den for i, _ in units])
        lifted = [_rotate([x * (den // coeffs[i].den) for x in coeffs[i].nums], e) for i, e in units]
        # units come by -k, and _dft(c)[-v] is sum_k j^(-kv) c_k
        for k, nums in enumerate(_dft(lifted)):
            cells[positions[-k % 3]] = FieldElem(nums, den)
    return cells


_PHASES = {ONE: 0, J: 1, J2: 2}


@lru_cache(maxsize=8)
def _projection_plan(basis: tuple[Mat3, ...]) -> tuple | None:
    """Per shift diagonal a, the row-major positions of its cells
    (v - a, v) and, per clock k' = -k, the (element index, e) of the
    element j^e X^a Z^k, read off the entries: the (row, j-exponent) of the
    one nonzero entry in each column.  None unless the nine elements are
    exactly the nine j^e X^a Z^k, one per (a, k)."""
    units = {}
    for i, b in enumerate(basis):
        action = []
        for col in range(3):
            cells = [(row, b[row, col]) for row in range(3) if b[row, col]]
            if len(cells) != 1 or cells[0][1] not in _PHASES:
                return None
            action.append((cells[0][0], _PHASES[cells[0][1]]))
        (row, e), (_, e1) = action[:2]
        a, k = -row % 3, (e1 - e) % 3
        if action != [((v - a) % 3, (e + k * v) % 3) for v in range(3)]:
            return None
        units[a, -k % 3] = (i, e)
    if not len(basis) == len(units) == 9:
        return None
    return tuple(
        (tuple((v - a) % 3 * 3 + v for v in range(3)), tuple(units[a, k] for k in range(3)))
        for a in range(3)
    )
