"""The two concrete operator families and the conjugation maps.

* The nonion basis: nine 3x3 unit matrices q0..q8 (clock/shift family)
  that pairwise commute up to a power of j and cube to the identity.
  Each is a phase times a word q1^a q2^b in the two generators, q1 the
  cyclic shift and q2 = q1 diag(j^2, 1, j); `LABELS` names the words,
  and the Clifford normal ordering gives the product table.
* The real step/diagonal basis ("TU3"): six elementary step matrices
  Q1..Q6 plus the radical-normalised diagonals Q7, Q8 and
  Q0 = identity/sqrt3, orthonormal under the Hilbert-Schmidt pairing.
* The index-cycling conjugation (a homomorphism) and the phase-twist
  table used to build the twisted copies of a coordinate element.

Several printed phase conventions for the prefactored units disagree;
this module fixes the pure-matrix convention above and exposes a
claimed-phase table so the deviations can be reported instead of
silently reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .clifford import _normal_order, _suffix_sums, grade
from .field import J, J2, ONE, SQRT2, SQRT3, ZERO, FieldElem, j_pow, rational
from .matrix import Mat3, decompose_in_basis

__all__ = [
    "NonionBasis",
    "TU3Basis",
    "nonion_basis",
    "tu3_basis",
    "cyclic_relabel",
    "pair_phase_matrix",
    "tilde_composite",
    "tilde_fixture_check",
]

# Phase twist exponents: 1 at index 0; j at 7,1,2,3; j^2 at 8,4,5,6.
# The k-th twisted copy scales component a by j^(k * TWIST_EXPONENTS[a]).
# Applying the twist three times is the identity; it is a data table,
# not an algebra automorphism (the phases fail multiplicativity, e.g. on
# the pair (7, 1)).
TWIST_EXPONENTS = (0, 1, 1, 1, 2, 2, 2, 1, 2)

# Claimed tilde phase per basis element (index -> j-exponent), as printed
# alongside the twisted displays.  The composite relabel+twist operation
# reproduces only some of these on the pure matrices; see
# tilde_fixture_check.
CLAIMED_TILDE_EXPONENTS = (0, 1, 1, 1, 2, 2, 2, 1, 2)


@dataclass(frozen=True)
class NonionBasis:
    """The nine unit matrices with their grading and product table."""

    elements: tuple[Mat3, ...]
    grade: tuple[int, ...]  # index -> 0|1|2
    # product_table[a][b] = (s, c) with q_a*q_b = j^s * q_c
    product_table: tuple[tuple[tuple[int, int], ...], ...]
    grams: tuple[FieldElem, ...] = field(default=(), repr=False)
    name: str = "nonion"


@dataclass(frozen=True)
class TU3Basis:
    """Step operators Q1..Q6 and diagonals Q7, Q8, Q0 (orthonormal)."""

    elements: tuple[Mat3, ...]
    grams: tuple[FieldElem, ...] = field(default=(), repr=False)
    name: str = "tu3"


# q1^a q2^b = j^s q_c, keyed (a, b) -> (s, c).  The nonions are the
# ternary Clifford algebra on two generators (Sylvester's nonions; Morris
# 1967), so clifford._normal_order and this table give every product.
LABELS = {
    (0, 0): (0, 0), (0, 1): (0, 2), (0, 2): (0, 5),
    (1, 0): (0, 1), (1, 1): (2, 6), (1, 2): (1, 8),
    (2, 0): (0, 4), (2, 1): (1, 7), (2, 2): (2, 3),
}


@lru_cache(maxsize=1)
def nonion_basis() -> NonionBasis:
    """q_c = j^-s q1^a q2^b with q1 the cyclic shift, q2 = q1 diag(j^2, 1, j)."""
    words = sorted((c, ab, s) for ab, (s, c) in LABELS.items())
    q1 = Mat3.from_rows([[ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ONE, ZERO, ZERO]])
    q2 = q1 * Mat3.diag(J2, ONE, J)
    elements = tuple((q1 ** a * q2 ** b).scale(j_pow(-s)) for _, (a, b), s in words)

    # q_a q_b = j^(e - s_a - s_b) (word_a word_b) with word_a word_b = j^s q_c.
    table = []
    for _, wa, sa in words:
        higher = _suffix_sums(wa)
        row = []
        for _, wb, sb in words:
            mono, e = _normal_order(higher, wa, wb)
            s, c = LABELS[mono]
            row.append(((e + s - sa - sb) % 3, c))
        table.append(tuple(row))

    grades = tuple(grade(ab) for _, ab, _ in words)
    return NonionBasis(elements, grades, tuple(table), grams=(rational(3),) * 9)


@lru_cache(maxsize=1)
def tu3_basis() -> TU3Basis:
    """The orthonormal step/diagonal basis."""
    inv_sqrt2 = SQRT2 / rational(2)
    inv_sqrt3 = SQRT3 / rational(3)
    inv_sqrt6 = SQRT2 * SQRT3 / rational(6)
    sqrt_2_3 = SQRT2 * SQRT3 / rational(3)  # sqrt(2/3) = sqrt6/3

    def step(i: int, j: int) -> Mat3:
        ent = [ZERO] * 9
        ent[3 * i + j] = ONE
        return Mat3(ent)

    elements = (
        Mat3.scalar(inv_sqrt3),
        step(0, 1),
        step(1, 2),
        step(2, 0),
        step(1, 0),
        step(2, 1),
        step(0, 2),
        Mat3.diag(inv_sqrt6, inv_sqrt6, -sqrt_2_3),
        Mat3.diag(inv_sqrt2, -inv_sqrt2, ZERO),
    )
    return TU3Basis(elements, grams=(ONE,) * 9)


def cyclic_relabel(m: Mat3) -> Mat3:
    """Index cycling {1->2, 2->3, 3->1}: out[i][j] = in[i-1][j-1] (mod 3)."""
    return Mat3.from_rows(
        [[m[(i - 1) % 3, (j - 1) % 3] for j in range(3)] for i in range(3)]
    )


def pair_phase_matrix(basis: NonionBasis) -> tuple[tuple[int, ...], ...]:
    """omega(a, b) in {0,1,2} with q_a*q_b = j^omega * q_b*q_a.

    Both products are phases of the same unit, q_a*q_b = j^s(a,b) q_c and
    q_b*q_a = j^s(b,a) q_c, so omega(a, b) = s(a,b) - s(b,a) mod 3.
    """
    t = basis.product_table
    return tuple(
        tuple((t[a][b][0] - t[b][a][0]) % 3 for b in range(9)) for a in range(9)
    )


def tilde_composite(m: Mat3) -> Mat3:
    """Index-cycling followed by the per-component phase twist."""
    basis = nonion_basis()
    coeffs = decompose_in_basis(cyclic_relabel(m), basis.elements, basis.grams)
    out = Mat3.zero()
    for c, e, k in zip(coeffs, basis.elements, TWIST_EXPONENTS):
        if not c.is_zero():
            out = out + e.scale(c * j_pow(k))
    return out


def tilde_fixture_check() -> list[dict]:
    """Compare the composite conjugation against the claimed phases.

    Returns one record per basis index with the claimed j-exponent and
    whether the composite reproduces it on the pure matrices.
    """
    basis = nonion_basis()
    out = []
    for a, claimed in enumerate(CLAIMED_TILDE_EXPONENTS):
        got = tilde_composite(basis.elements[a])
        matches = got == basis.elements[a].scale(j_pow(claimed))
        out.append({"index": a, "claimed_exponent": claimed, "matches": matches})
    return out
