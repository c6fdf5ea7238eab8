"""The coordinate element, its cubic determinant norm, and the twisted
triple product.

Q(x) = sum_a x_a q_a is a 3x3 matrix of linear forms; its determinant
is an exact cubic in x0..x8 (21 distinct monomials, 81 permutation-
weighted terms).  Four factorizations through triples of "ternary
complex" numbers z = a + b*u + c*u^2 (u^3 = 1) reproduce the same
cubic, each built from one of the four parallel-line groupings of the
nine coordinates.  The twisted triple product multiplies Q by its two
phase-twisted copies in the unit-matrix algebra and collects the nine
coordinate polynomials A0..A8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .bases import TWIST_EXPONENTS, nonion_basis
from .field import J, J2, ONE, FieldElem, fold_phases, j_pow, rational
from .matrix import Mat3
from .poly import MPoly, NonionPoly

__all__ = [
    "TermCensus",
    "UnknownVariantError",
    "VARIANT_GROUPS",
    "CYCLE_ALL_GROUPS",
    "CYCLE_FIX_DIAG",
    "qhat_matrix_view",
    "qhat_at",
    "det_poly",
    "variant_poly",
    "triple_product_components",
    "term_census",
    "a0_vs_det",
]


class UnknownVariantError(Exception):
    """Variant selector outside 1..4."""


# The four groupings of x0..x8 into three z-triples (z = a + b*u + c*u^2).
# Groups 3 and 4 carry their printed q/q^2 coefficients swapped; the
# swapped order is the one under which the uniform conjugation rule below
# reproduces both the determinant and the printed expansions.
VARIANT_GROUPS: dict[int, tuple[tuple[int, int, int], ...]] = {
    1: ((0, 7, 8), (1, 2, 3), (4, 5, 6)),
    2: ((0, 1, 4), (7, 2, 6), (8, 5, 3)),
    3: ((0, 2, 5), (7, 3, 4), (8, 6, 1)),
    4: ((0, 3, 6), (7, 1, 5), (8, 4, 2)),
}

# Coordinate cycling that advances all three triples (0,7,8), (1,2,3),
# (4,5,6) together, and the variant fixing the diagonal-group coordinates.
CYCLE_ALL_GROUPS = {0: 7, 7: 8, 8: 0, 1: 2, 2: 3, 3: 1, 4: 5, 5: 6, 6: 4}
CYCLE_FIX_DIAG = {0: 0, 7: 7, 8: 8, 1: 2, 2: 3, 3: 1, 4: 5, 5: 6, 6: 4}


@lru_cache(maxsize=1)
def qhat_matrix_view() -> tuple[MPoly, ...]:
    """sum_a x_a*q_a as a flat 3x3 grid of linear forms, row-major."""
    basis = nonion_basis()
    grid = [MPoly.zero()] * 9
    for a in range(9):
        xa = MPoly.var(a)
        for idx, entry in enumerate(basis.elements[a].entries):
            if not entry.is_zero():
                grid[idx] = grid[idx] + xa.scale(entry)
    return tuple(grid)


@lru_cache(maxsize=1)
def _qhat_cells() -> tuple[tuple[tuple[int, int], ...], ...]:
    """(a, k) for each term j^k x_a of each cell of qhat_matrix_view()."""
    phases = (ONE, J, J2)
    return tuple(
        tuple((exp.index(1), phases.index(c)) for exp, c in g.items())
        for g in qhat_matrix_view()
    )


def qhat_at(coords: Sequence[FieldElem]) -> Mat3:
    """Numeric coordinate matrix sum_a coords[a]*q_a.

    Each cell is a sum of coordinates times cube-root phases: the
    coordinates are lifted to the lcm of their denominators and the
    phases folded in raw numerators, one FieldElem per cell.
    """
    if len(coords) != 9:
        raise ValueError(f"qhat_at needs 9 values, got {len(coords)}")
    cells = []
    for cell in _qhat_cells():
        den = math.lcm(*[coords[a].den for a, _ in cell])
        classes: list = [None, None, None]
        for a, k in cell:
            x = coords[a]
            s = den // x.den
            nums = [n * s for n in x.nums]
            c = classes[k]
            classes[k] = nums if c is None else [p + q for p, q in zip(c, nums)]
        cells.append(FieldElem(fold_phases(*classes), den))
    return Mat3(cells)


@lru_cache(maxsize=1)
def det_poly() -> MPoly:
    """Symbolic cofactor determinant of the coordinate matrix, exact."""
    g = qhat_matrix_view()
    return (
        g[0] * (g[4] * g[8] - g[5] * g[7])
        - g[1] * (g[3] * g[8] - g[5] * g[6])
        + g[2] * (g[3] * g[7] - g[4] * g[6])
    )


def _cube_group(a: int, b: int, c: int) -> MPoly:
    # |z|^3 for z = x_a + x_b u + x_c u^2:  a^3 + b^3 + c^3 - 3abc.
    xa, xb, xc = MPoly.var(a), MPoly.var(b), MPoly.var(c)
    cubes = xa * xa * xa + xb * xb * xb + xc * xc * xc
    return cubes - (xa * xb * xc).scale(rational(3))


def variant_poly(variant: int) -> MPoly:
    """One of the four z-factorizations, expanded to an exact MPoly.

    |z0|^3 + |z1|^3 + |z2|^3 minus the sum of the three conjugate
    z0*z1*z2 products; the latter collapses to 3 * sum_m (z0 conv z1)_m
    * (z2)_m with conv the cyclic convolution of the u-coefficients.
    """
    groups = VARIANT_GROUPS.get(variant)
    if groups is None:
        raise UnknownVariantError(f"variant must be 1..4, got {variant}")
    z0, z1, z2 = groups
    total = MPoly.zero()
    for g in groups:
        total = total + _cube_group(*g)
    cross = MPoly.zero()
    for m in range(3):
        conv = MPoly.zero()
        for p in range(3):
            r = (m - p) % 3
            conv = conv + MPoly.var(z0[p]) * MPoly.var(z1[r])
        cross = cross + conv * MPoly.var(z2[m])
    return total - cross.scale(rational(3))


@lru_cache(maxsize=1)
def triple_product_components() -> tuple[MPoly, ...]:
    """A0..A8 of the product of Q with its two twisted copies.

    The twisted copies scale component a by j^k and j^2k per the phase
    twist table; multiplication runs left to right through the unit
    product table.
    """
    factors = [
        NonionPoly([MPoly.var(a, j_pow(k * e)) for a, e in enumerate(TWIST_EXPONENTS)])
        for k in range(3)
    ]
    return factors[0].multiply(factors[1]).multiply(factors[2]).components


@dataclass(frozen=True)
class TermCensus:
    """Monomial bookkeeping: distinct monomials and permutation-weighted count."""

    distinct_monomials: int
    weighted_terms: int


def term_census(p: MPoly) -> TermCensus:
    """Weight each degree-d monomial by d!/prod(e_i!).

    For the cubics here: cubes weigh 1, squares-times-linear 3,
    distinct triples 6.
    """
    distinct = 0
    weighted = 0
    for exp in p.monomials():
        distinct += 1
        d = sum(exp)
        w = math.factorial(d)
        for e in exp:
            w //= math.factorial(e)
        weighted += w
    return TermCensus(distinct, weighted)


def a0_vs_det() -> dict:
    """Relation between A0 and the determinant polynomial, reported.

    Attempts constant-ratio extraction; on failure reports the exact
    monomial-level difference counts.
    """
    a0 = triple_product_components()[0]
    det = det_poly()
    ratio = None
    for exp in det.monomials():
        c = det.coeff(exp)
        if not c.is_zero():
            ratio = a0.coeff(exp) / c
            break
    if ratio is not None and not ratio.is_zero() and a0 == det.scale(ratio):
        return {"constant_ratio": str(ratio), "equal_up_to_constant": True}
    diff = a0 - det
    return {
        "constant_ratio": None,
        "equal_up_to_constant": False,
        "a0_monomials": len(a0.monomials()),
        "det_monomials": len(det.monomials()),
        "difference_monomials": len(diff.monomials()),
    }
