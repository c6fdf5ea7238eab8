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

The coordinate grid, the four variants and A0..A8 are each built in one
pass, as one sum of monomial terms over index tuples (`_exp`); only the
determinant is expanded by cofactor products.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Sequence

from ._zj import dft, rotate
from .bases import TWIST_EXPONENTS, nonion_basis
from .field import ONE, FieldElem, j_pow, rational, sum_terms
from .matrix import Mat3, nonion_units
from .poly import NVARS, MPoly

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


def _exp(*indices: int) -> tuple[int, ...]:
    """The exponent tuple of the monomial x_i x_j ... over the given indices."""
    exp = [0] * NVARS
    for i in indices:
        exp[i] += 1
    return tuple(exp)


@lru_cache(maxsize=1)
def qhat_matrix_view() -> tuple[MPoly, ...]:
    """sum_a x_a*q_a as a flat 3x3 grid of linear forms, row-major."""
    elements = nonion_basis().elements
    return tuple(
        MPoly({_exp(a): q.entries[cell] for a, q in enumerate(elements)}) for cell in range(9)
    )


def qhat_at(coords: Sequence[FieldElem]) -> Mat3:
    """Numeric coordinate matrix sum_a coords[a]*q_a, one FieldElem per cell.

    Per shift diagonal of the nonion units (`matrix.nonion_units`), cell
    (v - a, v) is sum_k j^(k v) j^e c with c the coefficient of j^e X^a Z^k,
    so the three coefficients, lifted to the lcm of their denominators and
    rotated by their phases, take one radix-3 stage (`_zj.dft`)."""
    if len(coords) != 9:
        raise ValueError(f"qhat_at needs 9 values, got {len(coords)}")
    cells: list = [None] * 9
    for positions, units in nonion_units()[1]:
        den = math.lcm(*[coords[i].den for i, _ in units])
        lifted = [rotate([x * (den // coords[i].den) for x in coords[i].nums], e) for i, e in units]
        # units come by -k, and dft(c)[-v] is sum_k j^(-kv) c_k
        for k, nums in enumerate(dft(lifted)):
            cells[positions[-k % 3]] = FieldElem(nums, den)
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


def variant_poly(variant: int) -> MPoly:
    """One of the four z-factorizations, expanded to an exact MPoly.

    |z0|^3 + |z1|^3 + |z2|^3, each |z|^3 = a^3 + b^3 + c^3 - 3abc for
    z = a + b*u + c*u^2, minus the sum of the three conjugate z0*z1*z2
    products; the latter collapses to 3 * sum_m (z0 conv z1)_m * (z2)_m
    with conv the cyclic convolution of the u-coefficients.
    """
    groups = VARIANT_GROUPS.get(variant)
    if groups is None:
        raise UnknownVariantError(f"variant must be 1..4, got {variant}")
    z0, z1, z2 = groups
    minus_three = rational(-3)
    terms = [(_exp(i, i, i), ONE) for g in groups for i in g]
    terms += [(_exp(*g), minus_three) for g in groups]
    terms += [
        (_exp(z0[p], z1[(m - p) % 3], z2[m]), minus_three) for m in range(3) for p in range(3)
    ]
    return MPoly(sum_terms(terms))


@lru_cache(maxsize=1)
def triple_product_components() -> tuple[MPoly, ...]:
    """A0..A8 of the product of Q with its two twisted copies.

    The k-th twisted copy scales x_a by j^(k*t_a), t the phase twist
    table.  Each triple (a, b, d) adds x_a x_b x_d j^(s1 + s2 + t_b + 2 t_d)
    to component c, where q_a q_b = j^s1 q_ab and q_ab q_d = j^s2 q_c in
    the unit product table.
    """
    table = nonion_basis().product_table
    t = TWIST_EXPONENTS
    terms: list[list] = [[] for _ in range(9)]
    for a, b, d in product(range(9), repeat=3):
        s1, ab = table[a][b]
        s2, c = table[ab][d]
        terms[c].append((_exp(a, b, d), j_pow(s1 + s2 + t[b] + 2 * t[d])))
    return tuple(MPoly(sum_terms(component)) for component in terms)


class TermCensus(NamedTuple):
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
    exp, c = det.items()[0]  # MPoly stores no zero coefficient
    ratio = a0.coeff(exp) / c
    if not ratio.is_zero() and a0 == det.scale(ratio):
        return {"constant_ratio": str(ratio), "equal_up_to_constant": True}
    diff = a0 - det
    return {
        "constant_ratio": None,
        "equal_up_to_constant": False,
        "a0_monomials": len(a0.monomials()),
        "det_monomials": len(det.monomials()),
        "difference_monomials": len(diff.monomials()),
    }
