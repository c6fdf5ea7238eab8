import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonion.cubic import (
    CYCLE_ALL_GROUPS,
    CYCLE_FIX_DIAG,
    UnknownVariantError,
    a0_vs_det,
    det_poly,
    qhat_at,
    qhat_matrix_view,
    term_census,
    triple_product_components,
    variant_poly,
)
from nonion.field import J, J2, ONE, ZERO, FieldElem, j_pow, rational
from nonion.fixtures import surface_poly_fixture
from nonion.matrix import Mat3
from nonion.poly import MPoly

import oracle
from conftest import entry_st, needs_sympy, radical_st, sympy_zero, to_sympy, wide_elem_st


def mono(**kw):
    e = [0] * 9
    for k, v in kw.items():
        e[int(k[1:])] = v
    return tuple(e)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_mul_examples():
    x0 = MPoly.var(0)
    assert x0 * x0 == MPoly.monomial(mono(x0=2))
    x1, x2 = MPoly.var(1), MPoly.var(2)
    assert (x1 + x2) * (x1 - x2) == MPoly.monomial(mono(x1=2)) - MPoly.monomial(mono(x2=2))
    assert ((x0 + x1.scale(J)) * MPoly.zero()).is_zero()


def test_poly_permute_and_eval():
    p = MPoly.var(0) * MPoly.var(1) + MPoly.var(4).scale(rational(2))
    q = p.permute_vars({0: 1, 1: 0})
    assert q == MPoly.var(1) * MPoly.var(0) + MPoly.var(4).scale(rational(2))
    vals = [rational(k + 1) for k in range(9)]
    assert p.evaluate(vals) == rational(1) * rational(2) + rational(2) * rational(5)


def test_evaluate_needs_nine_values():
    with pytest.raises(ValueError, match="needs 9 values, got 1"):
        MPoly.var(8).evaluate([rational(5)])
    with pytest.raises(ValueError, match="got 3"):
        det_poly().evaluate([rational(2)] * 3)
    with pytest.raises(ValueError, match="got 10"):
        det_poly().evaluate([ONE] * 10)
    with pytest.raises(ValueError, match="got 0"):
        MPoly.zero().evaluate([])


def test_qhat_at_needs_nine_coordinates():
    with pytest.raises(ValueError, match="needs 9 values, got 4"):
        qhat_at([ONE, J, J2, rational(2)])
    with pytest.raises(ValueError, match="needs 9 values, got 10"):
        qhat_at([ONE] * 10)
    with pytest.raises(ValueError, match="needs 9 values, got 0"):
        qhat_at([])


# points: rationals over mixed small denominators, radical and phase values,
# and wide elements with unrelated 9-digit denominators mixed with zeros
point_st = st.one_of(
    st.lists(st.builds(rational, st.integers(-99, 99), st.integers(1, 99)), min_size=9, max_size=9),
    st.lists(radical_st, min_size=9, max_size=9),
    st.lists(entry_st, min_size=9, max_size=9),
    st.lists(wide_elem_st, min_size=9, max_size=9),
)


@settings(max_examples=60, deadline=None)
@given(point_st)
def test_qhat_at_equals_evaluated_grid(x):
    assert qhat_at(x) == Mat3([g.evaluate(x) for g in qhat_matrix_view()])


def chained_evaluate(p: MPoly, values) -> FieldElem:
    total = ZERO
    for exp, c in p.terms.items():
        term = c
        for v, e in zip(values, exp):
            for _ in range(e):
                term = term * v
        total = total + term
    return total


# a monomial of total degree <= 3 as a list of variable indices
monomial_st = st.lists(st.integers(0, 8), max_size=3).map(
    lambda vs: tuple(vs.count(i) for i in range(9))
)
poly_st = st.dictionaries(monomial_st, radical_st | wide_elem_st, max_size=8).map(MPoly)
point_st = st.lists(entry_st, min_size=9, max_size=9)


@settings(max_examples=40, deadline=None)
@given(poly_st, point_st)
def test_evaluate_matches_chained_arithmetic(p, x):
    assert p.evaluate(x) == chained_evaluate(p, x)


@settings(max_examples=15, deadline=None)
@given(point_st)
def test_det_poly_evaluate_matches_chained_arithmetic(x):
    assert det_poly().evaluate(x) == chained_evaluate(det_poly(), x)


@settings(max_examples=15, deadline=None)
@given(entry_st, entry_st)
def test_evaluate_sum_that_cancels(x, y):
    # x0^2 - x1*x2 at x1 = x2 = x0
    p = MPoly.monomial(mono(x0=2)) - MPoly.monomial(mono(x1=1, x2=1))
    v = p.evaluate([x, x, x] + [y] * 6)
    assert v == ZERO and v.nums == (0,) * 8 and v.den == 1


def test_poly_json_round_trip():
    p = det_poly()
    assert MPoly.from_json(p.to_json()) == p


# ---------------------------------------------------------------------------
# the coordinate matrix
# ---------------------------------------------------------------------------

# Entries of the coordinate matrix sum(x_a q_a), row-major: (var, j-exponent).
QHAT_EXPECTED = (
    ((0, 0), (7, 1), (8, 2)), ((1, 0), (2, 0), (3, 0)), ((4, 0), (5, 1), (6, 2)),
    ((4, 0), (5, 0), (6, 0)), ((0, 0), (7, 2), (8, 1)), ((1, 0), (2, 1), (3, 2)),
    ((1, 0), (2, 2), (3, 1)), ((4, 0), (5, 2), (6, 1)), ((0, 0), (7, 0), (8, 0)),
)


def test_qhat_entries():
    g = qhat_matrix_view()
    for idx, terms in enumerate(QHAT_EXPECTED):
        expected = MPoly.zero()
        for var, jexp in terms:
            expected = expected + MPoly.var(var, j_pow(jexp))
        assert g[idx] == expected, divmod(idx, 3)
    assert g[8] == MPoly.var(0) + MPoly.var(7) + MPoly.var(8)  # bottom-right
    assert g[1] == MPoly.var(1) + MPoly.var(2) + MPoly.var(3)  # top-middle
    assert g[0] == MPoly.var(0) + MPoly.var(7, J) + MPoly.var(8, J2)


def test_qhat_at_unit_coordinate_is_identity():
    coords = [ONE] + [ZERO] * 8
    assert qhat_at(coords) == Mat3.identity()


# ---------------------------------------------------------------------------
# determinant and variants
# ---------------------------------------------------------------------------

def test_det_spot_coefficients():
    det = det_poly()
    assert det.coeff(mono(x0=3)) == ONE
    assert det.coeff(mono(x0=1, x7=1, x8=1)) == rational(-3)
    assert det.coeff(mono(x1=1, x2=1, x3=1)) == rational(-3)
    assert det.coeff(mono(x0=1, x1=1, x4=1)) == rational(-3)
    assert det.coeff(mono(x2=1, x5=1, x7=1)) == ZERO


def test_det_axis_restrictions():
    det = det_poly()
    t = rational(5, 3)
    for a in range(9):
        coords = [ZERO] * 9
        coords[a] = t
        assert det.evaluate(coords) == t * t * t


def test_det_has_rational_coefficients():
    assert det_poly().has_rational_coeffs()


def test_variants_equal_det():
    det = det_poly()
    for v in (1, 2, 3, 4):
        assert variant_poly(v) == det


def test_variant_examples():
    v1 = variant_poly(1)
    coords = [ZERO] * 9
    coords[0] = coords[7] = coords[8] = ONE
    assert v1.evaluate(coords) == ZERO  # 1 + 1 + 1 - 3
    assert v1.coeff(mono(x1=1, x2=1, x3=1)) == rational(-3)
    assert variant_poly(2).coeff(mono(x0=1, x1=1, x4=1)) == rational(-3)
    with pytest.raises(UnknownVariantError):
        variant_poly(5)


def test_qhat_at_matches_scale_and_add(nonions):
    # wide points: all eight coordinates nonzero, 12-digit numerators and
    # denominators
    rng = random.Random(23)
    lo, hi = 10**11, 10**12
    for _ in range(6):
        x = [
            FieldElem([rng.choice((-1, 1)) * rng.randrange(lo, hi) for _ in range(8)],
                      rng.randrange(lo, hi))
            for _ in range(9)
        ]
        expected = Mat3.zero()
        for c, q in zip(x, nonions.elements):
            expected = expected + q.scale(c)
        assert qhat_at(x) == expected


def test_det_multiplicativity_random_pairs():
    det = det_poly()
    rng = random.Random(17)
    for _ in range(100):
        x = [rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9)]
        y = [rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9)]
        assert (qhat_at(x) * qhat_at(y)).det() == det.evaluate(x) * det.evaluate(y)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

@needs_sympy
def test_det_poly_against_sympy_matrix_det():
    # the coordinate matrix sum x_a q_a built from the oracle's units
    import sympy

    j = (-1 + sympy.sqrt(-3)) / 2
    xs = sympy.symbols("x0:9")
    m = sympy.zeros(3, 3)
    for x, q in zip(xs, oracle.BASIS):
        m += x * sympy.Matrix(3, 3, [a + b * j for a, b in q])
    ours = 0
    for exp, c in det_poly().items():
        ours += to_sympy(c) * sympy.Mul(*(x**e for x, e in zip(xs, exp)))
    assert sympy_zero(m.det(method="berkowitz") - ours)


def test_census_det():
    c = term_census(det_poly())
    assert c.distinct_monomials == 21
    assert c.weighted_terms == 81


def test_census_single_cube():
    c = term_census(MPoly.monomial(mono(x0=3)))
    assert c.distinct_monomials == 1 and c.weighted_terms == 1


def test_census_weights():
    p = MPoly.monomial(mono(x0=2, x1=1)) + MPoly.monomial(mono(x2=1, x3=1, x4=1))
    c = term_census(p)
    assert c.distinct_monomials == 2 and c.weighted_terms == 3 + 6


# ---------------------------------------------------------------------------
# surface fixture
# ---------------------------------------------------------------------------

def test_surface_fixture_spot_values():
    s = surface_poly_fixture()
    assert s.coeff(mono(x0=3)) == ONE
    assert s.coeff(mono(x4=3)) == ONE  # the corrected monomial
    assert s.coeff(mono(x0=1, x1=1, x4=1)) == rational(-3)
    assert len(s.monomials()) == 21


def test_surface_fixture_equals_det():
    assert surface_poly_fixture() == det_poly()


# ---------------------------------------------------------------------------
# twisted triple product
# ---------------------------------------------------------------------------

def test_a0_axis_restriction_is_cube():
    a0 = triple_product_components()[0]
    for a in range(9):
        assert a0.coeff(mono(**{f"x{a}": 3})) == ONE


def test_a0_support_is_frozen():
    # cubes plus the six grouped mixed monomials, all with coefficient -3
    a0 = triple_product_components()[0]
    expected = {mono(**{f"x{a}": 3}): ONE for a in range(9)}
    m3 = rational(-3)
    for trip in [(0, 7, 8), (1, 2, 3), (4, 5, 6), (0, 1, 4), (0, 2, 5), (0, 3, 6)]:
        e = [0] * 9
        for i in trip:
            e[i] = 1
        expected[tuple(e)] = m3
    assert dict(a0.terms) == expected


def test_a0_cycling_invariances():
    a0 = triple_product_components()[0]
    # advancing all three triples together is NOT a symmetry:
    assert a0.permute_vars(CYCLE_ALL_GROUPS) != a0
    assert a0.coeff(mono(x0=1, x1=1, x4=1)) == rational(-3)
    assert a0.coeff(mono(x2=1, x5=1, x7=1)) == ZERO  # image of x0*x1*x4
    # fixing the diagonal triple and advancing the other two IS one:
    assert a0.permute_vars(CYCLE_FIX_DIAG) == a0


def test_a0_monomials_have_zero_grade_sum(nonions):
    a0 = triple_product_components()[0]
    for exp in a0.monomials():
        assert sum(nonions.grade[i] * e for i, e in enumerate(exp)) % 3 == 0


def test_components_a1_a8_do_not_vanish():
    comps = triple_product_components()
    assert all(not comps[p].is_zero() for p in range(1, 9))
    # spot value: A8 contains 3*x0*x1*x5
    assert comps[8].coeff(mono(x0=1, x1=1, x5=1)) == rational(3)


def test_triple_product_against_matrix_oracle():
    """Evaluate the symbolic product numerically and compare with the
    matrix product of the twisted coordinate matrices."""
    from nonion.bases import TWIST_EXPONENTS, nonion_basis
    from nonion.matrix import decompose_in_basis

    comps = triple_product_components()
    basis = nonion_basis()
    rng = random.Random(23)
    for _ in range(12):
        x = [rational(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(9)]
        mats = []
        for k in range(3):
            coords = [x[a] * j_pow(k * e) for a, e in enumerate(TWIST_EXPONENTS)]
            mats.append(qhat_at(coords))
        product = mats[0] * mats[1] * mats[2]
        coeffs = decompose_in_basis(product, basis.elements, basis.grams)
        for p in range(9):
            assert comps[p].evaluate(x) == coeffs[p]


def test_a0_vs_det_report():
    rel = a0_vs_det()
    assert rel["equal_up_to_constant"] is False
    assert rel["a0_monomials"] == 15
    assert rel["det_monomials"] == 21
    assert rel["difference_monomials"] == 6
