import pytest

from nonion.bases import tu3_basis
from nonion.field import J, ONE, SQRT2, SQRT3, ZERO, rational
from nonion.fixtures import roots_fixture
from nonion.matrix import Mat3
from nonion.roots import (
    I_UNIT,
    NotProportionalError,
    cartan_check,
    extract_alpha_root,
    extract_beta_root,
    gellmann_decompose,
    gellmann_matrices,
    projected_alpha_root,
    root_inner,
    su3_f,
    su3_structure_constants,
    z3_rotate,
    z3_rotation,
)

INV_SQRT3 = SQRT3 / rational(3)
INV_SQRT2 = SQRT2 / rational(2)
INV_SQRT6 = SQRT2 * SQRT3 / rational(6)
SQRT_2_3 = SQRT2 * SQRT3 / rational(3)


# ---------------------------------------------------------------------------
# Cartan triple and alpha roots
# ---------------------------------------------------------------------------

def test_cartan_check_true_for_diagonals(tu3):
    assert cartan_check(tu3)


def test_cartan_check_false_with_step_operator(tu3):
    class Swapped:
        elements = list(tu3.elements)

    Swapped.elements[7] = tu3.elements[1]
    assert not cartan_check(Swapped)


def test_cartan_check_trivial_on_repeated_arguments(tu3):
    e = tu3.elements
    from nonion.bracket import s3_bracket

    assert s3_bracket(e[0], e[0], e[8]).is_zero()


def test_alpha_1_components():
    assert extract_alpha_root(1) == (INV_SQRT3, ZERO, -SQRT_2_3)


def test_alpha_2_components():
    assert extract_alpha_root(2) == (INV_SQRT3, -INV_SQRT2, INV_SQRT6)


def test_alpha_negation_pairing():
    for i in (1, 2, 3):
        plus = extract_alpha_root(i)
        minus = extract_alpha_root(i + 3)
        assert plus == tuple(-c for c in minus)


def test_alpha_norms_and_orthogonality():
    alphas = {i: extract_alpha_root(i) for i in range(1, 7)}
    for i in range(1, 7):
        assert root_inner(alphas[i], alphas[i]) == ONE
    for i in (1, 2, 3):
        for k in (1, 2, 3):
            if i != k:
                assert root_inner(alphas[i], alphas[k]) == ZERO
        # opposite roots are not orthogonal (the all-pairs claim fails)
        assert root_inner(alphas[i], alphas[i + 3]) == -ONE


def test_alpha_matches_fixture():
    fixture = {row["index"]: row["components"] for row in roots_fixture("alpha")}
    for i in range(1, 7):
        assert extract_alpha_root(i) == fixture[i]


def test_extract_alpha_rejects_bad_index():
    with pytest.raises(ValueError):
        extract_alpha_root(0)


def test_not_proportional_error():
    from nonion.bracket import s3_bracket
    from nonion.roots import _scalar_multiple_of

    e = tu3_basis().elements
    br = s3_bracket(e[1], e[2], e[3])  # multiple of Q0, not of Q1
    with pytest.raises(NotProportionalError):
        _scalar_multiple_of(br, e[1])


# ---------------------------------------------------------------------------
# beta roots
# ---------------------------------------------------------------------------

def test_beta_1_target_and_components():
    target, root = extract_beta_root(1)
    assert target == 6
    assert root == (INV_SQRT3, -SQRT_2_3, SQRT2)


def test_beta_2_target_and_components():
    target, root = extract_beta_root(2)
    assert target == 4
    assert root == (INV_SQRT3, rational(2) * SQRT_2_3, ZERO)


def test_beta_4_is_negated_beta_1():
    t4, b4 = extract_beta_root(4)
    _, b1 = extract_beta_root(1)
    assert t4 == 3
    assert b4 == tuple(-c for c in b1)


def test_beta_norms_and_inner_products():
    betas = {i: extract_beta_root(i)[1] for i in range(1, 7)}
    three = rational(3)
    for i in range(1, 7):
        assert root_inner(betas[i], betas[i]) == three
    for i in (1, 2, 3):
        for k in (1, 2, 3):
            if i != k:
                assert root_inner(betas[i], betas[k]) == -ONE


def test_beta_matches_fixture():
    fixture = {row["index"]: row for row in roots_fixture("beta")}
    for i in range(1, 7):
        target, root = extract_beta_root(i)
        assert target == fixture[i]["target"]
        assert root == fixture[i]["components"]


# ---------------------------------------------------------------------------
# projected roots and the rotation
# ---------------------------------------------------------------------------

def test_projected_root_identities():
    proj = {i: projected_alpha_root(i) for i in (1, 2, 3)}
    two_thirds = rational(2, 3)
    for i in (1, 2, 3):
        assert root_inner(proj[i], proj[i]) == two_thirds
    total = tuple(proj[1][k] + proj[2][k] + proj[3][k] for k in range(3))
    assert all(c.is_zero() for c in total)
    assert root_inner(proj[1], proj[2]) == rational(-1, 3)
    alpha1 = extract_alpha_root(1)
    assert root_inner(alpha1, alpha1) / root_inner(proj[1], proj[1]) == rational(3, 2)


def test_rotation_has_order_three():
    r = z3_rotation()
    assert r * r * r == Mat3.identity()
    alpha1 = extract_alpha_root(1)
    assert z3_rotate(alpha1, 3) == alpha1


def test_rotation_cycles_alpha_and_beta():
    a = {i: extract_alpha_root(i) for i in (1, 2, 3)}
    assert z3_rotate(a[1], 1) == a[2]
    assert z3_rotate(a[1], 2) == a[3]
    assert z3_rotate(a[2], 1) == a[3]
    b = {i: extract_beta_root(i)[1] for i in (1, 2, 3)}
    assert z3_rotate(b[1], 1) == b[2]
    assert z3_rotate(b[2], 1) == b[3]


def test_roots_are_real():
    for i in range(1, 7):
        assert all(c.has_zero_j_part() for c in extract_alpha_root(i))
        assert all(c.has_zero_j_part() for c in extract_beta_root(i)[1])


# ---------------------------------------------------------------------------
# su(3) cross-check
# ---------------------------------------------------------------------------

def test_i_unit_squares_to_minus_one():
    assert I_UNIT * I_UNIT == -ONE
    # principal embedding: positive imaginary part
    assert I_UNIT.approx_complex()[1] > 0


def test_lambda_matrices_shape():
    lam = gellmann_matrices()
    assert len(lam) == 8
    assert lam[2] == Mat3.diag(ONE, -ONE, ZERO)  # lambda_3
    assert lam[0][0, 1] == ONE and lam[0][1, 0] == ONE  # lambda_1
    for m in lam:  # Hermitian and traceless
        assert m.dagger() == m
        assert m.trace().is_zero()


def test_lambda_decompositions():
    rows = {r["lambda"]: r["coeffs"] for r in gellmann_decompose()}
    third = rational(1, 3)
    assert rows[1] == [ZERO] + [third] * 6 + [ZERO, ZERO]
    # lambda_3 is diagonal: only q0, q7, q8 can appear
    assert all(rows[3][i].is_zero() for i in range(1, 7))
    assert rows[3][7] == (J * J - J) * third
    # lambda_8 = -(q7 + q8)/sqrt3
    assert rows[8][7] == rows[8][8] == -(SQRT3 / rational(3))


def test_su3_structure_constants():
    f = su3_structure_constants()
    half = rational(1, 2)
    s32 = SQRT3 / rational(2)
    assert f[(1, 2, 3)] == ONE
    assert f[(1, 4, 7)] == half
    assert f[(1, 5, 6)] == -half  # f165 = 1/2
    assert f[(2, 4, 6)] == half
    assert f[(2, 5, 7)] == half
    assert f[(3, 4, 5)] == half
    assert f[(3, 6, 7)] == -half  # f376 = 1/2
    assert f[(4, 5, 8)] == s32
    assert f[(6, 7, 8)] == s32
    # nothing else appears
    assert len(f) == 9
    # su3_f reads any order: even permutations keep the sign, odd ones flip it
    assert su3_f(f, 1, 6, 5) == su3_f(f, 3, 7, 6) == half
    for perm, sign in [((1, 2, 3), 1), ((2, 3, 1), 1), ((3, 1, 2), 1),
                       ((2, 1, 3), -1), ((1, 3, 2), -1), ((3, 2, 1), -1)]:
        assert su3_f(f, *perm) == (ONE if sign == 1 else -ONE)
    assert su3_f(f, 1, 2, 4) == ZERO
    assert su3_f(f, 1, 1, 2) == ZERO


def test_su3_complete_antisymmetry():
    """[g_a, g_b] = i sum_c f_abc g_c for all 28 pairs in both orders, with
    f_abc read through su3_f, and the trace formula gives each f_abc."""
    f = su3_structure_constants()
    g = [lam.scale(rational(1, 2)) for lam in gellmann_matrices()]
    two = rational(2)
    inv_i = I_UNIT.invert()
    for a in range(8):
        for b in range(8):
            if a == b:
                continue
            comm = g[a] * g[b] - g[b] * g[a]
            rebuilt = Mat3.zero()
            for c in range(8):
                f_abc = su3_f(f, a + 1, b + 1, c + 1)
                assert two * (g[c] * comm).trace() * inv_i == f_abc
                rebuilt = rebuilt + g[c].scale(f_abc * I_UNIT)
            assert rebuilt == comm
