from itertools import product

import pytest

from nonion.bases import (
    CLAIMED_TILDE_EXPONENTS,
    LABELS,
    TWIST_EXPONENTS,
    cyclic_relabel,
    pair_phase_matrix,
    tilde_composite,
    tilde_fixture_check,
    tu3_basis,
)
from nonion.clifford import _column_action, grade
from nonion.field import J, J2, ONE, ZERO, FieldElem, j_pow, rational
from nonion.matrix import Mat3, decompose_in_basis, hs_inner

from conftest import random_mat3

# ---------------------------------------------------------------------------
# nonion basis
# ---------------------------------------------------------------------------

def test_q0_is_identity(nonions):
    assert nonions.elements[0] == Mat3.identity()


def test_q7_q8_diagonals(nonions):
    assert nonions.elements[7] == Mat3.diag(J, J2, ONE)
    assert nonions.elements[8] == Mat3.diag(J2, J, ONE)


def test_q1_cubes_to_identity(nonions):
    assert nonions.elements[1] ** 3 == Mat3.identity()


def test_cube_law_and_unit_determinant(nonions):
    for e in nonions.elements:
        assert e ** 3 == Mat3.identity()
        assert e.det() == ONE


def test_hs_orthogonal_with_gram_three(nonions):
    q = nonions.elements
    for a in range(9):
        for b in range(9):
            assert hs_inner(q[a], q[b]) == (rational(3) if a == b else ZERO)
    assert nonions.grams == (rational(3),) * 9


def test_grade_classes(nonions):
    assert nonions.grade == (0, 1, 1, 1, 2, 2, 2, 0, 0)


def test_labels_are_the_two_generator_clifford_words(nonions):
    # q_c = j^-s q1^a q2^b, graded by the word's total degree mod 3
    q = nonions.elements
    assert sorted(c for _, c in LABELS.values()) == list(range(9))
    for (a, b), (s, c) in LABELS.items():
        assert q[1] ** a * q[2] ** b == q[c].scale(j_pow(s))
        assert nonions.grade[c] == grade((a, b))
        # the closed form against the word's column action, entry by entry
        entries = [ZERO] * 9
        for col, (row, e) in enumerate(_column_action((a, b))):
            entries[3 * row + col] = j_pow(e - s)
        assert q[c] == Mat3(entries)
    assert q[2] == q[1] * Mat3.diag(J2, ONE, J)


def test_closure_with_grading(nonions):
    q = nonions.elements
    for a in range(9):
        for b in range(9):
            s, c = nonions.product_table[a][b]
            assert q[a] * q[b] == q[c].scale(j_pow(s))
            assert (nonions.grade[a] + nonions.grade[b]) % 3 == nonions.grade[c]


@pytest.mark.parametrize("name", ["nonions", "tu3"])
def test_products_rebuild_every_product(request, name):
    basis = request.getfixturevalue(name)
    e = basis.elements
    for a in range(9):
        for b in range(9):
            rebuilt = Mat3.zero()
            for c, coeff in basis.products[a][b]:
                assert not coeff.is_zero()
                rebuilt = rebuilt + e[c].scale(coeff)
            assert rebuilt == e[a] * e[b]


def test_tu3_products_are_built_on_first_use():
    # tu3_basis() itself builds no table: callers that never multiply in
    # the basis do not pay for 81 products and projections
    fresh = tu3_basis.__wrapped__()
    assert "products" not in vars(fresh)
    assert fresh.products == tu3_basis().products
    assert "products" in vars(fresh)


def test_tu3_products_pair_without_dividing(monkeypatch):
    # the basis is orthonormal, so each coefficient is one pairing with no
    # division by its gram of one; the generic projection stays the reference
    fresh = tu3_basis.__wrapped__()
    calls = []
    real = FieldElem.invert
    monkeypatch.setattr(FieldElem, "invert", lambda self: (calls.append(1), real(self))[1])
    products = fresh.products
    assert calls == []
    e, g = fresh.elements, fresh.grams
    for a, b in product(range(9), repeat=2):
        coeffs = decompose_in_basis(e[a] * e[b], e, g)
        assert products[a][b] == tuple((c, v) for c, v in enumerate(coeffs) if v)


# ---------------------------------------------------------------------------
# tu3 basis
# ---------------------------------------------------------------------------

def test_step_operators_have_single_unit_entry(tu3):
    e = tu3.elements
    expected_positions = {1: (0, 1), 2: (1, 2), 3: (2, 0), 4: (1, 0), 5: (2, 1), 6: (0, 2)}
    for idx, pos in expected_positions.items():
        m = e[idx]
        for i in range(3):
            for j in range(3):
                assert m[i, j] == (ONE if (i, j) == pos else ZERO)


def test_q0_is_identity_over_sqrt3(tu3):
    inv_sqrt3 = tu3.elements[0][0, 0]
    assert tu3.elements[0] == Mat3.scalar(inv_sqrt3)
    assert inv_sqrt3 * inv_sqrt3 * rational(3) == ONE


def test_diagonals_orthonormal(tu3):
    e = tu3.elements
    assert hs_inner(e[7], e[8]) == ZERO
    for a in range(9):
        for b in range(9):
            assert hs_inner(e[a], e[b]) == (ONE if a == b else ZERO)


# ---------------------------------------------------------------------------
# conjugation maps
# ---------------------------------------------------------------------------

def test_cyclic_relabel_identity_and_diag():
    assert cyclic_relabel(Mat3.identity()) == Mat3.identity()
    a, b, c = rational(1), rational(2), rational(3)
    assert cyclic_relabel(Mat3.diag(a, b, c)) == Mat3.diag(c, a, b)


def test_cyclic_relabel_is_multiplicative(rng):
    for _ in range(60):
        a = random_mat3(rng)
        b = random_mat3(rng)
        assert cyclic_relabel(a * b) == cyclic_relabel(a) * cyclic_relabel(b)


def test_cyclic_relabel_has_order_three(rng):
    m = random_mat3(rng)
    assert cyclic_relabel(cyclic_relabel(cyclic_relabel(m))) == m


def test_pair_phase_examples(nonions):
    omega = pair_phase_matrix(nonions)
    q = nonions.elements
    for a in range(9):
        for b in range(9):
            assert q[a] * q[b] == (q[b] * q[a]).scale(j_pow(omega[a][b]))
    assert omega[1][2] == 1  # q1 q2 = j q2 q1
    assert all(omega[a][0] == 0 for a in range(9))
    assert all(omega[a][a] == 0 for a in range(9))
    # antisymmetry: omega(a,b) + omega(b,a) = 0 mod 3
    for a in range(9):
        for b in range(9):
            assert (omega[a][b] + omega[b][a]) % 3 == 0


def test_phase_twist_cubes_to_identity():
    # 1 at index 0; j at 7,1,2,3; j^2 at 8,4,5,6
    assert TWIST_EXPONENTS == (0, 1, 1, 1, 2, 2, 2, 1, 2)
    assert all(j_pow(e) ** 3 == ONE for e in TWIST_EXPONENTS)


def test_phase_twist_is_not_multiplicative(nonions):
    # the twist phases fail multiplicativity on the pair (7, 1)
    s, c = nonions.product_table[7][1]
    combined = (TWIST_EXPONENTS[7] + TWIST_EXPONENTS[1]) % 3
    assert combined != TWIST_EXPONENTS[c]


def test_tilde_fixture_rows_1_and_4(nonions):
    q = nonions.elements
    assert tilde_composite(q[1]) == q[1].scale(J)
    assert tilde_composite(q[4]) == q[4].scale(J2)


def test_tilde_fixture_check_reports_per_index():
    rows = tilde_fixture_check()
    assert [r["index"] for r in rows] == list(range(9))
    by_index = {r["index"]: r["matches"] for r in rows}
    assert by_index[0] and by_index[1] and by_index[4]
    # the remaining printed phases are not reproduced by the pure matrices
    assert not all(by_index.values())
    assert tuple(r["claimed_exponent"] for r in rows) == CLAIMED_TILDE_EXPONENTS
