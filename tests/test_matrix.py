import pytest

from nonion.field import J, J2, ONE, ZERO, rational
from nonion.matrix import (
    Mat3,
    SingularGramError,
    decompose_in_basis,
    hs_inner,
)

from conftest import random_mat3

# ---------------------------------------------------------------------------
# products and determinants
# ---------------------------------------------------------------------------

def test_identity_product():
    assert Mat3.identity() * Mat3.identity() == Mat3.identity()


def test_q1_q2_product_matrix(nonions):
    q = nonions.elements
    expected = Mat3.from_rows(
        [[ZERO, ZERO, J], [J2, ZERO, ZERO], [ZERO, ONE, ZERO]]
    )
    assert q[1] * q[2] == expected


def test_power(nonions):
    q1 = nonions.elements[1]
    assert q1 ** 0 == Mat3.identity()
    assert q1 ** 2 == q1 * q1
    assert q1 ** 3 == Mat3.identity()
    with pytest.raises(ValueError, match="exponent >= 0"):
        q1 ** -1


def test_q1_q4_is_identity(nonions):
    q = nonions.elements
    assert q[1] * q[4] == Mat3.identity()


def test_det_examples(nonions):
    assert Mat3.identity().det() == ONE
    assert Mat3.diag(J, J2, ONE).det() == ONE
    assert nonions.elements[2].det() == ONE


def test_det_multiplicative_on_random_pairs(rng):
    for _ in range(1000):
        a = random_mat3(rng)
        b = random_mat3(rng)
        assert (a * b).det() == a.det() * b.det()


def test_mat_mul_associative_on_random_triples(rng):
    for _ in range(400):
        a, b, c = random_mat3(rng), random_mat3(rng), random_mat3(rng)
        assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# Hermitian pairing and decomposition
# ---------------------------------------------------------------------------

def test_hs_inner_examples(nonions):
    q = nonions.elements
    three = rational(3)
    assert hs_inner(q[1], q[1]) == three
    assert hs_inner(q[1], q[2]) == ZERO
    assert hs_inner(Mat3.identity(), Mat3.identity()) == three


def test_dagger_conjugates_only_j(nonions):
    m = Mat3.diag(J, ONE, ONE)
    assert m.dagger() == Mat3.diag(J2, ONE, ONE)


def test_nonion_orthogonality_exhaustive(nonions):
    q = nonions.elements
    three = rational(3)
    for a in range(9):
        for b in range(9):
            assert hs_inner(q[a], q[b]) == (three if a == b else ZERO)


def test_decompose_basis_element(nonions):
    coeffs = decompose_in_basis(nonions.elements[1], nonions.elements, nonions.grams)
    assert coeffs == (ZERO, ONE, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO)


def test_decompose_zero(nonions):
    coeffs = decompose_in_basis(Mat3.zero(), nonions.elements, nonions.grams)
    assert all(c.is_zero() for c in coeffs)


def test_decompose_round_trip_random(rng, nonions, tu3):
    for basis in (nonions, tu3):
        for _ in range(40):
            m = random_mat3(rng)
            coeffs = decompose_in_basis(m, basis.elements, basis.grams)
            rebuilt = Mat3.zero()
            for c, b in zip(coeffs, basis.elements):
                rebuilt = rebuilt + b.scale(c)
            assert rebuilt == m


def test_decompose_errors(nonions):
    q = nonions.elements
    with pytest.raises(SingularGramError):
        decompose_in_basis(q[1], q, (ZERO,) * 9)


def test_json_round_trip(nonions):
    m = nonions.elements[5]
    assert Mat3.from_json(m.to_json()) == m
    with pytest.raises(ValueError):
        Mat3.from_json([[["1/1"] * 8] * 3] * 2)
