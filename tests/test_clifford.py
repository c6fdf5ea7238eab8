import random
from itertools import product

import pytest

from nonion.bases import nonion_basis, pair_phase_matrix
from nonion.clifford import (
    CliffElement,
    LengthMismatchError,
    degree_census,
    dimension,
    generator,
    grade,
    normal_order_product,
    s3_symmetric_sum,
    unit,
    weighted_identity_check,
)
from nonion.field import J, J2, ONE, ZERO, j_pow, rational
from nonion.fixtures import clifford_census_fixture

import oracle
from conftest import random_field_elem

# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------

def test_normal_order_swap():
    phase, mono = normal_order_product((0, 1), (1, 0))  # q2 * q1
    assert phase == J2 and mono == (1, 1)


def test_normal_order_cube_reduces():
    phase, mono = normal_order_product((1,), (2,))  # q1 * q1^2
    assert phase == ONE and mono == (0,)


def test_normal_order_already_sorted():
    phase, mono = normal_order_product((1, 0), (0, 1))  # q1 * q2
    assert phase == ONE and mono == (1, 1)


def test_normal_order_length_mismatch():
    with pytest.raises(LengthMismatchError):
        normal_order_product((1,), (1, 0))


def test_defining_relations_via_elements():
    q1, q2 = generator(2, 0), generator(2, 1)
    assert q2 * q1 == (q1 * q2).scale(J2)  # q2 q1 = j^2 q1 q2
    assert q1 * q2 == (q2 * q1).scale(J)   # q1 q2 = j q2 q1
    assert q1 * q1 * q1 == unit(2)


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------

def test_square_of_sum():
    q1, q2 = generator(2, 0), generator(2, 1)
    s = q1 + q2
    expected = (
        generator(2, 0, 2)
        + (q1 * q2).scale(ONE + J2)
        + generator(2, 1, 2)
    )
    assert s * s == expected


def test_unit_and_zero():
    a = generator(3, 1) + generator(3, 2).scale(J)
    assert unit(3) * a == a and a * unit(3) == a
    assert a.scale(ZERO).is_zero()
    assert (CliffElement(3) * a).is_zero()


def test_mixed_n_rejected():
    with pytest.raises(LengthMismatchError):
        generator(2, 0) * generator(3, 0)
    with pytest.raises(LengthMismatchError):
        generator(2, 0) + generator(3, 0)


def pairwise_product(a: CliffElement, b: CliffElement) -> CliffElement:
    """Reference product: one normal-ordered FieldElem product per term pair."""
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            phase, mono = normal_order_product(ma, mb)
            out[mono] = out.get(mono, ZERO) + ca * cb * phase
    return CliffElement(a.n, out)


def _random_element(rng, n: int, coeff) -> CliffElement:
    monos = list(product((0, 1, 2), repeat=n))
    chosen = rng.sample(monos, rng.randint(1, min(len(monos), 24)))
    return CliffElement(n, {m: coeff() for m in chosen})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_matches_pairwise_reference(n):
    rng = random.Random(1000 + n)
    units = [j_pow(e) * s for e in range(3) for s in (ONE, -ONE)]
    kinds = [
        lambda: random_field_elem(rng, density=0.6, bound=12),  # radicals, mixed denominators
        lambda: rng.choice(units),
        lambda: rational(rng.randint(-3, 3) or 1, rng.choice((1, 2, 3, 4, 6))) * rng.choice(units),
    ]
    for trial in range(12):
        kind = kinds[trial % 3]
        a, b = _random_element(rng, n, kind), _random_element(rng, n, kind)
        assert a * b == pairwise_product(a, b)
        # (1 + q_k + q_k^2)(1 - q_k) = 1 - q_k^3 = 0, so every pair sum cancels
        k = rng.randrange(n)
        a0 = a * (unit(n) + generator(n, k) + generator(n, k, 2))
        b0 = (unit(n) - generator(n, k)) * b
        assert (a0 * b0).is_zero() and pairwise_product(a0, b0).is_zero()


def test_product_cancels_across_phase_classes():
    # (q1 + q2)(q2 - j q1): the (1,1) term is q1 q2 - j q2 q1 = (1 - j j^2) q1 q2 = 0
    q1, q2 = generator(2, 0), generator(2, 1)
    ab = (q1 + q2) * (q2 - q1.scale(J))
    assert ab == generator(2, 0, 2).scale(-J) + generator(2, 1, 2)
    assert ab == pairwise_product(q1 + q2, q2 - q1.scale(J))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_commutation_in_clock_and_shift_representation(n):
    """q_l q_k = j^2 q_k q_l for every l > k, in the tensor representation
    of tests/oracle.py and in the library, which lands on the same operator."""
    q = [oracle.clifford_generator(n, k) for k in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            ql_qk = oracle.compose(q[l], q[k])
            assert ql_qk == oracle.phase(2, oracle.compose(q[k], q[l]))
            ((mono, c),) = (generator(n, l) * generator(n, k)).items()
            e = (ONE, J, J2).index(c)
            assert oracle.phase(e, oracle.clifford_monomial(mono)) == ql_qk
            assert generator(n, l) * generator(n, k) == (
                generator(n, k) * generator(n, l)
            ).scale(J2)


def test_associativity_random_words():
    import random

    rng = random.Random(4)
    n = 4
    def rand_elem():
        terms = {}
        for _ in range(3):
            mono = tuple(rng.randint(0, 2) for _ in range(n))
            terms[mono] = j_pow(rng.randint(0, 2)) * rational(rng.randint(-3, 3))
        return CliffElement(n, terms)

    for _ in range(50):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)


def test_grading_multiplicative_on_homogeneous_elements():
    n = 3
    for ma in product((0, 1, 2), repeat=n):
        for mb in ((1, 0, 0), (0, 2, 1), (2, 2, 2)):
            phase, mono = normal_order_product(ma, mb)
            assert grade(mono) == (grade(ma) + grade(mb)) % 3


# ---------------------------------------------------------------------------
# the symmetric-sum and weighted identities
# ---------------------------------------------------------------------------

def test_symmetric_sum_equal_indexes():
    assert s3_symmetric_sum(0, 0, 0, 1) == unit(1).scale(rational(6))


def test_symmetric_sum_distinct_indexes_vanishes():
    assert s3_symmetric_sum(0, 1, 2, 3).is_zero()


def test_symmetric_sum_two_equal_vanishes():
    assert s3_symmetric_sum(0, 0, 1, 2).is_zero()


def test_symmetric_sum_exhaustive_n4():
    n = 4
    six = unit(n).scale(rational(6))
    for k in range(n):
        for l in range(n):
            for m in range(n):
                s = s3_symmetric_sum(k, l, m, n)
                if k == l == m:
                    assert s == six
                else:
                    assert s.is_zero()


def test_weighted_identities_computed_values():
    """Frozen values under the pinned ordering convention: kinds 1 and 3
    vanish and kind 2 equals 3*j^2*q_k^2*q_l.  (A mirrored ordering
    convention would swap the roles of kinds 2 and 3; the acceptance
    suite records that discrepancy.)"""
    n = 4
    for k in range(n):
        for l in range(k + 1, n):
            x = generator(n, k, 2) * generator(n, l)
            assert weighted_identity_check(1, k, l, n).is_zero()
            assert weighted_identity_check(2, k, l, n) == x.scale(rational(3) * J2)
            assert weighted_identity_check(3, k, l, n).is_zero()


def test_weighted_identity_errors():
    with pytest.raises(ValueError):
        weighted_identity_check(4, 0, 1, 2)
    with pytest.raises(IndexError):
        weighted_identity_check(1, 1, 0, 2)
    with pytest.raises(IndexError):
        weighted_identity_check(1, 0, 5, 2)


# ---------------------------------------------------------------------------
# dimension and census
# ---------------------------------------------------------------------------

def test_dimension_values():
    assert dimension(1) == 3
    assert dimension(2) == 9
    assert dimension(6) == 729
    with pytest.raises(ValueError):
        dimension(0)
    with pytest.raises(ValueError):
        dimension(13)


def test_census_small_n():
    assert degree_census(1) == [1, 1, 1]
    assert degree_census(2) == [1, 2, 3, 2, 1]
    assert degree_census(4) == [1, 4, 10, 16, 19, 16, 10, 4, 1]


def test_census_sums_and_symmetry():
    for n in range(1, 8):
        c = degree_census(n)
        assert sum(c) == 3**n
        assert c == c[::-1]


@pytest.mark.parametrize("n", range(1, 8))
def test_census_enumeration_matches_convolution(n):
    # the convolution of (1 + t + t^2)^n against direct counting
    from collections import Counter

    counts = Counter(sum(m) for m in product((0, 1, 2), repeat=n))
    assert degree_census(n) == [counts[d] for d in range(2 * n + 1)]
    assert dimension(n) == sum(counts.values())


def test_census_fixture():
    data = clifford_census_fixture()
    assert data["degree_census_4"] == degree_census(4)
    for n_text, dim in data["dimensions"].items():
        assert dimension(int(n_text)) == dim


def test_grade_examples():
    assert grade((1, 0, 0)) == 1
    assert grade((1, 2, 0)) == 0
    assert grade(()) == 0


# ---------------------------------------------------------------------------
# cross-module consistency
# ---------------------------------------------------------------------------

def test_abstract_pair_phase_matches_matrix_realization():
    """q1*q2 = j^omega * q2*q1 holds with the same omega in the abstract
    algebra and in the 3x3 realization."""
    omega = pair_phase_matrix(nonion_basis())[1][2]
    ab = generator(2, 0) * generator(2, 1)
    ba = generator(2, 1) * generator(2, 0)
    assert ab == ba.scale(j_pow(omega))
    assert omega == 1
