import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonion import _clifford_matrix, clifford, matrix
from nonion.bases import nonion_basis, tu3_basis
from nonion.field import J, J2, ONE, SQRT2, ZERO, FieldElem, rational
from nonion.matrix import (
    Mat3,
    SingularGramError,
    decompose_in_basis,
    hs_inner,
)

import oracle
from conftest import entry_st, mat3_st, radical_st, random_field_elem, random_mat3, wide_elem_st

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


def test_decompose_errors(nonions, tu3):
    q = nonions.elements
    with pytest.raises(SingularGramError):
        decompose_in_basis(q[1], q, (ZERO,) * 9)
    # one zero gram is enough, and it is raised before any projection
    for basis in (nonions, tu3):
        grams = (*basis.grams[:4], ZERO, *basis.grams[5:])
        with pytest.raises(SingularGramError):
            decompose_in_basis(basis.elements[4], basis.elements, grams)
    with pytest.raises(SingularGramError):
        decompose_in_basis(Mat3.zero(), [Mat3.identity()] * 9, (ONE,) * 8 + (ZERO,))
    # eight elements or eight grams cannot rebuild a 3x3 matrix; the length
    # is checked before the zero gram
    with pytest.raises(ValueError):
        decompose_in_basis(q[1], tu3.elements[:8], tu3.grams)
    with pytest.raises(ValueError):
        decompose_in_basis(q[1], q, nonions.grams[:8])
    with pytest.raises(ValueError):
        decompose_in_basis(q[1], q[:8], (ZERO,) * 9)


def test_construction_needs_nine_entries_and_repr():
    with pytest.raises(ValueError) as exc:
        Mat3([ONE] * 8)
    assert type(exc.value) is ValueError and str(exc.value) == "Mat3 needs 9 entries"
    assert repr(Mat3.diag(ONE, J, rational(1, 2))) == "Mat3([[1, 0, 0]; [0, j, 0]; [0, 0, 1/2]])"


def test_json_round_trip(nonions):
    m = nonions.elements[5]
    assert Mat3.from_json(m.to_json()) == m
    with pytest.raises(ValueError):
        Mat3.from_json([[["1/1"] * 8] * 3] * 2)


# ---------------------------------------------------------------------------
# the sum-of-products kernel against chained FieldElem arithmetic
# ---------------------------------------------------------------------------

def chained_mul(a: Mat3, b: Mat3) -> Mat3:
    x, y = a.entries, b.entries
    return Mat3([x[i] * y[j] + x[i + 1] * y[3 + j] + x[i + 2] * y[6 + j]
                 for i in (0, 3, 6) for j in (0, 1, 2)])


def chained_det(m: Mat3) -> FieldElem:
    e = m.entries
    return (
        e[0] * (e[4] * e[8] - e[5] * e[7])
        - e[1] * (e[3] * e[8] - e[5] * e[6])
        + e[2] * (e[3] * e[7] - e[4] * e[6])
    )


def chained_hs_inner(a: Mat3, b: Mat3) -> FieldElem:
    total = ZERO
    for x, y in zip(a.entries, b.entries):
        total = total + x.conjugate_j() * y
    return total


@settings(max_examples=40, deadline=None)
@given(mat3_st, mat3_st)
def test_mul_det_hs_inner_match_chained_arithmetic(a, b):
    assert a * b == chained_mul(a, b)
    assert a.det() == chained_det(a)
    assert hs_inner(a, b) == chained_hs_inner(a, b)


@settings(max_examples=25, deadline=None)
@given(entry_st, entry_st, mat3_st)
def test_sums_that_cancel_give_exact_zero(x, y, m):
    e = m.entries
    # entry (0, 0) of a * b is x*y + y*(-x) + 0*e[6]
    a = Mat3([x, y, ZERO, *e[3:]])
    b = Mat3([y, e[1], e[2], -x, *e[4:]])
    p = a * b
    assert p == chained_mul(a, b) and p[0, 0] == ZERO
    assert p[0, 0].nums == (0,) * 8 and p[0, 0].den == 1
    # two equal rows
    singular = Mat3([*e[:3], *e[3:6], *e[:3]])
    assert singular.det() == ZERO == chained_det(singular)
    # conj(x)*y + conj(x)*(-y)
    assert hs_inner(Mat3([x, x, *e[2:]]), Mat3([y, -y] + [ZERO] * 7)) == ZERO


zj_st = st.just(0) | st.integers(-(10**6), 10**6)
zj_mat_st = st.lists(st.tuples(zj_st, zj_st), min_size=9, max_size=9).map(tuple)


def _library(m) -> Mat3:
    return Mat3([FieldElem((a, b, 0, 0, 0, 0, 0, 0)) for a, b in m])


@settings(max_examples=40, deadline=None)
@given(zj_mat_st, zj_mat_st)
def test_mul_and_det_against_zj_oracle(a, b):
    p = _library(a) * _library(b)
    assert tuple(oracle.from_library_scalar(x) for x in p.entries) == oracle.mat_mul(a, b)
    assert oracle.from_library_scalar(_library(a).det()) == oracle.det(a)


# ---------------------------------------------------------------------------
# the clock-and-shift readback: nonion decompositions and dense Clifford
# products share the radix-3 stage clifford._dft
# ---------------------------------------------------------------------------

def hs_decompose(m: Mat3, basis, grams) -> tuple:
    """The projection as chained arithmetic: tr(b^dagger m) / gram."""
    return tuple(chained_hs_inner(b, m) / g for b, g in zip(basis, grams))


# radical, Z[j] and wide entries, with zero cells common
readback_mat_st = mat3_st | zj_mat_st.map(_library)


@settings(max_examples=60, deadline=None)
@given(readback_mat_st)
def test_nonion_decompose_matches_hs_projection(m):
    q = nonion_basis()
    coeffs = decompose_in_basis(m, q.elements, q.grams)
    assert coeffs == hs_decompose(m, q.elements, q.grams)
    rebuilt = Mat3.zero()
    for c, b in zip(coeffs, q.elements):
        rebuilt = rebuilt + b.scale(c)
    assert rebuilt == m


@settings(max_examples=30, deadline=None)
@given(readback_mat_st, st.lists((radical_st | wide_elem_st).filter(bool), min_size=9, max_size=9))
def test_nonion_decompose_divides_by_any_gram(m, grams):
    q = nonion_basis().elements
    six = (rational(6),) * 9
    assert decompose_in_basis(m, q, six) == tuple(
        c * rational(1, 2) for c in decompose_in_basis(m, q, nonion_basis().grams)
    )
    assert decompose_in_basis(m, q, six) == hs_decompose(m, q, six)
    # rational grams of either sign, and field grams, one per element
    assert decompose_in_basis(m, q, grams) == hs_decompose(m, q, grams)
    mixed = [rational(-5, 7), rational(1, 3), J, SQRT2, rational(9)] + grams[5:]
    assert decompose_in_basis(m, q, mixed) == hs_decompose(m, q, mixed)


@settings(max_examples=30, deadline=None)
@given(readback_mat_st)
def test_tu3_decompose_matches_hs_projection(m):
    t = tu3_basis()
    assert decompose_in_basis(m, t.elements, t.grams) == hs_decompose(m, t.elements, t.grams)


def test_repeated_decomposition_hashes_no_entry(monkeypatch, nonions):
    # the nonion basis is recognised by equality, not looked up by hash
    calls = []
    real = FieldElem.__hash__
    monkeypatch.setattr(FieldElem, "__hash__", lambda self: (calls.append(1), real(self))[1])
    basis = tuple(Mat3(b.entries) for b in nonions.elements)
    m = Mat3([rational(k - 4, k + 1) * J for k in range(9)])
    first = decompose_in_basis(m, basis, nonions.grams)
    assert calls == []
    assert decompose_in_basis(m, basis, nonions.grams) == first
    assert calls == []
    assert first == decompose_in_basis(m, nonions.elements, nonions.grams)


def test_decompose_reads_back_only_the_nonion_basis(monkeypatch, nonions, tu3):
    calls = []
    real = matrix.hs_inner
    monkeypatch.setattr(matrix, "hs_inner", lambda a, b: (calls.append(1), real(a, b))[1])
    m = Mat3([rational(k - 4, k + 1) * J for k in range(9)])
    coeffs = decompose_in_basis(m, nonions.elements, nonions.grams)
    copy = [Mat3(b.entries) for b in nonions.elements]
    assert decompose_in_basis(m, copy, nonions.grams) == coeffs
    halves = (rational(3, 2),) * 9
    assert decompose_in_basis(m, nonions.elements, halves) == tuple(c * rational(2) for c in coeffs)
    assert calls == []
    assert decompose_in_basis(m, tu3.elements, tu3.grams) == hs_decompose(m, tu3.elements, tu3.grams)
    assert len(calls) == 9
    # a phase times a nonion element is another clock-and-shift basis: it pairs
    phased = (nonions.elements[0].scale(J2), *nonions.elements[1:])
    assert decompose_in_basis(m, phased, nonions.grams) == hs_decompose(m, phased, nonions.grams)
    assert len(calls) == 18
    # so does a matrix with one entry 1, j or j^2 per column that is not clock-and-shift
    swap = Mat3([ZERO, J, ZERO, ONE, ZERO, ZERO, ZERO, ZERO, J2])
    swapped = (swap, *nonions.elements[1:])
    assert decompose_in_basis(m, swapped, nonions.grams) == hs_decompose(m, swapped, nonions.grams)
    assert len(calls) == 27
    # one that is the identity in its first two columns only
    clock = (Mat3.diag(ONE, ONE, J), *nonions.elements[1:])
    assert decompose_in_basis(m, clock, nonions.grams) == hs_decompose(m, clock, nonions.grams)
    assert len(calls) == 36
    # a basis that repeats a clock-and-shift element
    repeated = (nonions.elements[1], *nonions.elements[1:])
    assert decompose_in_basis(m, repeated, nonions.grams) == hs_decompose(m, repeated, nonions.grams)
    assert len(calls) == 45
    scaled = (nonions.elements[0].scale(rational(2)), *nonions.elements[1:])
    grams = (rational(12), *nonions.grams[1:])
    assert decompose_in_basis(m, scaled, grams) == hs_decompose(m, scaled, grams)
    assert len(calls) == 54
    # and an element with a zero column
    corner = (Mat3([ONE] + [ZERO] * 8), *nonions.elements[1:])
    grams = (ONE, *nonions.grams[1:])
    assert decompose_in_basis(m, corner, grams) == hs_decompose(m, corner, grams)
    assert len(calls) == 63


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dense_clifford_matrix_product_matches_pairwise_kernel(n, monkeypatch):
    rng = random.Random(900 + n)
    monos = list(product((0, 1, 2), repeat=n))

    def dense():
        return {m: random_field_elem(rng, density=0.4, bound=30) or ONE for m in monos}

    a, b = dense(), dense()
    # unrelated denominators make wide numerators: too wide for 64-bit slots
    widths = []
    real = _clifford_matrix._packed_product
    monkeypatch.setattr(
        _clifford_matrix, "_packed_product", lambda *args: (widths.append(args[3]), real(*args))[1]
    )
    assert _clifford_matrix._matrix_product(n, a, b) == {
        m: c for m, c in clifford._pairwise_product(a, b).items() if c
    }
    assert len(widths) == (3 if n % 2 else 1) and min(widths) > 64  # one per block
