import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonion.field import (
    J,
    J2,
    ONE,
    SQRT2,
    SQRT3,
    SQRT6,
    ZERO,
    FieldElem,
    common_numerators,
    fold_phases,
    j_pow,
    mul_accumulate,
    numerator_pairs,
    parse_rational,
    rational,
    sum_of_products,
)

from conftest import needs_sympy, random_field_elem, sympy_zero, to_sympy

# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------

def test_canonical_representation_lowest_terms():
    x = FieldElem.from_coeffs(["2/4", "0", "-6/8", "0", "0", "0", "0", "0"])
    assert x.coeffs[0] == Fraction(1, 2)
    assert x.coeffs[2] == Fraction(-3, 4)
    assert all(c.denominator > 0 for c in x.coeffs)


def test_equality_is_coordinatewise():
    a = rational(1, 3) + SQRT2
    b = FieldElem.from_coeffs(["1/3", "0", "1", "0", "0", "0", "0", "0"])
    assert a == b and hash(a) == hash(b)


def test_add_negate_gives_exact_zero():
    x = FieldElem.from_coeffs(["7/3", "-1/2", "4", "0", "9/7", "0", "0", "-5/6"])
    z = x + (-x)
    assert z == ZERO and z.nums == (0,) * 8 and z.den == 1


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-(10**30), 10**30) | st.integers(-12, 12),
    (st.integers(-(10**30), 10**30) | st.integers(-12, 12)).filter(bool),
)
def test_rational_equals_the_reduced_fraction(p, q):
    x = rational(p, q)
    assert x == FieldElem.from_fraction(Fraction(p, q))
    assert x.den > 0 and math.gcd(x.nums[0], x.den) == 1


def test_rational_rejects_a_zero_denominator():
    for p in (0, 1, -7):
        with pytest.raises(ZeroDivisionError):
            rational(p, 0)
    assert rational(0, -5) == ZERO and rational(0, -5).den == 1
    assert rational(6, -4) == FieldElem((-3, 0, 0, 0, 0, 0, 0, 0), 2)


def test_constructor_denominator_sign_and_zero():
    with pytest.raises(ZeroDivisionError):
        FieldElem((1, 0, 0, 0, 0, 0, 0, 0), 0)
    x = FieldElem((3, 0, -4, 0, 0, 0, 0, 6), -8)
    assert x.den == 8 and x.nums == (-3, 0, 4, 0, 0, 0, 0, -6)
    assert x == FieldElem.from_coeffs(["-3/8", 0, "1/2", 0, 0, 0, 0, "-3/4"])


def test_from_coeffs_rejects_a_wrong_count():
    with pytest.raises(ValueError, match="expected 8 coordinates, got 7"):
        FieldElem.from_coeffs([1] * 7)


def test_json_round_trip_and_zero_encoding():
    x = rational(-3, 4) + J * rational(5) + SQRT6 * rational(1, 6)
    enc = x.to_json()
    assert enc[1] == "5/1" and enc[2] == "0/1"
    assert FieldElem.from_json(enc) == x
    assert ZERO.to_json() == ["0/1"] * 8


def test_from_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FieldElem.from_json(["1/1"] * 7)
    with pytest.raises(ValueError):
        FieldElem.from_json(["1/1"] * 7 + ["nope"])


def test_parse_rational():
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("12") == Fraction(12)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(ValueError):
        parse_rational(3)  # a JSON number in place of a "p/q" string


# ---------------------------------------------------------------------------
# arithmetic spot values
# ---------------------------------------------------------------------------

def test_add_examples():
    assert J + J * J == -ONE  # 1 + j + j^2 = 0
    assert SQRT2 + ZERO == SQRT2
    assert (ONE + J) + (ONE + J2) == ONE


def test_multiply_examples():
    assert J * J == -ONE - J
    assert SQRT2 * SQRT3 == SQRT6
    assert (ONE + J) * (ONE + J) == J


def test_radical_squares():
    assert SQRT2 * SQRT2 == rational(2)
    assert SQRT3 * SQRT3 == rational(3)
    assert SQRT6 * SQRT6 == rational(6)
    assert SQRT2 * SQRT6 == rational(2) * SQRT3
    assert SQRT3 * SQRT6 == rational(3) * SQRT2


def test_invert_examples():
    assert SQRT2.invert() == SQRT2 * rational(1, 2)
    assert (ONE + J).invert() == -J  # 1 + j = -j^2
    assert J.invert() == J2
    with pytest.raises(ZeroDivisionError):
        ZERO.invert()


def test_invert_rational_equals_tower_inverse():
    # x * sqrt2 and x * j are irrational, so their inverses take the
    # conjugation tower; x itself is inverted directly.
    for p, q in ((1, 1), (-1, 1), (3, 1), (1, 3), (-7, 12), (22, 7), (10**20 + 1, -3**30)):
        x = rational(p, q)
        assert x.invert() == rational(q, p)
        assert x.invert() == (x * SQRT2).invert() * SQRT2
        assert x.invert() == (x * J).invert() * J
        assert x * x.invert() == ONE


def test_conjugate_j_examples():
    assert J.conjugate_j() == -ONE - J
    assert SQRT6.conjugate_j() == SQRT6
    x = ONE + rational(2) * J
    assert x.conjugate_j().conjugate_j() == x


def test_j_pow_periodicity():
    assert j_pow(0) == ONE and j_pow(1) == J and j_pow(2) == J2
    assert j_pow(3) == ONE and j_pow(-1) == J2


def test_approx_complex():
    re, im = J.approx_complex()
    assert abs(re + 0.5) < 1e-12 and abs(im - math.sqrt(3) / 2) < 1e-12
    re, im = SQRT2.approx_complex()
    assert abs(re - math.sqrt(2)) < 1e-12 and im == 0.0
    assert ZERO.approx_complex() == (0.0, 0.0)


def test_str_is_readable():
    assert str(ZERO) == "0"
    assert str(J) == "j"
    assert "1/2" in str(rational(1, 2) + SQRT3)


def test_str_single_minus_on_leading_term():
    assert str(FieldElem((0, -2, 0, 0, 0, 0, 0, 0))) == "-2j"
    assert str(SQRT3 * rational(-2, 3)) == "-2/3√3"
    assert str(-J) == "-j"
    assert str(rational(-2)) == "-2"
    assert str(rational(-1, 9) * SQRT3 - rational(2, 9) * J * SQRT3) == "-1/9√3 - 2/9j√3"


# ---------------------------------------------------------------------------
# field axioms in bulk (seeded, exact)
# ---------------------------------------------------------------------------

def test_field_axioms_on_10k_random_triples():
    rng = random.Random(314159)
    for trial in range(10_000):
        density = 1.0 if trial % 5 == 0 else 0.4
        a = random_field_elem(rng, density=density)
        b = random_field_elem(rng, density=density)
        c = random_field_elem(rng, density=density)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_invert_is_two_sided_on_random_sample():
    rng = random.Random(9)
    done = 0
    while done < 300:
        a = random_field_elem(rng, density=0.7)
        if a.is_zero():
            continue
        inv = a.invert()
        assert a * inv == ONE and inv * a == ONE
        done += 1


def test_conjugate_j_is_ring_automorphism():
    rng = random.Random(10)
    for _ in range(300):
        a = random_field_elem(rng)
        b = random_field_elem(rng)
        assert (a * b).conjugate_j() == a.conjugate_j() * b.conjugate_j()
        assert (a + b).conjugate_j() == a.conjugate_j() + b.conjugate_j()


# ---------------------------------------------------------------------------
# the same axioms through hypothesis, for shrinkable counterexamples
# ---------------------------------------------------------------------------

ints_st = st.integers(min_value=-99, max_value=99)
field_st = st.builds(
    FieldElem,
    st.lists(ints_st, min_size=8, max_size=8),
    st.integers(min_value=1, max_value=99),
)


@settings(max_examples=30, deadline=None)
@given(field_st, field_st, field_st)
def test_hypothesis_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=30, deadline=None)
@given(field_st)
def test_hypothesis_inverse(a):
    if not a.is_zero():
        assert a * a.invert() == ONE


@settings(max_examples=30, deadline=None)
@given(field_st)
def test_hypothesis_conjugation_fixes_norm_subfield(a):
    # each conjugation takes the norm one step down the tower, and the last
    # norm is rational, which invert() then inverts directly
    n1 = a * a.conjugate_j()
    assert n1.has_zero_j_part()
    n2 = n1 * n1._conj_sqrt3()
    n3 = n2 * n2._conj_sqrt2()
    assert n3.is_rational()


# ---------------------------------------------------------------------------
# the raw numerator kernels against FieldElem arithmetic
# ---------------------------------------------------------------------------

# zeros are common, so the kernels see sparse numerators; denominators up
# to 10^12 are mixed freely
wide_st = st.builds(
    FieldElem,
    st.lists(st.just(0) | st.integers(-(10**12), 10**12), min_size=8, max_size=8),
    st.integers(min_value=1, max_value=10**12),
)


def _dense(pairs) -> list[int]:
    """8 numerators from nonzero Z[j] pairs (radical, x, y), radicals ascending."""
    out = [0] * 8
    assert [r for r, _, _ in pairs] == sorted({r for r, _, _ in pairs})
    for r, x, y in pairs:
        assert x or y
        out[2 * r], out[2 * r + 1] = x, y
    return out


@settings(max_examples=30, deadline=None)
@given(st.lists(wide_st, min_size=1, max_size=6))
def test_common_numerators_against_field_elems(elems):
    sparse, den = common_numerators(elems)
    assert den == math.lcm(*(e.den for e in elems))
    for e, x in zip(elems, sparse):
        assert FieldElem(_dense(x), den) == e


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(wide_st, wide_st), min_size=1, max_size=5))
def test_mul_accumulate_against_field_products(pairs):
    left, da = common_numerators([a for a, _ in pairs])
    right, db = common_numerators([b for _, b in pairs])
    acc = [0] * 8
    for x, y in zip(left, right):
        mul_accumulate(acc, x, y)
    assert FieldElem(acc, da * db) == sum((a * b for a, b in pairs), ZERO)


# The coordinate-by-coordinate product the Z[j] pair kernel replaced:
# _COORD_MUL[i][k] lists (index, integer coefficient) of b_i * b_k on the
# basis [1, j, sqrt2, j sqrt2, sqrt3, j sqrt3, sqrt6, j sqrt6], rebuilt here
# from the radicands and j^2 = -1 - j.
_RADICANDS = (1, 2, 3, 6)


def _coord_mul_entry(i: int, k: int) -> tuple:
    (r1, e1), (r2, e2) = divmod(i, 2), divmod(k, 2)
    n = _RADICANDS[r1] * _RADICANDS[r2]
    m = next(m for m in (6, 3, 2, 1) if n % (m * m) == 0)
    r = _RADICANDS.index(n // (m * m))
    if e1 + e2 < 2:
        return ((2 * r + e1 + e2, m),)
    return ((2 * r, -m), (2 * r + 1, -m))


_COORD_MUL = [[_coord_mul_entry(i, k) for k in range(8)] for i in range(8)]


def _coord_mul_accumulate(acc: list[int], a: list[int], b: list[int]) -> None:
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            if x and y:
                for idx, c in _COORD_MUL[i][k]:
                    acc[idx] += x * y * c


_int9 = st.integers(-(10**9), 10**9)


def _on_radical(r: int, x: int, y: int) -> list[int]:
    out = [0] * 8
    out[2 * r], out[2 * r + 1] = x, y
    return out


# raw numerators of every shape the kernels see: rationals (y = 0), pure j
# (x = 0), Z[j] values, values on one radical, dense and sparse wide values
# with 9-digit numerators, and zero
nums_st = st.one_of(
    st.builds(_on_radical, st.just(0), _int9, st.just(0)),
    st.builds(_on_radical, st.just(0), st.just(0), _int9),
    st.builds(_on_radical, st.just(0), _int9, _int9),
    st.builds(_on_radical, st.integers(1, 3), _int9, _int9),
    st.lists(_int9, min_size=8, max_size=8),
    st.lists(st.just(0) | _int9, min_size=8, max_size=8),
    st.just([0] * 8),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(nums_st, nums_st), min_size=1, max_size=4))
def test_mul_accumulate_against_coordinate_table(pairs):
    acc, expected = [0] * 8, [0] * 8
    for a, b in pairs:
        x, y = numerator_pairs(a), numerator_pairs(b)
        assert _dense(x) == a and _dense(y) == b
        mul_accumulate(acc, x, y)
        _coord_mul_accumulate(expected, a, b)
    assert acc == expected


factor_st = st.tuples(nums_st, st.integers(1, 10**9))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(factor_st, min_size=1, max_size=4), min_size=1, max_size=5),
       st.booleans())
def test_sum_of_products_against_coordinate_table(rows, cancel):
    if cancel:  # the first row again, negated: the two products cancel
        (nums, den), *rest = rows[0]
        rows = rows + [[([-n for n in nums], den), *rest]]
    prods = []
    for row in rows:
        acc, den = row[0]
        for nums, d in row[1:]:
            out = [0] * 8
            _coord_mul_accumulate(out, acc, nums)
            acc, den = out, den * d
        prods.append((acc, den))
    lcm = math.lcm(*(d for _, d in prods))
    total = [sum(acc[i] * (lcm // d) for acc, d in prods) for i in range(8)]
    got = sum_of_products([[(numerator_pairs(n), d) for n, d in row] for row in rows])
    assert got == FieldElem(total, lcm)
    if cancel and len(rows) == 2:
        assert got == ZERO


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([8, 2]).flatmap(
    lambda size: st.lists(
        st.none() | st.lists(st.integers(-(10**9), 10**9), min_size=size, max_size=size),
        min_size=3, max_size=3,
    )
))
def test_fold_phases_against_j_powers(classes):
    """On 8 numerators, and on the 2 of one Z[j] pair, as the first radical
    of a field element; with every class missing the sum is 8 zeros."""
    size = next((len(c) for c in classes if c is not None), 8)
    expected = ZERO
    for power, c in zip((ONE, J, J2), classes):
        if c is not None:
            expected = expected + power * FieldElem([*c] + [0] * (8 - size))
    out = fold_phases(*classes)
    assert len(out) == size
    assert FieldElem(out + [0] * (8 - size)) == expected
    # (1 + 2j) + j (3 + 4j) = -3 + j, and j^2 (x + y j) = (y - x) - x j
    assert fold_phases([1, 2], [3, 4], None) == [-3, 1]
    assert fold_phases(None, None, [5, -7]) == [-12, -5]
    assert fold_phases(None, None, None) == [0] * 8


# ---------------------------------------------------------------------------
# FieldElem arithmetic against sympy algebraic numbers
# ---------------------------------------------------------------------------

@needs_sympy
@settings(max_examples=15, deadline=None)
@given(wide_st, wide_st)
def test_mul_against_sympy(a, b):
    assert sympy_zero(to_sympy(a * b) - to_sympy(a) * to_sympy(b))


@needs_sympy
@settings(max_examples=25, deadline=None)
@given(wide_st.filter(bool))
def test_invert_against_sympy(a):
    assert sympy_zero(to_sympy(a.invert()) * to_sympy(a) - 1)


@needs_sympy
@settings(max_examples=15, deadline=None)
@given(wide_st, wide_st)
def test_add_sub_div_against_sympy(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    assert sympy_zero(to_sympy(a + b) - (sa + sb))
    assert sympy_zero(to_sympy(a - b) - (sa - sb))
    if b:
        assert sympy_zero(to_sympy(a / b) * sb - sa)


@needs_sympy
@settings(max_examples=20, deadline=None)
@given(wide_st)
def test_conjugate_j_against_sympy(a):
    # j -> j^2 is complex conjugation; the radicals are real
    import sympy

    assert sympy_zero(to_sympy(a.conjugate_j()) - sympy.conjugate(to_sympy(a)))


@needs_sympy
@settings(max_examples=15, deadline=None)
@given(field_st.filter(bool), st.integers(-2, 4))
def test_pow_against_sympy(a, n):
    sa = to_sympy(a)
    if n >= 0:
        assert sympy_zero(to_sympy(a**n) - sa**n)
    else:
        assert sympy_zero(to_sympy(a**n) * sa ** (-n) - 1)


@needs_sympy
@settings(max_examples=10, deadline=None)
@given(field_st, field_st, field_st)
def test_field_axioms_against_sympy(a, b, c):
    sa, sb, sc = to_sympy(a), to_sympy(b), to_sympy(c)
    for left, right in (
        ((a * b) * c, sa * sb * sc),
        (a * (b * c), sa * sb * sc),
        (b * a, sa * sb),
        ((a + b) + c, sa + sb + sc),
        (a * (b + c), sa * sb + sa * sc),
    ):
        assert sympy_zero(to_sympy(left) - right)
    if a:
        assert sympy_zero(to_sympy(a * a.invert()) - 1)
