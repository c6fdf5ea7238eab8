import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonion import _clifford_matrix, clifford
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
from nonion.field import J, J2, ONE, ZERO, FieldElem, j_pow, rational
from nonion.fixtures import clifford_census_fixture, load_fixture
from nonion.matrix import Mat3

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


def test_element_coeff_hash_and_repr():
    a = generator(2, 0) + generator(2, 1, 2).scale(J)
    b = generator(2, 1, 2).scale(J) + generator(2, 0)
    assert a.coeff((0, 2)) == J and a.coeff([1, 0]) == ONE and a.coeff((1, 1)) == ZERO
    assert hash(a) == hash(b) and len({a, b, generator(2, 0)}) == 2
    assert repr(a) == "CliffElement(n=2, (j) q2^2 + (1) q1)"
    assert repr(CliffElement(3)) == "CliffElement(n=3, 0)"


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
    """Up to 24 terms, or every monomial one time in four."""
    monos = list(product((0, 1, 2), repeat=n))
    size = len(monos) if rng.random() < 0.25 else rng.randint(1, min(len(monos), 24))
    return CliffElement(n, {m: coeff() for m in rng.sample(monos, size)})


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


# ---------------------------------------------------------------------------
# the matrix path: the faithful clock-and-shift representation
# ---------------------------------------------------------------------------

_coeff_st = st.builds(
    FieldElem,
    st.lists(st.integers(-40, 40) | st.just(0), min_size=8, max_size=8),
    st.integers(1, 36),
)


@st.composite
def _operands(draw):
    """(n, a, b): n = 1..6 and two elements, dense, sparse or in between.

    A small palette of hypothesis-drawn field elements (radicals, mixed
    denominators) times powers of j and signs fills the chosen monomials.
    At n >= 5 one operand keeps at most 12 terms, so the reference stays fast.
    """
    n = draw(st.integers(1, 6))
    monos = list(product((0, 1, 2), repeat=n))
    palette = draw(st.lists(_coeff_st.filter(bool), min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def element(most):
        size = draw(st.sampled_from([most, 12, 2, 1]))
        chosen = rng.sample(monos, min(size, len(monos)))
        return CliffElement(n, {
            m: rng.choice(palette) * j_pow(rng.randrange(3)) * rng.choice((ONE, -ONE))
            for m in chosen
        })

    a = element(len(monos))
    b = element(len(monos) if n <= 4 else 12)
    return (n, a, b) if draw(st.booleans()) else (n, b, a)


def _matrix(a: CliffElement, b: CliffElement) -> CliffElement:
    return CliffElement(a.n, _clifford_matrix._matrix_product(a.n, a.terms, b.terms))


@settings(max_examples=30, deadline=None)
@given(_operands())
def test_matrix_path_matches_pairwise_reference(operands):
    n, a, b = operands
    assert _matrix(a, b) == pairwise_product(a, b)


@pytest.mark.parametrize("n", [5, 6])
def test_matrix_path_dense_times_sparse(n):
    rng = random.Random(700 + n)
    monos = list(product((0, 1, 2), repeat=n))
    dense = CliffElement(n, {m: random_field_elem(rng, density=0.5, bound=20) for m in monos})
    sparse = CliffElement(n, {m: random_field_elem(rng, bound=20) for m in rng.sample(monos, 3)})
    assert _matrix(dense, sparse) == pairwise_product(dense, sparse)
    assert _matrix(sparse, dense) == pairwise_product(sparse, dense)


@settings(max_examples=15, deadline=None)
@given(_operands(), st.data())
def test_matrix_path_cancels_to_zero(operands, data):
    # a (1 + q_k + q_k^2) times (1 - q_k) b is a (1 - q_k^3) b = 0
    n, a, b = operands
    k = data.draw(st.integers(0, n - 1))
    a0 = pairwise_product(a, unit(n) + generator(n, k) + generator(n, k, 2))
    b0 = pairwise_product(unit(n) - generator(n, k), b)
    assert _matrix(a0, b0).is_zero()


def _action_matrix(action) -> Mat3:
    ent = [ZERO] * 9
    for col, (row, e) in enumerate(action):
        ent[3 * row + col] = j_pow(e)
    return Mat3(ent)


def test_two_generator_representation_is_the_nonion_pair(nonions):
    shift = Mat3.from_rows([[ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ONE, ZERO, ZERO]])
    q1 = _action_matrix(clifford._column_action((1, 0)))
    q2 = _action_matrix(clifford._column_action((0, 1)))
    assert q1 == shift == nonions.elements[1]
    assert q2 == shift * Mat3.diag(J2, ONE, J) == nonions.elements[2]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_column_action_is_the_product_of_generator_actions(n):
    """The closed form of every monomial against composing its generators."""
    def compose(x, y):  # x y, y acting first
        return [(x[t][0], (e + x[t][1]) % 3) for t, e in y]

    gens = [clifford._column_action(tuple(int(i == k) for i in range(n))) for k in range(n)]
    d = len(gens[0])
    for mono in product((0, 1, 2), repeat=n):
        word = [(t, 0) for t in range(d)]
        for k, e in enumerate(mono):
            for _ in range(e):
                word = compose(word, gens[k])
        assert clifford._column_action(mono) == word


def test_dense_product_takes_the_matrix_path(monkeypatch):
    rng = random.Random(44)
    monos = list(product((0, 1, 2), repeat=4))
    a, b = (
        CliffElement(4, {m: random_field_elem(rng, density=0.4, bound=9) for m in monos})
        for _ in range(2)
    )
    expected = pairwise_product(a, b)

    def refuse(*args):
        raise AssertionError("dense product reached the pairwise kernel")

    monkeypatch.setattr(clifford, "_pairwise_product", refuse)
    assert a * b == expected


def test_generator_words_stay_on_the_pairwise_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("a generator word reached the matrix path")

    monkeypatch.setattr(_clifford_matrix, "_matrix_product", refuse)
    assert generator(12, 11) * generator(12, 0) == (
        generator(12, 0) * generator(12, 11)
    ).scale(J2)
    for n in (2, 4, 6, 12):
        assert not clifford._matrix_is_cheaper(n, 1, 1)
        assert not clifford._matrix_is_cheaper(n, 3, 3)
    assert clifford._matrix_is_cheaper(5, 243, 243)


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_dense_product_in_oracle_representation(n):
    """rep(a) rep(b) v = rep(ab) v in the tensor representation of
    tests/oracle.py, for dense Z[j] operands on the matrix path (at n = 7
    the right operand keeps 30 terms).  v holds three basis states, each
    of which alone determines every coefficient of ab."""
    rng = random.Random(500 + n)

    def zj(bound):
        x = (0, 0)
        while x == (0, 0):
            x = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        return x

    monos = list(product((0, 1, 2), repeat=n))
    right = monos if n < 7 else rng.sample(monos, 30)
    ca, cb = ({m: zj(4) for m in chosen} for chosen in (monos, right))
    a, b = (
        CliffElement(n, {m: FieldElem((x, y, 0, 0, 0, 0, 0, 0)) for m, (x, y) in c.items()})
        for c in (ca, cb)
    )
    assert clifford._matrix_is_cheaper(n, len(a.terms), len(b.terms))
    cab = {m: oracle.from_library_scalar(c) for m, c in (a * b).terms.items()}
    gens = [oracle.clifford_generator(n, k) for k in range(n)]
    v = {s: zj(9) for s in rng.sample(range(3**n), 3)}
    lhs = oracle.clifford_apply(gens, ca, oracle.clifford_apply(gens, cb, v))
    assert lhs == oracle.clifford_apply(gens, cab, v)


# ---------------------------------------------------------------------------
# the packed-row product inside the matrix path
# ---------------------------------------------------------------------------

def _spy_product_widths(monkeypatch) -> list[int]:
    """Record the slot width each block product packs its rows with."""
    widths: list[int] = []
    real = _clifford_matrix._packed_product
    monkeypatch.setattr(
        _clifford_matrix, "_packed_product", lambda *args: (widths.append(args[3]), real(*args))[1]
    )
    return widths


def _pairwise(a: CliffElement, b: CliffElement) -> CliffElement:
    return CliffElement(a.n, clifford._pairwise_product(a.terms, b.terms))


def _blocks(n: int) -> int:
    """The number of d x d blocks of the image: three for odd n, one for even n."""
    return 3 if n % 2 else 1


def _scatter(live, vecs) -> list[tuple[int, ...]]:
    """Each cell of flat vectors of the live coordinates (x and y of each
    live radical in turn) as its 8 raw numerators."""
    cells = [[0] * 8 for _ in vecs[0]]
    for k, r in enumerate(live):
        for cell, x, y in zip(cells, vecs[2 * k], vecs[2 * k + 1]):
            cell[2 * r], cell[2 * r + 1] = x, y
    return [tuple(cell) for cell in cells]


def _dense_zj(rng, monos, bound=4) -> dict:
    return {
        m: FieldElem([rng.randint(-bound, bound) or 1, rng.randint(-bound, bound)] + [0] * 6)
        for m in monos
    }


@pytest.mark.parametrize("n", [5, 6])
def test_packed_product_dense_zj(n, monkeypatch):
    rng = random.Random(1200 + n)
    monos = list(product((0, 1, 2), repeat=n))
    a = CliffElement(n, _dense_zj(rng, monos))
    # at n = 6 the right operand has 81 terms, so the pairwise reference stays fast
    b = CliffElement(n, _dense_zj(rng, monos if n == 5 else rng.sample(monos, 81)))
    widths = _spy_product_widths(monkeypatch)
    assert _matrix(a, b) == _pairwise(a, b)
    assert _matrix(b, a) == _pairwise(b, a)
    assert widths == [64] * 2 * _blocks(n)


@pytest.mark.parametrize("n", [4, 5])
def test_packed_product_four_radicals_negative_coordinates(n, monkeypatch):
    rng = random.Random(1300 + n)
    monos = list(product((0, 1, 2), repeat=n))
    a = CliffElement(n, {m: FieldElem([rng.randint(-9, 9) for _ in range(8)]) for m in monos})
    b = CliffElement(n, {
        m: FieldElem([-rng.randint(0, 9) for _ in range(8)], 5)
        for m in (monos if n == 4 else rng.sample(monos, 30))
    })
    widths = _spy_product_widths(monkeypatch)
    assert _matrix(a, b) == _pairwise(a, b)
    assert _matrix(b, a) == _pairwise(b, a)
    assert widths == [64] * 2 * _blocks(n)


def test_packed_product_zero_row_and_column(monkeypatch):
    """An operand whose d x d image is zero in row 2 and in column 5.

    The readback of d times the image gives the traces tr(M^dagger P), d
    times each coefficient."""
    n, d = 4, 9
    rng = random.Random(1400)
    image = [
        [0] * 8 if row == 2 or col == 5 else [rng.randint(-6, 6) for _ in range(8)]
        for row in range(d)
        for col in range(d)
    ]
    scaled = [[d * v for v in cell] for cell in image]
    a = CliffElement(n, {
        m: FieldElem(nums, d)
        for m, nums in _clifford_matrix._read_back(n, range(4), [list(zip(*scaled))])
    })
    live, [vecs], den = _clifford_matrix._to_vectors(n, a.terms)
    assert live == [0, 1, 2, 3]
    assert [FieldElem(cell, den) for cell in _scatter(live, vecs)] == [FieldElem(c) for c in image]
    monos = list(product((0, 1, 2), repeat=n))
    b = CliffElement(n, {m: FieldElem([rng.randint(-7, 7) for _ in range(8)]) for m in monos})
    widths = _spy_product_widths(monkeypatch)
    assert _matrix(a, b) == _pairwise(a, b)
    assert _matrix(b, a) == _pairwise(b, a)
    assert widths == [64] * 2


def _four_radicals(rng, monos, den=1) -> dict:
    return {m: FieldElem([rng.randint(-9, 9) for _ in range(8)], den) or ONE for m in monos}


@pytest.mark.parametrize("n, radicals", [(5, 1), (4, 4)])
def test_packed_dense_product_makes_four_dot_products_per_row_and_pair(n, radicals, monkeypatch):
    """Each row of a block product takes four C-level dot products per
    pair of live radicals: 4 * 27 for dense Z[j] operands at n = 5 (rows =
    blocks * d = 27, one pair), where the per-cell product made up to one
    call per nonzero cell, 27 * 9, and 4 * 9 * 16 at n = 4 on four
    radicals."""
    rng = random.Random(1500 + n)
    monos = list(product((0, 1, 2), repeat=n))
    if radicals == 1:
        a, b = (CliffElement(n, _dense_zj(rng, monos)) for _ in range(2))
    else:
        a, b = (CliffElement(n, _four_radicals(rng, monos, 5)) for _ in range(2))
    rows = _blocks(n) * 3 ** (n // 2)
    expected = _pairwise(a, b)
    dots, inside = [], []
    real_product = _clifford_matrix._packed_product

    def count(items):
        dots.extend(inside)
        return sum(items)

    def packed_product(*args):
        inside.append(1)
        try:
            return real_product(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(_clifford_matrix, "sum", count, raising=False)
    monkeypatch.setattr(_clifford_matrix, "_packed_product", packed_product)
    assert a * b == expected
    assert len(dots) == 4 * rows * radicals**2


def _kernel_operands(rng, kind: str, monos) -> dict:
    if kind == "zj":
        return _dense_zj(rng, monos)
    if kind == "wide":
        return _dense_zj(rng, monos, 10**12)
    if kind == "radicals":
        return _four_radicals(rng, monos, 5)
    return {
        m: FieldElem([rng.randint(-9, 9) for _ in range(8)], rng.choice((1, 2, 9, 35))) or ONE
        for m in monos
    }


@pytest.mark.parametrize("kind", ["zj", "wide", "radicals", "mixed"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_read_back_divides_exactly_to_canonical_coefficients(n, kind, monkeypatch):
    """Every trace the readback transform gives is a multiple of blocks * d,
    since the product's coefficients are integer Z[j]-radical numerators
    over da * db, so the readback divides it out exactly; each coefficient
    comes out canonical and equal to the pairwise kernel's.  From n = 5 the
    right operand keeps 12 terms, so the reference stays fast."""
    rng = random.Random(2000 + 10 * n + len(kind))
    monos = list(product((0, 1, 2), repeat=n))
    a = _kernel_operands(rng, kind, monos)
    b = _kernel_operands(rng, kind, monos if n < 5 else rng.sample(monos, 12))
    traces: list = []
    real = _clifford_matrix._transform
    monkeypatch.setattr(
        _clifford_matrix, "_transform", lambda *args: traces.append(real(*args)) or traces[-1]
    )
    for x, y in ((a, b), (b, a)):
        traces.clear()
        out = _clifford_matrix._matrix_product(n, x, y)
        # the transforms of x and y, then the readback's
        assert len(traces) == 3
        assert all(v % (_blocks(n) * 3 ** (n // 2)) == 0 for v in traces[-1])
        assert out and all(c.den > 0 and math.gcd(c.den, *c.nums) == 1 for c in out.values())
        assert out == clifford._pairwise_product(x, y)


def test_no_zero_coefficient_reaches_the_terms():
    """(q1 + q2)(q2 - j q1) cancels on q1 q2 in the pairwise kernel, and
    a (1 + q + q^2) times (1 - q) b everywhere in the matrix kernel."""
    q1, q2 = generator(2, 0), generator(2, 1)
    a, b = q1 + q2, q2 - q1.scale(J)
    assert (1, 1) not in clifford._pairwise_product(a.terms, b.terms)
    assert (a * b).terms and all((a * b).terms.values())
    rng = random.Random(2100)
    monos = list(product((0, 1, 2), repeat=4))
    dense = CliffElement(4, _dense_zj(rng, monos))
    q = generator(4, 3)
    left, right = _pairwise(dense, unit(4) + q + q * q), _pairwise(unit(4) - q, dense)
    assert clifford._matrix_is_cheaper(4, len(left.terms), len(right.terms))
    assert _clifford_matrix._matrix_product(4, left.terms, right.terms) == {}
    assert (left * right).terms == {}


def _centre_block_element(n: int, bits: int) -> CliffElement:
    """For odd n, the element whose padded image is V (x) 1, every cell of
    V X (1 - j)(1 + sqrt2 + sqrt3 + sqrt6), X = 2^bits - 1: its three block
    images are all V, each of whose 8 coordinates has one sign in every cell.

    Each shift has one monomial of last exponent 0 whose column phases are
    one constant j^c; its coefficient is the cell value over j^c.
    """
    x = 2**bits - 1
    cell = FieldElem([x, -x] * 4)
    terms = {}
    for mono in product((0, 1, 2), repeat=n - 1):
        phases = {e for _, e in clifford._column_action((*mono, 0))}
        if len(phases) == 1:
            terms[(*mono, 0)] = cell * j_pow(-phases.pop())
    return CliffElement(n, terms)


def _bit_length(images) -> int:
    """The largest bit length of any raw numerator in the blocks' flat vectors."""
    vecs = [v for block in images for v in block]
    return max(max(map(max, vecs)), -min(map(min, vecs))).bit_length()


@pytest.mark.parametrize(
    "bits_a, bits_b, width", [(27, 26, 64), (27, 27, 128), (59, 58, 128), (59, 59, 192)]
)
def test_packing_bound_edge(bits_a, bits_b, width, monkeypatch):
    """At a slot bound (63 and 127 bits) and one bit over it."""
    n, blocks, d = 5, 3, 9
    a, b = _centre_block_element(n, bits_a), _centre_block_element(n, bits_b)
    bits = [_bit_length(_clifford_matrix._to_vectors(n, x.terms)[1]) for x in (a, b)]
    assert bits == [bits_a, bits_b]
    edge = bits_a + bits_b + (36 * blocks * d).bit_length()
    assert edge in (width - 1, width - 64)
    # 3 C_0 = 3 V W: the rational part of each cell is 3 d (-3 j)(12) X_a X_b,
    # so its j-part is -36 blocks d X_a X_b, which needs all `edge` bits: it
    # fits the slots only at the bound, and one bit over needs 64 more
    slot = 36 * blocks * d * (2**bits_a - 1) * (2**bits_b - 1)
    assert slot.bit_length() == edge
    assert 2 ** (width - 65) <= slot < 2 ** (width - 1)
    widths = _spy_product_widths(monkeypatch)
    assert _matrix(a, b) == _pairwise(a, b)
    assert widths == [width] * blocks


# ---------------------------------------------------------------------------
# the conversions: the forward map packed along shift diagonals, the readback
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_forward_image_of_each_monomial_is_its_column_action(n):
    """Block k of the image of q^m is j^(kt) times its block action.

    For odd n the padded image is M' (x) X^t, t the last exponent: column
    3v + u of the padded action is column 3v shifted by u on the last
    factor, and M' is column 3v with its row divided by 3.  For even n
    the one block is the action itself (t = 0).  A coefficient on all
    four radicals keeps all 8 coordinates; one on the j-part of sqrt6
    only the 2 of sqrt6.

    The monomials with the same clock b and last exponent t lie on
    distinct shift diagonals, so one conversion of their sum checks each
    cell of every image, and no cell is claimed twice."""
    blocks, d = _blocks(n), 3 ** (n // 2)
    x = FieldElem([3, -1, -4, 1, 5, -9, 2, -6], 7)
    groups = {}
    for mono in product((0, 1, 2), repeat=n):
        action, t = clifford._column_action(mono), mono[-1] * (n % 2)
        if n % 2:
            assert action == [
                (3 * (row // 3) + (u - t) % 3, e) for row, e in action[::3] for u in range(3)
            ]
            action = [(row // 3, e) for row, e in action[::3]]
        groups.setdefault((clifford._image(mono)[1], t), []).append((mono, action))
    assert len(groups) == blocks * d and all(len(g) == d for g in groups.values())
    for (_, t), group in groups.items():
        for coeff, radicals in ((x, [0, 1, 2, 3]), (FieldElem([0] * 7 + [-5], 7), [3])):
            live, images, den = _clifford_matrix._to_vectors(n, {mono: coeff for mono, _ in group})
            assert live == radicals and den == 7 and len(images) == blocks
            for k, vecs in enumerate(images):
                assert len(vecs) == 2 * len(live)
                expected, claimed = [(0,) * 8] * (d * d), set()
                for _, action in group:
                    for col, (row, e) in enumerate(action):
                        assert row * d + col not in claimed
                        claimed.add(row * d + col)
                        expected[row * d + col] = (coeff * j_pow(e + k * t)).nums
                assert _scatter(live, vecs) == expected


@pytest.mark.parametrize("bound", [30, 2**70])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_read_back_after_forward_is_the_identity(n, bound):
    """Dense elements on all four radicals, with negative coordinates and
    mixed denominators; 2^70 numerators take the wider forward slots.

    Block t of the padded image is A_t = (1/3) sum_k j^(-kt) A^_k, here
    summed cell by cell in the field.  The readback divides each trace of
    the padded blocks by blocks d, so its values are over the forward
    map's denominator."""
    rng = random.Random(1600 + n)
    blocks = _blocks(n)
    terms = {
        m: FieldElem([rng.randint(-bound, bound) for _ in range(8)], rng.choice((1, 2, 9, 35))) or ONE
        for m in product((0, 1, 2), repeat=n)
    }
    assert any(c.nums[7] < 0 for c in terms.values())
    live, images, den = _clifford_matrix._to_vectors(n, terms)
    assert live == [0, 1, 2, 3]
    cells = [[FieldElem(cell) for cell in _scatter(live, vecs)] for vecs in images]
    padded = []
    for t in range(blocks):
        block = [sum((c[k] * j_pow(-k * t) for k in range(blocks)), ZERO).nums for c in zip(*cells)]
        padded.append(list(zip(*block)))
    back = {m: FieldElem(x, den) for m, x in _clifford_matrix._read_back(n, live, padded)}
    assert back == terms


def _diagonal_element(n: int, cells: list[FieldElem]) -> CliffElement:
    """The even-n element whose d x d image is diag(cells): each monomial M
    on shift diagonal 0 takes tr(M^dagger P) / d, here summed in the field."""
    terms = {}
    for mono in product((0, 1, 2), repeat=n):
        action = clifford._column_action(mono)
        if all(row == v for v, (row, _) in enumerate(action)):
            trace = sum((x * j_pow(-e) for x, (_, e) in zip(cells, action)), ZERO)
            terms[mono] = trace * rational(1, len(cells))
    return CliffElement(n, terms)


@pytest.mark.parametrize("bits, width", [(57, 64), (58, 128)])
def test_read_back_slot_bound_edge(bits, width, monkeypatch):
    """n = 6, d = 27: 1 b and b 1 keep the image P of b, whose diagonal
    holds X + X j, X - X j and -X + X j in the columns with last digit
    0, 1 and 2, X = 3 floor((2^bits - 1) / 3).  Its transform at the clock
    k = (0, 0, 1) is 9 ((X + X j) + j (X - X j) + j^2 (-X + X j)) =
    36 X + 36 X j, which fits a 64-bit signed slot at the slot bound
    bits + bit_length(2 d) = 63 and needs 128 bits one bit over it."""
    n, d = 6, 27
    x = 3 * ((2**bits - 1) // 3)
    pattern = ((x, x), (x, -x), (-x, x))
    b = _diagonal_element(n, [FieldElem([*pattern[v % 3]] + [0] * 6) for v in range(d)])
    live, [vecs], den = _clifford_matrix._to_vectors(n, b.terms)
    assert live == [0] and den == 1 and _bit_length([vecs]) == x.bit_length() == bits
    assert (36 * x).bit_length() == bits + (2 * d).bit_length() in (width - 1, width - 64)
    one = {(0,) * n: ONE}
    widths: list[int] = []
    real = _clifford_matrix._unpack
    monkeypatch.setattr(
        _clifford_matrix, "_unpack", lambda *args: (widths.append(args[2]), real(*args))[1]
    )
    for left, right in ((one, b.terms), (b.terms, one)):
        widths.clear()
        # the readback's one unpack is the last
        expected = clifford._pairwise_product(left, right)
        assert _clifford_matrix._matrix_product(n, left, right) == expected
        assert widths[-1] == width


def _slot_bound_element(bits: int) -> CliffElement:
    """n = 2 with M = 2^bits - 1: coefficient M + M j on each monomial q1^a
    and M - M j on the others.  In column 2 of every shift diagonal the
    first has phase 1 and the other two have phase j, so the cell's j-part
    is M + 2M + 2M = 5M, near the forward bound 2 (3^n / d) M = 6M."""
    x = 2**bits - 1
    return CliffElement(2, {
        (e0, e1): FieldElem([x, x if e1 == 0 else -x] + [0] * 6)
        for e0, e1 in product((0, 1, 2), repeat=2)
    })


def _spy_widths(monkeypatch) -> list[int]:
    """Record the slot width of each pack and unpack the forward map makes."""
    widths: list[int] = []
    inside: list[int] = []
    real_forward = _clifford_matrix._to_vectors

    def forward(*args):
        inside.append(1)
        try:
            return real_forward(*args)
        finally:
            inside.pop()

    def spy(real):
        return lambda *args: (inside and widths.append(args[2]), real(*args))[1]

    monkeypatch.setattr(_clifford_matrix, "_to_vectors", forward)
    monkeypatch.setattr(_clifford_matrix, "_pack", spy(_clifford_matrix._pack))
    monkeypatch.setattr(_clifford_matrix, "_unpack", spy(_clifford_matrix._unpack))
    return widths


@pytest.mark.parametrize("bits, width", [(60, 64), (61, 128)])
def test_forward_slot_bound_edge(bits, width, monkeypatch):
    # 6 = 2 (3^n / d) needs 3 bits: bits + 3 <= 63 is the 64-bit slot test
    a = _slot_bound_element(bits)
    b = CliffElement(2, {
        m: FieldElem([(-1) ** k * (k + sum(m)) for k in range(8)], 3)
        for m in product((0, 1, 2), repeat=2)
    })
    widths = _spy_widths(monkeypatch)
    live, [vecs], den = _clifford_matrix._to_vectors(2, a.terms)
    # one pack and one unpack
    assert widths == [width] * 2 and live == [0] and den == 1
    # the j-part 5M fits a signed 64-bit slot only at the bound
    assert max(vecs[1]) == 5 * (2**bits - 1)
    assert (max(vecs[1]) < 2**63) == (width == 64)
    assert _matrix(a, b) == _pairwise(a, b)
    assert _matrix(b, a) == _pairwise(b, a)
    assert _matrix(a, a) == _pairwise(a, a)
    # each product converts a and b, one pack and one unpack each
    assert widths[2:] == [width] * 2 + [64] * 4 + [width] * 6


def _odd_slot_bound_element(bits: int) -> CliffElement:
    """n = 5 with M = 2^bits - 1, on the 27 monomials that put column 8 of
    their block on row 8.  In block 2 that cell takes phase j^p, p = e + 2t,
    from each; the coefficients M + M j, M - M j and -M + M j for p = 0, 1, 2
    give it the j-part M, 2M and M.  Three, twelve and twelve monomials have
    these phases, so the j-part is 39M, near the forward bound
    2 (3^n / d) M = 54M."""
    x = 2**bits - 1
    coeffs = ((x, x), (x, -x), (-x, x))
    terms = {}
    for mono in product((0, 1, 2), repeat=5):
        row, e = clifford._column_action(mono)[3 * 8]
        if row // 3 == 8:
            terms[mono] = FieldElem([*coeffs[(e + 2 * mono[-1]) % 3]] + [0] * 6)
    return CliffElement(5, terms)


@pytest.mark.parametrize("bits, width", [(57, 64), (58, 128)])
def test_odd_forward_slot_bound_edge(bits, width, monkeypatch):
    # 54 = 2 (3^5 / 9) needs 6 bits: bits + 6 <= 63 is the 64-bit slot test
    a = _odd_slot_bound_element(bits)
    assert len(a.terms) == 27
    rng = random.Random(1750)
    b = CliffElement(5, _dense_zj(rng, rng.sample(list(product((0, 1, 2), repeat=5)), 30)))
    widths = _spy_widths(monkeypatch)
    live, images, den = _clifford_matrix._to_vectors(5, a.terms)
    assert widths == [width] * 2 and live == [0] and den == 1
    # the j-part 39M fits a signed 64-bit slot only at the bound
    assert images[2][1][8 * 9 + 8] == 39 * (2**bits - 1)
    assert _bit_length(images) == (39 * (2**bits - 1)).bit_length()
    assert (39 * (2**bits - 1) < 2**63) == (width == 64)
    assert _matrix(a, b) == _pairwise(a, b)
    assert _matrix(b, a) == _pairwise(b, a)


@pytest.mark.parametrize(
    "n, wide",
    [
        (1, False), (1, True), (3, False), (3, True), (5, False), (5, True), (7, False),
        (2, False), (2, True), (4, False), (4, True), (6, False), (6, True), (7, True),
    ],
)
def test_block_product_matches_pairwise(n, wide, monkeypatch):
    """Four radicals, negative coordinates and mixed denominators, through
    the packed block products and the readback with 64-bit slots or, with
    2^40 numerators, wider ones; from n = 5 the right operand keeps 30
    terms, so the reference stays fast.  A product through the last
    generator (for odd n, the centre's) cancels to zero."""
    rng = random.Random(1800 + n)
    monos = list(product((0, 1, 2), repeat=n))
    bound = 2**40 if wide else 9

    def element(chosen):
        return CliffElement(n, {
            m: FieldElem([rng.randint(-bound, bound) for _ in range(8)], rng.choice((1, 2, 9, 35))) or ONE
            for m in chosen
        })

    a, b = element(monos), element(monos if n < 5 else rng.sample(monos, 30))
    assert any(c.nums[7] < 0 for c in b.terms.values())
    widths = _spy_product_widths(monkeypatch)
    assert _matrix(a, b) == _pairwise(a, b)
    assert _matrix(b, a) == _pairwise(b, a)
    assert len(widths) == 2 * _blocks(n) and len(set(widths)) == 1
    assert (widths[0] > 64) == wide
    # a (1 + q + q^2) times (1 - q) b is a (1 - q^3) b = 0 for the last generator q
    q = generator(n, n - 1)
    assert _matrix(_pairwise(a, unit(n) + q + q * q), _pairwise(unit(n) - q, b)).is_zero()


def _radical_terms(rng, monos, radicals, j_only=False) -> dict:
    """Coefficients x + y j in [-5, 5] on each of the given radicals, with
    x = 0 throughout for j_only."""
    terms = {}
    for m in monos:
        nums = [0] * 8
        for r in radicals:
            nums[2 * r] = 0 if j_only else rng.randint(-5, 5)
            nums[2 * r + 1] = rng.randint(-5, 5)
        if any(nums):
            terms[m] = FieldElem(nums)
    return terms


@pytest.mark.parametrize("n", [3, 4, 5])
def test_live_radicals_match_pairwise(n, monkeypatch):
    """The matrix kernel carries only the radicals its operands use, and
    their products _RAD[r1][r2]: sqrt2 sqrt3 lives on sqrt6 only, sqrt6
    sqrt6 on the rational part with factor 6, and sqrt2 (sqrt3 + sqrt6) on
    sqrt6 and sqrt3 with factors 1 and 2.  An operand with only j sqrt2
    parts has x = 0 in every pair.  In the last case a (1 + q + q^2) sqrt2
    + c times (1 - q) b has a sqrt2 part that cancels to zero.  From n = 5
    the right operand keeps 30 terms, so the reference stays fast."""
    rng = random.Random(1900 + n)
    monos = list(product((0, 1, 2), repeat=n))
    right = monos if n < 5 else rng.sample(monos, 30)
    q = generator(n, n - 1)
    cancel_left = _pairwise(
        CliffElement(n, _radical_terms(rng, monos, [1])), unit(n) + q + q * q
    ) + CliffElement(n, _radical_terms(rng, monos, [0]))
    cancel_right = _pairwise(unit(n) - q, CliffElement(n, _radical_terms(rng, right, [0])))
    cases = [
        (_radical_terms(rng, monos, [1]), _radical_terms(rng, right, [2]), [3]),
        (_radical_terms(rng, monos, [3]), _radical_terms(rng, right, [3]), [0]),
        (_radical_terms(rng, monos, [1]), _radical_terms(rng, right, [2, 3]), [2, 3]),
        (_radical_terms(rng, monos, [1], j_only=True), _radical_terms(rng, right, [0]), [1]),
        (cancel_left.terms, cancel_right.terms, [0, 1]),
    ]
    readbacks = []
    real = _clifford_matrix._read_back
    monkeypatch.setattr(
        _clifford_matrix, "_read_back",
        lambda *args: (readbacks.append(list(args[1])), real(*args))[1],
    )
    for left, right_terms, live in cases:
        for x, y in ((left, right_terms), (right_terms, left)):
            a, b = CliffElement(n, x), CliffElement(n, y)
            readbacks.clear()
            product_ab = _matrix(a, b)
            assert product_ab == _pairwise(a, b) and not product_ab.is_zero()
            assert readbacks == [live]
            dead = [i for r in range(4) if r not in live for i in (2 * r, 2 * r + 1)]
            assert all(not c.nums[i] for c in product_ab.terms.values() for i in dead)
    # the sqrt2 part of the last left-right product cancels, the rational part does not
    values = _matrix(cancel_left, cancel_right).terms.values()
    assert values and all(c.nums[2:] == (0,) * 6 for c in values)
    # a zero operand has no live radical, and neither has the product
    assert _clifford_matrix._to_vectors(n, {})[0] == []
    assert _clifford_matrix._matrix_product(n, {}, right_terms) == {}
    assert _clifford_matrix._matrix_product(n, left, {}) == {}


def test_kernel_results_skip_revalidation(monkeypatch):
    """Products build their result without re-checking each monomial, and
    still drop the coefficients that cancel."""
    rng = random.Random(1700)
    monos = list(product((0, 1, 2), repeat=4))
    dense = CliffElement(4, {m: random_field_elem(rng, bound=9) or ONE for m in monos})
    q = generator(4, 1)
    # (1 + q + q^2)(1 - q) = 1 - q^3 = 0
    left, right = unit(4) + q + q * q, unit(4) - q
    x, y = dense * left, right * dense
    assert clifford._matrix_is_cheaper(4, len(x.terms), len(y.terms))
    inits = []
    real = CliffElement.__init__
    monkeypatch.setattr(
        CliffElement, "__init__", lambda self, *args: (inits.append(1), real(self, *args))[1]
    )
    assert (left * right).terms == {}
    assert (x * y).terms == {}
    assert (dense * dense).terms and all((dense * dense).terms.values())
    assert inits == []


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


def test_bad_monomials_generators_and_counts_are_rejected():
    cases = [
        (lambda: CliffElement(3, {(0, 1): ONE}), LengthMismatchError,
         "monomial (0, 1) is not length 3"),
        (lambda: CliffElement(3, {(0, 3, 0): ONE}), ValueError,
         "exponents must be in 0..2: (0, 3, 0)"),
        (lambda: generator(3, 3), IndexError, "generator index 3 out of range for n=3"),
        (lambda: s3_symmetric_sum(0, 1, 4, 3), IndexError, "index 4 out of range for n=3"),
        (lambda: degree_census(0), ValueError, "generator count must be >= 1"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error and str(exc.value) == message


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


@pytest.mark.parametrize("n", range(1, 8))
def test_grade_components_have_dimension_3_pow_n_minus_1(n):
    # each grade (total degree mod 3) holds 3^(n-1) of the 3^n monomials,
    # counted directly and read off the census
    from collections import Counter

    grades = Counter(sum(m) % 3 for m in product(range(3), repeat=n))
    assert [grades[g] for g in range(3)] == [3 ** (n - 1)] * 3
    census = degree_census(n)
    assert [sum(census[g::3]) for g in range(3)] == [3 ** (n - 1)] * 3


def test_census_fixture():
    assert clifford_census_fixture() == degree_census(4)
    for n_text, dim in load_fixture("clifford_census.json")["dimensions"].items():
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
