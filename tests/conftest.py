import importlib.util
import random
import warnings

import pytest
from hypothesis import strategies as st

from nonion.bases import nonion_basis, tu3_basis
from nonion.field import J, J2, ONE, SQRT2, SQRT3, SQRT6, ZERO, FieldElem, rational
from nonion.matrix import Mat3

# When a hypothesis test fails, hypothesis imports hypothesis.extra._patching
# to print a patch; libcst, which that module imports, uses the deprecated
# mypy_extensions.TypedDict.  Under filterwarnings = ["error"] that warning
# ends the whole run with INTERNALERROR instead of reporting the failure, so
# the module is imported once here with only this import's warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst not installed: hypothesis skips the patch
        pass


def random_field_elem(rng: random.Random, density: float = 0.5, bound: int = 99) -> FieldElem:
    nums = [
        rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(8)
    ]
    return FieldElem(nums, rng.randint(1, bound))


def random_mat3(rng: random.Random, density: float = 0.4, bound: int = 9) -> Mat3:
    return Mat3(
        [random_field_elem(rng, density=density, bound=bound) for _ in range(9)]
    )


# Hypothesis scalars for the differential tests of the arithmetic layers:
# wide elements (9-digit numerators, zero coordinates common, unrelated
# 9-digit denominators), small radical and phase values, and zero.
wide_elem_st = st.builds(
    FieldElem,
    st.lists(st.just(0) | st.integers(-(10**9), 10**9), min_size=8, max_size=8),
    st.integers(min_value=1, max_value=10**9),
)
radical_st = st.builds(
    lambda unit, p, q: unit * rational(p, q),
    st.sampled_from([ONE, J, J2, SQRT2, SQRT3, SQRT6, J * SQRT2, J2 * SQRT6]),
    st.integers(-9, 9),
    st.integers(1, 9),
)
entry_st = st.just(ZERO) | radical_st | wide_elem_st
mat3_st = st.just(Mat3.zero()) | st.builds(Mat3, st.lists(entry_st, min_size=9, max_size=9))


needs_sympy = pytest.mark.skipif(
    importlib.util.find_spec("sympy") is None, reason="sympy is not installed"
)


def to_sympy(x: FieldElem):
    """The field element as a sympy algebraic number, j = (-1 + sqrt(-3))/2."""
    import sympy

    j = (-1 + sympy.sqrt(-3)) / 2
    basis = (1, j, sympy.sqrt(2), j * sympy.sqrt(2), sympy.sqrt(3), j * sympy.sqrt(3),
             sympy.sqrt(6), j * sympy.sqrt(6))
    return sum(sympy.Rational(n, x.den) * b for n, b in zip(x.nums, basis))


def sympy_zero(expr) -> bool:
    import sympy

    return sympy.expand(expr) == 0


@pytest.fixture(scope="session")
def nonions():
    return nonion_basis()


@pytest.fixture(scope="session")
def tu3():
    return tu3_basis()


@pytest.fixture()
def rng():
    return random.Random(0x5EED)
