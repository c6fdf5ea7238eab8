"""Exact-arithmetic library and verification CLI for the ternary
"quaternion" (nonion) algebra, its alternating triple bracket and
structure-constant tables, the cubic determinant norm, the associated
root system, and the n-generator ternary Clifford algebra.

Everything is recomputed from first principles in the exact field
Q(j, sqrt2, sqrt3) and diffed against transcribed reference tables;
no floating point enters any verification path.
"""

from ._version import __version__
from .field import FieldElem, J, J2, ONE, SQRT2, SQRT3, SQRT6, ZERO, j_pow, rational
from .matrix import Mat3, SingularGramError, decompose_in_basis, hs_inner
from .bases import (
    NonionBasis,
    TU3Basis,
    cyclic_relabel,
    nonion_basis,
    pair_phase_matrix,
    tu3_basis,
)
from .poly import MPoly
from .cubic import (
    TermCensus,
    UnknownVariantError,
    det_poly,
    term_census,
    triple_product_components,
    variant_poly,
)
from .clifford import (
    CliffElement,
    LengthMismatchError,
    degree_census,
    dimension,
    grade,
    normal_order_product,
    s3_symmetric_sum,
    weighted_identity_check,
)

# The report's and the CLI's layers, which set-up does not run, load on
# first access (PEP 562): each name, and each module's own name, maps to
# the module that defines it.
_DEFERRED_NAMES = {
    "bracket": ("StructureRow", "TableDiff", "diff_table", "s3_bracket", "structure_table"),
    "roots": (
        "NotProportionalError", "cartan_check", "extract_alpha_root", "extract_beta_root",
        "gellmann_decompose", "root_inner", "su3_structure_constants", "z3_rotate",
    ),
    "fixtures": ("FixtureParseError", "FixtureRowCountError", "surface_poly_fixture"),
}
_DEFERRED = {
    name: module for module, names in _DEFERRED_NAMES.items() for name in (module, *names)
}

__all__ = [
    "__version__",
    "FieldElem", "J", "J2", "ONE", "SQRT2", "SQRT3", "SQRT6", "ZERO", "j_pow", "rational",
    "Mat3", "SingularGramError", "decompose_in_basis", "hs_inner",
    "NonionBasis", "TU3Basis", "nonion_basis", "tu3_basis",
    "cyclic_relabel", "pair_phase_matrix",
    "MPoly", "TermCensus", "UnknownVariantError",
    "det_poly", "variant_poly", "triple_product_components", "term_census",
    "CliffElement", "LengthMismatchError", "normal_order_product", "s3_symmetric_sum",
    "weighted_identity_check", "dimension", "degree_census", "grade",
    *(name for names in _DEFERRED_NAMES.values() for name in names),
]


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
