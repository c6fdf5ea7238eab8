import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from nonion.bases import nonion_basis, tu3_basis
from nonion.bracket import StructureRow, TableDiff
from nonion.cubic import TermCensus
from nonion.report import Check, Section, VerificationReport

# The layers of the library; each declares its public names in __all__.
MODULES = (
    "field", "matrix", "bases", "bracket", "poly", "cubic",
    "roots", "clifford", "fixtures", "report", "cli",
)


@pytest.mark.parametrize("name", ["nonion"] + [f"nonion.{m}" for m in MODULES])
def test_public_names_resolve_once(name):
    module = importlib.import_module(name)
    names = module.__all__
    assert len(names) == len(set(names))
    assert set(names) <= set(dir(module))  # deferred names too, before hasattr loads them
    assert [n for n in names if not hasattr(module, n)] == []


# ---------------------------------------------------------------------------
# start-up: `import nonion` loads only what importing the package needs
# ---------------------------------------------------------------------------

# Modules that `import nonion` and its set-up must not load: the record
# and fixture machinery, `fractions` (with `decimal`), the layers only the
# report and the CLI run, and the dense Clifford kernel (with `array`).
HEAVY_MODULES = (
    "dataclasses", "inspect", "hashlib", "json", "importlib.resources", "tempfile",
    "fractions", "decimal", "array",
    "nonion.bracket", "nonion.roots", "nonion.fixtures", "nonion._clifford_matrix",
)

LEAN_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import nonion
nonion.nonion_basis()
nonion.tu3_basis()
nonion.det_poly()
print(sorted(m for m in sys.argv[3].split(",") if m in sys.modules))
from nonion import fixtures
fixture_path = fixtures.fixture_path
fixtures.fixture_path = lambda name: sys.argv[2]
try:
    fixtures.load_fixture("surface_poly.json")
except fixtures.FixtureParseError as exc:
    print(type(exc).__name__, "json" in sys.modules)
fixtures.fixture_path = fixture_path
print(sorted(fixtures.fixture_checksums()) == sorted(fixtures.FIXTURE_NAMES))
"""


def _run_lean(child: str, *args: str) -> list[str]:
    """stdout lines of a child program run under `python -S`, which gets
    the package root as sys.argv[1]; it must write nothing to stderr."""
    src = Path(importlib.import_module("nonion").__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child, str(src), *args],
        capture_output=True, text=True, check=False,
    )
    assert proc.stderr == ""
    return proc.stdout.splitlines()


def test_import_loads_no_fixture_or_dataclass_modules(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    lines = _run_lean(LEAN_CHILD, str(broken), ",".join(HEAVY_MODULES))
    assert lines == ["[]", "FixtureParseError True", "True"]


DENSE_KERNEL_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from itertools import product
import nonion
from nonion.clifford import CliffElement, _pairwise_product, generator
q1, q2, q3 = (generator(3, k) for k in range(3))
print(q3 * q1 * q2 == (q1 * q2 * q3).scale(nonion.J), "nonion._clifford_matrix" in sys.modules)
monos = list(product(range(3), repeat=3))
a, b = (
    CliffElement(3, {
        m: nonion.FieldElem((sum(m) + k, k - m[0], 0, 0, m[2], 0, 0, 1), 1 + m[1]) for m in monos
    })
    for k in (1, 2)
)
ab = a * b
print(len(a.terms), len(b.terms), "nonion._clifford_matrix" in sys.modules)
print(ab.terms == _pairwise_product(a.terms, b.terms))
"""


def test_dense_clifford_kernel_loads_at_first_dense_product():
    assert _run_lean(DENSE_KERNEL_CHILD) == ["True False", "27 27 True", "True"]


FIELD_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import nonion
from nonion import FieldElem, Mat3, decompose_in_basis, rational
from nonion.cubic import qhat_at
from nonion.field import parse_rational
x = FieldElem((3, -1, 2, 0, -1, 4, 1, -2), 5)
m = Mat3([FieldElem((i, 1, 0, 0, i % 2, 0, 0, 0), 2) for i in range(9)])
coords = [FieldElem((k, -k, 1, 0, 0, 0, 0, 0), k + 1) for k in range(9)]
values = [rational(-3, 4).invert(), x.invert(), qhat_at(coords).det()]
for basis in (nonion.nonion_basis(), nonion.tu3_basis()):
    values += decompose_in_basis(m, basis.elements, basis.grams)
print([(v.nums, v.den) for v in values])
print("fractions" in sys.modules)
y = FieldElem((3, -2, 0, 6, 0, 0, -1, 1), 6)
print(str(y))
print([str(c) for c in y.coeffs])
print(FieldElem.from_json(["1/2", "-3/4", "0", "5", "0/1", "2/6", "-7/3", "1"]).nums)
print(parse_rational(" -6/8 "))
"""


def test_field_arithmetic_runs_without_fractions():
    """Inversion, projection and determinants never load `fractions`, and
    give the values the Fraction route gave; the rational views load it
    on first use."""
    from fractions import Fraction

    from nonion import FieldElem, Mat3, ONE, det_poly, nonion_basis, tu3_basis

    lines = _run_lean(FIELD_CHILD)
    values = [FieldElem(nums, den) for nums, den in ast.literal_eval(lines[0])]
    rational_inverse, inverse, det = values[:3]
    assert rational_inverse == FieldElem.from_fraction(Fraction(-4, 3))
    x = FieldElem((3, -1, 2, 0, -1, 4, 1, -2), 5)
    assert x * inverse == ONE
    assert inverse == FieldElem(
        (29592575, 2424450, 22642580, 2796560, -9657870, -11649935, 5860630, 1121195), 79832689
    )
    coords = [FieldElem((k, -k, 1, 0, 0, 0, 0, 0), k + 1) for k in range(9)]
    assert det == det_poly().evaluate(coords)
    m = Mat3([FieldElem((i, 1, 0, 0, i % 2, 0, 0, 0), 2) for i in range(9)])
    for basis, coeffs in ((nonion_basis(), values[3:12]), (tu3_basis(), values[12:])):
        rebuilt = Mat3.zero()
        for c, e in zip(coeffs, basis.elements):
            rebuilt = rebuilt + e.scale(c)
        assert rebuilt == m
    assert lines[1:] == [
        "False",
        "1/2 - 1/3j + j√2 - 1/6√6 + 1/6j√6",
        "['1/2', '-1/3', '0', '1', '0', '0', '-1/6', '1/6']",
        "(6, -9, 0, 60, 0, 4, -28, 12)",
        "-3/4",
    ]


DEFERRED_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import nonion
deferred = ("nonion.bracket", "nonion.roots", "nonion.fixtures")
print(sorted(m for m in deferred if m in sys.modules))
print(sorted(set(nonion.__all__) - set(dir(nonion))))
print(nonion.roots.z3_rotate.__module__, nonion.bracket.__name__)
print(nonion.structure_table is nonion.bracket.structure_table)
names = {}
exec("from nonion import *", names)
print([n for n in nonion.__all__ if names.get(n, names) is not getattr(nonion, n)])
print(sorted(m for m in deferred if m in sys.modules))
try:
    nonion.no_such_name
except AttributeError as exc:
    print(type(exc).__name__, exc)
"""


def test_deferred_names_behave_like_eager_ones():
    assert _run_lean(DEFERRED_CHILD) == [
        "[]",
        "[]",
        "nonion.roots nonion.bracket",
        "True",
        "[]",
        "['nonion.bracket', 'nonion.fixtures', 'nonion.roots']",
        "AttributeError module 'nonion' has no attribute 'no_such_name'",
    ]


# ---------------------------------------------------------------------------
# record types: immutable named tuples and immutable bases
# ---------------------------------------------------------------------------

RECORDS = [
    (TermCensus, ("distinct_monomials", "weighted_terms")),
    (StructureRow, ("triple", "targets")),
    (TableDiff, ("rows", "matches", "mismatches", "missing_in_fixture", "extra_in_fixture")),
    (Check, ("name", "kind", "ok", "detail")),
    (Section, ("name", "checks")),
    (VerificationReport, ("sections", "strict", "meta")),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_fields_and_immutability(cls, fields):
    assert cls._fields == fields
    record = cls(*range(len(fields)))
    assert tuple(record) == tuple(range(len(fields)))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_check_detail_defaults_to_none():
    assert Check("c", "assert", True).detail is None


@pytest.mark.parametrize("build, name", [(nonion_basis, "nonion"), (tu3_basis, "tu3")])
def test_bases_are_immutable_and_project_once(build, name):
    basis = build()
    assert basis.name == name
    assert build().products is build().products
    for attr in ("elements", "grams", "products", "name", "extra"):
        with pytest.raises(AttributeError):
            setattr(basis, attr, None)
