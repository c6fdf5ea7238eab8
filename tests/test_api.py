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
    assert [n for n in names if not hasattr(module, n)] == []


# ---------------------------------------------------------------------------
# start-up: `import nonion` loads only what importing the package needs
# ---------------------------------------------------------------------------

# Modules that `import nonion` and its set-up must not load.
HEAVY_MODULES = ("dataclasses", "inspect", "hashlib", "json", "importlib.resources", "tempfile")

LEAN_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import nonion
from nonion import fixtures
nonion.nonion_basis()
nonion.tu3_basis()
nonion.det_poly()
print(sorted(m for m in sys.argv[3].split(",") if m in sys.modules))
fixture_path = fixtures.fixture_path
fixtures.fixture_path = lambda name: sys.argv[2]
try:
    fixtures.load_fixture("surface_poly.json")
except fixtures.FixtureParseError as exc:
    print(type(exc).__name__, "json" in sys.modules)
fixtures.fixture_path = fixture_path
print(sorted(fixtures.fixture_checksums()) == sorted(fixtures.FIXTURE_NAMES))
"""


def test_import_loads_no_fixture_or_dataclass_modules(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    src = Path(importlib.import_module("nonion").__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LEAN_CHILD, str(src), str(broken), ",".join(HEAVY_MODULES)],
        capture_output=True, text=True, check=False,
    )
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == ["[]", "FixtureParseError True", "True"]


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
