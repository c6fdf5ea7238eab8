"""The one reader of the transcribed-value fixtures.

Fixtures are versioned JSON files under ``nonion/data``; they hold the
printed reference values verbatim (including suspected typos, with
notes), and the report reads every expectation they hold from them.
Nothing mutates them.  This module is the only code that opens them:
``load_fixture`` reads a bundled fixture by name, ``load_table_fixture``
reads and validates a structure-table fixture by path (bundled or given
on the command line), and the ``*_fixture`` accessors parse the other
fixtures into exact values.  ``json``, ``hashlib`` and
``importlib.resources`` are imported on first fixture access, inside the
functions that read fixtures, so ``import nonion`` does not load them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, TypeVar, Union

from .field import FieldElem
from .poly import MPoly

if TYPE_CHECKING:
    from pathlib import Path

T = TypeVar("T")

__all__ = [
    "FixtureParseError",
    "FixtureRowCountError",
    "FIXTURE_NAMES",
    "fixture_path",
    "load_fixture",
    "fixture_checksums",
    "load_table_fixture",
    "surface_poly_fixture",
    "lambda_combos_fixture",
    "clifford_census_fixture",
    "roots_fixture",
]

FIXTURE_NAMES = (
    "table_nonion_s3.json",
    "table_tu3_s3.json",
    "roots_alpha.json",
    "roots_beta.json",
    "surface_poly.json",
    "lambda_combos.json",
    "clifford_census.json",
)


class FixtureParseError(Exception):
    """A fixture file is missing, unreadable or malformed."""


class FixtureRowCountError(FixtureParseError):
    """A table fixture does not contain exactly 84 rows."""


def fixture_path(name: str) -> Path:
    if name not in FIXTURE_NAMES:
        raise FixtureParseError(f"unknown fixture {name!r}")
    from importlib import resources
    from pathlib import Path

    return Path(resources.files("nonion").joinpath("data", name))


def _read_bytes(path: Union[str, Path], label: Union[str, Path]) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FixtureParseError(f"cannot read fixture {label}: {exc}") from exc


def _read_json(path: Union[str, Path], label: Union[str, Path]) -> object:
    import json

    try:
        return json.loads(_read_bytes(path, label).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FixtureParseError(f"fixture {label} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureParseError(f"fixture {label} is not valid JSON: {exc}") from exc


def load_fixture(name: str) -> dict:
    return _read_json(fixture_path(name), name)


def fixture_checksums() -> dict[str, str]:
    """sha256 of every bundled fixture, for report provenance."""
    import hashlib

    return {
        name: hashlib.sha256(_read_bytes(fixture_path(name), name)).hexdigest()
        for name in FIXTURE_NAMES
    }


def load_table_fixture(path: Union[str, Path]) -> dict:
    """A structure-table fixture, validated: 84 rows of sorted, distinct triples."""
    return _table_rows(path)[0]


def _table_rows(
    path: Union[str, Path],
) -> tuple[dict, dict[tuple[int, int, int], tuple[dict, dict[int, FieldElem]]]]:
    """The validated table fixture, and each row by triple with its parsed targets."""
    data = _read_json(path, path)
    if not isinstance(data, dict) or "rows" not in data:
        raise FixtureParseError(f"fixture {path} has no 'rows' key")
    rows = data["rows"]
    if not isinstance(rows, list):
        raise FixtureParseError(f"fixture {path}: 'rows' is not a list")
    if len(rows) != 84:
        raise FixtureRowCountError(f"fixture {path} has {len(rows)} rows, expected 84")
    by_triple = {}
    for row in rows:
        try:
            trip = tuple(row["triple"])
            is_sorted = trip == tuple(sorted(trip))
            targets = {}
            for tgt in row["targets"]:
                index = _integer(tgt["index"], "target index")
                if not 0 <= index <= 8:
                    raise ValueError(f"target index {index} is not in 0..8")
                targets[index] = FieldElem.from_json(tgt["coeff"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FixtureParseError(f"fixture {path} row is malformed: {exc}") from exc
        if not is_sorted or len(trip) != 3:
            raise FixtureParseError(f"fixture {path}: triple {trip} is not sorted")
        if trip in by_triple:
            raise FixtureParseError(f"fixture {path}: duplicate triple {trip}")
        by_triple[trip] = (row, targets)
    return data, by_triple


def _integer(value: object, name: str) -> int:
    """A JSON integer, not a boolean, else ValueError naming the field."""
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an integer")
    return value


def _parse_fixture(name: str, label: str, parse: Callable[[object], T]) -> T:
    """Load a bundled fixture, then parse it; a missing key or a value of the
    wrong type or form is reported as `{label} fixture malformed`."""
    data = load_fixture(name)
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureParseError(f"{label} fixture malformed: {exc}") from exc


def surface_poly_fixture() -> MPoly:
    """The transcribed unit-surface polynomial."""
    return _parse_fixture("surface_poly.json", "surface", lambda d: MPoly.from_json(d["terms"]))


def lambda_combos_fixture() -> list[dict]:
    """Claimed unit-basis combinations for the lambda matrices."""
    return _parse_fixture(
        "lambda_combos.json",
        "lambda",
        lambda data: [
            {
                "lambda": row["lambda"],
                "printed_as": row["printed_as"],
                "note": row.get("note"),
                "coeffs": [FieldElem.from_json(c) for c in row["coeffs"]],
            }
            for row in data["combos"]
        ],
    )


def clifford_census_fixture() -> dict:
    data = load_fixture("clifford_census.json")
    if not isinstance(data, dict) or not isinstance(data.get("degree_census_4"), list):
        raise FixtureParseError("clifford census fixture has no 'degree_census_4' list")
    return data


def roots_fixture(kind: str) -> list[dict]:
    """The printed roots, each with its integer index and exact components."""
    return _parse_fixture(
        f"roots_{kind}.json",
        "roots",
        lambda data: [
            {
                **row,
                "index": _integer(row["index"], "index"),
                "components": tuple(FieldElem.from_json(c) for c in row["components"]),
            }
            for row in data["roots"]
        ],
    )
