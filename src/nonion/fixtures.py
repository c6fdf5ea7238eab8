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

from typing import TYPE_CHECKING, Union

from .field import FieldElem
from .poly import MPoly

if TYPE_CHECKING:
    from pathlib import Path

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


def _read_json(path: Union[str, Path], label: Union[str, Path]) -> object:
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FixtureParseError(f"cannot read fixture {label}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureParseError(f"fixture {label} is not valid JSON: {exc}") from exc


def load_fixture(name: str) -> dict:
    return _read_json(fixture_path(name), name)


def fixture_checksums() -> dict[str, str]:
    """sha256 of every bundled fixture, for report provenance."""
    import hashlib

    out = {}
    for name in FIXTURE_NAMES:
        try:
            out[name] = hashlib.sha256(fixture_path(name).read_bytes()).hexdigest()
        except OSError as exc:
            raise FixtureParseError(f"cannot read fixture {name}: {exc}") from exc
    return out


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
                if not isinstance(tgt["index"], int):
                    raise ValueError(f"target index {tgt['index']!r} is not an integer")
                targets[tgt["index"]] = FieldElem.from_json(tgt["coeff"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FixtureParseError(f"fixture {path} row is malformed: {exc}") from exc
        if not is_sorted or len(trip) != 3:
            raise FixtureParseError(f"fixture {path}: triple {trip} is not sorted")
        if trip in by_triple:
            raise FixtureParseError(f"fixture {path}: duplicate triple {trip}")
        by_triple[trip] = (row, targets)
    return data, by_triple


def surface_poly_fixture() -> MPoly:
    """The transcribed unit-surface polynomial."""
    data = load_fixture("surface_poly.json")
    try:
        return MPoly.from_json(data["terms"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureParseError(f"surface fixture malformed: {exc}") from exc


def lambda_combos_fixture() -> list[dict]:
    """Claimed unit-basis combinations for the lambda matrices."""
    data = load_fixture("lambda_combos.json")
    out = []
    try:
        for row in data["combos"]:
            out.append(
                {
                    "lambda": row["lambda"],
                    "printed_as": row["printed_as"],
                    "note": row.get("note"),
                    "coeffs": [FieldElem.from_json(c) for c in row["coeffs"]],
                }
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureParseError(f"lambda fixture malformed: {exc}") from exc
    return out


def clifford_census_fixture() -> dict:
    data = load_fixture("clifford_census.json")
    if not isinstance(data, dict) or not isinstance(data.get("degree_census_4"), list):
        raise FixtureParseError("clifford census fixture has no 'degree_census_4' list")
    return data


def roots_fixture(kind: str) -> list[dict]:
    """The printed roots, each with its integer index and exact components."""
    data = load_fixture(f"roots_{kind}.json")
    try:
        return [
            {
                **row,
                "index": int(row["index"]),
                "components": tuple(FieldElem.from_json(c) for c in row["components"]),
            }
            for row in data["roots"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureParseError(f"roots fixture malformed: {exc}") from exc
