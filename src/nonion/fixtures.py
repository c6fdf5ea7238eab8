"""The one reader of the transcribed-value fixtures.

Fixtures are versioned JSON files under ``nonion/data``; they hold the
printed reference values verbatim (including suspected typos, with
notes), and the report reads every expectation they hold from them.
Nothing mutates them.  This module is the only code that opens them or
knows their keys: ``load_fixture`` reads a bundled fixture by name,
``load_table_fixture`` reads and validates a structure-table fixture by
path (bundled or given on the command line), and the other ``*_fixture``
accessors parse a bundled fixture, through ``_parse_fixture``, into the
exact values the report compares.  Every integer field passes one rule
(``_integer``).  ``json``, ``hashlib`` and
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


def load_table_fixture(
    path: Union[str, Path],
) -> dict[tuple[int, int, int], tuple[dict[int, FieldElem], Union[str, None]]]:
    """A structure-table fixture, validated: its 84 rows by sorted, distinct
    triple, each as its exact targets by basis index and its printed form."""
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
            trip = tuple(_integer(k, "triple entry") for k in row["triple"])
            targets = {}
            for tgt in row["targets"]:
                index = _integer(tgt["index"], "target index", range(9), targets)
                targets[index] = FieldElem.from_json(tgt["coeff"])
            printed_as = row.get("printed_as")
        except (KeyError, TypeError, ValueError) as exc:
            raise FixtureParseError(f"fixture {path} row is malformed: {exc}") from exc
        if trip != tuple(sorted(trip)) or len(trip) != 3:
            raise FixtureParseError(f"fixture {path}: triple {trip} is not sorted")
        if trip in by_triple:
            raise FixtureParseError(f"fixture {path}: duplicate triple {trip}")
        by_triple[trip] = (targets, printed_as)
    return by_triple


def _integer(value: object, name: str, span: Union[range, None] = None, keys=()) -> int:
    """The one rule for an integer field: a JSON integer, not a boolean, in
    `span` where the field has a range, and not among `keys` where it is a
    key; else ValueError naming the field."""
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an integer")
    if span is not None and value not in span:
        raise ValueError(f"{name} {value} is not in {span.start}..{span.stop - 1}")
    if value in keys:
        raise ValueError(f"duplicate {name} {value}")
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


def lambda_combos_fixture() -> dict[int, tuple[str, Union[str, None], list[FieldElem]]]:
    """Claimed unit-basis combinations for the lambda matrices, by lambda
    (1..8) in fixture order: the printed form, the note (None where the
    fixture gives none) and the nine exact coefficients."""

    def parse(data) -> dict:
        combos = {}
        for row in data["combos"]:
            lam = _integer(row["lambda"], "lambda", range(1, 9), combos)
            coeffs = [FieldElem.from_json(c) for c in row["coeffs"]]
            if len(coeffs) != 9:
                raise ValueError(f"lambda {lam} has {len(coeffs)} coefficients, expected 9")
            combos[lam] = (row["printed_as"], row.get("note"), coeffs)
        return combos

    return _parse_fixture("lambda_combos.json", "lambda", parse)


def clifford_census_fixture() -> list[int]:
    """The printed degree census of the four-generator algebra."""
    return _parse_fixture(
        "clifford_census.json",
        "clifford census",
        lambda data: [_integer(n, "census entry") for n in data["degree_census_4"]],
    )


def roots_fixture(kind: str) -> dict[int, tuple[Union[int, None], tuple[FieldElem, ...]]]:
    """The printed roots by index (1..6), each as its pair-product target
    basis index (None where the fixture gives none) and exact components."""

    def parse(data) -> dict:
        roots = {}
        for row in data["roots"]:
            index = _integer(row["index"], "index", range(1, 7), roots)
            target = row.get("target")
            roots[index] = (
                None if target is None else _integer(target, "target", range(9)),
                tuple(FieldElem.from_json(c) for c in row["components"]),
            )
        return roots

    return _parse_fixture(f"roots_{kind}.json", "roots", parse)
