"""Access to the bundled transcribed-table fixtures.

Fixtures are versioned JSON files under ``nonion/data``; they hold the
reference tables verbatim (including suspected typos, with notes) and
are never mutated by the verification code.  ``json``, ``hashlib`` and
``importlib.resources`` are imported on first fixture access, inside the
functions that read fixtures, so ``import nonion`` does not load them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .bracket import FixtureParseError
from .field import FieldElem
from .poly import MPoly

if TYPE_CHECKING:
    from pathlib import Path

__all__ = [
    "FIXTURE_NAMES",
    "fixture_path",
    "load_fixture",
    "fixture_checksums",
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


def fixture_path(name: str) -> Path:
    if name not in FIXTURE_NAMES:
        raise FixtureParseError(f"unknown fixture {name!r}")
    from importlib import resources
    from pathlib import Path

    return Path(resources.files("nonion").joinpath("data", name))


def load_fixture(name: str) -> dict:
    import json

    path = fixture_path(name)
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FixtureParseError(f"cannot read fixture {name}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureParseError(f"fixture {name} is not valid JSON: {exc}") from exc


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
    return load_fixture("clifford_census.json")


def roots_fixture(kind: str) -> list[dict]:
    data = load_fixture(f"roots_{kind}.json")
    out = []
    try:
        for row in data["roots"]:
            out.append(
                {
                    **row,
                    "components": tuple(FieldElem.from_json(c) for c in row["components"]),
                }
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureParseError(f"roots fixture malformed: {exc}") from exc
    return out
