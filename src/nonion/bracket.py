"""The alternating triple bracket and structure-constant tables.

{A,B,C} = ABC + BCA + CAB - BAC - ACB - CBA summed over the six
permutations of the arguments.  For each of the C(9,3) = 84 index
triples the bracket of basis elements is decomposed back in the basis;
the resulting rows are diffed against a transcribed reference table
without ever mutating or "correcting" it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Sequence, Union

from .bases import NonionBasis, TU3Basis
from .field import FieldElem, fold_phases
from .matrix import Mat3, decompose_in_basis

__all__ = [
    "StructureRow",
    "TableDiff",
    "FixtureParseError",
    "FixtureRowCountError",
    "s3_bracket",
    "structure_row",
    "structure_table",
    "all_triples",
    "diff_table",
    "load_table_fixture",
]

Basis = Union[NonionBasis, TU3Basis]


class FixtureParseError(Exception):
    """A fixture file is missing, unreadable or malformed."""


class FixtureRowCountError(FixtureParseError):
    """A table fixture does not contain exactly 84 rows."""


# Signs of itertools.permutations((k, l, m)) in its output order.
_PERMUTATION_SIGNS = (1, -1, -1, 1, 1, -1)


def s3_bracket(a: Mat3, b: Mat3, c: Mat3) -> Mat3:
    """Signed sum of the six permuted triple products, exact."""
    even = a * b * c + b * c * a + c * a * b
    odd = b * a * c + a * c * b + c * b * a
    return even - odd


@dataclass(frozen=True)
class StructureRow:
    """One bracket row: sorted index triple and its nonzero components."""

    triple: tuple[int, int, int]
    targets: tuple[tuple[int, FieldElem], ...]  # (basis index, coefficient)

    def target_map(self) -> dict[int, FieldElem]:
        return dict(self.targets)


def all_triples() -> list[tuple[int, int, int]]:
    return [(k, l, m) for k in range(9) for l in range(k + 1, 9) for m in range(l + 1, 9)]


def structure_row(basis: Basis, triple: tuple[int, int, int]) -> StructureRow:
    """The bracket of three basis elements, decomposed exactly in the basis.

    For the nonions each permuted product is a unit j^s q_c read from the
    product table, so a row is a signed count per (target, phase), folded.
    The TU3 basis is not monomial and goes through the matrix bracket.
    """
    k, l, m = triple
    if not isinstance(basis, NonionBasis):
        els = basis.elements
        coeffs = decompose_in_basis(s3_bracket(els[k], els[l], els[m]), els, basis.grams)
        return StructureRow(
            (k, l, m), tuple((n, c) for n, c in enumerate(coeffs) if not c.is_zero())
        )
    table = basis.product_table
    counts: dict[int, list[list[int]]] = {}
    for (x, y, z), sign in zip(permutations((k, l, m)), _PERMUTATION_SIGNS):
        s1, c1 = table[x][y]
        s2, c = table[c1][z]
        cell = counts.setdefault(c, [[0] * 8 for _ in range(3)])
        cell[(s1 + s2) % 3][0] += sign
    folded = ((c, FieldElem(fold_phases(*counts[c]))) for c in sorted(counts))
    return StructureRow((k, l, m), tuple((c, v) for c, v in folded if not v.is_zero()))


def structure_table(basis: Basis) -> list[StructureRow]:
    """All 84 bracket rows of the given basis, decomposed exactly."""
    return [structure_row(basis, t) for t in all_triples()]


# ----------------------------------------------------------------------
# fixture comparison
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TableDiff:
    """Per-row comparison of a computed table against a fixture."""

    rows: tuple[dict, ...]  # {"triple", "status", ...} ordered by triple
    matches: int
    mismatches: int
    missing_in_fixture: int
    extra_in_fixture: int

    @property
    def all_match(self) -> bool:
        return self.matches == len(self.rows)

    def summary(self) -> dict:
        return {
            "rows": len(self.rows),
            "matches": self.matches,
            "mismatches": self.mismatches,
            "missing_in_fixture": self.missing_in_fixture,
            "extra_in_fixture": self.extra_in_fixture,
        }


def load_table_fixture(path: Union[str, Path]) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FixtureParseError(f"cannot read fixture {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureParseError(f"fixture {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "rows" not in data:
        raise FixtureParseError(f"fixture {path} has no 'rows' key")
    rows = data["rows"]
    if not isinstance(rows, list):
        raise FixtureParseError(f"fixture {path}: 'rows' is not a list")
    if len(rows) != 84:
        raise FixtureRowCountError(f"fixture {path} has {len(rows)} rows, expected 84")
    seen = set()
    for row in rows:
        try:
            trip = tuple(row["triple"])
            is_sorted = trip == tuple(sorted(trip))
            for tgt in row["targets"]:
                if not isinstance(tgt["index"], int):
                    raise ValueError(f"target index {tgt['index']!r} is not an integer")
                FieldElem.from_json(tgt["coeff"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FixtureParseError(f"fixture {path} row is malformed: {exc}") from exc
        if not is_sorted or len(trip) != 3:
            raise FixtureParseError(f"fixture {path}: triple {trip} is not sorted")
        if trip in seen:
            raise FixtureParseError(f"fixture {path}: duplicate triple {trip}")
        seen.add(trip)
    return data


def diff_table(computed: Sequence[StructureRow], fixture_path: Union[str, Path]) -> TableDiff:
    """Exact per-row comparison; deterministic order, fixture untouched."""
    fixture = load_table_fixture(fixture_path)
    by_triple = {tuple(r["triple"]): r for r in fixture["rows"]}
    out = []
    matches = mismatches = missing = 0
    for row in sorted(computed, key=lambda r: r.triple):
        frow = by_triple.pop(row.triple, None)
        computed_targets = {n: c for n, c in row.targets}
        if frow is None:
            missing += 1
            out.append({"triple": row.triple, "status": "MissingInFixture"})
            continue
        expected = {
            t["index"]: FieldElem.from_json(t["coeff"]) for t in frow["targets"]
        }
        if expected == computed_targets:
            matches += 1
            out.append({"triple": row.triple, "status": "Match"})
        else:
            mismatches += 1
            out.append(
                {
                    "triple": row.triple,
                    "status": "Mismatch",
                    "expected": {n: str(c) for n, c in sorted(expected.items())},
                    "computed": {n: str(c) for n, c in sorted(computed_targets.items())},
                    "printed_as": frow.get("printed_as"),
                }
            )
    extra = len(by_triple)
    for trip in sorted(by_triple):
        out.append({"triple": trip, "status": "ExtraInFixture"})
    return TableDiff(tuple(out), matches, mismatches, missing, extra)
