"""The alternating triple bracket and structure-constant tables.

{A,B,C} = ABC + BCA + CAB - BAC - ACB - CBA summed over the six
permutations of the arguments.  For each of the C(9,3) = 84 index
triples the bracket of basis elements is summed from the basis's own
multiplication table; the rows are diffed against a transcribed
reference table without ever mutating or "correcting" it.
"""

from __future__ import annotations

from itertools import permutations
from pathlib import Path
from typing import NamedTuple, Sequence, Union

from .bases import NonionBasis, TU3Basis
from .field import FieldElem, sum_terms
from .fixtures import load_table_fixture
from .matrix import Mat3

__all__ = [
    "StructureRow",
    "TableDiff",
    "s3_bracket",
    "structure_row",
    "structure_table",
    "all_triples",
    "diff_table",
]

Basis = Union[NonionBasis, TU3Basis]


# Signs of itertools.permutations((k, l, m)) in its output order.
_PERMUTATION_SIGNS = (1, -1, -1, 1, 1, -1)


def s3_bracket(a: Mat3, b: Mat3, c: Mat3) -> Mat3:
    """Signed sum of the six permuted triple products, exact."""
    even = a * b * c + b * c * a + c * a * b
    odd = b * a * c + a * c * b + c * b * a
    return even - odd


class StructureRow(NamedTuple):
    """One bracket row: sorted index triple and its nonzero components."""

    triple: tuple[int, int, int]
    targets: tuple[tuple[int, FieldElem], ...]  # (basis index, coefficient)

    def target_map(self) -> dict[int, FieldElem]:
        return dict(self.targets)


def all_triples() -> list[tuple[int, int, int]]:
    return [(k, l, m) for k in range(9) for l in range(k + 1, 9) for m in range(l + 1, 9)]


def structure_row(basis: Basis, triple: tuple[int, int, int]) -> StructureRow:
    """The bracket of three basis elements, decomposed exactly in the basis.

    Each permuted product (e_x e_y) e_z is read from the basis's sparse
    multiplication table `products`, and the signed terms are summed per
    target.  The triple is taken in argument order, sorted or not; an
    index outside 0..8 is a `ValueError`.
    """
    k, l, m = triple
    if not all(0 <= i <= 8 for i in triple):
        raise ValueError("indices must be 0..8")
    products = basis.products
    terms = (
        (c, u * v if sign > 0 else -(u * v))
        for (x, y, z), sign in zip(permutations((k, l, m)), _PERMUTATION_SIGNS)
        for c1, u in products[x][y]
        for c, v in products[c1][z]
    )
    return StructureRow((k, l, m), tuple(sorted((c, v) for c, v in sum_terms(terms).items() if v)))


def structure_table(basis: Basis) -> list[StructureRow]:
    """All 84 bracket rows of the given basis, decomposed exactly."""
    return [structure_row(basis, t) for t in all_triples()]


# ----------------------------------------------------------------------
# fixture comparison
# ----------------------------------------------------------------------

class TableDiff(NamedTuple):
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


def diff_table(computed: Sequence[StructureRow], fixture_path: Union[str, Path]) -> TableDiff:
    """Exact per-row comparison; deterministic order, fixture untouched."""
    fixture = load_table_fixture(fixture_path)
    out = []
    for row in sorted(computed, key=lambda r: r.triple):
        expected, printed_as = fixture.pop(row.triple, (None, None))
        computed_targets = row.target_map()
        if expected is None:
            out.append({"triple": row.triple, "status": "MissingInFixture"})
        elif expected == computed_targets:
            out.append({"triple": row.triple, "status": "Match"})
        else:
            out.append(
                {
                    "triple": row.triple,
                    "status": "Mismatch",
                    "expected": {n: str(c) for n, c in sorted(expected.items())},
                    "computed": {n: str(c) for n, c in sorted(computed_targets.items())},
                    "printed_as": printed_as,
                }
            )
    out.extend({"triple": trip, "status": "ExtraInFixture"} for trip in sorted(fixture))
    statuses = [r["status"] for r in out]
    kinds = ("Match", "Mismatch", "MissingInFixture", "ExtraInFixture")
    return TableDiff(tuple(out), *(statuses.count(k) for k in kinds))
