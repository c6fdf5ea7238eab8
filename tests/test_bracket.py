import json
from itertools import combinations, permutations

import pytest

from nonion.bracket import (
    StructureRow,
    all_triples,
    diff_table,
    s3_bracket,
    structure_row,
    structure_table,
)
from nonion.field import J, J2, FieldElem, rational
from nonion.fixtures import FixtureParseError, FixtureRowCountError, fixture_path
from nonion.matrix import Mat3, decompose_in_basis

import oracle
from conftest import random_mat3

# ---------------------------------------------------------------------------
# the bracket itself
# ---------------------------------------------------------------------------

def test_bracket_123_gives_diagonal_multiple(nonions):
    q = nonions.elements
    coeff = rational(3) * (J2 - J)
    assert s3_bracket(q[1], q[2], q[3]) == Mat3.identity().scale(coeff)


def test_bracket_140_vanishes(nonions):
    q = nonions.elements
    assert s3_bracket(q[1], q[4], q[0]).is_zero()


def test_bracket_repeated_argument_vanishes(rng):
    a = random_mat3(rng)
    b = random_mat3(rng)
    assert s3_bracket(a, a, b).is_zero()
    assert s3_bracket(a, b, b).is_zero()


def test_bracket_total_antisymmetry(rng):
    for _ in range(20):
        a, b, c = random_mat3(rng), random_mat3(rng), random_mat3(rng)
        base = s3_bracket(a, b, c)
        assert s3_bracket(b, a, c) == -base
        assert s3_bracket(a, c, b) == -base
        assert s3_bracket(c, b, a) == -base
        assert s3_bracket(b, c, a) == base
        assert s3_bracket(c, a, b) == base


def test_bracket_linearity_in_each_slot(rng):
    for _ in range(12):
        a, a2, b, c = (random_mat3(rng) for _ in range(4))
        t = rational(3, 7)
        assert s3_bracket(a + a2.scale(t), b, c) == s3_bracket(a, b, c) + s3_bracket(
            a2, b, c
        ).scale(t)
        assert s3_bracket(b, a + a2.scale(t), c) == s3_bracket(b, a, c) + s3_bracket(
            b, a2, c
        ).scale(t)


# ---------------------------------------------------------------------------
# binary reduction
# ---------------------------------------------------------------------------

# With a central third slot t*I the bracket collapses to t*(ab - ba).

def test_binary_reduction_is_commutator(nonions):
    q = nonions.elements
    assert s3_bracket(q[1], q[2], q[0]) == q[1] * q[2] - q[2] * q[1]


def test_binary_reduction_all_28_pairs(nonions):
    q = nonions.elements
    for a in range(1, 9):
        for b in range(a + 1, 9):
            assert s3_bracket(q[a], q[b], q[0]) == q[a] * q[b] - q[b] * q[a]


def test_binary_reduction_same_element_vanishes(nonions):
    q = nonions.elements
    assert s3_bracket(q[3], q[3], q[0]).is_zero()


def test_binary_reduction_tu3_cartan(tu3):
    e = tu3.elements
    t = e[0].trace() / rational(3)
    br = s3_bracket(e[7], e[8], e[0])
    assert br == (e[7] * e[8] - e[8] * e[7]).scale(t)
    assert br.is_zero()


def test_binary_reduction_rejects_non_central(nonions):
    # q7 does not commute with q1, and the reduction fails for it
    q = nonions.elements
    assert not q[7].commutes_with(q[1])
    t = q[7].trace() / rational(3)
    assert s3_bracket(q[1], q[2], q[7]) != (q[1] * q[2] - q[2] * q[1]).scale(t)


# ---------------------------------------------------------------------------
# full tables
# ---------------------------------------------------------------------------

def test_structure_table_shape(nonions):
    rows = structure_table(nonions)
    assert len(rows) == 84
    assert all(len(r.targets) <= 1 for r in rows)  # single-target basis


def test_nonion_rows_match_recomputation(nonions):
    # frozen recomputed values; the transcribed table disagrees on some
    # of these rows, which the diff report records
    rows = {r.triple: r.target_map() for r in structure_table(nonions)}
    two = rational(2)
    assert rows[(1, 2, 5)] == {1: J - J2}
    assert rows[(1, 2, 6)] == {3: two * (J2 - J)}
    assert rows[(1, 2, 4)] == {2: J - J2}
    assert rows[(0, 1, 2)] == {6: J2 - J}
    assert rows[(0, 1, 4)] == {}


def test_nonion_table_matches_matrix_bracket_and_oracle(nonions):
    # the phase-counting rows against the Mat3 bracket projected back onto
    # the basis, and against the Z[j] oracle, on all 84 triples
    q = nonions.elements
    rows = structure_table(nonions)
    assert [r.triple for r in rows] == all_triples()
    for row in rows:
        k, l, m = row.triple
        coeffs = decompose_in_basis(s3_bracket(q[k], q[l], q[m]), q, nonions.grams)
        assert row.target_map() == {n: c for n, c in enumerate(coeffs) if not c.is_zero()}
        expected = oracle.project(oracle.bracket(*(oracle.BASIS[i] for i in row.triple)))
        got = [oracle.ZERO] * 9
        for n, c in row.targets:
            got[n] = oracle.from_library_scalar(c)
        assert tuple(got) == expected


def test_tu3_table_matches_matrix_bracket(tu3):
    # the table-product rows against the Mat3 bracket projected back onto
    # the basis, on all 84 triples
    q = tu3.elements
    rows = structure_table(tu3)
    assert [r.triple for r in rows] == all_triples()
    for row in rows:
        k, l, m = row.triple
        coeffs = decompose_in_basis(s3_bracket(q[k], q[l], q[m]), q, tu3.grams)
        assert row.target_map() == {n: c for n, c in enumerate(coeffs) if not c.is_zero()}


@pytest.mark.parametrize("name", ["nonions", "tu3"])
@pytest.mark.parametrize("triple", [(1, 2, 3), (1, 2, 5), (2, 5, 7), (0, 7, 8), (3, 6, 8)])
def test_structure_row_in_any_argument_order(request, name, triple):
    basis = request.getfixturevalue(name)
    base = structure_row(basis, triple)
    for perm in permutations(triple):
        odd = sum(x > y for x, y in combinations(perm, 2)) % 2
        row = structure_row(basis, perm)
        assert row.triple == perm
        assert row.targets == tuple((n, -c if odd else c) for n, c in base.targets)


@pytest.mark.parametrize("name", ["nonions", "tu3"])
@pytest.mark.parametrize("triple", [(-1, 2, 3), (0, 1, 9)])
def test_structure_row_rejects_an_index_outside_the_basis(request, name, triple):
    with pytest.raises(ValueError, match=r"^indices must be 0\.\.8$"):
        structure_row(request.getfixturevalue(name), triple)


def test_nonion_grading_compatibility(nonions):
    grade = nonions.grade
    for row in structure_table(nonions):
        k, l, m = row.triple
        for n, _ in row.targets:
            assert (grade[k] + grade[l] + grade[m]) % 3 == grade[n]


def test_tu3_table_has_one_vanishing_diagonal_row(tu3):
    rows = {r.triple: r.target_map() for r in structure_table(tu3)}
    assert rows[(0, 7, 8)] == {}
    diagonal_triples = [t for t, tg in rows.items() if set(t) <= {0, 7, 8}]
    assert diagonal_triples == [(0, 7, 8)]


def test_tu3_multi_target_row(tu3):
    rows = {r.triple: r.target_map() for r in structure_table(tu3)}
    assert set(rows[(2, 5, 7)]) == {0, 7, 8}


# ---------------------------------------------------------------------------
# fixture diffs
# ---------------------------------------------------------------------------

def _rows_to_fixture(rows):
    return {
        "schema": "structure-table/1",
        "rows": [
            {
                "triple": list(r.triple),
                "targets": [
                    {"index": n, "coeff": c.to_json()} for n, c in r.targets
                ],
            }
            for r in rows
        ],
    }


def test_diff_against_self_is_all_match(tmp_path, nonions):
    rows = structure_table(nonions)
    path = tmp_path / "self.json"
    path.write_text(json.dumps(_rows_to_fixture(rows)))
    diff = diff_table(rows, path)
    assert diff.matches == 84 and diff.all_match


def test_single_altered_coefficient_gives_one_mismatch(tmp_path, nonions):
    rows = structure_table(nonions)
    fixture = _rows_to_fixture(rows)
    target = fixture["rows"][3]["targets"][0]
    target["coeff"] = (rational(7) + J).to_json()
    path = tmp_path / "altered.json"
    path.write_text(json.dumps(fixture))
    diff = diff_table(rows, path)
    assert diff.mismatches == 1 and diff.matches == 83


def test_diff_counts_agree_with_row_statuses(tmp_path, nonions):
    # two computed rows dropped and one triple the fixture lacks: four distinct counts
    rows = structure_table(nonions)
    fixture = _rows_to_fixture(rows)
    fixture["rows"][3]["targets"][0]["coeff"] = (rational(7) + J).to_json()
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(fixture))
    diff = diff_table(rows[:-2] + [StructureRow((6, 7, 9), ())], path)
    assert diff.summary() == {
        "rows": 85, "matches": 81, "mismatches": 1, "missing_in_fixture": 1, "extra_in_fixture": 2,
    }
    statuses = [r["status"] for r in diff.rows]
    assert statuses[-3:] == ["MissingInFixture", "ExtraInFixture", "ExtraInFixture"]


def test_diff_against_transcribed_nonion_table(nonions):
    diff = diff_table(structure_table(nonions), fixture_path("table_nonion_s3.json"))
    assert diff.summary() == {
        "rows": 84,
        "matches": 40,
        "mismatches": 44,
        "missing_in_fixture": 0,
        "extra_in_fixture": 0,
    }
    status = {tuple(r["triple"]): r["status"] for r in diff.rows}
    assert status[(1, 2, 3)] == "Match"
    assert status[(0, 1, 4)] == "Match"
    assert status[(0, 1, 2)] == "Match"
    assert status[(1, 2, 5)] == "Mismatch"
    assert status[(1, 2, 6)] == "Mismatch"


def test_diff_against_transcribed_tu3_table(tu3):
    diff = diff_table(structure_table(tu3), fixture_path("table_tu3_s3.json"))
    assert diff.all_match and diff.matches == 84


def test_diff_table_parses_each_fixture_coefficient_once(monkeypatch, nonions):
    path = fixture_path("table_nonion_s3.json")
    with open(path, encoding="utf-8") as fh:
        coeffs = sum(len(row["targets"]) for row in json.load(fh)["rows"])
    rows = structure_table(nonions)
    calls = []
    real = FieldElem.from_json
    monkeypatch.setattr(
        FieldElem, "from_json", classmethod(lambda cls, data: (calls.append(1), real(data))[1])
    )
    diff_table(rows, path)
    assert len(calls) == coeffs


def test_fixture_errors(tmp_path, nonions):
    rows = structure_table(nonions)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FixtureParseError):
        diff_table(rows, bad)

    short = _rows_to_fixture(rows)
    short["rows"] = short["rows"][:83]
    p = tmp_path / "short.json"
    p.write_text(json.dumps(short))
    with pytest.raises(FixtureRowCountError):
        diff_table(rows, p)

    with pytest.raises(FixtureParseError):
        diff_table(rows, tmp_path / "missing.json")


def test_tu3_fixture_group_tags():
    with open(fixture_path("table_tu3_s3.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    counts = {}
    for row in data["rows"]:
        counts[row["group"]] = counts.get(row["group"], 0) + 1
    assert counts == {"I": 18, "II": 18, "III": 27, "IV": 18, "V": 2, "cartan": 1}
