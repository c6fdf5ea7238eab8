"""Fixture reading and validation: every malformed or unreadable fixture
raises FixtureParseError with a one-line message, and every CLI path that
reads one ends in exit 2 with one `fixture error: ` line on stderr."""

import json

import pytest

from nonion import fixtures
from nonion.cli import main
from nonion.fixtures import (
    FIXTURE_NAMES,
    FixtureParseError,
    clifford_census_fixture,
    fixture_checksums,
    fixture_path,
    lambda_combos_fixture,
    load_fixture,
    load_table_fixture,
    roots_fixture,
    surface_poly_fixture,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_fixture_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"fixture error: {message}") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# bundled fixtures that cannot be read or do not parse
# ---------------------------------------------------------------------------

@pytest.fixture
def bundled(tmp_path, monkeypatch):
    """Point every bundled fixture name at a copy of it in tmp_path."""
    for name in FIXTURE_NAMES:
        (tmp_path / name).write_bytes(fixture_path(name).read_bytes())
    monkeypatch.setattr("nonion.fixtures.fixture_path", lambda name: tmp_path / name)
    monkeypatch.setattr("nonion.report.fixture_path", lambda name: tmp_path / name)
    return tmp_path


def test_load_fixture_on_unreadable_file(bundled, capsys):
    (bundled / "surface_poly.json").unlink()
    with pytest.raises(FixtureParseError, match="^cannot read fixture surface_poly.json: "):
        load_fixture("surface_poly.json")
    assert_fixture_error(capsys, ["census", "surface"], "cannot read fixture surface_poly.json: ")


def test_fixture_checksums_on_unreadable_file(bundled, capsys):
    (bundled / "table_nonion_s3.json").unlink()
    with pytest.raises(FixtureParseError, match="^cannot read fixture table_nonion_s3.json: "):
        fixture_checksums()
    assert_fixture_error(capsys, ["verify"], "cannot read fixture table_nonion_s3.json: ")


@pytest.mark.parametrize(
    "term", [{"coeff": []}, {"exponents": [-1, 4] + [0] * 7, "coeff": ["1/1"] + ["0/1"] * 7}]
)
def test_malformed_surface_fixture(bundled, capsys, term):
    (bundled / "surface_poly.json").write_text(json.dumps({"terms": [term]}), encoding="utf-8")
    with pytest.raises(FixtureParseError, match="^surface fixture malformed: "):
        surface_poly_fixture()
    assert_fixture_error(capsys, ["census", "surface"], "surface fixture malformed: ")


def test_malformed_lambda_fixture(bundled, capsys):
    (bundled / "lambda_combos.json").write_text('{"combos": [{"lambda": 1}]}', encoding="utf-8")
    with pytest.raises(FixtureParseError, match="^lambda fixture malformed: "):
        lambda_combos_fixture()
    assert_fixture_error(capsys, ["lambda", "diff"], "lambda fixture malformed: ")


@pytest.mark.parametrize(
    "row",
    [
        '{"index": 1, "components": 5}',
        '{"components": []}',
        '{"index": "1", "components": []}',
        '{"index": 1.9, "components": []}',
        '{"index": true, "components": []}',
    ],
)
def test_malformed_roots_fixture(bundled, capsys, row):
    (bundled / "roots_alpha.json").write_text(f'{{"roots": [{row}]}}', encoding="utf-8")
    with pytest.raises(FixtureParseError, match="^roots fixture malformed: "):
        roots_fixture("alpha")
    assert_fixture_error(capsys, ["verify", "roots"], "roots fixture malformed: ")


def test_census_fixture_without_the_four_generator_census(bundled, capsys):
    (bundled / "clifford_census.json").write_text('{"dimensions": {}}', encoding="utf-8")
    message = "clifford census fixture malformed: 'degree_census_4'"
    with pytest.raises(FixtureParseError, match=f"^{message}$"):
        clifford_census_fixture()
    assert_fixture_error(capsys, ["verify", "clifford"], message + "\n")


# ---------------------------------------------------------------------------
# corruption sweep: every integer field of the bundled fixtures must be a JSON
# integer (not a boolean), in its range and, where it is a key, unique
# ---------------------------------------------------------------------------

def _row(data, triple):
    (row,) = [r for r in data["rows"] if r["triple"] == triple]
    return row


ZERO_COEFF = ["0/1"] * 8

SWEEP = {
    "lambda-9": (
        "lambda_combos.json", lambda d: d["combos"][0].update({"lambda": 9}),
        "su3", "lambda fixture malformed: lambda 9 is not in 1..8",
    ),
    "lambda-true": (
        "lambda_combos.json", lambda d: d["combos"][0].update({"lambda": True}),
        "su3", "lambda fixture malformed: lambda True is not an integer",
    ),
    "duplicate-lambda": (
        "lambda_combos.json", lambda d: d["combos"][1].update({"lambda": 1}),
        "su3", "lambda fixture malformed: duplicate lambda 1",
    ),
    "eight-lambda-coeffs": (
        "lambda_combos.json", lambda d: d["combos"][0]["coeffs"].pop(),
        "su3", "lambda fixture malformed: lambda 1 has 8 coefficients, expected 9",
    ),
    "beta-target-true": (
        "roots_beta.json", lambda d: d["roots"][0].update({"target": True}),
        "roots", "roots fixture malformed: target True is not an integer",
    ),
    "beta-target-text": (
        "roots_beta.json", lambda d: d["roots"][0].update({"target": "6"}),
        "roots", "roots fixture malformed: target '6' is not an integer",
    ),
    "beta-target-9": (
        "roots_beta.json", lambda d: d["roots"][0].update({"target": 9}),
        "roots", "roots fixture malformed: target 9 is not in 0..8",
    ),
    "alpha-index-7": (
        "roots_alpha.json", lambda d: d["roots"][5].update({"index": 7}),
        "roots", "roots fixture malformed: index 7 is not in 1..6",
    ),
    "duplicate-alpha-index": (
        # the first of the two rows is -alpha_1; a last-row-wins reader keeps alpha_1
        "roots_alpha.json", lambda d: d["roots"].insert(0, {**d["roots"][3], "index": 1}),
        "roots", "roots fixture malformed: duplicate index 1",
    ),
    "census-true": (
        "clifford_census.json", lambda d: d["degree_census_4"].__setitem__(0, True),
        "clifford", "clifford census fixture malformed: census entry True is not an integer",
    ),
    "census-float": (
        "clifford_census.json", lambda d: d["degree_census_4"].__setitem__(1, 4.0),
        "clifford", "clifford census fixture malformed: census entry 4.0 is not an integer",
    ),
    "table-triple-entries": (
        "table_nonion_s3.json", lambda d: _row(d, [1, 2, 3]).update({"triple": [True, 2, 3.0]}),
        "nonion-table",
        "fixture {path} row is malformed: triple entry True is not an integer",
    ),
    "duplicate-table-target-index": (
        # {1,2,3} -> 3(j^2-j) q0, after a first q0 target of 0
        "table_nonion_s3.json",
        lambda d: _row(d, [1, 2, 3])["targets"].insert(0, {"index": 0, "coeff": ZERO_COEFF}),
        "nonion-table", "fixture {path} row is malformed: duplicate target index 0",
    ),
}

ACCESSORS = {
    "lambda_combos.json": lambda_combos_fixture,
    "roots_alpha.json": lambda: roots_fixture("alpha"),
    "roots_beta.json": lambda: roots_fixture("beta"),
    "clifford_census.json": clifford_census_fixture,
    "table_nonion_s3.json": lambda: load_table_fixture(
        fixtures.fixture_path("table_nonion_s3.json")
    ),
}


@pytest.mark.parametrize("name, edit, scope, message", SWEEP.values(), ids=SWEEP.keys())
def test_corrupted_integer_field(bundled, capsys, name, edit, scope, message):
    path = bundled / name
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")
    expected = message.format(path=path)
    with pytest.raises(FixtureParseError) as info:
        ACCESSORS[name]()
    assert str(info.value) == expected
    assert_fixture_error(capsys, ["verify", scope], expected + "\n")


# ---------------------------------------------------------------------------
# table fixtures, bundled or given by path
# ---------------------------------------------------------------------------

def _no_rows_key(data):
    return {"schema": data["schema"]}


def _unsorted_triple(data):
    data["rows"][0]["triple"] = [1, 0, 2]
    return data


def _duplicate_triple(data):
    data["rows"][1]["triple"] = data["rows"][0]["triple"]
    return data


def _target_index(value):
    def corrupt(data):
        row = next(r for r in data["rows"] if r["targets"])
        row["targets"][0]["index"] = value
        return data

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_no_rows_key, "fixture {path} has no 'rows' key"),
        (_unsorted_triple, "fixture {path}: triple (1, 0, 2) is not sorted"),
        (_duplicate_triple, "fixture {path}: duplicate triple (0, 1, 2)"),
        (_target_index("6"), "fixture {path} row is malformed: target index '6' is not an integer"),
        (_target_index(True), "fixture {path} row is malformed: target index True is not an integer"),
        (_target_index(99), "fixture {path} row is malformed: target index 99 is not in 0..8"),
        (_target_index(-1), "fixture {path} row is malformed: target index -1 is not in 0..8"),
    ],
    ids=[
        "no-rows-key", "unsorted-triple", "duplicate-triple", "text-target-index",
        "bool-target-index", "target-index-99", "target-index-minus-1",
    ],
)
def test_malformed_table_fixture(tmp_path, capsys, corrupt, message):
    data = json.loads(fixture_path("table_nonion_s3.json").read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(data)), encoding="utf-8")
    expected = message.format(path=bad)
    with pytest.raises(FixtureParseError) as info:
        load_table_fixture(bad)
    assert str(info.value) == expected
    assert_fixture_error(capsys, ["diff-table", "--fixture", str(bad)], expected + "\n")


def test_table_fixture_read_errors_name_the_path(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    with pytest.raises(FixtureParseError, match="^cannot read fixture .*missing.json: "):
        load_table_fixture(missing)
    assert_fixture_error(capsys, ["diff-table", "--fixture", str(missing)],
                         f"cannot read fixture {missing}: ")
    broken = tmp_path / "broken.json"
    broken.write_text("{oops", encoding="utf-8")
    assert_fixture_error(capsys, ["diff-table", "--fixture", str(broken)],
                         f"fixture {broken} is not valid JSON: ")


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"rows": "\xff"}', "is not valid UTF-8: 'utf-8' codec can't decode byte 0xff"
                              " in position 10: invalid start byte"),
        (b'\xef\xbb\xbf{"rows": []}', "is not valid JSON: Unexpected UTF-8 BOM"
                                     " (decode using utf-8-sig): line 1 column 1 (char 0)"),
    ],
    ids=["not-utf8", "bom"],
)
def test_table_fixture_encoding_errors(tmp_path, capsys, data, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    expected = f"fixture {bad} {message}"
    with pytest.raises(FixtureParseError) as info:
        load_table_fixture(bad)
    assert str(info.value) == expected
    assert_fixture_error(capsys, ["diff-table", "--fixture", str(bad)], expected + "\n")


def test_diff_table_reports_missing_and_extra_rows(tmp_path, capsys):
    data = json.loads(fixture_path("table_tu3_s3.json").read_text(encoding="utf-8"))
    (replaced,) = [r for r in data["rows"] if r["triple"] == [0, 1, 2]]
    replaced["triple"] = [6, 7, 9]
    shifted = tmp_path / "shifted.json"
    shifted.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "diff-table", "--basis", "tu3", "--fixture", str(shifted))
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["summary"] == {
        "rows": 85, "matches": 83, "mismatches": 0, "missing_in_fixture": 1, "extra_in_fixture": 1,
    }
    odd = [r for r in report["rows"] if r["status"] != "Match"]
    assert odd == [
        {"triple": [0, 1, 2], "status": "MissingInFixture"},
        {"triple": [6, 7, 9], "status": "ExtraInFixture"},
    ]
