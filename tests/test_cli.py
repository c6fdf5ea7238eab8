import json

import pytest

from nonion.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bases / bracket / table
# ---------------------------------------------------------------------------

def test_bases_show_json(capsys):
    code, out, _ = run(capsys, "bases", "show", "--basis", "nonion")
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 9
    assert data["pair_phases"][1][2] == 1


def test_bases_show_md(capsys):
    code, out, _ = run(capsys, "bases", "show", "--basis", "tu3", "--format", "md")
    assert code == 0
    assert "element 0" in out


def test_bracket_command(capsys):
    code, out, _ = run(capsys, "bracket", "1", "2", "3")
    assert code == 0
    data = json.loads(out)
    assert data["targets"][0]["index"] == 0
    assert data["targets"][0]["coeff"]["exact"][0] == "-3/1"
    assert data["targets"][0]["coeff"]["exact"][1] == "-6/1"


def test_bracket_rejects_bad_index(capsys):
    code, _, err = run(capsys, "bracket", "1", "2", "11")
    assert code == 2 and "0..8" in err


def test_table_md_row_count(capsys):
    code, out, _ = run(capsys, "table", "--basis", "tu3", "--format", "md")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("| {")]
    assert len(lines) == 84


# ---------------------------------------------------------------------------
# diff-table exit codes
# ---------------------------------------------------------------------------

def test_diff_table_tu3_all_match(capsys):
    code, out, _ = run(capsys, "diff-table", "--basis", "tu3")
    assert code == 0
    assert json.loads(out)["summary"]["matches"] == 84


def test_diff_table_nonion_reports_mismatches(capsys):
    code, out, _ = run(capsys, "diff-table", "--basis", "nonion")
    assert code == 1
    assert json.loads(out)["summary"]["mismatches"] == 44


def test_diff_table_fixture_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "diff-table", "--fixture", str(bad))
    assert code == 2 and "fixture error" in err


# ---------------------------------------------------------------------------
# norm / expand / census
# ---------------------------------------------------------------------------

def test_norm_exact_value(capsys):
    code, out, _ = run(capsys, "norm", "--coords", "1,0,0,0,0,0,0,1,1")
    assert code == 0
    data = json.loads(out)
    assert data["text"] == "0"


def test_norm_rational_input(capsys):
    code, out, _ = run(capsys, "norm", "--coords", "1/2,0,0,0,0,0,0,0,0")
    assert code == 0
    assert json.loads(out)["norm"][0] == "1/8"


def test_norm_wrong_arity(capsys):
    code, _, err = run(capsys, "norm", "--coords", "1,2,3")
    assert code == 2


def test_expand_det_json(capsys):
    code, out, _ = run(capsys, "expand", "det")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 21


def test_expand_triple_md(capsys):
    code, out, _ = run(capsys, "expand", "triple", "--format", "md")
    assert code == 0
    assert out.startswith("A0 =")


def test_census_values(capsys):
    code, out, _ = run(capsys, "census", "det")
    assert json.loads(out) == {
        "poly": "det",
        "distinct_monomials": 21,
        "weighted_terms": 81,
    }
    code, out, _ = run(capsys, "census", "triple")
    assert json.loads(out)["distinct_monomials"] == 15
    code, out, _ = run(capsys, "census", "surface")
    assert json.loads(out)["weighted_terms"] == 81


# ---------------------------------------------------------------------------
# roots / su3 / lambda
# ---------------------------------------------------------------------------

def test_roots_alpha_json(capsys):
    code, out, _ = run(capsys, "roots", "--alpha")
    data = json.loads(out)
    assert code == 0
    assert data["alpha"]["1"][1]["text"] == "0"


def test_roots_beta_md(capsys):
    code, out, _ = run(capsys, "roots", "--beta", "--format", "md")
    assert code == 0 and "beta_1" in out


def test_roots_rotate(capsys):
    code, out, _ = run(capsys, "roots", "rotate", "--vector", "alpha1", "--power", "2")
    assert code == 0
    rotated = json.loads(out)["result"]
    code, out, _ = run(capsys, "roots", "--alpha")
    alpha3 = json.loads(out)["alpha"]["3"]
    assert [c["exact"] for c in rotated] == [c["exact"] for c in alpha3]


def test_roots_rotate_requires_vector(capsys):
    code, _, err = run(capsys, "roots", "rotate")
    assert code == 2


def test_su3_check(capsys):
    code, out, _ = run(capsys, "su3", "check")
    data = json.loads(out)
    assert code == 0
    assert data["123"]["text"] == "1"
    assert data["458"]["text"] == "1/2√3"


def test_lambda_diff(capsys):
    code, out, _ = run(capsys, "lambda", "diff")
    rows = json.loads(out)
    assert code == 0 and len(rows) == 8
    by_idx = {r["lambda"]: r for r in rows}
    assert by_idx[1]["matches"] is False  # the stray j on q5
    assert "note" in by_idx[1]


# ---------------------------------------------------------------------------
# clifford
# ---------------------------------------------------------------------------

def test_clifford_dim(capsys):
    code, out, _ = run(capsys, "clifford", "dim", "6")
    assert code == 0 and json.loads(out) == {"n": 6, "dimension": 729}


def test_clifford_dim_range_guard(capsys):
    code, _, err = run(capsys, "clifford", "dim", "13")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("census", "13"),
    ("census", "100000"),
    ("census", "0"),
    ("mul", "q1", "q2", "--n", "13"),
    ("mul", "q1", "q1", "--n", "0"),
    ("identities", "--n", "13"),
    ("identities", "0"),
])
def test_clifford_generator_count_bound(capsys, argv):
    code, out, err = run(capsys, "clifford", *argv)
    assert code == 2 and out == ""
    assert err == f"error: generator count must be 1..12, got {int(argv[-1])}\n"


def test_clifford_census(capsys):
    code, out, _ = run(capsys, "clifford", "census", "4")
    assert json.loads(out)["census"] == [1, 4, 10, 16, 19, 16, 10, 4, 1]


def test_clifford_mul(capsys):
    code, out, _ = run(capsys, "clifford", "mul", "q2 q1 q1", "q1", "--n", "2")
    assert code == 0
    product = json.loads(out)["product"]
    assert product == [
        {"monomial": [0, 1], "coeff": {"exact": ["1/1"] + ["0/1"] * 7, "text": "1"}}
    ]


def test_clifford_mul_needs_n(capsys):
    code, _, err = run(capsys, "clifford", "mul", "q1", "q2")
    assert code == 2


def test_clifford_identities(capsys):
    code, out, _ = run(capsys, "clifford", "identities", "--n", "3")
    data = json.loads(out)
    assert code == 0
    assert data["symmetric_sum_000"] != "0"
    assert all(row["kind1"] == "0" for row in data["weighted"])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_roots_passes(capsys):
    code, out, _ = run(capsys, "verify", "roots")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["sections"][0]["status"] == "Pass"


def test_verify_norm_passes(capsys):
    code, out, _ = run(capsys, "verify", "norm")
    assert code == 0


def test_verify_all_reports_reference_conflicts(capsys):
    # the bundled reference tables contain rows the exact recomputation
    # contradicts; the full run records them as failures honestly
    code, out, _ = run(capsys, "verify", "all")
    assert code == 1
    report = json.loads(out)
    status = {s["name"]: s["status"] for s in report["sections"]}
    assert status["roots"] == "Pass"
    assert status["tu3-table"] == "Pass"
    assert status["norm"] == "Pass"
    assert status["su3"] == "Pass"
    assert status["nonion-table"] == "Fail"
    assert status["triple-product"] == "Fail"
    assert status["clifford"] == "Fail"


def test_verify_md_output(capsys, tmp_path):
    out_path = tmp_path / "report.md"
    code, out, _ = run(capsys, "verify", "tu3-table", "--format", "md", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# Verification report")
    assert "tu3-table" in text


def test_verify_unwritable_out_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "x.json"
    code, out, err = run(capsys, "verify", "roots", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write report to {target}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not target.exists()
