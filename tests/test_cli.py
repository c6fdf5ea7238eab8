import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonion.bases import nonion_basis, pair_phase_matrix
from nonion.bracket import structure_table
from nonion.cli import main
from nonion.cubic import det_poly, triple_product_components
from nonion.field import FieldElem
from nonion.fixtures import fixture_path
from nonion.poly import MPoly


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


def test_bases_show_nonion_md_pair_phases(capsys):
    code, out, _ = run(capsys, "bases", "show", "--basis", "nonion", "--format", "md")
    assert code == 0
    lines = out.splitlines()
    start = lines.index("pair phases omega(a,b) with q_a q_b = j^omega q_b q_a:") + 1
    phases = [[int(t) for t in line.split()] for line in lines[start:]]
    assert phases == [list(r) for r in pair_phase_matrix(nonion_basis())]


def test_bracket_command(capsys):
    code, out, _ = run(capsys, "bracket", "1", "2", "3")
    assert code == 0
    data = json.loads(out)
    assert data["targets"][0]["index"] == 0
    assert data["targets"][0]["coeff"]["exact"][0] == "-3/1"
    assert data["targets"][0]["coeff"]["exact"][1] == "-6/1"


def test_bracket_rejects_bad_index(capsys):
    code, _, err = run(capsys, "bracket", "1", "2", "11")
    assert code == 2 and err == "error: indices must be 0..8\n"


def test_table_json_rows_equal_structure_table(capsys):
    code, out, _ = run(capsys, "table", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [
        (tuple(r["triple"]), tuple((t["index"], FieldElem.from_json(t["coeff"]["exact"]))
                                   for t in r["targets"]))
        for r in rows
    ] == [(r.triple, r.targets) for r in structure_table(nonion_basis())]
    assert len(rows) == 84


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


def _rows_not_a_list(data):
    return {"rows": 5}


def _triple_not_int(data):
    data["rows"][0]["triple"] = [0, 1, "a"]
    return data


def _target_without_index(data):
    row = next(r for r in data["rows"] if r["targets"])
    del row["targets"][0]["index"]
    return data


def _coeff_not_a_string(data):
    row = next(r for r in data["rows"] if r["targets"])
    row["targets"][0]["coeff"][0] = 3
    return data


@pytest.mark.parametrize(
    "corrupt",
    [_rows_not_a_list, _triple_not_int, _target_without_index, _coeff_not_a_string],
    ids=["rows-not-a-list", "triple-not-int", "target-without-index", "coeff-not-a-string"],
)
def test_diff_table_malformed_fixture(tmp_path, capsys, corrupt):
    data = json.loads(fixture_path("table_tu3_s3.json").read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(data)))
    code, out, err = run(capsys, "diff-table", "--basis", "tu3", "--fixture", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("fixture error: ") and err.count("\n") == 1


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
    assert code == 2 and err == "error: --coords needs 9 comma-separated rationals\n"


@pytest.mark.parametrize("text", ["0.5", "1e3", "1_000", "+2/4", "\u0663"])
def test_norm_rejects_text_outside_the_grammar(capsys, text):
    code, out, err = run(capsys, "norm", "--coords", f"{text}, 0, 0, 0, 0, 0, 0, 0, 0")
    assert code == 2 and out == "" and err == f"error: not an exact rational: {text!r}\n"


def test_expand_det_json(capsys):
    code, out, _ = run(capsys, "expand", "det")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 21


def test_expand_det_md_prints_the_polynomial(capsys):
    code, out, _ = run(capsys, "expand", "det", "--format", "md")
    assert code == 0 and out == f"{det_poly()}\n"


def test_expand_triple_json_components(capsys):
    code, out, _ = run(capsys, "expand", "triple")
    assert code == 0
    components = [MPoly.from_json(c) for c in json.loads(out)["components"]]
    assert len(components) == 9 and components == list(triple_product_components())


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
    assert code == 2 and err == "error: --vector is required for rotate\n"


_ROTATE_ONLY = "--alpha, --beta and --format md do not apply to roots rotate"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--vector alpha1 --power 2", "--vector and --power need roots rotate"),
        ("--beta --power 1", "--vector and --power need roots rotate"),
        ("rotate --vector alpha", "--vector must look like alpha1 or beta3"),
        ("rotate --vector beta7", "--vector must look like alpha1 or beta3"),
        ("rotate --vector alpha12", "--vector must look like alpha1 or beta3"),
        ("rotate --vector gamma1", "--vector must look like alpha1 or beta3"),
        ("rotate --vector alpha1 --format md --beta", _ROTATE_ONLY),
        ("rotate --vector beta2 --alpha", _ROTATE_ONLY),
        ("rotate --vector alpha1 --beta", _ROTATE_ONLY),
        ("rotate --vector alpha1 --format md", _ROTATE_ONLY),
        ("rotate --alpha", _ROTATE_ONLY),
    ],
)
def test_roots_option_errors(capsys, argv, message):
    code, out, err = run(capsys, "roots", *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_roots_rotate_accepts_format_json(capsys):
    _, default, _ = run(capsys, "roots", "rotate", "--vector", "alpha2")
    code, explicit, err = run(capsys, "roots", "rotate", "--vector", "alpha2", "--format", "json")
    assert (code, explicit, err) == (0, default, "")


def test_roots_rotate_power_defaults_to_one(capsys):
    _, default, _ = run(capsys, "roots", "rotate", "--vector", "beta2")
    _, explicit, _ = run(capsys, "roots", "rotate", "--vector", "beta2", "--power", "1")
    assert default == explicit and json.loads(default)["power"] == 1


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


@pytest.mark.parametrize("argv", [
    ("dim", "3", "4"),
    ("census", "4", "--n", "5"),
    ("identities", "3", "--n", "4"),
])
def test_clifford_rejects_two_generator_counts(capsys, argv):
    code, out, err = run(capsys, "clifford", *argv)
    assert code == 2 and out == ""
    assert err == f"error: clifford {argv[0]} takes one generator count\n"


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


@pytest.mark.parametrize("word", ["q1^2^3", "q1^"])
def test_clifford_mul_rejects_malformed_token(word, capsys):
    code, out, err = run(capsys, "clifford", "mul", word, "q1", "--n", "2")
    assert code == 2 and out == ""
    assert err == f"error: bad generator token '{word}'\n"


def test_clifford_mul_needs_n(capsys):
    code, _, err = run(capsys, "clifford", "mul", "q1", "q2")
    assert code == 2
    assert err == "error: clifford mul needs two words and --n\n"


def test_clifford_needs_a_generator_count(capsys):
    code, _, err = run(capsys, "clifford", "dim")
    assert code == 2
    assert err == "error: clifford dim needs a generator count\n"


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


# ---------------------------------------------------------------------------
# fuzz: every argv from the command grammar ends in a documented exit code
# ---------------------------------------------------------------------------

# Mostly well-formed values, with out-of-range and malformed ones mixed in.
_index = (st.integers(0, 8) | st.integers(-2, 11)).map(str)
_count = (st.integers(1, 4) | st.integers(-1, 13)).map(str)
_rational = st.builds(
    lambda p, q: f"{p}/{q}", st.integers(-50, 50), st.integers(1, 9)
) | st.integers(-50, 50).map(str)
_bad_rational = st.sampled_from(["", "x", "1/", "1.5", "1/0", "-2/-3"])
_token = st.builds(
    lambda k, p: f"q{k}" + ("" if p is None else f"^{p}"),
    st.integers(1, 3),
    st.none() | st.integers(-4, 4),
)
_bad_token = st.builds(lambda k: f"q{k}", st.integers(-1, 13)) | st.sampled_from(
    ["x1", "q", "q1^", "q1^2^3"]
)
_word = st.lists(st.one_of(_token, _token, _token, _bad_token), max_size=4).map(" ".join)
_opt = st.lists(
    st.sampled_from([["--basis", "nonion"], ["--basis", "tu3"],
                     ["--format", "json"], ["--format", "md"]]),
    max_size=2,
).map(lambda opts: [tok for opt in opts for tok in opt])
_vector = st.builds(
    lambda kind, i: f"{kind}{i}", st.sampled_from(["alpha", "beta", "gamma", ""]),
    st.integers(-1, 8),
)
_n = _count.map(lambda n: ["--n", n])

_argv = st.one_of(
    st.tuples(
        st.just(["bracket"]),
        st.lists(_index, min_size=3, max_size=3) | st.lists(_index, max_size=4),
        _opt,
    ),
    st.tuples(
        st.just(["norm", "--coords"]),
        (
            st.lists(_rational, min_size=9, max_size=9)
            | st.lists(_rational | _bad_rational, min_size=8, max_size=10)
        ).map(lambda xs: [",".join(xs)]),
    ),
    st.tuples(
        st.just(["roots", "rotate"]),
        st.none() | _vector.map(lambda v: ["--vector", v]),
        st.none() | st.integers(-5, 5).map(lambda p: ["--power", str(p)]),
        st.none() | st.sampled_from([["--alpha"], ["--beta"], ["--format", "md"], ["--format", "json"]]),
    ),
    st.sampled_from([["su3", "check"], ["su3"], ["lambda", "diff"], ["lambda", "x"]])
    .map(lambda argv: (argv,)),
    st.tuples(
        st.just(["clifford"]),
        st.sampled_from(["dim", "census", "identities"]).map(lambda a: [a]),
        st.lists(_count | st.just("abc"), max_size=2),
        st.none() | _n,
    ),
    st.tuples(
        st.just(["clifford", "mul"]),
        st.lists(_word, min_size=2, max_size=2) | st.lists(_word, max_size=3),
        st.one_of(st.none(), _n, _n),
    ),
).map(lambda parts: [tok for part in parts if part for tok in part])


@settings(max_examples=300, deadline=None)
@given(_argv)
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
