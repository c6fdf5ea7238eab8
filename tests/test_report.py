import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nonion.bases import NonionBasis, nonion_basis
from nonion.cli import main
from nonion.cubic import (
    CYCLE_ALL_GROUPS,
    CYCLE_FIX_DIAG,
    a0_vs_det,
    det_poly,
    triple_product_components,
)
from nonion.field import SQRT3, j_pow, rational
from nonion.fixtures import (
    FIXTURE_NAMES,
    FixtureParseError,
    fixture_checksums,
    fixture_path,
    load_fixture,
)
from nonion.matrix import Mat3
from nonion.poly import MPoly
from nonion.report import (
    SCOPES,
    Check,
    Section,
    VerificationReport,
    emit_report,
    render_markdown,
    run_verify,
)
from nonion.roots import extract_alpha_root, extract_beta_root, z3_rotate


def test_unknown_scope_rejected():
    with pytest.raises(ValueError):
        run_verify("everything")


def test_scope_selects_single_section():
    report = run_verify("roots")
    assert [s.name for s in report.sections] == ["roots"]
    assert report.passed()


def test_report_json_round_trip(tmp_path):
    report = run_verify("tu3-table")
    path = tmp_path / "report.json"
    text = emit_report(report, "json", str(path))
    assert path.read_text() == text
    parsed = json.loads(text)
    assert parsed["schema"] == "verification-report/1"
    assert parsed["sections"][0]["name"] == "tu3-table"
    assert parsed["meta"]["fixture_checksums"].keys() == set(FIXTURE_NAMES)


GOLDEN = Path(__file__).parent / "golden" / "verify_all.json"
GOLDEN_MD = GOLDEN.with_suffix(".md")


def test_full_report_matches_golden():
    # the interpreter version is the one meta field that varies by machine
    report = run_verify("all")
    del report.meta["python"]
    assert emit_report(report, "json") == GOLDEN.read_text(encoding="utf-8")


def test_markdown_report_matches_golden(capsys):
    # the same report as Markdown, from the CLI; its interpreter line is masked
    assert main(["verify", "--format", "md"]) == 1
    out, count = re.subn(r'^  "python": "[^"\n]*",\n', "", capsys.readouterr().out, flags=re.M)
    assert count == 1
    assert out == GOLDEN_MD.read_text(encoding="utf-8")


def test_report_determinism_byte_identical():
    # the full-scope determinism check lives in the acceptance suite;
    # a single-section rerun keeps this one cheap
    a = emit_report(run_verify("norm"), "json")
    b = emit_report(run_verify("norm"), "json")
    assert a == b


def test_verify_bytes_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "nonion.cli", "verify", "--format", "json"],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, check=False,
        )
        for seed in ("0", "12345")
    ]
    assert [(r.returncode, r.stderr) for r in runs] == [(1, b"")] * 2
    assert runs[0].stdout == runs[1].stdout


def test_strict_escalates_informational():
    relaxed = run_verify("su3", strict=False)
    strict = run_verify("su3", strict=True)
    assert relaxed.sections[0].status(relaxed.strict) == "Pass"
    # the lambda-combination comparison fails under strict
    assert strict.sections[0].status(strict.strict) == "Fail"


def test_markdown_report_names_strict_mode():
    relaxed = emit_report(run_verify("roots"), "md").splitlines()
    strict = emit_report(run_verify("roots", strict=True), "md").splitlines()
    assert relaxed[2] == "overall: PASS" and strict[2] == "overall: PASS (strict)"
    assert emit_report(run_verify("su3", strict=True), "md").splitlines()[2] == "overall: FAIL (strict)"
    assert all("strict" not in line for line in relaxed)


def test_statuses_are_computed_not_hand_set():
    for scope in SCOPES[1:]:
        report = run_verify(scope)
        for section in report.sections:
            hard_ok = all(c.ok for c in section.checks if c.kind == "assert")
            assert section.status(False) == ("Pass" if hard_ok else "Fail")


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report(run_verify("roots"), "yaml")


def test_emit_rejects_a_detail_that_is_not_json():
    # an exact value reaches the report as text; one that slips through is an error
    check = Check("exact value", "info", True, {"value": SQRT3})
    report = VerificationReport([Section("s", [check])], False, {})
    for render in (lambda r: emit_report(r, "json"), render_markdown):
        with pytest.raises(TypeError, match="FieldElem is not JSON serializable"):
            render(report)


def test_warm_tu3_table_section_makes_no_matrix_product(monkeypatch):
    # the Cartan check reads the {0,7,8} row of the table the section holds
    run_verify("tu3-table")
    calls = []
    real = Mat3.__mul__
    monkeypatch.setattr(Mat3, "__mul__", lambda a, b: (calls.append(1), real(a, b))[1])
    run_verify("tu3-table")
    assert len(calls) == 0


def test_checksums_change_with_fixture(tmp_path, monkeypatch):
    before = fixture_checksums()
    source = fixture_path("roots_alpha.json")
    copy_dir = tmp_path / "data"
    copy_dir.mkdir()
    for name in FIXTURE_NAMES:
        (copy_dir / name).write_bytes(fixture_path(name).read_bytes())
    (copy_dir / "roots_alpha.json").write_text(
        source.read_text().replace("1/3", "2/3", 1)
    )
    monkeypatch.setattr(
        "nonion.fixtures.fixture_path", lambda name: copy_dir / name
    )
    after = fixture_checksums()
    assert before["roots_alpha.json"] != after["roots_alpha.json"]
    assert before["table_tu3_s3.json"] == after["table_tu3_s3.json"]


def test_fixture_loader_errors(tmp_path, monkeypatch):
    with pytest.raises(FixtureParseError):
        load_fixture("unknown.json")
    broken = tmp_path / "table_nonion_s3.json"
    broken.write_text("{")
    monkeypatch.setattr("nonion.fixtures.fixture_path", lambda name: broken)
    with pytest.raises(FixtureParseError, match="^fixture table_nonion_s3.json is not valid JSON: "):
        load_fixture("table_nonion_s3.json")


def _set(path, keys, value):
    data = json.loads(path.read_text(encoding="utf-8"))
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path.write_text(json.dumps(data), encoding="utf-8")


def test_expectations_are_read_from_the_fixtures(tmp_path, monkeypatch):
    # a printed value changed in a copy of its fixture flips the check that asserts it
    for name in FIXTURE_NAMES:
        (tmp_path / name).write_bytes(fixture_path(name).read_bytes())
    monkeypatch.setattr("nonion.fixtures.fixture_path", lambda name: tmp_path / name)
    monkeypatch.setattr("nonion.report.fixture_path", lambda name: tmp_path / name)
    tu3 = tmp_path / "table_tu3_s3.json"
    row_456 = [r["triple"] for r in json.loads(tu3.read_text())["rows"]].index([4, 5, 6])
    _set(tu3, ["rows", row_456, "targets", 0, "coeff", 4], "1/1")
    _set(tmp_path / "roots_alpha.json", ["roots", 0, "components", 1, 2], "1/2")
    _set(tmp_path / "roots_beta.json", ["roots", 2, "target"], 4)
    _set(tmp_path / "clifford_census.json", ["degree_census_4", 4], 18)

    failed = {
        c.name: c.detail
        for scope in ("tu3-table", "roots", "clifford")
        for c in run_verify(scope).sections[0].checks
        if not c.ok
    }
    assert failed.pop("bracket {4,5,6} = -sqrt3 Q0") == {
        "triple": [4, 5, 6], "expected": {"0": "√3"}, "computed": {"0": "-√3"},
    }
    assert set(failed) == {
        "diff vs transcribed table (match rate)",
        "alpha_1 = (1/sqrt3, 0, -sqrt(2/3))",
        "beta pair product targets",
        "degree census for four generators",
        "weighted identity kind 2 vanishes",
        "weighted identity kind 3 equals 3j q_k^2 q_l",
    }


ANTIPODES_A = "alpha_i = -alpha_{i+3}"
ANTIPODES_B = "beta_i = -beta_{i+3}"
OPPOSITE_A = "<alpha_i, alpha_{i+3}> = -1 (the all-pairs orthogonality claim fails here)"
GRAM_B = "<beta_i, beta_i> = 3; <beta_i, beta_j> = -1 (distinct i, j in {1,2,3})"
ROTATION = "rotation has order 3 and cycles both root triples"


def _times_j(root):
    return tuple(c * j_pow(1) for c in root)


@pytest.mark.parametrize(
    "family, index, change, failing",
    [
        ("beta", 4, z3_rotate, {ANTIPODES_B}),
        ("alpha", 4, z3_rotate, {ANTIPODES_A, OPPOSITE_A}),
        ("beta", 2, z3_rotate, {GRAM_B, ANTIPODES_B, ROTATION}),
        ("alpha", 2, z3_rotate, {
            "<alpha_i, alpha_j> = 0 for distinct i, j in {1,2,3}", ANTIPODES_A, OPPOSITE_A,
            "projected roots: norms 2/3, zero sum, ratio 3/2", ROTATION,
        }),
        ("beta", 4, _times_j, {GRAM_B, ANTIPODES_B, "root components stay in the real subfield"}),
    ],
    ids=["beta4-rotated", "alpha4-rotated", "beta2-rotated", "alpha2-rotated", "beta4-times-j"],
)
def test_each_roots_check_reads_its_own_family(monkeypatch, family, index, change, failing):
    # one root changed fails exactly the checks that read it
    def alpha(i):
        root = extract_alpha_root(i)
        return change(root) if i == index else root

    def beta(i):
        target, root = extract_beta_root(i)
        return target, change(root) if i == index else root

    fake = {"alpha": alpha, "beta": beta}[family]
    monkeypatch.setattr(f"nonion.report.extract_{family}_root", fake)
    (section,) = run_verify("roots").sections
    assert {c.name for c in section.checks if not c.ok} == failing


def test_spot_check_on_a_triple_the_fixture_lacks(tmp_path, monkeypatch):
    tu3 = tmp_path / "table_tu3_s3.json"
    tu3.write_bytes(fixture_path("table_tu3_s3.json").read_bytes())
    monkeypatch.setattr("nonion.report.fixture_path", lambda name: tu3)
    row_456 = [r["triple"] for r in json.loads(tu3.read_text())["rows"]].index([4, 5, 6])
    _set(tu3, ["rows", row_456, "triple"], [6, 7, 9])
    (spot,) = [c for c in run_verify("tu3-table").sections[0].checks if "{4,5,6}" in c.name]
    assert not spot.ok
    assert spot.detail == {"triple": [4, 5, 6], "expected": None, "computed": {"0": "-√3"}}


def _check(scope, name):
    (section,) = run_verify(scope).sections
    (check,) = [c for c in section.checks if c.name == name]
    return section, check


CYCLING = "A0 invariant under cycling all three coordinate triples"


def _monomial(name):
    exp = [0] * 9
    for var in name.split("*"):
        exp[int(var[1:])] += 1
    return tuple(exp)


# advancing every triple, and advancing only (1,2,3): neither leaves A0 unchanged
@pytest.mark.parametrize("cycle", [CYCLE_ALL_GROUPS, {1: 2, 2: 3, 3: 1}])
def test_cycling_counterexample_is_read_from_a0(monkeypatch, cycle):
    monkeypatch.setattr("nonion.report.CYCLE_ALL_GROUPS", cycle)
    a0 = triple_product_components()[0]
    _, check = _check("triple-product", CYCLING)
    m = re.fullmatch(r"(\S+) has coefficient (\S+) but its image (\S+) has (\S+)",
                     check.detail["counterexample"])
    assert not check.ok and m
    mono, image = _monomial(m.group(1)), _monomial(m.group(3))
    assert MPoly.monomial(mono).permute_vars(cycle) == MPoly.monomial(image)
    assert (m.group(2), m.group(4)) == (str(a0.coeff(mono)), str(a0.coeff(image)))
    assert a0.coeff(mono) != a0.coeff(image)


def test_cycling_that_keeps_a0_has_no_counterexample(monkeypatch):
    monkeypatch.setattr("nonion.report.CYCLE_ALL_GROUPS", CYCLE_FIX_DIAG)
    _, check = _check("triple-product", CYCLING)
    assert check.ok and check.detail == {"counterexample": None}


def test_a0_a_multiple_of_the_determinant(monkeypatch):
    comps = triple_product_components()
    scaled = (det_poly().scale(rational(-2, 3)),) + comps[1:]
    monkeypatch.setattr("nonion.cubic.triple_product_components", lambda: scaled)
    relation = {"constant_ratio": "-2/3", "equal_up_to_constant": True}
    assert a0_vs_det() == relation
    _, check = _check("triple-product", "A0 vs determinant relation")
    assert check.ok and check.detail == relation


PRODUCTS = "q_a q_b = j^s q_c on all 81 pairs, (s, c) from the Clifford normal ordering"


def test_product_table_check_names_the_first_failing_pair(monkeypatch):
    _, check = _check("clifford", PRODUCTS)
    assert check.ok and check.detail is None

    basis = nonion_basis()
    table = [list(row) for row in basis.product_table]
    s, c = table[1][2]
    table[1][2] = ((s + 1) % 3, c)
    # a later pair is broken too: the detail names the first one
    table[4][5] = ((table[4][5][0] + 1) % 3, table[4][5][1])
    broken = NonionBasis(basis.elements, basis.grade, tuple(map(tuple, table)), basis.grams)
    monkeypatch.setattr("nonion.report.nonion_basis", lambda: broken)
    section, check = _check("clifford", PRODUCTS)
    q = basis.elements
    assert not check.ok and section.status() == "Fail"
    assert check.detail == {
        "pair": [1, 2],
        "s": (s + 1) % 3,
        "c": c,
        "q_a q_b": str(q[1] * q[2]),
        "j^s q_c": str(q[c].scale(j_pow(s + 1))),
    }
    assert check.detail["q_a q_b"] != check.detail["j^s q_c"]
