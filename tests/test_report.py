import json
from pathlib import Path

import pytest

from nonion.bracket import FixtureParseError
from nonion.fixtures import (
    FIXTURE_NAMES,
    fixture_checksums,
    fixture_path,
    load_fixture,
)
from nonion.report import emit_report, run_verify


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


def test_full_report_matches_golden():
    # the interpreter version is the one meta field that varies by machine
    report = run_verify("all")
    del report.meta["python"]
    assert emit_report(report, "json") == GOLDEN.read_text(encoding="utf-8")


def test_report_determinism_byte_identical():
    # the full-scope determinism check lives in the acceptance suite;
    # a single-section rerun keeps this one cheap
    a = emit_report(run_verify("norm"), "json")
    b = emit_report(run_verify("norm"), "json")
    assert a == b


def test_strict_escalates_informational():
    relaxed = run_verify("su3", strict=False)
    strict = run_verify("su3", strict=True)
    assert relaxed.sections[0].status(relaxed.strict) == "Pass"
    # the lambda-combination comparison fails under strict
    assert strict.sections[0].status(strict.strict) == "Fail"


def test_statuses_are_computed_not_hand_set():
    for scope in ("roots", "clifford"):
        report = run_verify(scope)
        for section in report.sections:
            hard_ok = all(c.ok for c in section.checks if c.kind == "assert")
            assert section.status(False) == ("Pass" if hard_ok else "Fail")


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report(run_verify("roots"), "yaml")


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
    with pytest.raises(FixtureParseError):
        load_fixture("table_nonion_s3.json")
