"""Tests of the benchmark itself: its checks reject planted wrong results,
and two traced runs give the same per-layer counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run
from nonion.clifford import CliffElement
from nonion.field import FieldElem

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def report():
    from nonion import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--format", "json"])
    return code, buf.getvalue()


# ----------------------------------------------------------------------
# verify_cli
# ----------------------------------------------------------------------

@pytest.mark.parametrize("text, value", [
    ("0", (0, 0)), ("j", (0, 1)), ("-j", (0, -1)), ("-3 - 6j", (-3, -6)),
    ("1 + 2j", (1, 2)), ("2j", (0, 2)), ("-1 - j", (-1, -1)),
])
def test_parse_zj(text, value):
    assert checks.parse_zj(text) == value


@pytest.mark.parametrize("text", ["", "x", "1 + 2i", "--2j", "1/2"])
def test_parse_zj_rejects(text):
    with pytest.raises(ValueError):
        checks.parse_zj(text)


def test_verify_report_passes_its_checks(report):
    code, text = report
    assert checks.check_verify_report(text, code) == []


def test_oracle_diff_finds_the_reference_conflicts():
    table, fixture = checks.oracle_nonion_table(), checks.fixture_table()
    mismatches = [t for t in table if table[t] != fixture[t]]
    assert len(table) == 84 and len(mismatches) == 44
    assert (1, 2, 5) in mismatches and (1, 2, 6) in mismatches


def _nonion_check(report: dict, key: str) -> dict:
    section = next(s for s in report["sections"] if s["name"] == "nonion-table")
    return next(c for c in section["checks"] if key in c.get("detail", {}))


def _plant_value(report):
    _nonion_check(report, "triple")["detail"]["computed"] = {"0": "-3 - 5j"}


def _plant_row(report):
    _nonion_check(report, "mismatch_triples")["detail"]["mismatch_triples"].pop(18)


def _plant_summary(report):
    _nonion_check(report, "mismatch_triples")["detail"]["summary"]["matches"] += 1


@pytest.mark.parametrize("plant", [_plant_value, _plant_row, _plant_summary])
def test_verify_check_rejects_a_changed_value(report, plant):
    code, text = report
    data = json.loads(text)
    plant(data)
    assert checks.check_verify_report(json.dumps(data), code)


def test_verify_check_rejects_a_wrong_exit_code(report):
    code, text = report
    assert checks.check_verify_report(text, 1 - code)


def test_changed_report_byte_is_caught_by_the_digest_check(report):
    code, text = report
    first = json.dumps([code, text])
    changed = json.dumps([code, text.replace("Fail", "Pass", 1)])
    digest = hashlib.sha256(changed.encode()).hexdigest()
    reply = {"first": {"0": first}, "digests": [[0, digest]]}
    assert run.check_outputs("verify_cli", {}, reply)


# ----------------------------------------------------------------------
# clifford_dense
# ----------------------------------------------------------------------

def _product_terms(n, a, b):
    monos = inputs.monomials(n)

    def elem(coeffs):
        return CliffElement(n, {m: FieldElem((x, y, 0, 0, 0, 0, 0, 0)) for m, (x, y) in zip(monos, coeffs)})

    prod = elem(a) * elem(b)
    return [[list(m), [*c.nums, c.den]] for m, c in sorted(prod.terms.items())]


def test_representation_relations():
    n = 3
    one = (1, 0)
    gens = []
    for k in range(n):
        mono = [0] * n
        mono[k] = 1
        gens.append([one if list(m) == mono else (0, 0) for m in inputs.monomials(n)])
    rng = inputs.rng_for("test", 0)
    v = [tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(3**n)]

    def apply(word):
        out = v
        for k in reversed(word):
            out = checks.rep_apply(n, gens[k], out)
        return out

    j2 = checks.oracle().J2
    for k in range(n):
        assert apply([k, k, k]) == v
        for l in range(k + 1, n):
            assert apply([l, k]) == [checks.zj_mul(j2, x) for x in apply([k, l])]


def test_clifford_check_accepts_the_library_product():
    data = inputs.clifford_inputs(7, n=3, pairs=1)
    a, b = data["pairs"][0]
    terms = _product_terms(3, a, b)
    assert checks.check_clifford_product(3, a, b, data["vector"], terms) == []


def test_clifford_check_rejects_one_changed_coefficient():
    data = inputs.clifford_inputs(7, n=3, pairs=1)
    a, b = data["pairs"][0]
    terms = _product_terms(3, a, b)
    terms[5][1][1] += 1
    assert checks.check_clifford_product(3, a, b, data["vector"], terms)


def test_clifford_check_rejects_a_non_eisenstein_coefficient():
    data = inputs.clifford_inputs(7, n=2, pairs=1)
    a, b = data["pairs"][0]
    terms = _product_terms(2, a, b)
    terms[0][1][8] = 2
    assert checks.check_clifford_product(2, a, b, data["vector"], terms)


# ----------------------------------------------------------------------
# norm_field
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def norm_pair():
    import worker

    batch = inputs.norm_inputs(3)["batches"][0][:1]
    ops = worker.NormOps({"batches": [batch]})
    return batch, worker.NormOps.dump(ops.op(ops.pool[0]))


def test_norm_check_accepts_the_library_result(norm_pair):
    batch, results = norm_pair
    assert checks.check_norm_batch(batch, results) == []
    assert checks.sympy_norm_check(batch[0][0], results[0][0]) == []


@pytest.mark.parametrize("where", ["nx", "ny", "det", "coeff"])
def test_norm_check_rejects_one_changed_coefficient(norm_pair, where):
    batch, results = norm_pair
    bad = json.loads(json.dumps(results))
    target = {"nx": bad[0][0], "ny": bad[0][1], "det": bad[0][2], "coeff": bad[0][3][4]}[where]
    target[3] += 1
    assert checks.check_norm_batch(batch, bad)


def test_sympy_check_rejects_a_changed_norm(norm_pair):
    batch, results = norm_pair
    nx = list(results[0][0])
    nx[0] += 1
    assert checks.sympy_norm_check(batch[0][0], nx)


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------

def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    counts = []
    for _ in range(2):
        proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["field.mul_calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "norm_field", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
