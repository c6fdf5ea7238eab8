"""Benchmark of the nonion library: one command, three workloads.

    python3 perfbench/run.py --workload verify_cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Operations run one at a time, in a
closed loop with one client.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics (``setup_s``, ``op_p50_s``,
``peak_rss_mb``), with ``--trace 1`` the per-layer metrics of a separate
traced run.  See README.md in this directory for the workloads, the
metrics and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_RUNS = 8           # fresh interpreters before and again after the operations;
                         # setup_s is the median of all 2 * SETUP_RUNS
CHILD_LIMIT_S = 150.0    # a child still running after this is killed
VERIFY_ARGV = ("-m", "nonion.cli", "verify", "--format", "json")
SYMPY_POINTS = 2         # points per run whose N(x) is checked with sympy

# Traced run: rounds of traced operations after the untraced reference ones
# (a round is 1 verify, 2 Clifford products or 4 norm batches).
TRACED_ROUNDS = {"verify_cli": 3, "clifford_dense": 1, "norm_field": 1}
TRACE_VERIFY_PROCESSES = 3   # CLI runs that give cli.unaccounted_s

LAYER_COUNTS = {
    # metric: span name whose count per operation it reports
    "field.mul_calls": "field.FieldElem.__mul__",
    "field.add_calls": "field.FieldElem.__add__",
    "field.invert_calls": "field.FieldElem.invert",
    "matrix.mul_calls": "matrix.Mat3.__mul__",
    "matrix.det_calls": "matrix.Mat3.det",
    "matrix.hs_inner_calls": "matrix.hs_inner",
    "matrix.decompose_calls": "matrix.decompose_in_basis",
    "bracket.s3_bracket_calls": "bracket.s3_bracket",
    "poly.mul_calls": "poly.MPoly.__mul__",
    "poly.add_calls": "poly.MPoly.__add__",
    "poly.evaluate_calls": "poly.MPoly.evaluate",
    "clifford.normal_order_calls": "clifford.normal_order_product",
}
SELF_LAYERS = ("field", "matrix", "bases", "bracket", "poly", "cubic", "roots",
               "clifford", "fixtures", "report", "cli", "bench")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], stdin: bytes | None = None) -> tuple[bytes, int, float, float]:
    """Run a child to its end: (stdout, exit code, wall s, peak RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
    killer.start()
    try:
        try:
            if stdin is not None:
                proc.stdin.write(stdin)
                proc.stdin.close()
            out = proc.stdout.read()
            proc.stdout.close()
        finally:
            # reaps the child on every path; wait4 also gives its peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, wall, usage.ru_maxrss / 1024


def calibration_child() -> float:
    """The calibration loop's time in a fresh interpreter, as a CLI process would run it."""
    out, code, _, _ = run_child([str(HERE / "calibrate.py")])
    if code != 0:
        raise RuntimeError(f"calibration child exited with {code}")
    return float(out)


def measure_setup() -> list[dict]:
    runs = []
    for _ in range(SETUP_RUNS):
        out, code, _, _ = run_child([str(HERE / "setup_child.py")])
        if code != 0:
            raise RuntimeError(f"set-up child exited with {code}")
        runs.append(json.loads(out))
    return runs


def run_worker(request: dict) -> tuple[dict, float]:
    out, code, _, rss = run_child([str(HERE / "worker.py")], json.dumps(request).encode())
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(out), rss


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def check_outputs(workload: str, data: dict, reply: dict) -> list[str]:
    """Check each input's first output in full, and every output against it."""
    import checks

    problems = []
    verified = {}
    for key, text in reply["first"].items():
        idx = int(key)
        out = json.loads(text)
        if workload == "clifford_dense":
            a, b = data["pairs"][idx]
            found = checks.check_clifford_product(data["n"], a, b, data["vector"], out)
        elif workload == "norm_field":
            batch = data["batches"][idx]
            found = checks.check_norm_batch(batch, out)
            if idx == 0:
                for (xs, _), result in list(zip(batch, out))[:SYMPY_POINTS]:
                    found += checks.sympy_norm_check(xs, result[0])
        else:
            code, report = out
            found = checks.check_verify_report(report, code)
        problems += [f"input {idx}: {p}" for p in found]
        verified[idx] = hashlib.sha256(text.encode()).hexdigest()
    for idx, digest in reply["digests"]:
        if digest is not None and digest != verified.get(idx):
            problems.append(f"input {idx}: an operation's output differs from the checked one")
    return problems


def verify_processes(count: int | None, seconds: float | None) -> dict:
    """`nonion verify` as a user runs it, one fresh process per operation."""
    times, rss, outputs, cal = [], [], [], []
    failed = 0
    began = time.perf_counter()
    while True:
        cal.append(calibration_child())
        out, code, wall, peak = run_child(list(VERIFY_ARGV))
        if code not in (0, 1):
            failed += 1
        else:
            times.append(wall)
            rss.append(peak)
            outputs.append((code, out))
        if count is not None and len(times) + failed >= count:
            break
        if seconds is not None and time.perf_counter() - began >= seconds:
            break
    problems = []
    if outputs:
        import checks

        code, first = outputs[0]
        problems += checks.check_verify_report(first.decode(), code)
        if any(o != (code, first) for o in outputs[1:]):
            problems.append("report bytes or exit code differ between operations")
    return {"times": times, "cal": cal, "rss": rss, "failed": failed, "attempted": len(times) + failed,
            "outputs": outputs, "problems": problems}


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------

def scaled(seconds: float, calibration_s: float) -> float:
    """A time taken when the calibration loop took `calibration_s`, at reference speed."""
    return seconds * calibrate.REFERENCE_S / calibration_s


def untraced(workload: str, seed: int, seconds: float, setup: list[dict]) -> dict:
    if workload == "verify_cli":
        res = verify_processes(None, seconds)
        times, failed, problems = res["times"], res["failed"], res["problems"]
        rss = max(res["rss"], default=0.0)
        cal, attempted = res["cal"], res["attempted"]
    else:
        data = inputs.make_inputs(workload, seed)
        reply, rss = run_worker({"mode": "ops", "workload": workload, "inputs": data,
                                 "seconds": seconds})
        times, cal, failed = reply["times"], reply["cal"], reply["failed"]
        attempted = len(times) + failed
        problems = check_outputs(workload, data, reply)
    setup += measure_setup()
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in setup),  # reported unscaled
        "op_p50_s": statistics.median(times),
        "calibration_s": statistics.median(cal),
        "operations": len(times),
    }
    print("raw medians: " + json.dumps(raw))
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": raw["setup_s"], "unit": "s"},
            "op_p50_s": {"value": scaled(raw["op_p50_s"], raw["calibration_s"]), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def traced(workload: str, seed: int, seconds: float, setup: list[dict]) -> dict:
    cli = verify_processes(TRACE_VERIFY_PROCESSES, None)
    data = inputs.make_inputs(workload, seed)
    reply, _ = run_worker({
        "mode": "trace", "workload": workload, "inputs": data,
        "probe_inputs": inputs.probe_inputs(seed),
        "seconds": seconds, "traced_rounds": TRACED_ROUNDS[workload],
    })
    ref, tr, summary, probes = reply["ref"], reply["traced"], reply["summary"], reply["probes"]
    setup += measure_setup()

    problems = list(cli["problems"])
    merged = {"first": ref["first"], "digests": ref["digests"] + tr["digests"]}
    if workload == "verify_cli":
        # in-process reports must be the CLI's bytes, traced or not
        code, report = cli["outputs"][0]
        expected = json.dumps([code, report.decode()])
        digest = hashlib.sha256(expected.encode()).hexdigest()
        if any(d != digest for _, d in merged["digests"]):
            problems.append("in-process report differs from the CLI's report")
    else:
        problems += check_outputs(workload, data, merged)

    ops = len(tr["times"])
    counts = summary["counts"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, span in LAYER_COUNTS.items():
        put(name, counts.get(span, 0) / ops, "count")
    mul = counts.get("field.FieldElem.__mul__", 0)
    zero = summary["mul_zero_operand_calls"]
    put("field.new_calls", summary["new_calls"] / ops, "count")
    put("field.mul_zero_operand_calls", zero / ops, "count")
    put("field.mul_useful_ratio", (mul - zero) / mul if mul else 0.0, "ratio")
    for name, value in probes.items():
        put(name, value, "us" if name.endswith("_us") else "s")
    import_s = statistics.median(r["cli_import_s"] for r in setup)
    put("cli.import_s", import_s, "s")
    # Cold sections share the bases, so their sum overstates a whole verify;
    # the cold run_verify("all") is the report's share of the CLI process.
    put("cli.unaccounted_s", statistics.median(cli["times"]) - import_s
        - probes["report.run_verify_s"] - probes["report.emit_s"], "s")
    for layer in SELF_LAYERS:
        put(f"{layer}.self_s", summary["self_s"].get(layer, 0.0) / ops, "s")
    traced_p50 = statistics.median(tr["times"])
    put("trace.op_p50_s", traced_p50, "s")
    put("trace.overhead_ratio", traced_p50 / statistics.median(ref["times"]), "ratio")
    put("trace.spans_per_op", summary["spans"] / ops, "count")
    put("bench.calibration_s", statistics.median(ref["cal"] + tr["cal"]), "s")

    failed = ref["failed"] + tr["failed"] + cli["failed"]
    attempted = len(ref["times"]) + ops + len(cli["times"]) + failed
    return {"problems": problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "nonion" / "__init__.py", ROOT / "tests" / "oracle.py"):
        if not needed.is_file():
            return fail(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))

    try:
        setup = measure_setup()
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds, setup)
        else:
            result = untraced(args.workload, args.seed, args.seconds, setup)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        return fail(str(exc))

    problems = result.pop("problems")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    line = json.dumps({"correct": not problems, **result})
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
