"""Child process that runs a workload's operations (run with PYTHONPATH=src).

Reads one JSON request on stdin and writes one JSON reply on stdout.

* ``{"mode": "ops", ...}`` runs whole rounds of the workload's operations,
  one at a time, until ``seconds`` have passed.
* ``{"mode": "trace", ...}`` times each layer through its public
  functions (probes), runs untraced rounds for ``seconds``, then installs
  the tracer and runs ``traced_rounds`` traced ones.

A round runs every input of the workload's pool once.  Only the call into
the library is timed; each output is serialised afterwards, and the
reply carries the serialised output of each input's first operation and
a sha256 of every operation's output, for the parent to check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
from inputs import monomials

OUT_DIR = Path(__file__).resolve().parent / "out"


def fe(v):
    from nonion.field import FieldElem

    return FieldElem(v[:8], v[8])


def fe_out(e) -> list[int]:
    return [*e.nums, e.den]


def cached_functions() -> list:
    """Every lru-cached function of the library, to make a cold start in-process."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nonion":
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    found[id(value)] = value
    return list(found.values())


def warm() -> None:
    """The cached state every workload uses, as `setup_child` builds it."""
    import nonion

    nonion.nonion_basis()
    nonion.tu3_basis()
    nonion.det_poly()


# ----------------------------------------------------------------------
# workloads; calls go through module attributes so that tracing sees them
# ----------------------------------------------------------------------

class CliffordOps:
    def __init__(self, inputs: dict):
        from nonion.clifford import CliffElement
        from nonion.field import FieldElem

        n = inputs["n"]
        monos = monomials(n)

        def elem(coeffs):
            return CliffElement(
                n, {m: FieldElem((a, b, 0, 0, 0, 0, 0, 0)) for m, (a, b) in zip(monos, coeffs)}
            )

        self.pool = [(elem(a), elem(b)) for a, b in inputs["pairs"]]

    def prepare(self) -> None:
        pass

    @staticmethod
    def op(item):
        a, b = item
        return a * b

    @staticmethod
    def dump(product) -> list:
        return [[list(m), fe_out(c)] for m, c in sorted(product.terms.items())]


class NormOps:
    def __init__(self, inputs: dict):
        self.pool = [
            [([fe(v) for v in xs], [fe(v) for v in ys]) for xs, ys in batch]
            for batch in inputs["batches"]
        ]

    def prepare(self) -> None:
        pass

    @staticmethod
    def op(batch):
        from nonion import bases, cubic, matrix

        basis = bases.nonion_basis()
        det = cubic.det_poly()
        out = []
        for x, y in batch:
            prod = cubic.qhat_at(x) * cubic.qhat_at(y)
            coeffs = matrix.decompose_in_basis(prod, basis.elements, basis.grams)
            out.append((det.evaluate(x), det.evaluate(y), prod.det(), coeffs))
        return out

    @staticmethod
    def dump(results) -> list:
        return [[fe_out(nx), fe_out(ny), fe_out(d), [fe_out(c) for c in cs]]
                for nx, ny, d, cs in results]


class VerifyOps:
    """`nonion verify --format json` in-process, every cache cleared first."""

    def __init__(self, inputs: dict):
        import nonion.cli  # noqa: F401

        self.pool = [None]
        self.cached = cached_functions()

    def prepare(self) -> None:
        for fn in self.cached:
            fn.cache_clear()

    @staticmethod
    def op(_item):
        from nonion import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--format", "json"])
        return code, buf.getvalue()

    @staticmethod
    def dump(result) -> list:
        return list(result)


OPS = {"clifford_dense": CliffordOps, "norm_field": NormOps, "verify_cli": VerifyOps}


def run_rounds(ops, op, seconds: float | None = None, rounds: int | None = None) -> dict:
    times, cal, digests, first = [], [], [], {}
    failed = 0
    began = time.perf_counter()
    done = 0
    while True:
        for idx, item in enumerate(ops.pool):
            ops.prepare()
            cal.append(calibrate.measure())
            t0 = time.perf_counter()
            try:
                out = op(item)
            except Exception:  # an operation that raises is counted as failed
                failed += 1
                digests.append([idx, None])
                traceback.print_exc(file=sys.stderr)
                continue
            times.append(time.perf_counter() - t0)
            text = json.dumps(ops.dump(out))
            digests.append([idx, hashlib.sha256(text.encode()).hexdigest()])
            first.setdefault(idx, text)
        done += 1
        if rounds is not None and done >= rounds:
            break
        if seconds is not None and time.perf_counter() - began >= seconds:
            break
    return {"times": times, "cal": cal, "digests": digests, "first": first, "failed": failed}


# ----------------------------------------------------------------------
# single-layer probes (untraced)
# ----------------------------------------------------------------------

def median_s(fn, reps: int = 5, prep=None) -> float:
    samples = []
    for _ in range(reps):
        if prep is not None:
            prep()
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def per_call_us(fn, calls: int, reps: int = 5) -> float:
    def batch():
        for _ in range(calls):
            fn()

    return median_s(batch, reps) / calls * 1e6


def probes(probe_inputs: dict) -> dict:
    from nonion import bases, bracket, cubic, fixtures, matrix, report, roots
    from nonion.field import FieldElem

    cached = cached_functions()

    def cold():
        for fn in cached:
            fn.cache_clear()

    def cold_but_bases():
        cold()
        bases.nonion_basis()
        bases.tu3_basis()

    warm()
    x = [fe(v) for v in probe_inputs["wide"][0]]
    y = [fe(v) for v in probe_inputs["wide"][1]]
    s1 = FieldElem((3, -2, 0, 0, 0, 0, 0, 0))
    s2 = FieldElem((-1, 4, 0, 0, 0, 0, 0, 0))
    nb, tu = bases.nonion_basis(), bases.tu3_basis()
    q = nb.elements
    mx, my = cubic.qhat_at(x), cubic.qhat_at(y)
    prod = mx * my
    det = cubic.det_poly()
    a, b = CliffordOps(probe_inputs["clifford"]).pool[0]

    p = {
        "field.mul_small_us": per_call_us(lambda: s1 * s2, 2000),
        "field.mul_wide_us": per_call_us(lambda: x[0] * x[1], 500),
        "field.invert_us": per_call_us(x[0].invert, 50),
        "matrix.mul_unit_us": per_call_us(lambda: q[1] * q[2], 500),
        "matrix.mul_dense_us": per_call_us(lambda: mx * my, 20),
        "matrix.det_us": per_call_us(prod.det, 20),
        "matrix.decompose_us": per_call_us(
            lambda: matrix.decompose_in_basis(prod, q, nb.grams), 10),
        "poly.evaluate_us": per_call_us(lambda: det.evaluate(x), 5),
        "cubic.qhat_at_us": per_call_us(lambda: cubic.qhat_at(x), 50),
        "bracket.structure_table_nonion_s": median_s(lambda: bracket.structure_table(nb)),
        "bracket.structure_table_tu3_s": median_s(lambda: bracket.structure_table(tu)),
    }
    rows = bracket.structure_table(nb)
    nonion_fixture = fixtures.fixture_path("table_nonion_s3.json")
    p["bracket.diff_table_s"] = median_s(lambda: bracket.diff_table(rows, nonion_fixture))
    p["cubic.variant_poly_s"] = median_s(lambda: [cubic.variant_poly(v) for v in (1, 2, 3, 4)])
    p["roots.alpha_beta_s"] = median_s(lambda: (
        [roots.extract_alpha_root(i) for i in range(1, 7)],
        [roots.extract_beta_root(i) for i in range(1, 7)],
    ))
    p["roots.su3_structure_constants_s"] = median_s(roots.su3_structure_constants)
    p["roots.gellmann_decompose_s"] = median_s(roots.gellmann_decompose)
    p["clifford.mul_s"] = median_s(lambda: a * b)
    p["clifford.term_pair_us"] = p["clifford.mul_s"] / (len(a.terms) * len(b.terms)) * 1e6
    p["fixtures.checksums_s"] = median_s(fixtures.fixture_checksums, reps=9)

    p["bases.build_s"] = median_s(lambda: (bases.nonion_basis(), bases.tu3_basis()), prep=cold)
    p["cubic.det_poly_s"] = median_s(cubic.det_poly, prep=cold_but_bases)
    p["cubic.triple_product_s"] = median_s(cubic.triple_product_components, prep=cold_but_bases)
    for scope in report.SCOPES[1:]:
        p[f"report.section_s.{scope}"] = median_s(
            lambda: report.run_verify(scope), reps=3, prep=cold)
    p["report.run_verify_s"] = median_s(lambda: report.run_verify("all"), reps=3, prep=cold)
    full = report.run_verify("all")
    p["report.emit_s"] = median_s(lambda: report.emit_report(full, "json"))
    cold()
    warm()
    return p


# ----------------------------------------------------------------------

def trace_mode(req: dict, ops) -> dict:
    from tracing import Tracer

    layer = probes(req["probe_inputs"])
    ref = run_rounds(ops, ops.op, seconds=req["seconds"])
    tracer = Tracer()
    tracer.install()
    traced = run_rounds(ops, tracer.wrap("bench.op", ops.op), rounds=req["traced_rounds"])
    tracer.write(OUT_DIR / f"trace-{req['workload']}")
    return {"probes": layer, "ref": ref, "traced": traced, "summary": tracer.summary()}


def main() -> int:
    req = json.load(sys.stdin)
    ops = OPS[req["workload"]](req["inputs"])
    warm()
    if req["mode"] == "ops":
        reply = run_rounds(ops, ops.op, seconds=req["seconds"])
    else:
        reply = trace_mode(req, ops)
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
