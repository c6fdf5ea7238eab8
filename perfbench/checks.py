"""Output checks of the benchmark, computed apart from the program.

Each check returns a list of problems; an empty list means the output is
correct.  None compares against a stored copy of an earlier output:

* ``verify_cli``: the report's nonion bracket values and its list of
  mismatching rows are recomputed from a bracket table over Z[j] integer
  pairs (``tests/oracle.py``, which imports nothing from ``nonion.field``
  or ``nonion.matrix``), diffed against the bundled fixture here; the
  exit code must be 0 exactly when the report says it passed.
* ``clifford_dense``: rep(a) (rep(b) v) = rep(a b) v for a faithful
  representation of the n-generator algebra by tensor products of the
  3x3 clock and shift matrices, over Z[j] integer pairs.
* ``norm_field``: N(x) N(y) = det(Q(x) Q(y)), det(Q(x)) = N(x), the
  decomposition of Q(x) Q(y) against the bilinear product through the
  oracle's unit product table, and N(x) against a sympy determinant on
  a sample of points.
"""

from __future__ import annotations

import importlib.util
import json
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLE_PATH = ROOT / "tests" / "oracle.py"
NONION_FIXTURE = ROOT / "src" / "nonion" / "data" / "table_nonion_s3.json"


@lru_cache(maxsize=1)
def oracle():
    spec = importlib.util.spec_from_file_location("nonion_bench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def triples() -> list[tuple[int, int, int]]:
    return [(k, l, m) for k in range(9) for l in range(k + 1, 9) for m in range(l + 1, 9)]


# ----------------------------------------------------------------------
# verify_cli
# ----------------------------------------------------------------------

@lru_cache(maxsize=1)
def oracle_nonion_table() -> dict[tuple[int, int, int], dict[int, tuple[int, int]]]:
    """Nonzero bracket coefficients of every sorted triple, over Z[j]."""
    o = oracle()
    q = o.BASIS
    table = {}
    for k, l, m in triples():
        coeffs = o.project(o.bracket(q[k], q[l], q[m]))
        table[(k, l, m)] = {n: c for n, c in enumerate(coeffs) if c != o.ZERO}
    return table


def zj_from_coords(coords) -> tuple[int, int]:
    """Eight 'p/q' coordinate strings that must be an integer of Z[j]."""
    fr = [Fraction(c) for c in coords]
    if any(fr[2:]) or any(c.denominator != 1 for c in fr[:2]):
        raise ValueError(f"{coords} is not in Z[j]")
    return int(fr[0]), int(fr[1])


def fixture_table(path: Path = NONION_FIXTURE) -> dict[tuple[int, int, int], dict[int, tuple[int, int]]]:
    data = json.loads(path.read_text(encoding="utf-8"))
    return {
        tuple(row["triple"]): {t["index"]: zj_from_coords(t["coeff"]) for t in row["targets"]}
        for row in data["rows"]
    }


_ZJ_TERM = re.compile(r"([+-]?)(\d*)(j?)")


def parse_zj(text: str) -> tuple[int, int]:
    """Parse a printed Z[j] integer such as '-3 - 6j', 'j' or '1 + 2j'."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty Z[j] value")
    a = b = 0
    pos = 0
    while pos < len(s):
        m = _ZJ_TERM.match(s, pos)
        if m is None or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"not a Z[j] integer: {text!r}")
        value = int(m.group(2) or "1") * (-1 if m.group(1) == "-" else 1)
        if m.group(3):
            b += value
        else:
            a += value
        pos = m.end()
    return a, b


def check_verify_report(text: str, exit_code: int) -> list[str]:
    problems = []
    report = json.loads(text)
    if exit_code != (0 if report["passed"] else 1):
        problems.append(f"exit code {exit_code} but report passed={report['passed']}")

    computed = oracle_nonion_table()
    fixture = fixture_table()
    mismatches = sorted(t for t in computed if computed[t] != fixture.get(t))
    section = next((s for s in report["sections"] if s["name"] == "nonion-table"), None)
    if section is None:
        return problems + ["report has no nonion-table section"]
    spots = diff = 0
    for check in section["checks"]:
        detail = check.get("detail")
        if not isinstance(detail, dict):
            continue
        if "triple" in detail:
            spots += 1
            trip = tuple(detail["triple"])
            got = {int(n): parse_zj(v) for n, v in detail["computed"].items()}
            expected = {int(n): parse_zj(v) for n, v in detail["expected"].items()}
            if got != computed[trip]:
                problems.append(f"bracket {trip}: report {got}, oracle {computed[trip]}")
            if check["ok"] != (got == expected):
                problems.append(f"bracket {trip}: ok={check['ok']} contradicts its values")
        if "mismatch_triples" in detail:
            diff += 1
            listed = [tuple(t) for t in detail["mismatch_triples"]]
            if listed != mismatches:
                problems.append(f"mismatch rows {listed} differ from oracle diff {mismatches}")
            if detail["summary"]["matches"] != len(computed) - len(mismatches):
                problems.append("diff summary match count differs from the oracle diff")
            if check["ok"] != (not mismatches):
                problems.append("diff check ok flag contradicts the oracle diff")
    if not spots or not diff:
        problems.append("nonion-table section lacks bracket values or the table diff")
    return problems


# ----------------------------------------------------------------------
# clifford_dense
# ----------------------------------------------------------------------

def zj_mul(x, y):
    return oracle().mul(x, y)


@lru_cache(maxsize=2)
def monomial_action(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(target state, j-exponent) of every monomial on every basis state.

    The generator q_k acts on the tensor basis |i_0 ... i_{n-1}> as
    C^2 on the factors before k, the shift S on factor k and the identity
    after it (C = diag(1, j, j^2), S|i> = |i+1>).  Since C S = j S C this
    gives q_k^3 = 1 and q_l q_k = j^2 q_k q_l for l > k, and the 3^n
    normal-form monomials act with distinct shift patterns, so the
    representation is faithful.  A monomial q_0^{m_0} ... q_{n-1}^{m_{n-1}}
    applies q_{n-1} first; q_k then meets the unshifted factors i_p, p < k.
    """
    states = [tuple(int(d) for d in _digits(s, n)) for s in range(3**n)]
    out = []
    for mono in states:
        targets, phases = [], []
        for st in states:
            phase = 0
            prefix = 0
            for k in range(n):
                phase += mono[k] * prefix
                prefix += st[k]
            targets.append(_index(tuple((a + b) % 3 for a, b in zip(st, mono))))
            phases.append((2 * phase) % 3)
        out.append((tuple(targets), tuple(phases)))
    return tuple(out)


def _digits(s: int, n: int) -> list[int]:
    d = []
    for _ in range(n):
        s, r = divmod(s, 3)
        d.append(r)
    return d[::-1]


def _index(state: tuple[int, ...]) -> int:
    i = 0
    for d in state:
        i = 3 * i + d
    return i


def rep_apply(n: int, coeffs, v):
    """rep(x) v for x given by its coefficient on every monomial (Z[j] pairs)."""
    o = oracle()
    out = [o.ZERO] * len(v)
    for (targets, phases), c in zip(monomial_action(n), coeffs):
        if c == o.ZERO:
            continue
        scaled = (c, zj_mul(c, o.J), zj_mul(c, o.J2))
        for i, vi in enumerate(v):
            if vi != o.ZERO:
                t = targets[i]
                p = zj_mul(scaled[phases[i]], vi)
                out[t] = (out[t][0] + p[0], out[t][1] + p[1])
    return out


def clifford_product_coeffs(n: int, terms) -> list[tuple[int, int]]:
    """Dense Z[j] coefficients of a product sent as [[monomial, field elem], ...]."""
    dense = [(0, 0)] * 3**n
    for mono, elem in terms:
        nums, den = elem[:8], elem[8]
        if den != 1 or any(nums[2:]):
            raise ValueError(f"coefficient of {mono} is not in Z[j]")
        dense[_index(tuple(mono))] = (nums[0], nums[1])
    return dense


def check_clifford_product(n: int, a, b, v, product_terms) -> list[str]:
    a = [tuple(c) for c in a]
    b = [tuple(c) for c in b]
    v = [tuple(c) for c in v]
    try:
        ab = clifford_product_coeffs(n, product_terms)
    except ValueError as exc:
        return [str(exc)]
    if rep_apply(n, a, rep_apply(n, b, v)) != rep_apply(n, ab, v):
        return ["rep(a) rep(b) v differs from rep(a b) v"]
    return []


# ----------------------------------------------------------------------
# norm_field
# ----------------------------------------------------------------------

def fe(v):
    from nonion.field import FieldElem

    return FieldElem(v[:8], v[8])


@lru_cache(maxsize=1)
def oracle_product_table() -> tuple[tuple[tuple[int, int], ...], ...]:
    """(s, c) with q_a q_b = j^s q_c, read off the oracle's Z[j] matrices."""
    o = oracle()
    powers = (o.ONE, o.J, o.J2)
    table = []
    for a in range(9):
        row = []
        for b in range(9):
            coeffs = o.project(o.mat_mul(o.BASIS[a], o.BASIS[b]))
            (c, value), = [(c, x) for c, x in enumerate(coeffs) if x != o.ZERO]
            row.append((powers.index(value), c))
        table.append(tuple(row))
    return tuple(table)


def check_norm_pair(x, y, result) -> list[str]:
    """x, y as 9 field elements each; result = [N(x), N(y), det(Q(x)Q(y)), coeffs]."""
    from nonion.cubic import qhat_at
    from nonion.field import ZERO, j_pow

    nx, ny, d = fe(result[0]), fe(result[1]), fe(result[2])
    coeffs = [fe(c) for c in result[3]]
    problems = []
    if nx * ny != d:
        problems.append("N(x) N(y) != det(Q(x) Q(y))")
    if qhat_at(x).det() != nx or qhat_at(y).det() != ny:
        problems.append("det(Q(x)) != N(x)")
    expected = [ZERO] * 9
    for a, row in enumerate(oracle_product_table()):
        for b, (s, c) in enumerate(row):
            expected[c] = expected[c] + x[a] * y[b] * j_pow(s)
    if coeffs != expected:
        problems.append("decomposition of Q(x) Q(y) differs from the bilinear product")
    return problems


def check_norm_batch(batch, results) -> list[str]:
    problems = []
    for (xs, ys), result in zip(batch, results, strict=True):
        problems += check_norm_pair([fe(v) for v in xs], [fe(v) for v in ys], result)
    return problems


def sympy_norm_check(xs, nx) -> list[str]:
    """N(x) against sympy's determinant of sum_a x_a q_a, exact."""
    import sympy

    o = oracle()
    j = sympy.Rational(-1, 2) + sympy.sqrt(3) * sympy.I / 2
    s2, s3 = sympy.sqrt(2), sympy.sqrt(3)
    basis = (1, j, s2, j * s2, s3, j * s3, s2 * s3, j * s2 * s3)

    def sym(v):
        return sum(sympy.Integer(c) * e for c, e in zip(v[:8], basis)) / v[8]

    m = sympy.zeros(3, 3)
    for xa, q in zip(xs, o.BASIS):
        s = sym(xa)
        for idx, (p, r) in enumerate(q):
            if p or r:
                m[idx // 3, idx % 3] += s * (p + r * j)
    if sympy.expand(m.det(method="berkowitz") - sym(nx)) != 0:
        return ["N(x) differs from the sympy determinant"]
    return []
