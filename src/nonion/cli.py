"""Command-line front end.

Each handler calls the library and hands its result to `_emit`, the one
output path (text as it is, anything else as JSON).  All numeric input
is exact-rational text "p/q"; every verification path stays in exact
arithmetic, with float approximations shown only as annotations.  Exit
codes: 0 success / all match, 1 verification or diff failure, 2 usage or
fixture error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .bases import nonion_basis, pair_phase_matrix, tu3_basis
from .bracket import StructureRow, diff_table, structure_row, structure_table
from .clifford import (
    MAX_GENERATORS,
    CliffElement,
    degree_census,
    dimension,
    generator,
    s3_symmetric_sum,
    unit,
    weighted_identities,
)
from .cubic import det_poly, qhat_at, term_census, triple_product_components
from .field import FieldElem, parse_rational
from .fixtures import FixtureParseError, fixture_path, surface_poly_fixture
from .report import SCOPES, emit_report, lambda_claims, run_verify
from .roots import (
    extract_alpha_root,
    extract_beta_root,
    gellmann_decompose,
    su3_structure_constants,
    z3_rotate,
)

__all__ = ["main", "build_parser"]


def _basis(name: str):
    return nonion_basis() if name == "nonion" else tu3_basis()


def _emit(value, indent: int | None = 2, end: str = "\n") -> None:
    """Print text as it is, any other value as JSON."""
    print(value if isinstance(value, str) else json.dumps(value, indent=indent), end=end)


def _fe_json(c: FieldElem, key: str = "exact") -> dict:
    return {key: c.to_json(), "text": str(c), "approx": list(c.approx_complex())}


def _emit_rows(rows: list[StructureRow], fmt: str, basis: str | None = None) -> None:
    """Bracket rows as Markdown, or as JSON: one row alone, or under `basis` its table."""
    if fmt == "md":  # a row without targets reads "- | 0"
        lines = ["| triple | target | coefficient |", "|---|---|---|"]
        for row in rows:
            trip = "{" + ",".join(map(str, row.triple)) + "}"
            tgt = ", ".join(str(n) for n, _ in row.targets) or "-"
            coeff = ", ".join(str(c) for _, c in row.targets) or "0"
            lines.append(f"| {trip} | {tgt} | {coeff} |")
        _emit("\n".join(lines))
        return
    payload = [
        {"triple": list(row.triple),
         "targets": [{"index": n, "coeff": _fe_json(c)} for n, c in row.targets]}
        for row in rows
    ]
    _emit(payload[0] if basis is None else {"basis": basis, "rows": payload})


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_bases(args) -> int:
    basis = _basis(args.basis)
    phases = pair_phase_matrix(basis) if args.basis == "nonion" else None
    if args.format == "json":
        payload = {"basis": args.basis, "elements": [m.to_json() for m in basis.elements]}
        if phases:
            payload["pair_phases"] = [list(r) for r in phases]
            payload["grade"] = list(basis.grade)
        _emit(payload)
    else:
        lines = [f"element {i}: {m}" for i, m in enumerate(basis.elements)]
        if phases:
            lines.append("pair phases omega(a,b) with q_a q_b = j^omega q_b q_a:")
            lines.extend("  " + " ".join(map(str, r)) for r in phases)
        _emit("\n".join(lines))
    return 0


def _cmd_bracket(args) -> int:
    _emit_rows([structure_row(_basis(args.basis), (args.k, args.l, args.m))], args.format)
    return 0


def _cmd_table(args) -> int:
    _emit_rows(structure_table(_basis(args.basis)), args.format, args.basis)
    return 0


def _cmd_diff_table(args) -> int:
    path = args.fixture or fixture_path(f"table_{args.basis}_s3.json")
    diff = diff_table(structure_table(_basis(args.basis)), path)
    _emit({"summary": diff.summary(), "rows": list(diff.rows)})
    return 0 if diff.all_match else 1


def _cmd_norm(args) -> int:
    parts = args.coords.split(",")
    if len(parts) != 9:
        raise ValueError("--coords needs 9 comma-separated rationals")
    coords = [FieldElem.from_fraction(parse_rational(t)) for t in parts]
    _emit(_fe_json(qhat_at(coords).det(), key="norm"))
    return 0


def _cmd_expand(args) -> int:
    md = args.format == "md"
    if args.what == "det":
        p = det_poly()
        _emit(str(p) if md else {"poly": "det", "terms": p.to_json()})
    else:
        comps = triple_product_components()
        _emit("\n".join(f"A{i} = {c}" for i, c in enumerate(comps)) if md
              else {"poly": "triple", "components": [c.to_json() for c in comps]})
    return 0


def _cmd_census(args) -> int:
    p = {
        "det": det_poly,
        "triple": lambda: triple_product_components()[0],
        "surface": surface_poly_fixture,
    }[args.what]()
    c = term_census(p)
    _emit({"poly": args.what, "distinct_monomials": c.distinct_monomials,
           "weighted_terms": c.weighted_terms})
    return 0


def _cmd_roots(args) -> int:
    if args.action == "rotate":
        if args.alpha or args.beta or args.format != "json":
            raise ValueError("--alpha, --beta and --format md do not apply to roots rotate")
        if not args.vector:
            raise ValueError("--vector is required for rotate")
        match = re.fullmatch(r"(alpha|beta)([1-6])", args.vector)
        if match is None:
            raise ValueError("--vector must look like alpha1 or beta3")
        idx = int(match[2])
        vec = extract_alpha_root(idx) if match[1] == "alpha" else extract_beta_root(idx)[1]
        power = 1 if args.power is None else args.power
        out = z3_rotate(vec, power)
        _emit({"vector": args.vector, "power": power, "result": [_fe_json(c) for c in out]})
        return 0
    if args.vector is not None or args.power is not None:
        raise ValueError("--vector and --power need roots rotate")

    payload = {}
    if args.alpha or not args.beta:
        payload["alpha"] = {
            str(i): [_fe_json(c) for c in extract_alpha_root(i)] for i in range(1, 7)
        }
    if args.beta:
        payload["beta"] = {}
        for i in range(1, 7):
            target, root = extract_beta_root(i)
            payload["beta"][str(i)] = {
                "target": target,
                "components": [_fe_json(c) for c in root],
            }
    if args.format == "json":
        _emit(payload)
        return 0
    lines = []
    for fam, rows in payload.items():
        lines += [f"| {fam} | components |", "|---|---|"]
        for i, row in rows.items():
            comps = row["components"] if fam == "beta" else row
            lines.append(f"| {fam}_{i} | ({', '.join(c['text'] for c in comps)}) |")
    _emit("\n".join(lines))
    return 0


def _cmd_su3(args) -> int:
    f = su3_structure_constants()
    _emit({"".join(map(str, k)): {"text": str(v), "exact": v.to_json()}
           for k, v in sorted(f.items())})
    return 0


def _cmd_lambda(args) -> int:
    _emit(lambda_claims(gellmann_decompose()))
    return 0


_TOKEN = re.compile(r"q([0-9]+)(?:\^(-?[0-9]+))?")


def _parse_word(text: str, n: int) -> CliffElement:
    out = unit(n)
    for token in text.split():
        match = _TOKEN.fullmatch(token.lower())
        if match is None:
            raise ValueError(f"bad generator token {token!r}")
        k, power = int(match[1]), int(match[2] or 1)
        if not 1 <= k <= n:
            raise ValueError(f"generator q{k} out of range for n={n}")
        out = out * generator(n, k - 1, power)
    return out


def _cmd_clifford(args) -> int:
    # `clifford dim 3` and `clifford mul "q2 q1" "q1" --n 2` both arrive here
    n = args.n_opt
    if args.action == "mul":
        if n is None or len(args.rest) != 2:
            raise ValueError("clifford mul needs two words and --n")
    elif len(args.rest) + (n is not None) > 1:
        raise ValueError(f"clifford {args.action} takes one generator count")
    elif args.rest:
        try:
            n = int(args.rest[0])
        except ValueError:
            pass
    if n is None:
        raise ValueError(f"clifford {args.action} needs a generator count")
    if not 1 <= n <= MAX_GENERATORS:
        raise ValueError(f"generator count must be 1..{MAX_GENERATORS}, got {n}")

    if args.action == "dim":
        _emit({"n": n, "dimension": dimension(n)}, indent=None)
    elif args.action == "census":
        _emit({"n": n, "census": degree_census(n)}, indent=None)
    elif args.action == "mul":
        a, b = (_parse_word(word, n) for word in args.rest)
        _emit({"product": [
            {"monomial": list(mono), "coeff": {"exact": c.to_json(), "text": str(c)}}
            for mono, c in (a * b).items()
        ]})
    else:
        rows = [
            {"k": k, "l": l, "kind1": str(v1), "kind2": str(v2), "kind3": str(v3)}
            for (k, l), (v1, v2, v3) in weighted_identities(n).items()
        ]
        _emit({"symmetric_sum_000": str(s3_symmetric_sum(0, 0, 0, n)), "weighted": rows})
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(args.scope, strict=args.strict)
    text = emit_report(report, args.format, args.out)
    if args.out is None:
        _emit(text, end="")
    else:
        _emit(f"report written to {args.out}")
    return 0 if report.passed() else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _command(sub, name: str, func, help: str, basis: bool = False, fmt: bool = False):
    """A subcommand that runs `func`, with `--basis` and then `--format` if asked;
    options declared later follow these in its help."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    if basis:
        p.add_argument("--basis", choices=["nonion", "tu3"], default="nonion")
    if fmt:
        p.add_argument("--format", choices=["json", "md"], default="json")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonion",
        description="Exact recomputation and verification of the ternary algebra tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "bases", _cmd_bases, "show a basis", basis=True, fmt=True)
    p.add_argument("action", choices=["show"])

    p = _command(sub, "bracket", _cmd_bracket, "bracket of three basis elements",
                 basis=True, fmt=True)
    for name in ("k", "l", "m"):
        p.add_argument(name, type=int)

    _command(sub, "table", _cmd_table, "all 84 bracket rows", basis=True, fmt=True)

    p = _command(sub, "diff-table", _cmd_diff_table, "diff a recomputed table against a fixture",
                 basis=True)
    p.add_argument("--fixture", default=None, help="fixture path (bundled table by default)")

    p = _command(sub, "norm", _cmd_norm, "cubic norm at exact coordinates")
    p.add_argument("--coords", required=True, help="nine comma-separated rationals p/q")

    p = _command(sub, "expand", _cmd_expand, "symbolic expansions", fmt=True)
    p.add_argument("what", choices=["det", "triple"])

    p = _command(sub, "census", _cmd_census, "monomial census of a cubic")
    p.add_argument("what", choices=["det", "triple", "surface"])

    p = _command(sub, "roots", _cmd_roots, "root vectors and rotations")
    p.add_argument("action", nargs="?", choices=["rotate"], default=None)
    p.add_argument("--alpha", action="store_true")
    p.add_argument("--beta", action="store_true")
    p.add_argument("--vector", default=None, help="alpha1..alpha6 or beta1..beta6")
    p.add_argument("--power", type=int, default=None, help="rotate only (default 1)")
    p.add_argument("--format", choices=["json", "md"], default="json")

    p = _command(sub, "su3", _cmd_su3, "binary commutator cross-check")
    p.add_argument("action", choices=["check"])

    p = _command(sub, "lambda", _cmd_lambda, "lambda-matrix decompositions")
    p.add_argument("action", choices=["diff"])

    p = _command(sub, "clifford", _cmd_clifford, "ternary Clifford algebra")
    p.add_argument("action", choices=["dim", "census", "mul", "identities"])
    p.add_argument("rest", nargs="*", default=[],
                   help="dim/census: n; mul: two quoted words like 'q2 q1'")
    p.add_argument("--n", dest="n_opt", type=int, default=None)

    p = _command(sub, "verify", _cmd_verify, "run verification suites")
    p.add_argument("scope", nargs="?", choices=list(SCOPES), default="all")
    p.add_argument("--strict", action="store_true", help="escalate informational mismatches")
    p.add_argument("--format", choices=["json", "md"], default="json")
    p.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        return args.func(args)
    except FixtureParseError as exc:
        print(f"fixture error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
