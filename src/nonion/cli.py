"""Command-line front end.

All numeric input is exact-rational text "p/q"; every verification
path stays in exact arithmetic, with float approximations shown only
as annotations.  Exit codes: 0 success / all match, 1 verification or
diff failure, 2 usage or fixture error.
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


def _fe_json(c: FieldElem) -> dict:
    approx = c.approx_complex()
    return {"exact": c.to_json(), "text": str(c), "approx": [approx[0], approx[1]]}


def _row_json(row: StructureRow) -> dict:
    return {
        "triple": list(row.triple),
        "targets": [{"index": n, "coeff": _fe_json(c)} for n, c in row.targets],
    }


def _row_md(row: StructureRow) -> str:
    trip = "{" + ",".join(map(str, row.triple)) + "}"
    if not row.targets:
        return f"| {trip} | - | 0 |"
    tgt = ", ".join(str(n) for n, _ in row.targets)
    coeff = ", ".join(str(c) for _, c in row.targets)
    return f"| {trip} | {tgt} | {coeff} |"


def _print_table_md(rows) -> None:
    print("| triple | target | coefficient |")
    print("|---|---|---|")
    for row in rows:
        print(_row_md(row))


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_bases(args) -> int:
    basis = _basis(args.basis)
    if args.format == "json":
        payload = {
            "basis": args.basis,
            "elements": [m.to_json() for m in basis.elements],
        }
        if args.basis == "nonion":
            payload["pair_phases"] = [list(r) for r in pair_phase_matrix(basis)]
            payload["grade"] = list(basis.grade)
        print(json.dumps(payload, indent=2))
    else:
        for i, m in enumerate(basis.elements):
            print(f"element {i}: {m}")
        if args.basis == "nonion":
            print("pair phases omega(a,b) with q_a q_b = j^omega q_b q_a:")
            for r in pair_phase_matrix(basis):
                print("  " + " ".join(map(str, r)))
    return 0


def _cmd_bracket(args) -> int:
    basis = _basis(args.basis)
    if not all(0 <= idx <= 8 for idx in (args.k, args.l, args.m)):
        raise ValueError("indices must be 0..8")
    row = structure_row(basis, (args.k, args.l, args.m))
    if args.format == "json":
        print(json.dumps(_row_json(row), indent=2))
    else:
        _print_table_md([row])
    return 0


def _cmd_table(args) -> int:
    rows = structure_table(_basis(args.basis))
    if args.format == "json":
        print(json.dumps({"basis": args.basis, "rows": [_row_json(r) for r in rows]}, indent=2))
    else:
        _print_table_md(rows)
    return 0


def _cmd_diff_table(args) -> int:
    path = args.fixture or fixture_path(f"table_{args.basis}_s3.json")
    rows = structure_table(_basis(args.basis))
    diff = diff_table(rows, path)
    print(json.dumps({"summary": diff.summary(), "rows": list(diff.rows)}, indent=2, default=str))
    return 0 if diff.all_match else 1


def _cmd_norm(args) -> int:
    parts = args.coords.split(",")
    if len(parts) != 9:
        raise ValueError("--coords needs 9 comma-separated rationals")
    coords = [FieldElem.from_fraction(parse_rational(t)) for t in parts]
    value = qhat_at(coords).det()
    approx = value.approx_complex()
    print(
        json.dumps(
            {"norm": value.to_json(), "text": str(value), "approx": [approx[0], approx[1]]},
            indent=2,
        )
    )
    return 0


def _cmd_expand(args) -> int:
    if args.what == "det":
        p = det_poly()
        if args.format == "json":
            print(json.dumps({"poly": "det", "terms": p.to_json()}, indent=2))
        else:
            print(p)
    else:
        comps = triple_product_components()
        if args.format == "json":
            print(
                json.dumps(
                    {"poly": "triple", "components": [c.to_json() for c in comps]}, indent=2
                )
            )
        else:
            for i, c in enumerate(comps):
                print(f"A{i} = {c}")
    return 0


def _cmd_census(args) -> int:
    p = {
        "det": det_poly,
        "triple": lambda: triple_product_components()[0],
        "surface": surface_poly_fixture,
    }[args.what]()
    c = term_census(p)
    print(
        json.dumps(
            {
                "poly": args.what,
                "distinct_monomials": c.distinct_monomials,
                "weighted_terms": c.weighted_terms,
            },
            indent=2,
        )
    )
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
        print(json.dumps({"vector": args.vector, "power": power,
                          "result": [_fe_json(c) for c in out]}, indent=2))
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
    if args.format == "md":
        for fam, rows in payload.items():
            print(f"| {fam} | components |")
            print("|---|---|")
            for i, row in rows.items():
                comps = row["components"] if fam == "beta" else row
                text = ", ".join(c["text"] for c in comps)
                print(f"| {fam}_{i} | ({text}) |")
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_su3(args) -> int:
    f = su3_structure_constants()
    payload = {
        "".join(map(str, k)): {"text": str(v), "exact": v.to_json()} for k, v in sorted(f.items())
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_lambda(args) -> int:
    print(json.dumps(lambda_claims(gellmann_decompose()), indent=2))
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


def _cliff_json(e: CliffElement) -> list[dict]:
    return [
        {"monomial": list(mono), "coeff": {"exact": c.to_json(), "text": str(c)}}
        for mono, c in e.items()
    ]


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
        print(json.dumps({"n": n, "dimension": dimension(n)}))
    elif args.action == "census":
        print(json.dumps({"n": n, "census": degree_census(n)}))
    elif args.action == "mul":
        a, b = (_parse_word(word, n) for word in args.rest)
        print(json.dumps({"product": _cliff_json(a * b)}, indent=2))
    else:
        rows = [
            {"k": k, "l": l, "kind1": str(v1), "kind2": str(v2), "kind3": str(v3)}
            for (k, l), (v1, v2, v3) in weighted_identities(n).items()
        ]
        sym = str(s3_symmetric_sum(0, 0, 0, n))
        print(json.dumps({"symmetric_sum_000": sym, "weighted": rows}, indent=2))
    return 0


def _cmd_verify(args) -> int:
    report = run_verify(args.scope, strict=args.strict)
    text = emit_report(report, args.format, args.out)
    if args.out is None:
        print(text, end="")
    else:
        print(f"report written to {args.out}")
    return 0 if report.passed() else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonion",
        description="Exact recomputation and verification of the ternary algebra tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bases", help="show a basis")
    p.add_argument("action", choices=["show"])
    p.add_argument("--basis", choices=["nonion", "tu3"], default="nonion")
    p.add_argument("--format", choices=["json", "md"], default="json")
    p.set_defaults(func=_cmd_bases)

    p = sub.add_parser("bracket", help="bracket of three basis elements")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--basis", choices=["nonion", "tu3"], default="nonion")
    p.add_argument("--format", choices=["json", "md"], default="json")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("table", help="all 84 bracket rows")
    p.add_argument("--basis", choices=["nonion", "tu3"], default="nonion")
    p.add_argument("--format", choices=["json", "md"], default="json")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("diff-table", help="diff a recomputed table against a fixture")
    p.add_argument("--basis", choices=["nonion", "tu3"], default="nonion")
    p.add_argument("--fixture", default=None, help="fixture path (bundled table by default)")
    p.set_defaults(func=_cmd_diff_table)

    p = sub.add_parser("norm", help="cubic norm at exact coordinates")
    p.add_argument("--coords", required=True, help="nine comma-separated rationals p/q")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("expand", help="symbolic expansions")
    p.add_argument("what", choices=["det", "triple"])
    p.add_argument("--format", choices=["json", "md"], default="json")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("census", help="monomial census of a cubic")
    p.add_argument("what", choices=["det", "triple", "surface"])
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("roots", help="root vectors and rotations")
    p.add_argument("action", nargs="?", choices=["rotate"], default=None)
    p.add_argument("--alpha", action="store_true")
    p.add_argument("--beta", action="store_true")
    p.add_argument("--vector", default=None, help="alpha1..alpha6 or beta1..beta6")
    p.add_argument("--power", type=int, default=None, help="rotate only (default 1)")
    p.add_argument("--format", choices=["json", "md"], default="json")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("su3", help="binary commutator cross-check")
    p.add_argument("action", choices=["check"])
    p.set_defaults(func=_cmd_su3)

    p = sub.add_parser("lambda", help="lambda-matrix decompositions")
    p.add_argument("action", choices=["diff"])
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("clifford", help="ternary Clifford algebra")
    p.add_argument("action", choices=["dim", "census", "mul", "identities"])
    p.add_argument("rest", nargs="*", default=[],
                   help="dim/census: n; mul: two quoted words like 'q2 q1'")
    p.add_argument("--n", dest="n_opt", type=int, default=None)
    p.set_defaults(func=_cmd_clifford)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("scope", nargs="?", choices=list(SCOPES), default="all")
    p.add_argument("--strict", action="store_true", help="escalate informational mismatches")
    p.add_argument("--format", choices=["json", "md"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

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
