"""Verification report: recompute everything and compare.

Every section is a list of named checks.  Hard checks assert exact
recomputed identities (Pass/Fail); informational checks record
comparisons against the transcribed reference tables without failing
the run unless strict mode escalates them.  An identity that holds for
every input is proved by the tests, not restated here.  Output is
deterministic: no timestamps, sorted keys.
"""

from __future__ import annotations

import json
import sys
from itertools import product
from typing import NamedTuple

from ._version import __version__
from .bases import nonion_basis, tilde_fixture_check, tu3_basis
from .bracket import StructureRow, TableDiff, diff_table, structure_table
from .clifford import (
    degree_census,
    generator,
    s3_symmetric_sum,
    unit,
    weighted_identities,
)
from .cubic import (
    CYCLE_ALL_GROUPS,
    CYCLE_FIX_DIAG,
    a0_vs_det,
    det_poly,
    qhat_at,
    term_census,
    triple_product_components,
    variant_poly,
)
from .field import ONE, SQRT3, ZERO, j_pow, rational
from .fixtures import (
    clifford_census_fixture,
    fixture_checksums,
    fixture_path,
    lambda_combos_fixture,
    roots_fixture,
    surface_poly_fixture,
)
from .poly import MPoly, monomial_text
from .roots import (
    extract_alpha_root,
    extract_beta_root,
    gellmann_decompose,
    gellmann_matrices,
    root_inner,
    su3_f,
    su3_structure_constants,
    z3_rotate,
)

__all__ = [
    "Check", "Section", "VerificationReport", "SCOPES", "lambda_claims", "run_verify",
    "emit_report",
]

SCOPES = (
    "all",
    "nonion-table",
    "tu3-table",
    "roots",
    "norm",
    "triple-product",
    "clifford",
    "su3",
)

REPORT_SCHEMA = "verification-report/1"


class Check(NamedTuple):
    name: str
    kind: str  # "assert" | "info"
    ok: bool
    detail: object = None

    def to_json(self) -> dict:
        out = {"name": self.name, "kind": self.kind, "ok": self.ok}
        if self.detail is not None:
            out["detail"] = self.detail
        return out


class Section(NamedTuple):
    name: str
    checks: list[Check]

    def status(self, strict: bool = False) -> str:
        return "Pass" if all(c.ok for c in self.checks if c.kind == "assert" or strict) else "Fail"


class VerificationReport(NamedTuple):
    sections: list[Section]
    strict: bool
    meta: dict

    def passed(self) -> bool:
        return all(s.status(self.strict) != "Fail" for s in self.sections)

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "strict": self.strict,
            "passed": self.passed(),
            "sections": [
                {
                    "name": s.name,
                    "status": s.status(self.strict),
                    "checks": [c.to_json() for c in s.checks],
                }
                for s in self.sections
            ],
            "meta": self.meta,
        }


def _spot_checks(
    spots: list[tuple[str, tuple[int, int, int]]],
    table: dict[tuple[int, int, int], StructureRow],
    diff: TableDiff,
) -> list[Check]:
    """One check per named triple: its row of the fixture diff is a Match.

    The expected targets are the fixture row's: on a Match they equal the
    computed ones, on a Mismatch the diff row carries them, and a triple
    the fixture lacks has none (null).
    """
    rows = {r["triple"]: r for r in diff.rows}
    checks = []
    for name, trip in spots:
        ok = rows[trip]["status"] == "Match"
        computed = {str(n): str(c) for n, c in table[trip].targets}
        printed = rows[trip].get("expected")
        expected = computed if ok else printed and {str(n): c for n, c in printed.items()}
        detail = {"triple": list(trip), "expected": expected, "computed": computed}
        checks.append(Check(name, "assert", ok, detail))
    return checks


def _antipodal(roots: dict[int, tuple]) -> bool:
    """root_i = -root_{i+3} for i = 1, 2, 3."""
    return all(roots[i] == tuple(-c for c in roots[i + 3]) for i in (1, 2, 3))


# the distinct ordered pairs of {1,2,3}, for the off-diagonal Gram entries
_PAIRS = [(i, k) for i in (1, 2, 3) for k in (1, 2, 3) if i != k]


# ----------------------------------------------------------------------
# section builders
# ----------------------------------------------------------------------

def _section_nonion_table() -> Section:
    table = {r.triple: r for r in structure_table(nonion_basis())}
    diff = diff_table(list(table.values()), fixture_path("table_nonion_s3.json"))
    mismatches = [list(r["triple"]) for r in diff.rows if r["status"] == "Mismatch"]
    tilde = tilde_fixture_check()
    spots = [
        ("bracket {1,2,3} = 3(j^2-j) q0", (1, 2, 3)),
        ("bracket {1,2,5} = 2(j^2-j) q1", (1, 2, 5)),
        ("bracket {0,1,4} = 0", (0, 1, 4)),
    ]
    return Section("nonion-table", [
        *_spot_checks(spots, table, diff),
        Check("diff vs transcribed table (match rate)", "info", diff.all_match,
              {"summary": diff.summary(), "mismatch_triples": mismatches}),
        Check("composite conjugation vs claimed per-element phases", "info",
              all(r["matches"] for r in tilde), tilde),
    ])


def _section_tu3_table() -> Section:
    table = {r.triple: r for r in structure_table(tu3_basis())}
    diff = diff_table(list(table.values()), fixture_path("table_tu3_s3.json"))
    spots = [
        ("bracket {1,2,3} = sqrt3 Q0", (1, 2, 3)),
        ("bracket {4,5,6} = -sqrt3 Q0", (4, 5, 6)),
        ("bracket {2,5,7} = (3/sqrt2) Q0 - Q7 - (2/sqrt3) Q8", (2, 5, 7)),
    ]
    return Section("tu3-table", [
        Check("diagonal triple bracket vanishes", "assert", not table[0, 7, 8].targets),
        *_spot_checks(spots, table, diff),
        Check("diff vs transcribed table (match rate)", "info", diff.all_match, diff.summary()),
    ])


def _section_roots() -> Section:
    alphas = {i: extract_alpha_root(i) for i in range(1, 7)}
    printed_alphas = {i: components for i, (_, components) in roots_fixture("alpha").items()}
    beta_rows = {i: extract_beta_root(i) for i in range(1, 7)}
    betas = {i: root for i, (_, root) in beta_rows.items()}
    printed_targets = {i: target for i, (target, _) in roots_fixture("beta").items()}
    proj = [(ZERO, *alphas[i][1:]) for i in (1, 2, 3)]
    return Section("roots", [
        Check("alpha_1 = (1/sqrt3, 0, -sqrt(2/3))", "assert",
              alphas[1] == printed_alphas.get(1), [str(c) for c in alphas[1]]),
        Check("<alpha_i, alpha_i> = 1 for i = 1..6", "assert",
              all(root_inner(a, a) == ONE for a in alphas.values())),
        Check("<alpha_i, alpha_j> = 0 for distinct i, j in {1,2,3}", "assert",
              all(root_inner(alphas[i], alphas[k]).is_zero() for i, k in _PAIRS)),
        Check("alpha_i = -alpha_{i+3}", "assert", _antipodal(alphas)),
        Check("<alpha_i, alpha_{i+3}> = -1 (the all-pairs orthogonality claim fails here)",
              "info", all(root_inner(alphas[i], alphas[i + 3]) == -ONE for i in (1, 2, 3))),
        Check("beta pair product targets", "assert",
              {i: target for i, (target, _) in beta_rows.items()} == printed_targets),
        Check("<beta_i, beta_i> = 3; <beta_i, beta_j> = -1 (distinct i, j in {1,2,3})", "assert",
              all(root_inner(b, b) == rational(3) for b in betas.values())
              and all(root_inner(betas[i], betas[k]) == -ONE for i, k in _PAIRS)),
        Check("beta_i = -beta_{i+3}", "assert", _antipodal(betas)),
        Check("projected roots: norms 2/3, zero sum, ratio 3/2", "assert",
              all(root_inner(p, p) == rational(2, 3) for p in proj)
              and all((proj[0][k] + proj[1][k] + proj[2][k]).is_zero() for k in range(3))
              and all(root_inner(alphas[i], alphas[i]) / root_inner(p, p) == rational(3, 2)
                      for i, p in zip((1, 2, 3), proj))),
        Check("rotation has order 3 and cycles both root triples", "assert",
              all(z3_rotate(a, 3) == a for a in alphas.values())
              and all(z3_rotate(roots[i]) == roots[i % 3 + 1]
                      for roots in (alphas, betas) for i in (1, 2, 3))),
        Check("root components stay in the real subfield", "assert",
              all(c.has_zero_j_part()
                  for roots in (alphas, betas) for v in roots.values() for c in v)),
    ])


def _section_norm() -> Section:
    det = det_poly()
    census = term_census(det)
    return Section("norm", [
        *(Check(f"determinant equals factorization variant {v}", "assert", variant_poly(v) == det)
          for v in (1, 2, 3, 4)),
        Check("census: 21 distinct monomials, 81 weighted terms", "assert",
              census.distinct_monomials == 21 and census.weighted_terms == 81,
              {"distinct": census.distinct_monomials, "weighted": census.weighted_terms}),
        Check("surface fixture equals the determinant polynomial", "info",
              surface_poly_fixture() == det),
    ])


def _section_triple_product() -> Section:
    comps = triple_product_components()
    a0 = comps[0]
    counterexample = _cycling_counterexample(a0, CYCLE_ALL_GROUPS)
    grades = nonion_basis().grade
    nonzero = [p for p in range(1, 9) if not comps[p].is_zero()]
    relation = a0_vs_det()
    return Section("triple-product", [
        Check("A0 restricted to each axis is the cube", "assert",
              all(MPoly({e: c for e, c in a0.terms.items() if sum(e) == e[a]})
                  == MPoly.monomial([3 if i == a else 0 for i in range(9)])
                  for a in range(9))),
        Check("A0 invariant under cycling all three coordinate triples", "assert",
              counterexample is None, {"counterexample": counterexample}),
        Check("A0 invariant under cycling with the diagonal triple fixed", "info",
              a0.permute_vars(CYCLE_FIX_DIAG) == a0),
        Check("every A0 monomial has grade-sum 0 mod 3", "assert",
              all(sum(g * e for g, e in zip(grades, exp)) % 3 == 0 for exp in a0.monomials())),
        Check("components A1..A8 vanish", "info", not nonzero,
              {"nonzero_components": nonzero,
               "monomial_counts": {str(p): len(comps[p].monomials()) for p in range(1, 9)}}),
        Check("A0 vs determinant relation", "info", relation["equal_up_to_constant"], relation),
    ])


def _cycling_counterexample(a0: MPoly, cycle: dict[int, int]) -> str | None:
    """The first monomial of A0, in lex order (x0 > x1 > ...), whose image
    under the cycling carries another coefficient in A0; None when the
    cycling leaves A0 unchanged."""
    for mono in reversed(a0.monomials()):
        (image,) = MPoly.monomial(mono).permute_vars(cycle).monomials()
        if a0.coeff(image) != a0.coeff(mono):
            return (
                f"{monomial_text(mono)} has coefficient {a0.coeff(mono)}"
                f" but its image {monomial_text(image)} has {a0.coeff(image)}"
            )
    return None


def lambda_claims(decomposed: list[dict]) -> list[dict]:
    """Each claimed lambda combination against the exact decomposition,
    the rows of `gellmann_decompose()`.

    The su3 section checks that every computed row rebuilds its lambda
    matrix.
    """
    computed = {row["lambda"]: row["coeffs"] for row in decomposed}
    return [
        {
            "lambda": lam,
            "printed_as": printed_as,
            "note": note,
            "matches": computed[lam] == coeffs,
            "computed": [str(c) for c in computed[lam]],
            "claimed": [str(c) for c in coeffs],
        }
        for lam, (printed_as, note, coeffs) in lambda_combos_fixture().items()
    ]


def _section_su3() -> Section:
    f = su3_structure_constants()
    half, s32 = rational(1, 2), SQRT3 / rational(2)
    expected = {
        (1, 2, 3): ONE,
        (1, 4, 7): half,
        (1, 6, 5): half,
        (2, 4, 6): half,
        (2, 5, 7): half,
        (3, 4, 5): half,
        (3, 7, 6): half,
        (4, 5, 8): s32,
        (6, 7, 8): s32,
    }
    decomposed = gellmann_decompose()
    claims = lambda_claims(decomposed)
    return Section("su3", [
        Check("f123 = 1; f147 = f165 = f246 = f257 = f345 = f376 = 1/2; f458 = f678 = sqrt3/2",
              "assert", all(su3_f(f, *key) == val for key, val in expected.items()),
              {"".join(map(str, k)): str(su3_f(f, *k)) for k in sorted(expected)}),
        Check("all 8 lambda decompositions round-trip exactly", "assert",
              all(qhat_at(row["coeffs"]) == lam
                  for row, lam in zip(decomposed, gellmann_matrices()))),
        Check("computed combinations vs claimed combinations", "info",
              all(r["matches"] for r in claims),
              [{"lambda": r["lambda"], "matches_claim": r["matches"], "computed": r["computed"],
                "claimed": r["claimed"], "note": r["note"]} for r in claims]),
    ])


def _section_clifford() -> Section:
    n = 4
    census = {m: degree_census(m) for m in range(1, 7)}
    per_grade = {str(m): [sum(census[m][g::3]) for g in range(3)] for m in census}
    six_unit, zero = unit(n).scale(rational(6)), unit(n).scale(ZERO)
    ids = weighted_identities(n)
    kind3 = {
        (k, l): (generator(n, k, 2) * generator(n, l)).scale(rational(3) * j_pow(1))
        for k, l in ids
    }
    v1, v2, v3 = ids[0, 1]
    detail = {
        "kind1": str(v1),
        "kind2": str(v2),
        "kind3": str(v3),
        "expected_kind3": str(kind3[0, 1]),
    }
    # q0 q_b = q_b for the nine q_b, which span M3, so this also proves q0 = I
    mismatch = _first_product_mismatch()
    return Section("clifford", [
        Check("degree census for four generators", "assert",
              census[n] == clifford_census_fixture(), census[n]),
        Check("symmetric sum is 6*unit iff all indexes equal (n=4)", "assert",
              all(s3_symmetric_sum(k, l, m, n) == (six_unit if k == l == m else zero)
                  for k, l, m in product(range(n), repeat=3))),
        Check("weighted identity kind 1 vanishes", "assert",
              all(v[0].is_zero() for v in ids.values())),
        Check("weighted identity kind 2 vanishes", "assert",
              all(v[1].is_zero() for v in ids.values()), detail),
        Check("weighted identity kind 3 equals 3j q_k^2 q_l", "assert",
              all(v[2] == kind3[kl] for kl, v in ids.items()), detail),
        Check("q_a q_b = j^s q_c on all 81 pairs, (s, c) from the Clifford normal ordering",
              "assert", mismatch is None, mismatch),
        Check("grade-component dimensions are 3^(n-1) each", "assert",
              all(v == 3 ** (m - 1) for m in census for v in per_grade[str(m)]),
              per_grade),
    ])


def _first_product_mismatch() -> dict | None:
    """The first pair (a, b) whose matrix product q_a q_b is not j^s q_c,
    (s, c) = product_table[a][b], with both sides; None when all 81 agree."""
    basis = nonion_basis()
    q = basis.elements
    for a, b in product(range(9), repeat=2):
        s, c = basis.product_table[a][b]
        got, want = q[a] * q[b], q[c].scale(j_pow(s))
        if got != want:
            return {"pair": [a, b], "s": s, "c": c, "q_a q_b": str(got), "j^s q_c": str(want)}
    return None


_SECTION_BUILDERS = {
    "nonion-table": _section_nonion_table,
    "tu3-table": _section_tu3_table,
    "roots": _section_roots,
    "norm": _section_norm,
    "triple-product": _section_triple_product,
    "su3": _section_su3,
    "clifford": _section_clifford,
}


def run_verify(scope: str = "all", strict: bool = False) -> VerificationReport:
    """Run the selected verification suites and assemble the report.

    Every bundled fixture is read first, for its checksum, so a missing or
    unreadable one raises FixtureParseError before any section runs; a
    malformed value raises FixtureParseError from the section that parses
    it, after the sections before it have run.  Either way no report is
    returned.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {', '.join(SCOPES)}")
    checksums = fixture_checksums()  # also validates presence/readability
    names = list(_SECTION_BUILDERS) if scope == "all" else [scope]
    sections = [_SECTION_BUILDERS[name]() for name in names]
    meta = {
        "package": f"nonion {__version__}",
        "python": ".".join(map(str, sys.version_info[:3])),
        "scope": scope,
        "fixture_checksums": checksums,
    }
    return VerificationReport(sections, strict, meta)


def render_markdown(report: VerificationReport) -> str:
    lines = ["# Verification report", ""]
    strict = " (strict)" if report.strict else ""
    lines.append(f"overall: {'PASS' if report.passed() else 'FAIL'}{strict}")
    lines.append("")
    for s in report.sections:
        lines.append(f"## {s.name} - {s.status(report.strict)}")
        lines.append("")
        lines.append("| check | kind | ok |")
        lines.append("|---|---|---|")
        for c in s.checks:
            lines.append(f"| {c.name} | {c.kind} | {'yes' if c.ok else 'NO'} |")
        lines.append("")
        for c in s.checks:
            if c.detail is not None:
                lines.append(f"### {c.name}")
                lines.append("```json")
                lines.append(json.dumps(c.detail, indent=2, sort_keys=True))
                lines.append("```")
                lines.append("")
    lines.append("## meta")
    lines.append("```json")
    lines.append(json.dumps(report.meta, indent=2, sort_keys=True))
    lines.append("```")
    return "\n".join(lines) + "\n"


def emit_report(report: VerificationReport, fmt: str = "json", path: str | None = None) -> str:
    """Serialize the report (stable bytes) and optionally write it out."""
    if fmt == "json":
        text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    elif fmt == "md":
        text = render_markdown(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise IOError(f"cannot write report to {path}: {exc}") from exc
    return text
