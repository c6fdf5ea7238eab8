"""Acceptance suite: one test per criterion clause, exact arithmetic
throughout, a PASS/FAIL line printed per clause.

Three clauses meet printed reference values that exact recomputation
contradicts.  Their tests assert the computed values, each checked
against the independent Z[j] oracle in ``oracle.py`` (which shares no
arithmetic with ``nonion.field`` or ``nonion.matrix``), together with
the evidence that the printed value cannot hold:

* criterion 1, bracket row {1,2,5}: the printed coefficients of rows
  {1,2,5} and {1,2,6} are transposed, and the norms |c|^2 = 3 and 12
  rule out any phase convention that would reconcile them;
* criterion 6, the coordinate cycling of A0: advancing all three
  triples is not a symmetry; exactly three of the 27 independent
  cyclings are;
* criterion 8, weighted identity kinds 2 and 3: the printed values hold
  under the opposite ordering convention q_l q_k = j q_k q_l, and the
  computed ones under the pinned q_l q_k = j^2 q_k q_l.

The conflicts themselves stay in the report: the diff rows, the Fail
sections and the exit code 1 of ``nonion verify``.
"""

import random
from itertools import product

from nonion.bases import nonion_basis, tu3_basis
from nonion.bracket import diff_table, s3_bracket, structure_table
from nonion.clifford import (
    degree_census,
    dimension,
    generator,
    s3_symmetric_sum,
    unit,
    weighted_identity_check,
)
from nonion.cubic import (
    CYCLE_ALL_GROUPS,
    a0_vs_det,
    det_poly,
    qhat_at,
    term_census,
    triple_product_components,
    variant_poly,
)
from nonion.field import J, J2, ONE, SQRT2, SQRT3, ZERO, j_pow, rational
from nonion.fixtures import fixture_path, load_table_fixture
from nonion.matrix import Mat3
from nonion.poly import MPoly
from nonion.report import emit_report, run_verify
from nonion.roots import (
    cartan_check,
    extract_alpha_root,
    extract_beta_root,
    projected_alpha_root,
    root_inner,
    su3_structure_constants,
    z3_rotate,
)

import oracle
from conftest import random_field_elem, random_mat3

INV_SQRT2 = SQRT2 / rational(2)
INV_SQRT3 = SQRT3 / rational(3)
INV_SQRT6 = SQRT2 * SQRT3 / rational(6)
SQRT_2_3 = SQRT2 * SQRT3 / rational(3)


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" [{detail}]" if detail else ""))
    assert ok, f"{name} {detail}".strip()


def oracle_basis() -> tuple[oracle.Mat, ...]:
    """The oracle's q0..q8, checked entry by entry against the library's."""
    for a, (mine, theirs) in enumerate(zip(oracle.BASIS, nonion_basis().elements)):
        got = tuple(oracle.from_library_scalar(x) for x in theirs.entries)
        assert got == mine, f"oracle q{a} != library q{a}"
    return oracle.BASIS


# ---------------------------------------------------------------------------
# 1. nonion bracket spot rows + diff report
# ---------------------------------------------------------------------------

def test_c1_row_123():
    q = nonion_basis().elements
    expected = Mat3.identity().scale(rational(3) * (J2 - J))
    check("1a {1,2,3} -> 3(j^2-j) q0", s3_bracket(q[1], q[2], q[3]) == expected)


def test_c1_row_125_as_specified():
    # The reference prints {1,2,5} -> 2(j^2-j) q1 and {1,2,6} -> (j-j^2) q3:
    # the two coefficients are transposed.  No phase convention reconciles
    # them, because rescaling q_a -> j^s q_a changes a coefficient only by a
    # power of j and so keeps |c|^2; {1,2,5} has |c|^2 = 3 and the printed
    # 2(j^2-j) has 12.  The fixture keeps the printed value, so the diff
    # still marks the row Mismatch.
    q = nonion_basis().elements
    b = oracle_basis()
    table = structure_table(nonion_basis())
    rows = {r.triple: r.target_map() for r in table}
    got = {
        t: {n: oracle.from_library_scalar(c) for n, c in rows[t].items()}
        for t in ((1, 2, 5), (1, 2, 6))
    }
    c125 = oracle.project(oracle.bracket(b[1], b[2], b[5]))
    c126 = oracle.project(oracle.bracket(b[1], b[2], b[6]))
    j_minus_j2 = (1, 2)
    two_j2_minus_j = (-2, -4)
    printed_targets, _ = load_table_fixture(fixture_path("table_nonion_s3.json"))[1, 2, 5]
    (printed,) = printed_targets.values()
    printed_norm = oracle.norm(oracle.from_library_scalar(printed))
    diff = diff_table(table, fixture_path("table_nonion_s3.json"))
    diff_row = {r["triple"]: r for r in diff.rows}[(1, 2, 5)]
    ok = (
        s3_bracket(q[1], q[2], q[5]) == q[1].scale(J - J2)
        and s3_bracket(q[1], q[2], q[6]) == q[3].scale(rational(2) * (J2 - J))
        and c125 == tuple(j_minus_j2 if n == 1 else oracle.ZERO for n in range(9))
        and c126 == tuple(two_j2_minus_j if n == 3 else oracle.ZERO for n in range(9))
        and got == {(1, 2, 5): {1: j_minus_j2}, (1, 2, 6): {3: two_j2_minus_j}}
        and (oracle.norm(j_minus_j2), oracle.norm(two_j2_minus_j)) == (3, 12)
        and printed_norm == 12
        and diff_row["status"] == "Mismatch"
        and diff_row["printed_as"] == "{1,2,5} -> {1} : 2(j^2-j)"
    )
    check(
        "1b {1,2,5} -> (j-j^2) q1, {1,2,6} -> 2(j^2-j) q3; printed {1,2,5} has |c|^2 12 not 3",
        ok,
        f"computed {got}, oracle norms 3/12, printed norm {printed_norm}, "
        f"diff {diff_row['status']}",
    )


def test_c1_row_140():
    q = nonion_basis().elements
    check("1c {1,4,0} -> 0", s3_bracket(q[1], q[4], q[0]).is_zero())


def test_c1_full_diff_report_generated():
    diff = diff_table(
        structure_table(nonion_basis()), fixture_path("table_nonion_s3.json")
    )
    summary = diff.summary()
    check(
        "1d 84-row diff report generated (informational)",
        summary["rows"] == 84
        and summary["matches"] + summary["mismatches"] == 84,
        f"match rate {summary['matches']}/84",
    )


# ---------------------------------------------------------------------------
# 2. binary reduction
# ---------------------------------------------------------------------------

def test_c2_binary_reduction_all_pairs():
    q = nonion_basis().elements
    ok = all(
        s3_bracket(q[a], q[b], q[0]) == q[a] * q[b] - q[b] * q[a]
        for a in range(1, 9)
        for b in range(a + 1, 9)
    )
    check("2  {q_a,q_b,q_0} = [q_a,q_b] for 28 pairs", ok)


# ---------------------------------------------------------------------------
# 3. real basis: Cartan triple and spot rows
# ---------------------------------------------------------------------------

def test_c3_cartan_and_spot_rows():
    basis = tu3_basis()
    e = basis.elements
    rows = {r.triple: r.target_map() for r in structure_table(basis)}
    ok = (
        cartan_check(basis)
        and rows[(1, 2, 3)] == {0: SQRT3}
        and rows[(4, 5, 6)] == {0: -SQRT3}
        and rows[(2, 5, 7)]
        == {0: rational(3) * INV_SQRT2, 7: -ONE, 8: -(rational(2) * INV_SQRT3)}
    )
    check("3  Cartan triple and spot rows", ok)


# ---------------------------------------------------------------------------
# 4. root geometry
# ---------------------------------------------------------------------------

def test_c4_root_geometry():
    alphas = {i: extract_alpha_root(i) for i in range(1, 7)}
    betas = {i: extract_beta_root(i)[1] for i in range(1, 7)}
    proj = {i: projected_alpha_root(i) for i in (1, 2, 3)}
    three = rational(3)

    ok = alphas[1] == (INV_SQRT3, ZERO, -SQRT_2_3)
    ok = ok and all(root_inner(alphas[i], alphas[i]) == ONE for i in range(1, 7))
    ok = ok and all(
        root_inner(alphas[i], alphas[k]).is_zero()
        for i in (1, 2, 3)
        for k in (1, 2, 3)
        if i != k
    )
    ok = ok and all(alphas[i] == tuple(-c for c in alphas[i + 3]) for i in (1, 2, 3))
    ok = ok and all(root_inner(betas[i], betas[i]) == three for i in range(1, 7))
    ok = ok and all(
        root_inner(betas[i], betas[k]) == -ONE
        for i in (1, 2, 3)
        for k in (1, 2, 3)
        if i != k
    )
    ok = ok and all(root_inner(proj[i], proj[i]) == rational(2, 3) for i in (1, 2, 3))
    ok = ok and all(
        (proj[1][k] + proj[2][k] + proj[3][k]).is_zero() for k in range(3)
    )
    ok = ok and all(
        root_inner(alphas[i], alphas[i]) / root_inner(proj[i], proj[i]) == rational(3, 2)
        for i in (1, 2, 3)
    )
    ok = ok and all(z3_rotate(alphas[i], 3) == alphas[i] for i in range(1, 7))
    ok = ok and z3_rotate(alphas[1]) == alphas[2] and z3_rotate(alphas[2]) == alphas[3]
    ok = ok and z3_rotate(alphas[3]) == alphas[1]
    ok = ok and z3_rotate(betas[1]) == betas[2] and z3_rotate(betas[2]) == betas[3]
    check("4  root geometry", ok)


# ---------------------------------------------------------------------------
# 5. cubic norm
# ---------------------------------------------------------------------------

def test_c5_cubic_norm():
    det = det_poly()
    ok = all(variant_poly(v) == det for v in (1, 2, 3, 4))
    census = term_census(det)
    ok = ok and census.weighted_terms == 81 and census.distinct_monomials == 21
    rng = random.Random(271828)
    for _ in range(100):
        x = [rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9)]
        y = [rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9)]
        ok = ok and (qhat_at(x) * qhat_at(y)).det() == det.evaluate(x) * det.evaluate(y)
    check("5  det = variants 1..4, census 81/21, multiplicativity", ok)


# ---------------------------------------------------------------------------
# 6. twisted triple product
# ---------------------------------------------------------------------------

def test_c6_axis_restrictions():
    a0 = triple_product_components()[0]
    ok = True
    for a in range(9):
        restriction = MPoly(
            {e: c for e, c in a0.terms.items() if all(e[i] == 0 for i in range(9) if i != a)}
        )
        exp = [0] * 9
        exp[a] = 3
        ok = ok and restriction == MPoly.monomial(exp)
    check("6a A0 axis restrictions are cubes", ok)


CYCLING_TRIPLES = ((0, 7, 8), (1, 2, 3), (4, 5, 6))


def test_c6_z3_cycling_as_specified():
    # The phase twist gives q0 no phase, q7 the phase j and q8 the phase
    # j^2, so advancing the diagonal triple (0,7,8) cannot be a symmetry of
    # A0.  Of the 27 independent cyclings of the three triples exactly three
    # leave A0 unchanged: the diagonal triple stays fixed and the other two
    # advance together.  Advancing all three maps x0*x1*x4 onto x2*x5*x7,
    # and the oracle's product Q*Q~*Q~~ separates the two points; the
    # library's A0 agrees with the oracle there and at seeded integer points.
    oracle_basis()
    a0 = triple_product_components()[0]

    def cycling(shifts):
        return {
            t[i]: t[(i + s) % 3] for t, s in zip(CYCLING_TRIPLES, shifts) for i in range(3)
        }

    invariant = [s for s in product(range(3), repeat=3) if a0.permute_vars(cycling(s)) == a0]

    def point(*support):
        return [int(a in support) for a in range(9)]

    def library_a0(x):
        return oracle.from_library_scalar(a0.evaluate([rational(v) for v in x]))

    oracle_a0 = {p: oracle.triple_product(point(*p))[0] for p in ((0, 1, 4), (2, 5, 7))}
    rng = random.Random(1006)
    samples = [[rng.randint(-3, 3) for _ in range(9)] for _ in range(12)]
    ok = (
        invariant == [(0, 0, 0), (0, 1, 1), (0, 2, 2)]
        and cycling((1, 1, 1)) == CYCLE_ALL_GROUPS
        and a0.permute_vars(CYCLE_ALL_GROUPS) != a0
        and oracle_a0 == {(0, 1, 4): (0, 0), (2, 5, 7): (3, 0)}
        and all(library_a0(point(*p)) == v for p, v in oracle_a0.items())
        and all(library_a0(x) == oracle.triple_product(x)[0] for x in samples)
    )
    check(
        "6b A0 invariant under exactly 3 of 27 triple cyclings (diagonal fixed); "
        "A0(e0+e1+e4) = 0, A0(e2+e5+e7) = 3",
        ok,
        f"invariant shifts {invariant}, oracle {oracle_a0}",
    )


def test_c6_vanishing_and_ratio_reported():
    # A1..A8 do not vanish: each is a cubic of 3 to 6 monomials, and the
    # library's components agree with the oracle's product at seeded integer
    # points.  A0 is no constant multiple of the determinant.  The report's
    # informational checks carry the same values.
    oracle_basis()
    comps = triple_product_components()
    nonzero = [p for p in range(1, 9) if not comps[p].is_zero()]
    counts = {p: len(comps[p].monomials()) for p in range(1, 9)}
    rng = random.Random(1006)
    samples = [[rng.randint(-3, 3) for _ in range(9)] for _ in range(6)]
    agrees = all(
        oracle.from_library_scalar(comps[p].evaluate([rational(v) for v in x]))
        == oracle.triple_product(x)[p]
        for x in samples
        for p in range(9)
    )
    rel = a0_vs_det()
    (section,) = run_verify("triple-product").sections
    reported = {c.name: c.detail for c in section.checks}
    ok = (
        nonzero == [1, 2, 3, 4, 5, 6, 7, 8]
        and counts == {1: 6, 2: 6, 3: 6, 4: 5, 5: 5, 6: 5, 7: 3, 8: 6}
        and agrees
        and rel["constant_ratio"] is None
        and rel["equal_up_to_constant"] is False
        and reported["components A1..A8 vanish"]
        == {"nonzero_components": nonzero, "monomial_counts": {str(p): k for p, k in counts.items()}}
        and reported["A0 vs determinant relation"] == rel
    )
    check(
        "6c A1..A8 all nonzero, with 6,6,6,5,5,5,3,6 monomials; A0 not a constant "
        "multiple of det; both reported (informational)",
        ok,
        f"nonzero components {nonzero}, monomial counts {counts}; relation {rel}",
    )


# ---------------------------------------------------------------------------
# 7. su(3) cross-check
# ---------------------------------------------------------------------------

def test_c7_su3():
    f = su3_structure_constants()
    half = rational(1, 2)
    s32 = SQRT3 / rational(2)
    # f165 and f376 carry one transposition relative to the sorted keys
    ok = (
        f[(1, 2, 3)] == ONE
        and f[(1, 4, 7)] == half
        and f[(1, 5, 6)] == -half
        and f[(2, 4, 6)] == half
        and f[(2, 5, 7)] == half
        and f[(3, 4, 5)] == half
        and f[(3, 6, 7)] == -half
        and f[(4, 5, 8)] == s32
        and f[(6, 7, 8)] == s32
    )
    from nonion.roots import gellmann_decompose, gellmann_matrices

    q = nonion_basis().elements
    rows = gellmann_decompose()
    ok = ok and len(rows) == 8
    for row, lam in zip(rows, gellmann_matrices()):
        rebuilt = Mat3.zero()
        for c, e in zip(row["coeffs"], q):
            rebuilt = rebuilt + e.scale(c)
        ok = ok and rebuilt == lam
    check("7  su(3) structure constants and lambda round-trips", ok)


# ---------------------------------------------------------------------------
# 8. ternary Clifford
# ---------------------------------------------------------------------------

def test_c8_dimension_and_census():
    ok = all(dimension(n) == 3**n for n in range(1, 7))
    ok = ok and degree_census(4) == [1, 4, 10, 16, 19, 16, 10, 4, 1]
    check("8a dimension 3^n (n=1..6) and census(4)", ok)


def test_c8_symmetric_sum_exhaustive():
    n = 4
    six = unit(n).scale(rational(6))
    ok = True
    for k in range(n):
        for l in range(n):
            for m in range(n):
                s = s3_symmetric_sum(k, l, m, n)
                ok = ok and (s == six if k == l == m else s.is_zero())
    check("8b symmetric sum = 6*unit iff k=l=m (n=4)", ok)


def test_c8_weighted_kind1():
    n = 4
    ok = all(
        weighted_identity_check(1, k, l, n).is_zero()
        for k in range(n)
        for l in range(k + 1, n)
    )
    check("8c weighted identity kind 1 vanishes", ok)


# The printed weighted values (0, 0, 3j q_k^2 q_l) hold under the ordering
# q_l q_k = j q_k q_l.  The algebra pins q_l q_k = j^2 q_k q_l, which the
# nonion pair (q1, q2) satisfies; the swapped pair (q2, q1) satisfies the
# printed convention.  Each kind is checked on both 3x3 realizations.

def realize(elem, k: int, l: int, qk: oracle.Mat, ql: oracle.Mat) -> oracle.Mat:
    """Image of an element in generators k, l under q_k -> qk, q_l -> ql."""
    out = oracle.ZERO_MAT
    for mono, c in elem.items():
        if any(e for i, e in enumerate(mono) if i not in (k, l)):
            raise ValueError(f"{mono} uses a generator other than {k}, {l}")
        word = oracle.product(*[qk] * mono[k], *[ql] * mono[l])
        out = oracle.mat_add(out, oracle.mat_scale(oracle.from_library_scalar(c), word))
    return out


def weighted_kind(kind: int, computed, printed, n: int = 4) -> tuple[bool, str]:
    """kind == computed * q_k^2 q_l for all k<l, cross-checked on the 3x3
    pair (q1, q2); the swapped pair (q2, q1) gives printed * q_k^2 q_l."""
    b = oracle_basis()
    ok = True
    for k in range(n):
        for l in range(k + 1, n):
            got = weighted_identity_check(kind, k, l, n)
            ok = ok and got == (generator(n, k, 2) * generator(n, l)).scale(computed)
            ok = ok and realize(got, k, l, b[1], b[2]) == oracle.weighted(kind, b[1], b[2])
    for (qk, ql), coeff in (((b[1], b[2]), computed), ((b[2], b[1]), printed)):
        word = oracle.product(qk, qk, ql)
        want = oracle.mat_scale(oracle.from_library_scalar(coeff), word)
        ok = ok and oracle.weighted(kind, qk, ql) == want
    return ok, f"computed {weighted_identity_check(kind, 0, 1, n)} at (k,l) = (0,1)"


def test_c8_weighted_kind2_as_specified():
    ok, detail = weighted_kind(2, computed=rational(3) * J2, printed=ZERO)
    check("8d weighted identity kind 2 = 3j^2 q_k^2 q_l (printed 0: swapped order)", ok, detail)


def test_c8_weighted_kind3_as_specified():
    ok, detail = weighted_kind(3, computed=ZERO, printed=rational(3) * J)
    check("8e weighted identity kind 3 = 0 (printed 3j q_k^2 q_l: swapped order)", ok, detail)


# ---------------------------------------------------------------------------
# 9. property suites
# ---------------------------------------------------------------------------

def test_c9_bracket_antisymmetry_and_multilinearity():
    rng = random.Random(999)
    ok = True
    for _ in range(10):
        a, b, c, d = (random_mat3(rng) for _ in range(4))
        base = s3_bracket(a, b, c)
        ok = ok and s3_bracket(b, a, c) == -base
        ok = ok and s3_bracket(a, c, b) == -base
        ok = ok and s3_bracket(c, b, a) == -base
        t = rational(2, 5)
        ok = ok and s3_bracket(a + d.scale(t), b, c) == base + s3_bracket(d, b, c).scale(t)
    check("9a bracket antisymmetry and multilinearity", ok)


def test_c9_nonion_closure_and_grading():
    basis = nonion_basis()
    q = basis.elements
    ok = True
    for a in range(9):
        for b in range(9):
            s, c = basis.product_table[a][b]
            ok = ok and q[a] * q[b] == q[c].scale(j_pow(s))
            ok = ok and (basis.grade[a] + basis.grade[b]) % 3 == basis.grade[c]
    check("9b nonion closure and grading (81 pairs)", ok)


def test_c9_field_axioms_and_automorphism():
    rng = random.Random(777)
    ok = True
    for _ in range(500):
        a = random_field_elem(rng)
        b = random_field_elem(rng)
        c = random_field_elem(rng)
        ok = ok and a * b == b * a
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        ok = ok and (a * b).conjugate_j() == a.conjugate_j() * b.conjugate_j()
    check("9c field axioms and conjugation automorphism", ok)


def test_c9_report_determinism():
    first = emit_report(run_verify("all"), "json")
    second = emit_report(run_verify("all"), "json")
    check("9d report determinism (byte-identical)", first == second)
