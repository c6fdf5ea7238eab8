"""Independent exact oracle: 3x3 matrices over the Eisenstein integers.

An entry of Z[j] (j^2 = -1 - j) is the integer pair (a, b) meaning
a + b*j; a matrix is a row-major tuple of nine such pairs.  The nonion
units are rebuilt here from the clock-and-shift formulas

    q0 = 1,  q_{1+k}[i][i+1] = j^(k*i),  q_{4+k} = q_{1+k}^dagger,
    q7 = diag(j, j^2, 1),  q8 = q7^dagger            (k = 0, 1, 2)

and nothing is imported from ``nonion.field`` or ``nonion.matrix``, so
agreement with the library is evidence rather than a restatement of the
library's own arithmetic.
"""

from __future__ import annotations

from typing import Sequence

ZJ = tuple[int, int]
Mat = tuple[ZJ, ...]

ZERO: ZJ = (0, 0)
ONE: ZJ = (1, 0)
J: ZJ = (0, 1)
J2: ZJ = (-1, -1)

# Phase twist of the coordinate element, as documented for the twisted
# triple product: no phase at index 0; j at 7, 1, 2, 3; j^2 at 8, 4, 5, 6.
TWIST = (0, 1, 1, 1, 2, 2, 2, 1, 2)


def add(x: ZJ, y: ZJ) -> ZJ:
    return (x[0] + y[0], x[1] + y[1])


def mul(x: ZJ, y: ZJ) -> ZJ:
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c - b * d)


def conj(x: ZJ) -> ZJ:
    """Complex conjugation j -> j^2."""
    a, b = x
    return (a - b, -b)


def jpow(s: int) -> ZJ:
    return (ONE, J, J2)[s % 3]


def norm(x: ZJ) -> int:
    """|a + b*j|^2 = a^2 - a*b + b^2."""
    a, b = x
    return a * a - a * b + b * b


def zj(x: int) -> ZJ:
    return (x, 0)


def from_library_scalar(x) -> ZJ:
    """A library scalar whose rational coordinates are integers on (1, j)."""
    # in lowest terms, den is the lcm of the coordinates' denominators
    if any(x.nums[2:]) or x.den != 1:
        raise ValueError(f"{x} is not in Z[j]")
    return (x.nums[0], x.nums[1])


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

def mat_mul(a: Mat, b: Mat) -> Mat:
    out = []
    for i in range(3):
        for k in range(3):
            s = ZERO
            for m in range(3):
                s = add(s, mul(a[3 * i + m], b[3 * m + k]))
            out.append(s)
    return tuple(out)


def det(a: Mat) -> ZJ:
    """Leibniz sum over the six permutations of the columns."""
    out = ZERO
    for (c0, c1, c2), sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                               ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        term = mul(mul(a[c0], a[3 + c1]), a[6 + c2])
        out = add(out, (sign * term[0], sign * term[1]))
    return out


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(add(x, y) for x, y in zip(a, b))


def mat_scale(c: ZJ, a: Mat) -> Mat:
    return tuple(mul(c, x) for x in a)


def mat_sub(a: Mat, b: Mat) -> Mat:
    return mat_add(a, mat_scale(zj(-1), b))


def dagger(a: Mat) -> Mat:
    return tuple(conj(a[3 * k + i]) for i in range(3) for k in range(3))


def product(*factors: Mat) -> Mat:
    out = IDENTITY
    for f in factors:
        out = mat_mul(out, f)
    return out


def bracket(a: Mat, b: Mat, c: Mat) -> Mat:
    """{A,B,C} = ABC + BCA + CAB - BAC - ACB - CBA."""
    even = mat_add(mat_add(product(a, b, c), product(b, c, a)), product(c, a, b))
    odd = mat_add(mat_add(product(b, a, c), product(a, c, b)), product(c, b, a))
    return mat_sub(even, odd)


def _diag(d0: ZJ, d1: ZJ, d2: ZJ) -> Mat:
    return (d0, ZERO, ZERO, ZERO, d1, ZERO, ZERO, ZERO, d2)


def _shift(k: int) -> Mat:
    ent = [ZERO] * 9
    for i in range(3):
        ent[3 * i + (i + 1) % 3] = jpow(k * i)
    return tuple(ent)


IDENTITY: Mat = _diag(ONE, ONE, ONE)
ZERO_MAT: Mat = (ZERO,) * 9
_Q7 = _diag(J, J2, ONE)
BASIS: tuple[Mat, ...] = (
    IDENTITY,
    *(_shift(k) for k in range(3)),
    *(dagger(_shift(k)) for k in range(3)),
    _Q7,
    dagger(_Q7),
)


def project(m: Mat) -> tuple[ZJ, ...]:
    """Coefficients of m on q0..q8: tr(q_c^dagger m) / 3, exact in Z[j].

    Raises ValueError when a coefficient leaves Z[j]; the reconstruction
    sum_c coeff_c q_c is checked against m.
    """
    coeffs = []
    for q in BASIS:
        qm = mat_mul(dagger(q), m)
        tr = add(add(qm[0], qm[4]), qm[8])
        if tr[0] % 3 or tr[1] % 3:
            raise ValueError(f"projection {tr}/3 is not in Z[j]")
        coeffs.append((tr[0] // 3, tr[1] // 3))
    back = ZERO_MAT
    for c, q in zip(coeffs, BASIS):
        back = mat_add(back, mat_scale(c, q))
    if back != m:
        raise ValueError("matrix is not in the span of the nonion units")
    return tuple(coeffs)


# j-exponents of the weights (w1, w2) in q_k q_l q_k + w1 q_k^2 q_l
# + w2 q_l q_k^2: (1, 1), (j^2, j), (j, j^2) for kinds 1..3.
WEIGHTS = {1: (0, 0), 2: (2, 1), 3: (1, 2)}


def weighted(kind: int, qk: Mat, ql: Mat) -> Mat:
    """The weighted combination of kind 1..3 for generator images qk, ql."""
    w1, w2 = WEIGHTS[kind]
    qk2 = mat_mul(qk, qk)
    out = mat_add(product(qk, ql, qk), mat_scale(jpow(w1), product(qk2, ql)))
    return mat_add(out, mat_scale(jpow(w2), product(ql, qk2)))


def coordinate_matrix(x: Sequence[int], phases: Sequence[int]) -> Mat:
    """sum_a j^phases[a] * x_a * q_a for integer coordinates x."""
    out = ZERO_MAT
    for a, (xa, s) in enumerate(zip(x, phases)):
        out = mat_add(out, mat_scale(mul(zj(xa), jpow(s)), BASIS[a]))
    return out


def triple_product(x: Sequence[int]) -> tuple[ZJ, ...]:
    """Components A0..A8 of Q(x) * Q~(x) * Q~~(x) under the phase twist."""
    twists = [tuple(k * t % 3 for t in TWIST) for k in range(3)]
    return project(product(*(coordinate_matrix(x, t) for t in twists)))


# ----------------------------------------------------------------------
# the n-generator ternary Clifford algebra in clock-and-shift form
# ----------------------------------------------------------------------
#
# q_k = Z (x) ... (x) Z (x) X (x) 1 (x) ... (x) 1 on (C^3)^(x n), with the
# clock Z = q7 = diag(j, j^2, 1) on the factors before k and the shift
# X = q1 on factor k.  Z X = j^2 X Z, so q_k^3 = 1 and q_l q_k = j^2 q_k q_l
# for l > k.  Every such operator is monomial: it sends each tensor basis
# state to a power of j times another basis state, and is stored as the
# tuple of (target state, j-exponent) over the 3^n states, in the order
# of itertools.product((0, 1, 2), repeat=n).

Action = tuple[tuple[int, int], ...]


def _column_action(m: Mat) -> tuple[tuple[int, int], ...]:
    """(row, j-exponent) of the one nonzero entry of each column of m."""
    out = []
    for col in range(3):
        rows = [r for r in range(3) if m[3 * r + col] != ZERO]
        if len(rows) != 1 or m[3 * rows[0] + col] not in (ONE, J, J2):
            raise ValueError("not a monomial matrix with j-power entries")
        out.append((rows[0], (ONE, J, J2).index(m[3 * rows[0] + col])))
    return tuple(out)


def _tensor_action(factors: Sequence[Mat]) -> Action:
    cols = [_column_action(f) for f in factors]
    out = []
    for s in range(3 ** len(factors)):
        digits = [(s // 3 ** (len(factors) - 1 - p)) % 3 for p in range(len(factors))]
        target, e = 0, 0
        for col, d in zip(cols, digits):
            row, ep = col[d]
            target = 3 * target + row
            e += ep
        out.append((target, e % 3))
    return tuple(out)


def clifford_generator(n: int, k: int) -> Action:
    """The clock-and-shift image of q_k (0-based) among n generators."""
    return _tensor_action([BASIS[7]] * k + [BASIS[1]] + [IDENTITY] * (n - k - 1))


def compose(a: Action, b: Action) -> Action:
    """The operator a b (b acts first)."""
    return tuple((a[t][0], (e + a[t][1]) % 3) for t, e in b)


def phase(e: int, a: Action) -> Action:
    """j^e times the operator a."""
    return tuple((t, (x + e) % 3) for t, x in a)


def clifford_monomial(mono: Sequence[int]) -> Action:
    """The image of q_0^m_0 q_1^m_1 ... q_{n-1}^m_{n-1}."""
    n = len(mono)
    out = _tensor_action([IDENTITY] * n)
    for k, m in enumerate(mono):
        for _ in range(m):
            out = compose(out, clifford_generator(n, k))
    return out


def clifford_apply(
    gens: Sequence[Action], coeffs: dict[tuple[int, ...], ZJ], v: dict[int, ZJ]
) -> dict[int, ZJ]:
    """rep(x) v for x = sum of coeffs[m] q^m, with Z[j] coefficients, on a
    sparse v (state -> Z[j]), from the generator images alone: q^m acts on
    a state as q_(n-1)^m_(n-1) first and q_0^m_0 last.

    q^m shifts tensor factor k by m_k, so distinct monomials send a state
    to distinct states, and rep(x) of one basis state holds every
    coefficient of x.
    """
    out: dict[int, ZJ] = {}
    for mono, c in coeffs.items():
        turns = (c, mul(c, J), mul(c, J2))
        for state, x in v.items():
            e = 0
            for k in range(len(mono) - 1, -1, -1):
                for _ in range(mono[k]):
                    state, ek = gens[k][state]
                    e += ek
            out[state] = add(out.get(state, ZERO), mul(turns[e % 3], x))
    return {t: x for t, x in out.items() if x != ZERO}
