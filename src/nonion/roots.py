"""Root vectors of the real step/diagonal algebra and su(3) cross-checks.

The diagonal triple (Q0, Q7, Q8) has vanishing bracket and plays the
role of the Cartan set.  Bracketing a step operator against the three
diagonal pairs yields an exact scalar multiple of itself; the three
scalars form its alpha root.  Bracketing a product pair (Qk, Ql)
against each diagonal yields the beta (dual) roots.  A Z3 rotation of
the root space cycles both triples.  The su(3) cross-check builds the
standard lambda matrices exactly, with the imaginary unit represented
inside the field as i = (1 + 2j)/sqrt3.
"""

from __future__ import annotations

from functools import lru_cache

from .bases import nonion_basis, tu3_basis
from .bracket import s3_bracket, structure_row
from .field import J, ONE, SQRT3, ZERO, FieldElem, rational
from .matrix import Mat3, decompose_in_basis, hs_inner

__all__ = [
    "NotProportionalError",
    "I_UNIT",
    "RootVector",
    "cartan_check",
    "extract_alpha_root",
    "extract_beta_root",
    "projected_alpha_root",
    "root_inner",
    "z3_rotation",
    "z3_rotate",
    "BETA_PAIRS",
    "gellmann_matrices",
    "gellmann_decompose",
    "su3_structure_constants",
    "su3_f",
]

RootVector = tuple[FieldElem, FieldElem, FieldElem]

# i = (1 + 2j)/sqrt3 squares to -1 and matches the principal embedding.
I_UNIT = (ONE + J + J) * SQRT3 / rational(3)

# Ordered product pairs for the beta roots, with their printed order.
BETA_PAIRS = ((1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4))


class NotProportionalError(Exception):
    """A bracket expected to be a multiple of one operator is not."""


def cartan_check(basis=None) -> bool:
    """True iff the bracket of the three diagonal operators vanishes."""
    basis = basis or tu3_basis()
    e = basis.elements
    return s3_bracket(e[0], e[7], e[8]).is_zero()


def _row_multiple_of(triple: tuple[int, int, int], target: int) -> FieldElem:
    """The exact c with {Q_h,Q_k,Q_l} = c*Q_target, or raise."""
    coeffs = structure_row(tu3_basis(), triple).target_map()
    c = coeffs.pop(target, ZERO)
    if coeffs:
        raise NotProportionalError("bracket is not a scalar multiple of the operator")
    return c


def extract_alpha_root(i: int) -> RootVector:
    """Root of step operator Q_i from brackets with the diagonal pairs.

    Components come from {Q_i,Q7,Q8}, {Q0,Q_i,Q7}, {Q0,Q_i,Q8} in that
    argument order.
    """
    if not 1 <= i <= 6:
        raise ValueError("step operator index must be 1..6")
    return tuple(_row_multiple_of(t, i) for t in ((i, 7, 8), (0, i, 7), (0, i, 8)))


def extract_beta_root(pair_index: int) -> tuple[int, RootVector]:
    """Dual root of the product pair; returns (target index, scalars).

    The target operator is the nonzero one of Q_k*Q_l, Q_l*Q_k; the
    three scalars come from {Q0,Q_k,Q_l}, {Q7,Q_k,Q_l}, {Q8,Q_k,Q_l}.
    """
    if not 1 <= pair_index <= 6:
        raise ValueError("pair index must be 1..6")
    k, l = BETA_PAIRS[pair_index - 1]
    products = tu3_basis().products
    ((target, _),) = products[k][l] or products[l][k]
    return target, tuple(_row_multiple_of((h, k, l), target) for h in (0, 7, 8))


def projected_alpha_root(i: int) -> RootVector:
    """The alpha root with its first component zeroed."""
    a = extract_alpha_root(i)
    return (ZERO, a[1], a[2])


def root_inner(a: RootVector, b: RootVector) -> FieldElem:
    """Exact Euclidean dot product of two root vectors."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


@lru_cache(maxsize=1)
def z3_rotation() -> Mat3:
    """Order-3 rotation of the root space about the first axis."""
    half = rational(1, 2)
    s32 = SQRT3 * half
    return Mat3.from_rows(
        [
            [ONE, ZERO, ZERO],
            [ZERO, -half, s32],
            [ZERO, -s32, -half],
        ]
    )


def z3_rotate(v: RootVector, power: int = 1) -> RootVector:
    """Apply the Z3 rotation `power` times, exactly."""
    r = z3_rotation()
    out = v
    for _ in range(power % 3):
        out = tuple(
            r[i, 0] * out[0] + r[i, 1] * out[1] + r[i, 2] * out[2] for i in range(3)
        )
    return out


# ----------------------------------------------------------------------
# su(3) cross-check
# ----------------------------------------------------------------------

@lru_cache(maxsize=1)
def gellmann_matrices() -> tuple[Mat3, ...]:
    """The eight standard lambda matrices, exact (1-indexed at [i-1])."""
    i = I_UNIT
    inv_sqrt3 = SQRT3 / rational(3)

    def m(rows):
        return Mat3.from_rows(rows)

    z, o = ZERO, ONE
    return (
        m([[z, o, z], [o, z, z], [z, z, z]]),
        m([[z, -i, z], [i, z, z], [z, z, z]]),
        m([[o, z, z], [z, -o, z], [z, z, z]]),
        m([[z, z, o], [z, z, z], [o, z, z]]),
        m([[z, z, -i], [z, z, z], [i, z, z]]),
        m([[z, z, z], [z, z, o], [z, o, z]]),
        m([[z, z, z], [z, z, -i], [z, i, z]]),
        m([[inv_sqrt3, z, z], [z, inv_sqrt3, z], [z, z, -(inv_sqrt3 + inv_sqrt3)]]),
    )


def gellmann_decompose() -> list[dict]:
    """Exact unit-basis coefficients of each lambda matrix, by projection.

    The report's su3 section checks that each row rebuilds its matrix.
    """
    basis = nonion_basis()
    out = []
    for idx, lam in enumerate(gellmann_matrices(), start=1):
        coeffs = decompose_in_basis(lam, basis.elements, basis.grams)
        out.append({"lambda": idx, "coeffs": list(coeffs)})
    return out


def su3_structure_constants() -> dict[tuple[int, int, int], FieldElem]:
    """Antisymmetric f with [g_i, g_j] = i f_ijk g_k for g = lambda/2.

    Keys are sorted index triples i < j < k with f_ijk nonzero, read off
    tr(g_k [g_i, g_j]) = (i/2) f_ijk, the pairing hs_inner(g_k, [g_i, g_j])
    since g_k is Hermitian; `su3_f` gives the other orders by complete
    antisymmetry.  The factor i is divided out inside the field via I_UNIT.
    """
    g = [lam.scale(rational(1, 2)) for lam in gellmann_matrices()]
    inv_i = I_UNIT.invert()
    two = rational(2)
    out: dict[tuple[int, int, int], FieldElem] = {}
    for a in range(8):
        for b in range(a + 1, 8):
            comm = g[a] * g[b] - g[b] * g[a]
            for c in range(b + 1, 8):
                f = two * hs_inner(g[c], comm) * inv_i
                if not f.is_zero():
                    out[(a + 1, b + 1, c + 1)] = f
    return out


def su3_f(f: dict[tuple[int, int, int], FieldElem], i: int, j: int, k: int) -> FieldElem:
    """f_ijk from a table keyed by sorted triples, by complete antisymmetry.

    An even permutation of the sorted key (a cyclic shift) keeps the sign;
    an odd one flips it.  A triple absent from the table gives zero.
    """
    a, b, c = srt = tuple(sorted((i, j, k)))
    value = f.get(srt, ZERO)
    return value if (i, j, k) in (srt, (b, c, a), (c, a, b)) else -value
