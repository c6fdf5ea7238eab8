"""Sparse multivariate polynomials in x0..x8 over the scalar field.

Keys are 9-tuples of nonnegative exponents; zero coefficients are never
stored and iteration order is sorted, so equality is structural.  The
whole computation lives in total degree <= 3 over 9 variables, so a
plain dict representation is ample.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from .field import ONE, ZERO, FieldElem, add_pairs, mul_accumulate, numerator_pairs, sum_terms

__all__ = ["NVARS", "MPoly"]

NVARS = 9
_ZERO_EXP = (0,) * NVARS
_UNIT = ((0, 1, 0),)  # the pair form of 1


class MPoly:
    """Immutable sparse polynomial: map exponent-tuple -> FieldElem."""

    __slots__ = ("terms", "_plan")

    def __init__(self, terms: Mapping[tuple[int, ...], FieldElem] | None = None):
        clean = {}
        if terms:
            for exp, c in terms.items():
                if len(exp) != NVARS:
                    raise ValueError(f"exponent tuple {exp} must have length {NVARS}")
                if not c.is_zero():
                    clean[tuple(exp)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MPoly is immutable")

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def const(cls, c: FieldElem) -> "MPoly":
        return cls({_ZERO_EXP: c})

    @classmethod
    def var(cls, i: int, coeff: FieldElem = ONE) -> "MPoly":
        exp = [0] * NVARS
        exp[i] = 1
        return cls({tuple(exp): coeff})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff: FieldElem = ONE) -> "MPoly":
        return cls({tuple(exps): coeff})

    # ------------------------------------------------------------------
    def coeff(self, exp: Sequence[int]) -> FieldElem:
        return self.terms.get(tuple(exp), ZERO)

    def items(self):
        return sorted(self.terms.items())

    def monomials(self) -> list[tuple[int, ...]]:
        return sorted(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # ------------------------------------------------------------------
    def __add__(self, other: "MPoly") -> "MPoly":
        if not isinstance(other, MPoly):
            return NotImplemented
        return MPoly(sum_terms([*self.terms.items(), *other.terms.items()]))

    def __neg__(self) -> "MPoly":
        return MPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        if not isinstance(other, MPoly):
            return NotImplemented
        return MPoly(sum_terms(
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        ))

    def scale(self, c: FieldElem) -> "MPoly":
        return MPoly({e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    # ------------------------------------------------------------------
    def evaluate(self, values: Sequence[FieldElem]) -> FieldElem:
        """Exact evaluation at a point of NVARS values.

        Runs a Horner plan that is built on the first call and kept on
        the polynomial (`_horner_plan`): the terms are grouped by a shared
        variable, so each group is multiplied by it once.  A rational
        coefficient p/q is an integer scale applied when the sums are
        lifted to a common denominator; any other coefficient is a field
        factor.  Only the final value is gcd-normalised.
        """
        if len(values) != NVARS:
            raise ValueError(f"evaluate needs {NVARS} values, got {len(values)}")
        plan = getattr(self, "_plan", None)
        if plan is None:
            plan = _horner_plan([(list(e), c) for e, c in self.terms.items()])
            object.__setattr__(self, "_plan", plan)
        pairs, den, scale = _run_plan(plan, [(numerator_pairs(v.nums), v.den) for v in values])
        out = [0] * 8
        add_pairs(out, _UNIT if pairs is None else pairs, scale)
        return FieldElem(out, den)

    def permute_vars(self, mapping: Mapping[int, int]) -> "MPoly":
        """Apply the substitution x_i -> x_mapping[i] (a permutation)."""
        pairs = []
        for exp, c in self.terms.items():
            new = [0] * NVARS
            for i, e in enumerate(exp):
                new[mapping.get(i, i)] += e
            pairs.append((tuple(new), c))
        return MPoly(sum_terms(pairs))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.items():
            vars_ = _monomial_text(exp)
            cs = str(c)
            if vars_:
                cs = f"({cs})*{vars_}" if (" " in cs or "/" in cs) else f"{cs}*{vars_}"
            parts.append(cs)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MPoly({len(self.terms)} terms)"

    def to_json(self) -> list[dict]:
        return [
            {"exponents": list(exp), "coeff": c.to_json()} for exp, c in self.items()
        ]

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "MPoly":
        terms: dict[tuple[int, ...], FieldElem] = {}
        for entry in data:
            exp = tuple(entry["exponents"])
            if any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"exponents {list(exp)} must be non-negative integers")
            c = FieldElem.from_json(entry["coeff"])
            if exp in terms:
                raise ValueError(f"duplicate monomial {exp}")
            terms[exp] = c
        return cls(terms)


def _monomial_text(exp: Sequence[int]) -> str:
    """The variable part of a monomial, x0^2*x3; empty for the constant."""
    return "*".join(f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e)


def _horner_plan(terms: list[tuple[list[int], FieldElem]]) -> tuple:
    """A greedy multivariate Horner scheme for a sum of terms.

    The plan is a tuple of nodes.  A node (v, sub) is x_v times the value
    of the plan sub, built from the terms that contain x_v with one
    power of it taken out; v is the variable in the most terms, and the
    rest are planned the same way.  A constant term is a leaf (-1, f):
    f = (None, q, p) for a rational p/q, or (pairs, den, 1) for any
    other coefficient, in the (pairs, den, scale) form of `_run_plan`.
    """
    nodes = []
    while terms:
        counts = [sum(1 for e, _ in terms if e[v]) for v in range(NVARS)]
        v = counts.index(max(counts))
        if not counts[v]:
            nodes += [
                (-1, (None, c.den, c.nums[0]) if c.is_rational() else (numerator_pairs(c.nums), c.den, 1))
                for _, c in terms
            ]
            break
        inner = [([*e[:v], e[v] - 1, *e[v + 1 :]], c) for e, c in terms if e[v]]
        nodes.append((v, _horner_plan(inner)))
        terms = [(e, c) for e, c in terms if not e[v]]
    return tuple(nodes)


def _run_plan(plan: tuple, xs: list[tuple[tuple, int]]) -> tuple:
    """The value of a Horner plan at the point xs, each value in sparse
    (pairs, den) form, as raw (pairs, den, scale): scale * pairs / den,
    with pairs None for the constant 1 and () for zero.

    Each node's value is one product of Z[j] pairs (none when the node
    multiplies a constant); the values of a plan with several nodes are
    lifted once to the lcm of their denominators, each times its scale,
    and summed.
    """
    vals = []
    for v, sub in plan:
        if v < 0:
            vals.append(sub)
            continue
        x, d = xs[v]
        if not x:
            continue
        pairs, den, scale = _run_plan(sub, xs)
        if pairs is None:
            pairs = x
        elif pairs:
            out = [0, 0, 0, 0, 0, 0, 0, 0]
            mul_accumulate(out, pairs, x)
            pairs = numerator_pairs(out)
        else:
            continue
        vals.append((pairs, den * d, scale))
    if len(vals) == 1:
        return vals[0]
    if not vals:
        return (), 1, 1
    den = math.lcm(*[d for _, d, _ in vals])
    out = [0, 0, 0, 0, 0, 0, 0, 0]
    for pairs, d, scale in vals:
        add_pairs(out, _UNIT if pairs is None else pairs, scale * (den // d))
    return numerator_pairs(out), den, 1
