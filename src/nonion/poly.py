"""Sparse multivariate polynomials in x0..x8 over the scalar field.

Keys are 9-tuples of nonnegative exponents; zero coefficients are never
stored and iteration order is sorted, so equality is structural.  The
whole computation lives in total degree <= 3 over 9 variables, so a
plain dict representation is ample.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .bases import nonion_basis
from .field import ONE, ZERO, FieldElem, j_pow, sum_terms

__all__ = ["NVARS", "MPoly", "NonionPoly"]

NVARS = 9
_ZERO_EXP = (0,) * NVARS


class MPoly:
    """Immutable sparse polynomial: map exponent-tuple -> FieldElem."""

    __slots__ = ("terms",)

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

    def total_degrees(self) -> set[int]:
        return {sum(e) for e in self.terms}

    def has_rational_coeffs(self) -> bool:
        return all(c.is_rational() for c in self.terms.values())

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
        if c.is_zero():
            return MPoly()
        return MPoly({e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    # ------------------------------------------------------------------
    def evaluate(self, values: Sequence[FieldElem]) -> FieldElem:
        """Exact evaluation at a point."""
        total = ZERO
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(values, exp):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

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
            vars_ = "*".join(
                f"x{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
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
            c = FieldElem.from_json(entry["coeff"])
            if exp in terms:
                raise ValueError(f"duplicate monomial {exp}")
            terms[exp] = c
        return cls(terms)


class NonionPoly:
    """Element of the 9-dimensional algebra with MPoly coordinates."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[MPoly]):
        if len(components) != 9:
            raise ValueError("NonionPoly needs 9 components")
        object.__setattr__(self, "components", tuple(components))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("NonionPoly is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, NonionPoly) and self.components == other.components

    def multiply(self, other: "NonionPoly") -> "NonionPoly":
        """Bilinear product through the nonion table q_a*q_b = j^s*q_c."""
        product_table = nonion_basis().product_table
        comps = [MPoly.zero()] * 9
        for a, pa in enumerate(self.components):
            if pa.is_zero():
                continue
            for b, pb in enumerate(other.components):
                if pb.is_zero():
                    continue
                s, c = product_table[a][b]
                term = (pa * pb).scale(j_pow(s))
                comps[c] = comps[c] + term
        return NonionPoly(comps)
