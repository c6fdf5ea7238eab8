"""Seeded inputs of the benchmark workloads.

The program under test receives only what these functions generate; the
seed is an argument of the benchmark.  A field element travels as nine
integers ``[n0, ..., n7, den]`` on the basis
``[1, j, sqrt2, j sqrt2, sqrt3, j sqrt3, sqrt6, j sqrt6]``; a Z[j]
integer ``a + b j`` travels as the pair ``[a, b]``.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("verify_cli", "clifford_dense", "norm_field")

# clifford_dense: products of two dense elements of the n-generator algebra.
CLIFFORD_N = 5
CLIFFORD_PAIRS = 2          # distinct (a, b) pairs; one round multiplies each once
CLIFFORD_COEFF = 4          # coefficients a + b j with a, b in [-4, 4], not both 0
CLIFFORD_VECTOR_COEFF = 9   # entries of the check vector v, same shape

# norm_field: batches of coordinate pairs (x, y) with wide coordinates.
NORM_BATCHES = 4            # one round runs each batch once
NORM_PAIRS_PER_BATCH = 12   # one operation is one batch
NORM_DIGITS = 9             # every numerator and denominator has 9 digits

# Probes of single layers (traced run): a dense Clifford product at this n.
PROBE_CLIFFORD_N = 4


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _zj(rng: random.Random, bound: int) -> list[int]:
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if a or b:
            return [a, b]


def monomials(n: int) -> list[tuple[int, ...]]:
    """All 3^n normal-form monomials, in the order the check vector uses."""
    return list(itertools.product((0, 1, 2), repeat=n))


def dense_clifford(rng: random.Random, n: int) -> list[list[int]]:
    """Coefficients of every one of the 3^n monomials, in `monomials` order."""
    return [_zj(rng, CLIFFORD_COEFF) for _ in range(3**n)]


def clifford_inputs(seed: int, n: int = CLIFFORD_N, pairs: int = CLIFFORD_PAIRS) -> dict:
    rng = rng_for("clifford_dense", seed)
    return {
        "n": n,
        "pairs": [[dense_clifford(rng, n), dense_clifford(rng, n)] for _ in range(pairs)],
        "vector": [_zj(rng, CLIFFORD_VECTOR_COEFF) for _ in range(3**n)],
    }


def wide_elem(rng: random.Random, digits: int = NORM_DIGITS) -> list[int]:
    """All eight coordinates nonzero, numerators and denominator of `digits` digits."""
    lo, hi = 10 ** (digits - 1), 10**digits
    nums = [rng.choice((-1, 1)) * rng.randrange(lo, hi) for _ in range(8)]
    return nums + [rng.randrange(lo, hi)]


def norm_inputs(seed: int) -> dict:
    rng = rng_for("norm_field", seed)
    return {
        "batches": [
            [
                [[wide_elem(rng) for _ in range(9)], [wide_elem(rng) for _ in range(9)]]
                for _ in range(NORM_PAIRS_PER_BATCH)
            ]
            for _ in range(NORM_BATCHES)
        ]
    }


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "clifford_dense":
        return clifford_inputs(seed)
    if workload == "norm_field":
        return norm_inputs(seed)
    return {}  # verify_cli runs the CLI as a user does; it takes no input


def probe_inputs(seed: int) -> dict:
    """Operands of the single-layer probes: one wide point pair, one small product."""
    return {
        "wide": norm_inputs(seed)["batches"][0][0],
        "clifford": clifford_inputs(seed, n=PROBE_CLIFFORD_N, pairs=1),
    }
