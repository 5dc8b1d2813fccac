"""Seeded random map specifications for the benchmark.

``random_map_spec`` reproduces ``tests/conftest.random_map`` draw for draw
(the same ``rng`` calls in the same order, the same rejections), but it
returns the JSON wire-format specification instead of a validated map, so
the benchmark hands the program only the files it writes and never needs
the test fixtures or the package itself to generate inputs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def _valid(beta: list[Fraction], gamma: list[Fraction]) -> bool:
    """The polytope constraints that ``itmlab.validate`` enforces."""
    cuts = [Fraction(0)] + beta + [Fraction(1)]
    if any(not cuts[i - 1] < cuts[i] for i in range(1, len(cuts))):
        return False
    return all(-cuts[i - 1] <= g <= 1 - cuts[i] for i, g in enumerate(gamma, start=1))


def random_map_spec(rng: random.Random, max_q: int = 64, rs=(2, 3, 4), min_q: int = 8) -> dict:
    """One map as ``{"r", "beta", "gamma"}`` with ``p/q`` strings; every
    parameter denominator divides one q <= max_q."""
    while True:
        r = rng.choice(rs)
        q = rng.randint(max(min_q, r), max_q)
        ks = sorted(rng.sample(range(1, q), r - 1))
        beta = [Fraction(k, q) for k in ks]
        cuts = [Fraction(0)] + beta + [Fraction(1)]
        gamma = []
        for i in range(1, r + 1):
            lo_k = math.ceil(-cuts[i - 1] * q)
            hi_k = math.floor((1 - cuts[i]) * q)
            if lo_k > hi_k:
                break
            gamma.append(Fraction(rng.randint(lo_k, hi_k), q))
        else:
            if r >= 2 and _valid(beta, gamma):
                return {"r": r, "beta": [str(b) for b in beta], "gamma": [str(g) for g in gamma]}


def corpus(seed: int, count: int, max_q: int, rs) -> list[dict]:
    """``count`` maps from ``random.Random(seed)`` with ``min_q = max_q // 2``."""
    rng = random.Random(seed)
    return [random_map_spec(rng, max_q, rs, max_q // 2) for _ in range(count)]
