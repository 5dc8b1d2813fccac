"""Shared fixtures: reference maps, the ghost-map search, naive oracles.

The naive oracles iterate plain values with no interval machinery and no
signed-point logic; they are the independent reference the piecewise engine
is checked against.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from itmlab import (
    BadOrderError,
    BadTranslationError,
    ItmMap,
    compute_attractor,
    minus,
    plus,
    validate,
)

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = list(ACCEPTANCE_LINES)
    for rep in terminalreporter.stats.get("failed", []):
        name = rep.nodeid.split("::")[-1]
        if "test_acceptance.py" in rep.nodeid and name.startswith("test_criterion_"):
            num = int(name.split("_")[2])
            lines.append(f"criterion {num:2d}: FAIL  ({name})")
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


# -- reference maps --------------------------------------------------------


@pytest.fixture(scope="session")
def fig1() -> ItmMap:
    """Three branches, beta = (1/3, 2/3), gamma = (1/3, 1/7, -1/2)."""
    return validate(3, [Fraction(1, 3), Fraction(2, 3)],
                    [Fraction(1, 3), Fraction(1, 7), Fraction(-1, 2)])


@pytest.fixture(scope="session")
def rotation35() -> ItmMap:
    """Rotation by 3/5 written as a 2-branch map."""
    return validate(2, [Fraction(2, 5)], [Fraction(3, 5), Fraction(-2, 5)])


@pytest.fixture(scope="session")
def iet3() -> ItmMap:
    """Bijective 3-interval exchange: X = [0,1), N = 3 return map."""
    return validate(3, [Fraction(1, 3), Fraction(2, 3)],
                    [Fraction(2, 3), Fraction(0), Fraction(-2, 3)])


@pytest.fixture(scope="session")
def trivial_component_map() -> ItmMap:
    """[0,1/2) drains into the pointwise-fixed [1/2,1): X has one
    dynamically trivial component."""
    return validate(2, [Fraction(1, 2)], [Fraction(1, 4), Fraction(0)])


def find_ghost_map() -> ItmMap:
    """Constraint-oracle search for the ghost-preimage example.

    Wanted: T(beta1-) = beta2- and T(beta2+) = beta1+ exactly (these force
    gamma1 = beta2 - beta1 and gamma3 = beta1 - beta2) with all four signed
    parts of beta1, beta2 outside X and beta1 at a workable distance from
    the closure of X. For r = 3 the forced parameters leave an invariant
    region around beta1 or beta2 inside X for every gamma2, so the search
    runs over r = 4, where beta3 and gamma4 free the attractor to live
    elsewhere. Denominators stay <= 32. The ghost cycle should be the only
    defect, so candidates failing A1, A2 or Matching are skipped.
    """
    from itmlab import full_analysis

    for q in (8, 16, 32):
        for a1 in range(1, q):
            for a2 in range(2 * a1 + 1, q):  # beta2 > 2*beta1 starves [0, beta1)
                b1, b2 = Fraction(a1, q), Fraction(a2, q)
                g1, g3 = b2 - b1, b1 - b2
                for a3 in range(a2 + 1, min(2 * a2 - a1, q)):  # beta3 < 2*beta2 - beta1
                    b3 = Fraction(a3, q)
                    for c2 in range(a2 - a1 + 1, q - a2 + 1):  # gamma2 > beta2 - beta1
                        g2 = Fraction(c2, q)
                        for c4 in range(0, a3 - a2):  # beta2 - beta3 < gamma4 <= 0
                            g4 = Fraction(-c4, q)
                            try:
                                m = validate(4, [b1, b2, b3], [g1, g2, g3, g4])
                            except (BadOrderError, BadTranslationError):
                                continue
                            att = compute_attractor(m)
                            if not att.finite_type or att.boundary_hits:
                                continue
                            pts = [minus(b1), plus(b1), minus(b2), plus(b2)]
                            if any(att.X.contains_signed(p) for p in pts):
                                continue
                            if att.X.distance_to_closure(b1) < Fraction(1, 512):
                                continue
                            rep = full_analysis(m).report
                            if rep.a1.holds and rep.a2.holds and rep.matching.holds:
                                return m
    raise AssertionError("ghost-example search exhausted without a hit")


@pytest.fixture(scope="session")
def ghost_map() -> ItmMap:
    m = find_ghost_map()
    # the two exact landings that make beta1- and beta2+ ghost preimages
    assert m.step(minus(m.beta[0])).value == m.beta[1]
    assert m.step(plus(m.beta[1])).value == m.beta[0]
    return m


# -- corpus ----------------------------------------------------------------


def random_map(rng: random.Random, max_q: int = 64, rs=(2, 3, 4), min_q: int = 8) -> ItmMap:
    """Seeded random rational map; every parameter denominator divides one
    q <= max_q, so the cached lcm Q stays <= max_q."""
    while True:
        r = rng.choice(rs)
        q = rng.randint(max(min_q, r), max_q)
        ks = sorted(rng.sample(range(1, q), r - 1))
        beta = [Fraction(k, q) for k in ks]
        cuts = [Fraction(0)] + beta + [Fraction(1)]
        gamma = []
        ok = True
        for i in range(1, r + 1):
            lo_k = math.ceil(-cuts[i - 1] * q)
            hi_k = math.floor((1 - cuts[i]) * q)
            if lo_k > hi_k:
                ok = False
                break
            gamma.append(Fraction(rng.randint(lo_k, hi_k), q))
        if not ok:
            continue
        try:
            return validate(r, beta, gamma)
        except (BadOrderError, BadTranslationError):
            continue


@pytest.fixture(scope="session")
def corpus() -> list[ItmMap]:
    """50+ finite-type maps, r in {2,3,4}, denominators <= 64."""
    rng = random.Random(987123)
    return [random_map(rng) for _ in range(55)]


# -- naive oracles ---------------------------------------------------------


def naive_branch(m: ItmMap, v: Fraction) -> int:
    cuts = m.cuts()
    for i in range(1, m.r + 1):
        if cuts[i - 1] <= v < cuts[i]:
            return i
    raise AssertionError(v)


def naive_step(m: ItmMap, v: Fraction) -> Fraction:
    return v + m.gamma[naive_branch(m, v) - 1]


def naive_orbit(m: ItmMap, v: Fraction, n: int) -> list[Fraction]:
    out = [v]
    for _ in range(n):
        v = naive_step(m, v)
        out.append(v)
    return out


def grid_points(m: ItmMap, mult: int = 4) -> list[Fraction]:
    q = mult * m.Q
    return [Fraction(k, q) for k in range(q)]


def naive_first_return(m: ItmMap, J, v: Fraction, cap: int = 100000) -> tuple[int, Fraction]:
    l, r = J
    assert l <= v < r
    cur = v
    for t in range(1, cap + 1):
        cur = naive_step(m, cur)
        if l <= cur < r:
            return t, cur
    raise AssertionError(f"{v} did not return to {J} within {cap} steps")


def naive_attractor(m: ItmMap) -> tuple[list[tuple[Fraction, Fraction]], int]:
    """X and its stabilization step, from 1/Q cells and naive_step alone.

    X_n is a set of cells k standing for [k/Q, (k+1)/Q). The cuts lie on the
    grid, so no cell straddles one and each cell moves rigidly with its left
    endpoint; X_{n+1} = T(X_n) is then the set of image cells. Iterates to
    the first n with X_{n+1} = X_n, which finite type bounds by Q.
    """
    q = m.Q
    moved = []
    for k in range(q):
        w = naive_step(m, Fraction(k, q)) * q
        assert w.denominator == 1
        moved.append(w.numerator)
    cells = set(range(q))
    for n in range(q + 1):
        nxt = {moved[k] for k in cells}
        if nxt == cells:
            break
        cells = nxt
    else:
        raise AssertionError("cell iteration did not stabilize within Q steps")
    pairs: list[tuple[Fraction, Fraction]] = []
    for k in sorted(cells):
        if pairs and pairs[-1][1] == Fraction(k, q):
            pairs[-1] = (pairs[-1][0], Fraction(k + 1, q))
        else:
            pairs.append((Fraction(k, q), Fraction(k + 1, q)))
    return pairs, n


def naive_signed_chain(m: ItmMap, J, v: Fraction, side: str, horizon: int):
    """Hits, entry time and entry value of the signed point ``v`` + or - on
    its way back into J, from naive_orbit alone.

    ``v-`` moves like the plain point ``v - h`` for h = 1/(2Q), which sits
    strictly inside a grid cell, so it takes the branch of the limit from
    the left and ``v-`` lies in (l, r] exactly when ``v - h`` lies in [l, r).
    Returns None for the entry when the orbit stays out of J up to
    ``horizon`` steps.
    """
    h = Fraction(1, 2 * m.Q) if side == "-" else Fraction(0)
    orbit = naive_orbit(m, v - h, horizon)
    l, r = J
    entry = next((t for t in range(1, horizon + 1) if l <= orbit[t] < r), None)
    stop = horizon if entry is None else entry
    hits = [
        (m.beta.index(w + h) + 1, t)
        for t, w in enumerate(orbit[:stop])
        if w + h in m.beta
    ]
    return hits, entry, None if entry is None else orbit[entry] + h


@pytest.fixture(scope="session")
def corpus_q1024() -> list[ItmMap]:
    """The first eight maps of the corpus-q1024 bench workload: each map's
    denominators divide one q in [512, 1024], r in {2,3,4}; map 7 (r = 3,
    Q = 748) takes 507 attractor steps."""
    rng = random.Random(1)
    return [random_map(rng, 1024, min_q=512) for _ in range(8)]
