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
    __version__,
    A3Witness,
    BadOrderError,
    BadTranslationError,
    ItmMap,
    compute_attractor,
    full_analysis,
    hausdorff_closure_distance,
    minus,
    plus,
    validate,
)
from itmlab.return_map import classify_return_dynamics, verify_touching_equations
from itmlab.stability import GRID_BITS, LCG_A, LCG_C, LCG_M
from itmlab.vectors import build_vectors, check_lin_dep_pattern, verify_identities

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
                            fa = full_analysis(m)
                            if fa.a1.holds and fa.a2.holds and fa.matching.holds:
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


@pytest.fixture(scope="session")
def a3_violators() -> dict[int, ItmMap]:
    """The A3 violators among 400 draws ``random_map(rng, 256, (3, 4, 5, 6))``
    from one ``rng = random.Random(11)``, by draw index. With ``corpus`` the
    draws make the seeded 455-map sample, which has no other violator."""
    rng = random.Random(11)
    draws = [random_map(rng, 256, (3, 4, 5, 6)) for _ in range(400)]
    return {i: m for i, m in enumerate(draws) if not full_analysis(m).a3.holds}


def fraction_views(data) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, Fraction], ...]]:
    """A return map's cut points and images as Fractions, read off its
    integer numerators ``kcuts`` and ``kimages`` over its grid."""
    d = data.grid.denom
    return (
        tuple(Fraction(k, d) for k in data.kcuts),
        tuple((Fraction(l, d), Fraction(r, d)) for l, r in data.kimages),
    )


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


def reference_attractor(m: ItmMap, max_iter: int | None = None) -> tuple:
    """X, its step and the discontinuity classification from the plain
    iteration ``X_{n+1} = kernel.image(X_n)`` on the map's integer grid; no
    kernel code besides ``image``.

    The step is the first n with X_{n+1} = X_n; after ``max_iter`` steps
    (default Q) without one it is None and X is X_max_iter. Returns
    ``(pairs, step, inside, outside, boundary)`` in the shape of the
    AttractorResult attributes ``kcomponents``, ``stabilization_step``,
    ``discontinuities_inside``, ``discontinuities_outside`` and
    ``boundary_hits``.
    """
    from itmlab import kernel

    grid = m.grid
    cur = [(0, grid.denom)]
    step = None
    for n in range(m.Q if max_iter is None else max_iter):
        nxt = kernel.image(grid, cur)
        if nxt == cur:
            step = n
            break
        cur = nxt
    inside, outside, boundary = [], [], []
    for i, b in enumerate(grid.cuts[1:-1], start=1):
        comp = next((k for k, (l, r) in enumerate(cur, start=1) if l <= b <= r), None)
        if comp is None:
            outside.append(i)
        elif b in cur[comp - 1]:
            boundary.append(i)
        else:
            inside.append((i, comp))
    return tuple(cur), step, tuple(inside), tuple(outside), tuple(boundary)


def naive_shift(m: ItmMap, side: str) -> Fraction:
    """``h`` with ``v-`` moving like the plain point ``v - h``: h = 1/(2Q)
    sits strictly inside a grid cell, so ``v - h`` takes the branch of the
    limit from the left. ``v+`` moves like ``v`` itself (h = 0)."""
    return Fraction(1, 2 * m.Q) if side == "-" else Fraction(0)


def naive_signed_chain(m: ItmMap, J, v: Fraction, side: str, horizon: int):
    """Hits, entry time and entry value of the signed point ``v`` + or - on
    its way back into J, from naive_orbit alone.

    ``v-`` moves like the plain point ``v - h`` (naive_shift), and lies in
    (l, r] exactly when ``v - h`` lies in [l, r). Returns None for the entry when the orbit stays out of J up to
    ``horizon`` steps.
    """
    h = naive_shift(m, side)
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


def naive_branch_counts(m: ItmMap, v: Fraction, side: str, n: int) -> tuple[int, ...]:
    """How many of the first ``n`` steps of the signed point ``v`` + or -
    take each branch, from naive_orbit alone (``v-`` moves like ``v - h``,
    naive_shift)."""
    h = naive_shift(m, side)
    counts = [0] * m.r
    for w in naive_orbit(m, v - h, n)[:n]:
        counts[naive_branch(m, w) - 1] += 1
    return tuple(counts)


def naive_ghost_edges(m: ItmMap):
    """The ghost graph from naive_orbit and naive_attractor's X alone.

    The orbit of each signed discontinuity (``v-`` moved as ``v - h``) is
    followed while its points lie outside X, for at most Q + 1 steps; the
    first landing on each beta_j gives the edge to beta_j with the opposite
    side. Returns the set of edges ``(child, parent, time)`` and, for every
    signed discontinuity, whether it lies in X.
    """
    pairs, _ = naive_attractor(m)

    def in_x(w: Fraction) -> bool:
        return any(l <= w < r for l, r in pairs)

    edges = set()
    membership = {}
    for i, b in enumerate(m.beta, start=1):
        for side in ("-", "+"):
            shift = naive_shift(m, side)
            orbit = naive_orbit(m, b - shift, m.Q + 1)
            membership[(i, side)] = in_x(orbit[0])
            landed: dict[Fraction, int] = {}
            for t in range(1, m.Q + 2):
                if in_x(orbit[t - 1]):
                    break
                v = orbit[t] + shift
                if v in m.beta and v not in landed:
                    landed[v] = t
            parent_side = "+" if side == "-" else "-"
            for v, t in landed.items():
                edges.add(((i, side), (m.beta.index(v) + 1, parent_side), t))
    return edges, membership


def brute_hausdorff(a, b) -> Fraction:
    """Hausdorff distance of the closures from a dense candidate set: every
    endpoint plus every midpoint of a pair of endpoints, where the true
    maximizer of a piecewise linear function lies; distances from the
    Fraction methods of IntervalSet."""
    pts = [e for l, r in a.intervals for e in (l, r)]
    pts += [e for l, r in b.intervals for e in (l, r)]
    cands = set(pts)
    for p in pts:
        for q in pts:
            cands.add((p + q) / 2)
    d_ab = max(b.distance_to_closure(x) for x in cands if a.closure_contains(x))
    d_ba = max(a.distance_to_closure(x) for x in cands if b.closure_contains(x))
    return max(d_ab, d_ba)


def set_hausdorff(a, b) -> Fraction:
    """``hausdorff_closure_distance`` of two IntervalSets, both put on the
    grid ``1/(2 L)``, ``L`` the lcm of all their endpoint denominators, so
    that every gap midpoint is a grid point."""
    denom = 2 * math.lcm(*(x.denominator for s in (a, b) for pair in s.intervals for x in pair))

    def ends(s):
        return [x.numerator * (denom // x.denominator) for pair in s.intervals for x in pair]

    return Fraction(hausdorff_closure_distance(ends(a), ends(b)), denom)


def naive_nullspace(columns, dim: int) -> list[list[Fraction]]:
    """Nullspace basis of the matrix with the given columns by plain Fraction
    Gauss-Jordan elimination: reduced row echelon form, then one basis
    vector per free column (1 there, 0 at the other free columns)."""
    ncols = len(columns)
    rows = [[Fraction(columns[c][r]) for c in range(ncols)] for r in range(dim)]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, dim) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [a / rows[rank][col] for a in rows[rank]]
        for r in range(dim):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][free]
        basis.append(vec)
    return basis


def naive_pattern(vectors, n: int, dim: int) -> tuple[bool, int]:
    """``(holds, nullity)`` of the forced dependence pattern, checked block
    by block on every vector of the ``naive_nullspace`` basis.

    For each 0 <= j < n the coefficients of C+(j, .) and R+_j must agree,
    those of C-(j+1, .) and R-_{j+1} must agree, and the two values must be
    opposite; for interior j the coefficient of L_j must equal the sum of
    the minus block at j and the plus block at j. Boundary landings are
    free.
    """
    basis = naive_nullspace([v.e + v.f for v in vectors], dim)
    for alpha in basis:
        coef = {v.tag: a for v, a in zip(vectors, alpha)}

        def block(side, j):
            chain = [a for t, a in coef.items() if t[0] == "C" and t[1:3] == (side, j)]
            return chain + [coef[("R", side, j)]]

        for j in range(n):
            plus_block, minus_block = block("+", j), block("-", j + 1)
            if len(set(plus_block)) > 1 or len(set(minus_block)) > 1:
                return False, len(basis)
            if plus_block[0] != -minus_block[0]:
                return False, len(basis)
        for j in range(1, n):
            if coef[("L", j)] != block("-", j)[0] + block("+", j)[0]:
                return False, len(basis)
    return True, len(basis)


def plain(value):
    """``value`` with every Fraction written by ``str(Fraction)`` and every
    tuple as a list."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def naive_header_section(digest: str, probe=None) -> dict:
    """The header of an ``analyze`` or ``probe`` report as a dict: the
    oracle for ``report.header_section``."""
    header = {"tool": "itmlab", "version": __version__, "input_digest": digest}
    if probe is not None:
        header["probe"] = {
            "seed": probe.seed,
            "lcg": {"a": LCG_A, "c": LCG_C, "m": LCG_M},
            "grid_denominator": 2**GRID_BITS,
        }
    return header


def naive_verdict(verdict) -> dict:
    """A verdict as the report writes it; an A3 witness is written field by
    field, not through ``A3Witness.as_dict``."""
    w = verdict.witness
    if isinstance(w, A3Witness):
        w = {"disc": w.disc, "cycle": [list(node) for node in w.cycle], "times": list(w.times)}
    return {"holds": verdict.holds, "witness": plain(w)}


def naive_stability_section(analysis) -> dict:
    """The stability section of the report as a dict: the oracle for
    ``report.stability_section``. ``stable`` is recomputed from the four
    verdicts and the attractor."""
    verdicts = (analysis.a1, analysis.a2, analysis.a3, analysis.matching)
    finite_type = analysis.attractor.stabilization_step is not None
    return {
        "finite_type": finite_type,
        "stabilization_step": analysis.attractor.stabilization_step,
        "a1": naive_verdict(analysis.a1),
        "a2": naive_verdict(analysis.a2),
        "a3": naive_verdict(analysis.a3),
        "matching": naive_verdict(analysis.matching),
        "stable": finite_type and all(v.witness is None for v in verdicts),
    }


def naive_directed_section(dp, analysis) -> dict:
    """The directed-perturbation section of the report as a dict: the
    oracle for ``report.directed_section``."""
    att = analysis.attractor
    return {
        "deltas": [str(d) for d in dp.spec.deltas],
        "epsilon": str(dp.spec.epsilon),
        "predicted_interval": [str(x) for x in dp.predicted_interval],
        "period": dp.period,
        "perturbed_components": [
            [str(Fraction(l, att.denom)), str(Fraction(r, att.denom))] for l, r in att.kcomponents
        ],
    }


def naive_map_section(m: ItmMap) -> dict:
    """The map section of the report as a dict: the oracle for
    ``report.map_section``."""
    return {
        "r": m.r,
        "beta": [str(b) for b in m.beta],
        "gamma": [str(g) for g in m.gamma],
        "Q": m.Q,
        "image_compactly_contained": m.image_compactly_contained,
    }


def naive_attractor_section(att, capped: bool = False) -> dict:
    """The attractor section of the report as a dict: the oracle for
    ``report.attractor_section``."""
    return {
        "components": [
            [str(Fraction(l, att.denom)), str(Fraction(r, att.denom))]
            for l, r in att.kcomponents
        ],
        "stabilization_step": att.stabilization_step,
        "infinite_type_suspected": att.infinite_type_suspected,
        "capped": capped,
        "discontinuities_inside": [list(t) for t in att.discontinuities_inside],
        "discontinuities_outside": list(att.discontinuities_outside),
        "boundary_hits": list(att.boundary_hits),
    }


def naive_ghost_section(graph, a3_verdict) -> dict:
    """The ghost section of the report as a dict: the oracle for
    ``report.ghost_section``."""
    return {
        "nodes": [
            {"disc": i, "side": s, "in_x": graph.in_x[(i, s)]} for i, s in graph.nodes
        ],
        "edges": [
            {"child": list(e.child), "parent": list(e.parent), "time": e.time}
            for e in graph.edges
        ],
        "a3": naive_verdict(a3_verdict),
    }


def naive_return_map_section(m: ItmMap, data, component: int) -> dict:
    """The return-map section of the report as a dict, each rational written
    by ``str(Fraction)``: the oracle for ``report.return_map_section``."""
    d = data.grid.denom

    def text(k: int) -> str:
        return str(Fraction(k, d))

    cuts = [text(k) for k in data.kcuts]
    return {
        "component": component,
        "J": [cuts[0], cuts[-1]],
        "cut_points": cuts,
        "return_times": list(data.return_times),
        "landings": [
            {"cut": rec.j, "time": rec.time, "disc": rec.disc} for rec in data.landings
        ],
        "chains": [
            {
                "j": c.j,
                "side": c.side,
                "hits": [{"disc": h.disc, "time": h.time} for h in c.hits],
                "entry_time": c.entry_time,
                "entry_value": text(c.kentry),
            }
            for c in data.chains
        ],
        "sigma": list(data.sigma),
        "tau": list(data.tau),
        "images": [[text(l), text(r)] for l, r in data.kimages],
        "dynamically_trivial": data.dynamically_trivial,
        "classification": classify_return_dynamics(data),
        "touching_values": [text(k) for k in verify_touching_equations(data)],
    }


def naive_vectors_section(m: ItmMap, data, component: int) -> dict:
    """The vectors section of the report as a dict, each product paired
    from the Fraction parameters: the oracle for ``report.vectors_section``.
    ``verify_identities`` raises when an identity fails, so they all hold."""

    def tag_text(tag) -> str:
        if tag[0] == "L":
            return f"L{tag[1]}"
        if tag[0] == "C":
            return f"C{tag[1]}({tag[2]},{tag[3]})"
        return f"R{tag[1]}{tag[2]}"

    vecs = build_vectors(data)
    verify_identities(data, vecs)
    pattern = check_lin_dep_pattern(data, vecs)
    params = (*m.gamma, *m.beta)
    return {
        "component": component,
        "vectors": [
            {
                "tag": tag_text(v.tag),
                "e": list(v.e),
                "f": list(v.f),
                "product": str(sum(x * p for x, p in zip(v.e + v.f, params))),
            }
            for v in vecs
        ],
        "identities_ok": True,
        "lin_dep_pattern": "holds" if pattern.holds else "violated",
        "nullity": pattern.nullity,
    }


def naive_probe_section(pr) -> dict:
    """The probe section of the report as a dict: the oracle for
    ``report.probe_section``."""
    denom = pr.hausdorff_denom
    return {
        "epsilon": str(pr.epsilon),
        "seed": pr.seed,
        "samples": len(pr.samples),
        "accepted": pr.accepted,
        "max_hausdorff": str(pr.max_hausdorff),
        "min_hausdorff": str(pr.min_hausdorff),
        "all_signatures_match": pr.all_signatures_match,
        "component_counts": list(pr.component_counts),
        "records": [
            {
                "index": rec.index,
                "accepted": rec.accepted,
                "component_count": rec.component_count,
                "hausdorff": (
                    None if rec.khausdorff is None else str(Fraction(rec.khausdorff, denom))
                ),
                "disc_inside": rec.disc_inside,
                "disc_outside_closure": rec.disc_outside_closure,
                "signature_match": rec.signature_match,
            }
            for rec in pr.samples
        ],
    }


def naive_probe_records(m: ItmMap, epsilon: Fraction, samples: int, seed: int) -> list:
    """The sample records of ``perturbation_probe`` rebuilt the Fraction way.

    Deltas are drawn as Fractions with the published LCG (Numerical Recipes
    constants, ``k / 1024 * epsilon`` with ``k`` in [-1023, 1023]) and added
    to the parameters as Fractions. Whether a draw is accepted is decided
    here on those sums: strictly increasing cuts and ``-beta_{i-1} <=
    gamma_i <= 1 - beta_i``. Accepted draws are built with ``apply_spec``,
    every analysis is forced whole (the verdict and every signed chain), and
    distances come from ``brute_hausdorff``, each as its numerator over the
    probe grid 2 lcm(Q, 1024 den(epsilon)), which must be exact.
    """
    from itmlab import PerturbationSpec, apply_spec, full_analysis
    from itmlab.stability import SampleRecord

    def in_polytope(beta, gamma):
        cuts = [Fraction(0), *beta, Fraction(1)]
        return all(cuts[i - 1] < cuts[i] for i in range(1, m.r + 1)) and all(
            -cuts[i - 1] <= gamma[i - 1] <= 1 - cuts[i] for i in range(1, m.r + 1)
        )

    def eager(fa):
        fa.a1, fa.a2, fa.a3, fa.matching
        for data in fa.return_maps:
            data.chains
        return fa

    def signature(fa):
        return tuple((d.n_intervals, d.return_times, d.sigma) for d in fa.return_maps)

    base = eager(full_analysis(m))
    double = 2 * math.lcm(m.Q, 1024 * epsilon.denominator)
    state = seed % 2**32
    records = []
    for i in range(samples):
        deltas = []
        for _ in range(2 * m.r - 1):
            state = (1664525 * state + 1013904223) % 2**32
            deltas.append(Fraction(state % 2047 - 1023, 1024) * epsilon)
        gamma = [g + deltas[s] for s, g in enumerate(m.gamma)]
        beta = [b + deltas[m.r + s] for s, b in enumerate(m.beta)]
        if not in_polytope(beta, gamma):
            records.append(SampleRecord(i, accepted=False))
            continue
        perturbed = apply_spec(m, PerturbationSpec(epsilon, tuple(deltas)))
        assert (perturbed.beta, perturbed.gamma) == (tuple(beta), tuple(gamma))
        fa = eager(full_analysis(perturbed))
        comps = fa.attractor.components()
        distance = brute_hausdorff(base.attractor.X, fa.attractor.X) * double
        assert distance.denominator == 1
        records.append(SampleRecord(
            index=i,
            accepted=True,
            component_count=len(comps),
            khausdorff=distance.numerator,
            disc_inside=len(fa.attractor.discontinuities_inside),
            disc_outside_closure=len(fa.attractor.discontinuities_outside),
            signature_match=(
                fa.finite_type
                and len(comps) == len(base.attractor.components())
                and signature(fa) == signature(base)
            ),
        ))
    return records


@pytest.fixture(scope="session")
def corpus_q1024() -> list[ItmMap]:
    """The first eight maps of the corpus-q1024 bench workload: each map's
    denominators divide one q in [512, 1024], r in {2,3,4}; map 7 (r = 3,
    Q = 748) takes 507 attractor steps."""
    rng = random.Random(1)
    return [random_map(rng, 1024, min_q=512) for _ in range(8)]


@pytest.fixture(scope="session")
def branchy_q1024() -> list[ItmMap]:
    """The 30 maps of the branchy-q1024 bench workload: each map's
    denominators divide one q in [512, 1024], r in {6, 8}."""
    rng = random.Random(2)
    return [random_map(rng, 1024, (6, 8), 512) for _ in range(30)]
