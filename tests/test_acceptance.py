"""Acceptance suite: one test per criterion, each at its stated tolerance.

All comparisons are exact rational equalities unless a criterion names an
explicit engineering bound (the probe's 20-epsilon Hausdorff cap). Runtime
budgets are asserted where the criteria state them. Each criterion reports
one PASS line in the terminal summary; a failed test never reaches its
report call, so its line is absent and pytest marks the failure.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest

from itmlab import (
    build_ghost_graph,
    build_vectors,
    canonicalize,
    check_A3,
    check_lin_dep_pattern,
    compute_attractor,
    compute_return_map,
    interval,
    minus,
    nonwandering_witness,
    orbit_closure,
    perturbation_probe,
    plus,
    a3_breaking_perturbation,
    apply_spec,
    full_analysis,
    verify_identities,
    verify_touching_equations,
)
from conftest import (
    ACCEPTANCE_LINES,
    fraction_views,
    grid_points,
    naive_first_return,
    naive_orbit,
    random_map,
    set_hausdorff,
)

FIG1_X = canonicalize([(F(1, 6), F(13, 42)), (F(1, 2), F(17, 21))])
JA = (F(1, 6), F(13, 42))
JB = (F(1, 2), F(17, 21))
KJA, KJB = (7, 13), (21, 34)  # JA and JB as numerators over fig1's grid 1/42


def report(n: int, text: str) -> None:
    ACCEPTANCE_LINES.append(f"criterion {n:2d}: PASS  {text}")


def test_criterion_1_fig1_attractor_exact(fig1):
    t0 = time.monotonic()
    att = compute_attractor(fig1)
    elapsed = time.monotonic() - t0
    assert att.X == FIG1_X
    assert att.stabilization_step == 3
    assert elapsed < 1.0
    # independent oracle: push the 1/(4Q) grid 3Q steps pointwise
    pushed = {naive_orbit(fig1, z, 3 * fig1.Q)[-1] for z in grid_points(fig1)}
    assert pushed == {z for z in grid_points(fig1) if att.X.contains_value(z)}
    report(1, f"X = {att.X}, step 3, {elapsed:.3f}s, grid oracle agrees")


def test_criterion_2_touching_third_iterates(fig1):
    up = fig1.iterate(plus(F(2, 3)), 3)
    down = fig1.iterate(minus(F(2, 3)), 3)
    assert up.point.value == down.point.value == F(9, 14)
    assert up.point.side == "+" and down.point.side == "-"
    report(2, "T^3(b2+) ~ T^3(b2-) at 9/14, exact")


def test_criterion_3_fig1_stable_and_orbit_cover(fig1):
    fa = full_analysis(fig1)
    assert fa.stable and fa.finite_type
    assert fa.a1.holds and fa.a2.holds and fa.a3.holds and fa.matching.holds
    cover = orbit_closure(fig1, interval(*JA)).union(orbit_closure(fig1, interval(*JB)))
    assert cover == FIG1_X
    report(3, "verdict stable, all conditions hold, O(J_A) u O(J_B) = X")


def test_criterion_4_fig1_return_maps_exact(fig1):
    att = compute_attractor(fig1)
    b = compute_return_map(KJB, att)
    assert b.n_intervals == 2
    assert b.return_times == (1, 2)
    assert b.sigma == (2, 1)
    assert verify_touching_equations(b) == (27,)  # 9/14 over fig1's grid 1/42
    a = compute_return_map(KJA, att)
    assert a.n_intervals == 2
    assert a.return_times == (4, 3)
    assert verify_touching_equations(a) == (12,)  # 2/7
    for comp, data in ((JA, a), (JB, b)):
        cut_points, images = fraction_views(data)
        for z in grid_points(fig1):
            if not (comp[0] <= z < comp[1]):
                continue
            t, img = naive_first_return(fig1, comp, z)
            j = max(k for k in range(1, data.n_intervals + 1)
                    if cut_points[k - 1] <= z)
            assert t == data.return_times[j - 1]
            assert img == images[j - 1][0] + (z - cut_points[j - 1])
    report(4, "J_B: N=2 times (1,2) touch 9/14; J_A: N=2 times (4,3) touch 2/7")


def test_criterion_5_vector_identities_corpus(fig1, corpus):
    t0 = time.monotonic()
    n_components = 0
    for m in [fig1] + corpus:
        att = compute_attractor(m)
        for kcomp, comp in zip(att.kcomponents, att.components()):
            data = compute_return_map(kcomp, att)
            vecs = build_vectors(data)
            # raises InvariantError at the first identity that fails
            assert len(verify_identities(data, vecs)) == len(vecs)
            assert check_lin_dep_pattern(data, vecs).holds
            n_components += 1
    elapsed = time.monotonic() - t0
    assert len(corpus) >= 50
    assert elapsed < 60.0
    report(5, f"identities + pattern on {n_components} components "
              f"({len(corpus)} corpus maps), {elapsed:.1f}s, zero failures")


def test_criterion_6_probe_fig1(fig1):
    eps = F(1, 1000)
    t0 = time.monotonic()
    pr = perturbation_probe(fig1, eps, 200, seed=7)
    elapsed = time.monotonic() - t0
    accepted = [r for r in pr.samples if r.accepted]
    assert len(accepted) >= 1
    assert all(r.component_count == 2 for r in accepted)
    assert all(r.disc_inside == 1 for r in accepted)
    assert all(r.signature_match for r in accepted)
    assert pr.max_hausdorff <= 20 * eps
    assert elapsed < 30.0
    report(6, f"{len(accepted)}/200 accepted, all preserve structure, "
              f"max Hausdorff {pr.max_hausdorff} <= 20 eps, {elapsed:.1f}s")


def test_criterion_7_ghost_example(ghost_map):
    m = ghost_map
    # the landing equations force gamma_1 and gamma_3
    assert m.gamma[0] == m.beta[1] - m.beta[0]
    assert m.gamma[2] == m.beta[0] - m.beta[1]
    fa = full_analysis(m)
    assert not fa.stable
    assert not fa.a3.holds
    att = fa.attractor
    for p in (minus(m.beta[0]), plus(m.beta[0]), minus(m.beta[1]), plus(m.beta[1])):
        assert not att.X.contains_signed(p)
    wit = check_A3(fa.ghost_graph).witness
    eps = F(1, 4096)
    dp = a3_breaking_perturbation(fa, eps)
    perturbed = compute_attractor(apply_spec(m, dp.spec))
    assert canonicalize([dp.predicted_interval]).issubset(perturbed.X)
    b1 = m.beta[0]
    assert any(abs(l - b1) <= eps and abs(r - b1) <= eps
               for l, r in perturbed.components())
    jump = set_hausdorff(att.X, perturbed.X)
    d = att.X.distance_to_closure(b1)
    assert d > 0
    assert jump >= d / 2
    report(7, f"A3 violated (cycle {list(wit.cycle)}), directed eps=1/4096 "
              f"adds a component at beta_1, Hausdorff jump {jump} >= {d}/2")


def test_criterion_8_rotation(rotation35):
    att = compute_attractor(rotation35)
    assert att.X == interval(0, 1)
    assert att.stabilization_step == 0
    assert full_analysis(rotation35).stable
    for k in range(20):
        x = F(k, 20)
        p = plus(x)
        assert rotation35.translation_factor(p, 5) == 0
    report(8, "X = [0,1) at step 0, stable, Tr(x,5) = 0 on the sample grid")


def test_criterion_9_finite_type_termination():
    rng = random.Random(555)
    worst = 0
    for _ in range(200):
        m = random_map(rng, max_q=1024, rs=(2, 3, 4))
        assert m.Q <= 1024
        att = compute_attractor(m, max_iter=m.Q)
        assert att.stabilization_step is not None, "cap reached"
        assert att.stabilization_step <= m.Q
        worst = max(worst, att.stabilization_step)
    report(9, f"200 random maps with Q <= 1024 stabilize (max step {worst})")


def test_criterion_10_nonwandering_dichotomy(fig1):
    att = compute_attractor(fig1)
    q = fig1.Q
    inside = [z for z in grid_points(fig1) if att.X.contains_value(z)]
    assert inside
    for z in inside:
        assert nonwandering_witness(fig1, z, F(1, 100), q) is not None
    outside = [
        z for z in grid_points(fig1)
        if att.X.distance_to_closure(z) >= F(1, 50)
    ]
    assert outside
    for z in outside:
        assert nonwandering_witness(fig1, z, F(1, 200), q) is None
    report(10, f"{len(inside)} attractor grid points return within {q}; "
               f"{len(outside)} far points wander")


def test_criterion_11_return_map_oracle_corpus(corpus):
    mismatches = 0
    points = 0
    for m in corpus:
        att = compute_attractor(m)
        for kcomp, comp in zip(att.kcomponents, att.components()):
            data = compute_return_map(kcomp, att)
            cut_points, images = fraction_views(data)
            for z in grid_points(m):
                if not (comp[0] <= z < comp[1]):
                    continue
                t, img = naive_first_return(m, comp, z)
                j = max(k for k in range(1, data.n_intervals + 1)
                        if cut_points[k - 1] <= z)
                ok = (t == data.return_times[j - 1]
                      and img == images[j - 1][0] + (z - cut_points[j - 1]))
                mismatches += 0 if ok else 1
                points += 1
    assert points > 0
    assert mismatches == 0
    report(11, f"piecewise first-return agrees with naive iteration at "
               f"{points} grid points, zero mismatches")
