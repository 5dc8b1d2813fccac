"""Nested images, finite-type detection, non-wandering witness."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from itmlab import (
    NestingViolatedError,
    OffGridError,
    canonicalize,
    compute_attractor,
    image,
    interval,
    kernel,
    nonwandering_witness,
    orbit_closure,
    validate,
)
from itmlab.intervals import MINUS, PLUS
from conftest import grid_points, naive_attractor, naive_orbit

FIG1_X = canonicalize([(F(1, 6), F(13, 42)), (F(1, 2), F(17, 21))])


class TestImage:
    def test_full_interval(self, fig1):
        assert image(fig1, interval(0, 1)) == interval(F(1, 6), F(17, 21))

    def test_attractor_fixed(self, fig1):
        assert image(fig1, FIG1_X) == FIG1_X

    def test_single_branch_translate(self, fig1):
        s = interval(F(1, 12), F(1, 6))
        assert image(fig1, s) == interval(F(1, 12) + F(1, 3), F(1, 6) + F(1, 3))

    def test_grid_oracle(self, fig1):
        rng = random.Random(29)
        for _ in range(30):
            a = F(rng.randint(0, 83), 84)
            b = F(rng.randint(0, 83), 84)
            if a >= b:
                continue
            s = interval(a, b)
            img = image(fig1, s)
            for k in range(168):
                x = F(k, 168)
                expected = any(
                    s.contains_value(x - g)
                    and fig1.cuts()[i - 1] <= x - g < fig1.cuts()[i]
                    for i, g in enumerate(fig1.gamma, start=1)
                )
                assert img.contains_value(x) == expected


class TestComputeAttractor:
    def test_fig1(self, fig1):
        att = compute_attractor(fig1)
        assert att.X == FIG1_X
        assert att.stabilization_step == 3
        assert not att.infinite_type_suspected
        hist = att.X_history
        assert hist[0] == interval(0, 1)
        assert hist[1] == interval(F(1, 6), F(17, 21))
        assert hist[2] == canonicalize([(F(1, 6), F(13, 42)), (F(10, 21), F(17, 21))])
        assert hist[3] == FIG1_X

    def test_fig1_discontinuity_classification(self, fig1):
        att = compute_attractor(fig1)
        assert att.discontinuities_inside == ((2, 2),)
        assert att.discontinuities_outside == (1,)
        assert att.boundary_hits == ()

    def test_rotation(self, rotation35):
        att = compute_attractor(rotation35)
        assert att.X == interval(0, 1)
        assert att.stabilization_step == 0

    def test_identity_translations(self):
        m = validate(2, [F(1, 2)], [F(0), F(0)])
        att = compute_attractor(m)
        assert att.X == interval(0, 1)
        assert att.stabilization_step == 0
        # beta_1 sits strictly inside the single component
        assert att.discontinuities_inside == ((1, 1),)

    def test_boundary_hit_classification(self, trivial_component_map):
        att = compute_attractor(trivial_component_map)
        assert att.X == interval(F(1, 2), 1)
        assert att.boundary_hits == (1,)
        assert att.discontinuities_inside == ()
        assert att.discontinuities_outside == ()

    def test_lowered_cap_suspects_infinite_type(self, fig1):
        att = compute_attractor(fig1, max_iter=2)
        assert att.infinite_type_suspected
        assert att.stabilization_step is None

    def test_nesting_and_fixed_point(self, corpus):
        for m in corpus[:25]:
            att = compute_attractor(m)
            hist = att.X_history
            for a, b in zip(hist, hist[1:]):
                assert b.issubset(a)
            assert image(m, att.X) == att.X

    def test_stabilizes_within_q(self, corpus):
        for m in corpus:
            att = compute_attractor(m)
            assert att.stabilization_step is not None
            assert att.stabilization_step <= m.Q

    def test_grid_oracle_fig1(self, fig1):
        # X on the 1/(4Q) grid equals the naive image of the grid after 3Q steps
        att = compute_attractor(fig1)
        pushed = {naive_orbit(fig1, z, 3 * fig1.Q)[-1] for z in grid_points(fig1)}
        in_x = {z for z in grid_points(fig1) if att.X.contains_value(z)}
        assert pushed == in_x

    def test_cell_oracle(self, corpus, corpus_q1024):
        # X, its step and the discontinuity classification agree with plain
        # 1/Q cell iteration under naive_step
        for m in corpus + corpus_q1024:
            pairs, step = naive_attractor(m)
            att = compute_attractor(m)
            assert att.X.components() == tuple(pairs)
            assert att.stabilization_step == step
            ends = {x for pair in pairs for x in pair}
            inside = [(i, k) for i, b in enumerate(m.beta, start=1)
                      for k, (l, r) in enumerate(pairs, start=1) if l < b < r]
            assert att.boundary_hits == tuple(i for i, b in enumerate(m.beta, start=1) if b in ends)
            assert att.discontinuities_inside == tuple(inside)
            assert len(att.discontinuities_outside) == m.r - 1 - len(inside) - len(att.boundary_hits)

    def test_history_prefix(self, corpus_q1024):
        # the heavy Q = 748 map runs 507 steps; only the first 16 are kept
        att = compute_attractor(corpus_q1024[7])
        assert att.stabilization_step == 507
        assert len(att.X_history) == 16
        for a, b in zip(att.X_history, att.X_history[1:]):
            assert b == image(corpus_q1024[7], a)

    def test_non_nested_image_raises(self, fig1, monkeypatch):
        # an image that leaves X_n must stop the iteration, also under -O
        real = kernel.image
        calls = []

        def leaky(grid, pairs):
            calls.append(pairs)
            return real(grid, pairs) if len(calls) == 1 else [(0, grid.denom)]

        monkeypatch.setattr(kernel, "image", leaky)
        with pytest.raises(NestingViolatedError):
            compute_attractor(fig1)


class TestKernel:
    def test_nested_pairs_pass(self):
        outer = [(0, 4), (6, 10)]
        kernel.check_nested([], outer)
        kernel.check_nested([(0, 1), (2, 4), (6, 7), (9, 10)], outer)
        kernel.check_nested(outer, outer)

    @pytest.mark.parametrize("inner", [
        [(3, 7)],  # spans the gap between two components
        [(5, 6)],  # inside the gap
        [(9, 11)],  # runs past the last component
        [(0, 1), (4, 5)],  # second interval starts at a right end
        [(11, 12)],  # beyond everything
    ])
    def test_non_nested_pair_raises(self, inner):
        with pytest.raises(NestingViolatedError):
            kernel.check_nested(inner, [(0, 4), (6, 10)])
        assert issubclass(NestingViolatedError, AssertionError)

    def test_on_grid_is_exact(self):
        assert kernel.on_grid(F(3, 7), 42) == 18
        assert kernel.on_grid(F(-1, 2), 42) == -21
        with pytest.raises(OffGridError):
            kernel.on_grid(F(1, 5), 42)

    def test_grid_of_map(self, fig1):
        assert fig1.grid == kernel.Grid(42, (0, 14, 28, 42), (14, 6, -21))
        assert fig1.grid.refined(84).cuts == (0, 28, 56, 84)
        assert fig1.grid.refined(42) is fig1.grid
        with pytest.raises(OffGridError):
            fig1.grid.refined(50)

    def test_branch_rule_is_half_open(self, fig1):
        cuts = fig1.grid.cuts  # (0, 14, 28, 42)
        find_plus, find_minus = kernel.branch_rule(PLUS), kernel.branch_rule(MINUS)
        assert [find_plus(cuts, k) for k in (0, 13, 14, 27, 28, 41)] == [1, 1, 2, 2, 3, 3]
        assert [find_minus(cuts, k) for k in (1, 14, 15, 28, 29, 42)] == [1, 1, 2, 2, 3, 3]
        # on a single interval the same rule is signed membership
        assert [find_plus((14, 28), k) == 1 for k in (13, 14, 27, 28)] == [False, True, True, False]
        assert [find_minus((14, 28), k) == 1 for k in (14, 15, 28, 29)] == [False, True, True, False]

    def test_merge(self):
        assert kernel.merge([]) == []
        assert kernel.merge([(5, 6), (0, 2), (2, 3), (1, 2)]) == [(0, 3), (5, 6)]


class TestOrbitClosure:
    def test_fig1_components_cover_x(self, fig1):
        att = compute_attractor(fig1)
        ja, jb = att.components()
        oa = orbit_closure(fig1, interval(*ja))
        ob = orbit_closure(fig1, interval(*jb))
        assert oa.union(ob) == att.X


class TestNonwanderingWitness:
    def test_point_in_attractor_returns(self, fig1):
        assert nonwandering_witness(fig1, F(1, 4), F(1, 100), 42) is not None

    def test_gap_point_wanders(self, fig1):
        assert nonwandering_witness(fig1, F(2, 5), F(1, 200), 42) is None

    def test_rotation_periodic(self, rotation35):
        assert nonwandering_witness(rotation35, F(1, 10), F(1, 100), 5) == 5

    def test_bad_arguments(self, fig1):
        with pytest.raises(ValueError):
            nonwandering_witness(fig1, F(1, 4), F(0), 5)
        with pytest.raises(ValueError):
            nonwandering_witness(fig1, F(1, 4), F(1, 100), 0)
