"""Nested images, finite-type detection, non-wandering witness."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction as F

import pytest

from itmlab import (
    InvariantError,
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
from itmlab import attractor
from itmlab.intervals import MINUS, PLUS
from conftest import grid_points, naive_attractor, naive_orbit, random_map, reference_attractor

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
        x1 = image(fig1, interval(0, 1))
        x2 = image(fig1, x1)
        assert x1 == interval(F(1, 6), F(17, 21))
        assert x2 == canonicalize([(F(1, 6), F(13, 42)), (F(10, 21), F(17, 21))])
        assert image(fig1, x2) == FIG1_X

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
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            compute_attractor(fig1, max_iter=0)

    def test_nesting_and_fixed_point(self, corpus):
        for m in corpus[:25]:
            att = compute_attractor(m)
            # X_0 .. X_n from the public image, nested down to X at the
            # stabilization step
            cur = interval(0, 1)
            for _ in range(att.stabilization_step):
                nxt = image(m, cur)
                assert nxt.issubset(cur)
                cur = nxt
            assert cur == att.X
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

    def test_non_nested_image_raises(self, fig1, monkeypatch):
        # removing grid cells that are not in X_n (here all of [0, 1) after
        # the first push) drives a count below 0, which must stop the
        # iteration, also under -O
        real = kernel.push
        calls = []

        def leaky(grid, pairs):
            calls.append(pairs)
            return real(grid, pairs) if len(calls) == 1 else [(0, grid.denom)]

        monkeypatch.setattr(kernel, "push", leaky)
        with pytest.raises(InvariantError, match="below 0"):
            compute_attractor(fig1)

    @pytest.mark.parametrize("name", ["rotation35", "fig1", "trivial_component_map"])
    def test_double_preimages_at_stabilization_raise(self, name, request, monkeypatch):
        # every piece of T([0, 1)) counted twice: the count settles with two
        # preimages on X, which a bijection of X's cells cannot have
        m = request.getfixturevalue(name)
        real = kernel.push
        calls = []

        def doubled(grid, pairs):
            calls.append(pairs)
            pieces = real(grid, pairs)
            return pieces * 2 if len(calls) == 1 else pieces

        monkeypatch.setattr(kernel, "push", doubled)
        with pytest.raises(InvariantError, match="preimages in X"):
            compute_attractor(m)
        assert issubclass(InvariantError, AssertionError)

    def test_no_full_image_per_step(self, corpus_q1024, monkeypatch):
        # the count iteration never re-images X_n
        def forbidden(grid, pairs):
            raise AssertionError("compute_attractor called kernel.image")

        monkeypatch.setattr(kernel, "image", forbidden)
        for m in corpus_q1024:
            compute_attractor(m)

    def test_reference_loop_with_caps(self, corpus, corpus_q1024):
        # X, the step and the classification agree with the plain iterated
        # image, stabilized and capped just before, at and after the step
        runs = 0
        for m in corpus[:20] + corpus_q1024:
            step = reference_attractor(m)[1]
            for cap in sorted({1, 2, step - 1, step, step + 1}):
                if cap < 1:
                    continue
                att = compute_attractor(m, max_iter=cap)
                assert (
                    att.kcomponents,
                    att.stabilization_step,
                    att.discontinuities_inside,
                    att.discontinuities_outside,
                    att.boundary_hits,
                ) == reference_attractor(m, cap)
                assert att.infinite_type_suspected == (att.stabilization_step is None)
                runs += 1
        assert runs > 100


# (stabilization step, sha256 of repr(kcomponents)) per map, recorded with
# the iterated full image X_{n+1} = T(X_n)
SCALE_TIERS = {
    # Q <= 8192, r in {2, 3, 4}, seed 3
    (3, 8192, (2, 3, 4)): [
        (2, "60b4d66bc6077c853cc6c9cda4d01f5bc38ccc24667dea161b83a908d5342211"),
        (3, "bce64d7267e064dc9a3f70a902742d0e62bc2fb18e35b4cf8800b1ebd4eda6c6"),
        (78, "427e3e3d54b155def06dcd3af7ba4fa08ab409c830972d9ad91669c19ade5a78"),
        (178, "c507b91a793945c78e44636e148783efdbdf1dbd21bb9cf8644db198985ac612"),
        (58, "ffe2eb9b4d1e3ef509fe71aae25f468ac67164f4c430eca2ff1e513db1aca12e"),
        (2, "1ed762cc7600c719ae64e4991a50baebc9b9e209944f76723ecb65b42b6075b2"),
        (32, "9e5897183f28d966bf094eb48ea77f94d59c54aaf6a80f9ca45ee85f6fbb07b2"),
        (6, "dbf7ee0255a4e3bbe279d2d0c4e1451561b227c95a35223b80a4b746b9db6b2d"),
        (5, "bd2f9546724661a954cf762db6ae873e540195243ec4398f4fe3b536b2eb2a10"),
        (769, "072f8b14b7560909ed974d16d00d035e8f08e102ff17bc39b8ad35fde6a87317"),
        (92, "47c243a13f46fbd790f2370342651a830ccb73e9fb583de4777c3f19a6139172"),
        (284, "70361121e956c89af7b36d28df59aaf2f4e1f885b85731207ffc0b4a7b018120"),
        (3, "0b01b36895607e2ce1c1fadb16f2185daa92b2eb6dcc21eaf983c607b0ec51a9"),
        (2, "fd3551e0c7bf1f6af3e1a4dc954e38ba25ac30f3b02326c9e192382b1d1c992a"),
        (309, "037b05d07e16451e5d13f77bbfa7236dba9d6866dd828ce41cd1d0f5ec40174b"),
        (5, "02bfb4ae7f079bcc12da7ea35b4e62d54c166cb72cfe0f5d78a570c89ba026fa"),
        (3, "9f0b34264c0a78c347f1326ab00b71bcf7cd79561a78899bb2f083aeb3e7bac9"),
        (1, "dcf9d9c032f61aab2d3312a483aa9beb006d24e87a7bdfb89b690f08c0f240d5"),
        (1, "f5c4a1fa007e5272417ef7ba35afc303078898c886127628dd023a85e6b388f8"),
        (14, "b9bb3b21d8f85b3f6e7edf6fc17b0fb499326578441f417923e9765fd552871f"),
    ],
    # Q <= 65536, r in {3, 4}, seed 4; map 6 has Q = 43340 and 1,719 components
    (4, 65536, (3, 4)): [
        (4, "9c16ec7edfa5ff2aa79bc2813b6c885329a0d3062b9accb1a4cc51693d762c22"),
        (19, "9766f4f935ec82307e0ead6e3d20bb4b054ae6f928d445c82b56ad793394455e"),
        (483, "4bd457b13d531a04f64fa6de557982968ba22e3ecf49b908a5e2f534c3c1a1f4"),
        (4, "6bf895d8b00accee2a9fb53ddc2d7f8a843d9a2610c9a0110f09b6adbd8db93e"),
        (3, "135fee2d7e4871192caab06dc5a79a6fe87a8ea05a5ed461dd8e2411b15cb728"),
        (6, "70a2fbe70a17ffba18b8dfd7375e7fe7ae427454fd288ad1d139369bfe0ee4a8"),
        (4682, "16ef6c8e630ef90f9fd0bbeac78900a14b0af5bb95d003c9747d6553096ce507"),
        (8, "be68380ecb32349dec36717640ee76cb1ac4378cbbdb6acd70ac554c4141435b"),
        (1, "aad28fe85817cbc12b7fc7712b68f99a2a9cf898202222f38568648bb5a23099"),
        (186, "bd2cd7d8bb0504a1f6c3ddaaf024871a8edce472b6f81c80c2abecb5567487ab"),
    ],
}


class TestScale:
    @pytest.mark.parametrize("seed,max_q,rs", list(SCALE_TIERS))
    def test_pinned_tier(self, seed, max_q, rs):
        rng = random.Random(seed)
        got = []
        for _ in SCALE_TIERS[seed, max_q, rs]:
            att = compute_attractor(random_map(rng, max_q, rs, max_q // 2))
            digest = hashlib.sha256(repr(att.kcomponents).encode()).hexdigest()
            got.append((att.stabilization_step, digest))
        assert got == SCALE_TIERS[seed, max_q, rs]


class TestKernel:
    def test_nested_pairs_pass(self):
        # removing a union nested in the counted one leaves no count below
        # 0, reports the removed cells as the new zeros, and leaves exactly
        # the count of what is left
        for inner, rest in [
            ([], [(0, 4), (6, 10)]),
            ([(0, 1), (2, 4), (6, 7), (9, 10)], [(1, 2), (7, 9)]),
            ([(0, 4), (6, 10)], []),
        ]:
            xs, cs, zeros = attractor._count(12, [(0, 4), (6, 10)])
            assert (xs, cs, zeros) == ([0, 4, 6, 10, 12], [1, 0, 1, 0, -1], [(4, 6), (10, 12)])
            assert attractor._remove(xs, cs, list(inner)) == inner
            assert (xs, cs) == attractor._count(12, rest)[:2]

    @pytest.mark.parametrize("inner", [
        [(3, 7)],  # spans the gap between two components
        [(5, 6)],  # inside the gap
        [(9, 11)],  # runs past the last component
        [(0, 1), (4, 5)],  # second interval starts at a right end
        [(11, 12)],  # beyond everything
    ])
    def test_non_nested_pair_raises(self, inner):
        # a removed piece outside the counted union drives a count below 0
        xs, cs, _ = attractor._count(12, [(0, 4), (6, 10)])
        with pytest.raises(InvariantError, match="below 0"):
            attractor._remove(xs, cs, list(inner))

    def test_count_sums_overlaps(self):
        # overlapping pieces add up; 0 stays a breakpoint
        xs, cs, zeros = attractor._count(10, [(2, 6), (4, 8), (4, 6)])
        assert (xs, cs, zeros) == ([0, 2, 4, 6, 8, 10], [0, 1, 3, 1, 0, -1], [(0, 2), (8, 10)])

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

    @pytest.mark.parametrize("q", [2, 3, 7, 50])
    def test_rotation_needs_q_passes(self, q):
        # the rotation by 1/Q carries [0, 1/(5Q)) through all Q cells, one
        # more component per pass, so the union is complete only at pass Q - 1
        m = validate(2, [F(q - 1, q)], [F(1, q), F(1 - q, q)])
        closure = orbit_closure(m, interval(F(0), F(1, 5 * q)))
        assert closure.components() == tuple((F(n, q), F(5 * n + 1, 5 * q)) for n in range(q))


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
        # (1, 2) clipped to [0, 1) is empty
        with pytest.raises(ValueError, match="does not meet"):
            nonwandering_witness(fig1, F(3, 2), F(1, 2), 5)
