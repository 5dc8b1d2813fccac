"""First-return structures: cut points, times, chains, permutations."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from itmlab import (
    NotAComponentError,
    NotFiniteTypeError,
    classify_return_dynamics,
    compute_attractor,
    compute_return_map,
    verify_touching_equations,
)
from itmlab.return_map import IDENTITY, MANY_BRANCHES, ROTATION_LIKE
from conftest import grid_points, naive_first_return, naive_signed_chain

JB = (F(1, 2), F(17, 21))
JA = (F(1, 6), F(13, 42))


class TestFig1Structure:
    def test_component_b(self, fig1):
        data = compute_return_map(fig1, JB)
        assert data.cut_points == (F(1, 2), F(2, 3), F(17, 21))
        assert data.return_times == (1, 2)
        assert data.sigma == (2, 1)
        assert data.tau == (2, 1)
        assert data.images == ((F(9, 14), F(17, 21)), (F(1, 2), F(9, 14)))
        assert not data.dynamically_trivial
        rec = data.landing(1)
        assert rec.time == 0 and rec.disc == 2

    def test_component_b_chains(self, fig1):
        data = compute_return_map(fig1, JB)
        cp = data.chain(1, "+")
        assert [(h.disc, h.time) for h in cp.hits] == [(2, 0)]
        assert cp.entry_time == 2
        cm = data.chain(1, "-")
        assert [(h.disc, h.time) for h in cm.hits] == [(2, 0)]
        assert cm.entry_time == 1
        assert data.chain(0, "+").hits == ()
        assert data.chain(2, "-").hits == ()

    def test_component_a(self, fig1):
        data = compute_return_map(fig1, JA)
        assert data.cut_points == (F(1, 6), F(4, 21), F(13, 42))
        assert data.return_times == (4, 3)
        assert data.sigma == (2, 1)
        assert data.images == ((F(2, 7), F(13, 42)), (F(1, 6), F(2, 7)))
        rec = data.landing(1)
        assert rec.time == 2 and rec.disc == 2

    def test_touching_values(self, fig1):
        assert verify_touching_equations(fig1, compute_return_map(fig1, JB)) == (F(9, 14),)
        assert verify_touching_equations(fig1, compute_return_map(fig1, JA)) == (F(2, 7),)

    def test_landing_before_return(self, fig1):
        # l_j < r_j and l_j < r_{j+1} for every interior cut point
        for J in (JA, JB):
            data = compute_return_map(fig1, J)
            for rec in data.landings:
                assert rec.time < data.return_times[rec.j - 1]
                assert rec.time < data.return_times[rec.j]


class TestRotation:
    def test_full_circle(self, rotation35):
        data = compute_return_map(rotation35, (F(0), F(1)))
        assert data.cut_points == (F(0), F(2, 5), F(1))
        assert data.return_times == (1, 1)
        assert data.sigma == (2, 1)
        assert data.landing(1).time == 0
        assert classify_return_dynamics(data) == ROTATION_LIKE


class TestTrivialComponent:
    def test_identity_component(self, trivial_component_map):
        data = compute_return_map(trivial_component_map, (F(1, 2), F(1)))
        assert data.n_intervals == 1
        assert data.dynamically_trivial
        assert data.return_times == (1,)
        assert verify_touching_equations(trivial_component_map, data) == ()
        assert classify_return_dynamics(data) == IDENTITY
        # the left boundary is the discontinuity itself: a time-0 chain hit
        assert [(h.disc, h.time) for h in data.chain(0, "+").hits] == [(1, 0)]


class TestManyBranches:
    def test_iet3(self, iet3):
        data = compute_return_map(iet3, (F(0), F(1)))
        assert data.n_intervals == 3
        assert data.sigma == (3, 2, 1)
        assert classify_return_dynamics(data) == MANY_BRANCHES
        assert verify_touching_equations(iet3, data) == (F(1, 3), F(2, 3))


class TestErrors:
    def test_not_a_component(self, fig1):
        with pytest.raises(NotAComponentError):
            compute_return_map(fig1, (F(1, 2), F(3, 4)))

    def test_not_finite_type(self, fig1):
        att = compute_attractor(fig1, max_iter=2)
        with pytest.raises(NotFiniteTypeError):
            compute_return_map(fig1, JB, att)


class TestInvariants:
    def test_tiling(self, fig1, corpus):
        for m in [fig1] + corpus[:20]:
            att = compute_attractor(m)
            for comp in att.components():
                data = compute_return_map(m, comp, att)
                total = sum((r - l for l, r in data.images), F(0))
                assert total == comp[1] - comp[0]
                spans = sorted(data.images)
                for (l1, r1), (l2, r2) in zip(spans, spans[1:]):
                    assert r1 <= l2
                assert spans[0][0] == comp[0] and spans[-1][1] == comp[1]

    def test_chain_entry_matches_return_times(self, fig1, corpus):
        for m in [fig1] + corpus[:20]:
            att = compute_attractor(m)
            for comp in att.components():
                data = compute_return_map(m, comp, att)
                for c in data.chains:
                    expected = data.return_times[c.j] if c.side == "+" \
                        else data.return_times[c.j - 1]
                    assert c.entry_time == expected

    def test_shared_first_discontinuity(self, fig1, corpus):
        # both signed views of an interior cut point first hit the same disc
        for m in [fig1] + corpus[:20]:
            att = compute_attractor(m)
            for comp in att.components():
                data = compute_return_map(m, comp, att)
                for rec in data.landings:
                    for side in ("+", "-"):
                        first = data.chain(rec.j, side).hits[0]
                        assert (first.disc, first.time) == (rec.disc, rec.time)

    def test_signed_chains_match_naive_orbits(self, fig1, corpus, corpus_q1024):
        checked = 0
        for m in [fig1] + corpus + corpus_q1024:
            att = compute_attractor(m)
            for J in att.components():
                data = compute_return_map(m, J, att)
                for c in data.chains:
                    hits, entry, value = naive_signed_chain(
                        m, J, data.cut_points[c.j], c.side, c.entry_time)
                    assert [(h.disc, h.time) for h in c.hits] == hits
                    assert (c.entry_time, c.entry_value) == (entry, value)
                    checked += 1
        assert checked > 600  # 674 chains across the three map sets

    def test_pointwise_oracle_fig1(self, fig1):
        att = compute_attractor(fig1)
        for comp in att.components():
            data = compute_return_map(fig1, comp, att)
            for z in grid_points(fig1):
                if not (comp[0] <= z < comp[1]):
                    continue
                t, img = naive_first_return(fig1, comp, z)
                j = max(k for k in range(1, data.n_intervals + 1)
                        if data.cut_points[k - 1] <= z)
                assert t == data.return_times[j - 1]
                assert img == data.images[j - 1][0] + (z - data.cut_points[j - 1])

    def test_touching_all_corpus(self, corpus):
        for m in corpus[:25]:
            att = compute_attractor(m)
            for comp in att.components():
                data = compute_return_map(m, comp, att)
                values = verify_touching_equations(m, data)
                assert len(values) == data.n_intervals - 1
