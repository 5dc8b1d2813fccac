"""Coefficient vectors, product identities, exact nullspace pattern."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from itmlab import (
    build_vectors,
    check_lin_dep_pattern,
    compute_attractor,
    compute_return_map,
    product,
    verify_identities,
)
from itmlab.vectors import CoefficientVector, nullspace

from conftest import naive_branch_counts, naive_signed_chain

JB = (F(1, 2), F(17, 21))
JA = (F(1, 6), F(13, 42))


def by_tag(vecs):
    return {v.tag: v for v in vecs}


class TestFig1Vectors:
    def test_component_b_contents(self, fig1):
        data = compute_return_map(fig1, JB)
        vecs = by_tag(build_vectors(fig1, data))
        l1 = vecs[("L", 1)]
        assert l1.e == (0, 0, 0) and l1.f == (0, -1)
        rp1 = vecs[("R", "+", 1)]
        assert rp1.e == (1, 0, 1) and rp1.f == (0, 1)
        rm1 = vecs[("R", "-", 1)]
        assert rm1.e == (0, 1, 0) and rm1.f == (0, 1)
        # boundary points have empty chains: f-free return vectors only
        assert vecs[("R", "+", 0)].f == (0, 0)
        assert vecs[("R", "-", 2)].f == (0, 0)
        assert ("L", 0) not in vecs and ("L", 2) not in vecs

    def test_component_b_products(self, fig1):
        data = compute_return_map(fig1, JB)
        vecs = by_tag(build_vectors(fig1, data))
        # <L_1, (gamma beta)> = -a_1
        assert product(vecs[("L", 1)], fig1) == -F(2, 3)
        # <R_1^+, (gamma beta)> = R_J(a_1+) = gamma_1 + gamma_3 + beta_2
        assert product(vecs[("R", "+", 1)], fig1) == F(1, 2)
        assert product(vecs[("R", "-", 1)], fig1) == F(17, 21)

    def test_zero_vector(self, fig1):
        zero = CoefficientVector((0, 0, 0), (0, 0), ("L", 99))
        assert product(zero, fig1) == 0

    def test_component_a_landing_counts(self, fig1):
        # a_1 = 4/21 rides branches 1 then 2 before landing on beta_2
        data = compute_return_map(fig1, JA)
        vecs = by_tag(build_vectors(fig1, data))
        assert vecs[("L", 1)].e == (1, 1, 0)
        assert vecs[("L", 1)].f == (0, -1)
        assert product(vecs[("L", 1)], fig1) == -F(4, 21)

    def test_identities(self, fig1):
        for J in (JA, JB):
            data = compute_return_map(fig1, J)
            checks = verify_identities(fig1, data)
            assert checks and all(c.ok for c in checks)

    def test_pattern_holds(self, fig1):
        for J in (JA, JB):
            data = compute_return_map(fig1, J)
            res = check_lin_dep_pattern(fig1, data)
            assert res.holds and res.witness is None


class TestChainTimePartition:
    def test_counts_match_naive_orbits(self, fig1, corpus, corpus_q1024):
        # every vector's e is the branch count of its leg, with the legs cut
        # at the hits of naive_signed_chain and counted along naive_orbit
        checked = 0
        for m in [fig1] + corpus + corpus_q1024:
            att = compute_attractor(m)
            for J in att.components():
                data = compute_return_map(m, J, att)
                expected = {}
                for c in data.chains:
                    a = data.cut_points[c.j]
                    hits, entry, _ = naive_signed_chain(m, J, a, c.side, c.entry_time)
                    if not hits:
                        expected[("R", c.side, c.j)] = naive_branch_counts(m, a, c.side, entry)
                        continue
                    expected[("L", c.j)] = naive_branch_counts(m, a, c.side, hits[0][1])
                    for k in range(1, len(hits)):
                        (d0, t0), (_, t1) = hits[k - 1], hits[k]
                        expected[("C", c.side, c.j, k)] = naive_branch_counts(
                            m, m.beta[d0 - 1], c.side, t1 - t0)
                    d, t = hits[-1]
                    expected[("R", c.side, c.j)] = naive_branch_counts(
                        m, m.beta[d - 1], c.side, entry - t)
                vecs = build_vectors(m, data)
                assert {v.tag: v.e for v in vecs} == expected
                assert len(vecs) == len(expected)
                checked += len(vecs)
        assert checked > 1000

    def test_entry_counts_partition_time(self, fig1, corpus):
        # along each signed chain: l_j + connection legs + return leg = entry
        for m in [fig1] + corpus[:20]:
            att = compute_attractor(m)
            for comp in att.components():
                data = compute_return_map(m, comp, att)
                vecs = by_tag(build_vectors(m, data))
                for c in data.chains:
                    if not c.hits:
                        rv = vecs[("R", c.side, c.j)]
                        assert sum(rv.e) == c.entry_time
                        continue
                    total = c.hits[0].time
                    if (("L", c.j)) in vecs:
                        assert sum(vecs[("L", c.j)].e) == c.hits[0].time
                    for k in range(1, len(c.hits)):
                        cv = vecs[("C", c.side, c.j, k)]
                        assert sum(cv.e) == c.hits[k].time - c.hits[k - 1].time
                        total += sum(cv.e)
                    rv = vecs[("R", c.side, c.j)]
                    assert sum(rv.e) == c.entry_time - c.hits[-1].time
                    assert total + sum(rv.e) == c.entry_time


class TestNullspace:
    def test_simple_kernel(self):
        # columns (1,0),(0,1),(1,1): kernel spanned by (1,1,-1)
        basis = nullspace([[1, 0], [0, 1], [1, 1]], 2)
        assert len(basis) == 1
        a = basis[0]
        assert a[0] == a[1] == -a[2]

    def test_full_rank(self):
        assert nullspace([[1, 0], [0, 1]], 2) == []

    def test_against_rational_elimination(self):
        rng = random.Random(51)
        for _ in range(200):
            dim = rng.randint(2, 5)
            ncols = rng.randint(1, 6)
            cols = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(ncols)]
            basis = nullspace([list(c) for c in cols], dim)
            # every basis vector is in the kernel
            for alpha in basis:
                for row in range(dim):
                    assert sum(F(cols[c][row]) * alpha[c] for c in range(ncols)) == 0
            # dimension matches rank-nullity computed by plain Fraction rref
            rank = _rank([list(map(F, c)) for c in cols], dim)
            assert len(basis) == ncols - rank

    def test_dimension_invariant_under_permutation(self, fig1):
        data = compute_return_map(fig1, JB)
        vecs = list(build_vectors(fig1, data))
        dim = 2 * fig1.r - 1
        base = len(nullspace([list(v.entries()) for v in vecs], dim))
        rng = random.Random(53)
        for _ in range(5):
            rng.shuffle(vecs)
            assert len(nullspace([list(v.entries()) for v in vecs], dim)) == base


def _rank(cols, dim):
    rows = [[cols[c][r] for c in range(len(cols))] for r in range(dim)]
    rank = 0
    for col in range(len(cols)):
        piv = next((r for r in range(rank, dim) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(dim):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestCorpusProperties:
    def test_identities_and_pattern(self, corpus):
        seen_connection_vectors = 0
        seen_boundary_landings = 0
        for m in corpus:
            att = compute_attractor(m)
            for comp in att.components():
                data = compute_return_map(m, comp, att)
                vecs = build_vectors(m, data)
                checks = verify_identities(m, data, vecs)
                assert all(c.ok for c in checks)
                assert check_lin_dep_pattern(m, data, vecs).holds
                tags = [v.tag for v in vecs]
                seen_connection_vectors += sum(1 for t in tags if t[0] == "C")
                seen_boundary_landings += sum(
                    1 for t in tags if t in (("L", 0), ("L", data.n_intervals))
                )
        # the corpus must actually exercise the multi-hit and boundary-variant
        # blocks of the dependence pattern, not just the simple rotation case
        assert seen_connection_vectors >= 10
        assert seen_boundary_landings >= 10
