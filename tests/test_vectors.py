"""Coefficient vectors, product identities, exact dependence pattern."""

from __future__ import annotations

import random
import re
from fractions import Fraction as F

import pytest

from itmlab import (
    InvariantError,
    build_vectors,
    check_lin_dep_pattern,
    compute_attractor,
    compute_return_map,
    verify_identities,
)
from itmlab import return_map
from itmlab.return_map import ChainHit, SignedChain
from itmlab.vectors import CoefficientVector, rank

from conftest import (
    fraction_views,
    naive_branch_counts,
    naive_nullspace,
    naive_pattern,
    naive_signed_chain,
)

# fig1's components as numerators over its grid 1/42
JB = (21, 34)  # [1/2, 17/21)
JA = (7, 13)  # [1/6, 13/42)


def by_tag(vecs):
    return {v.tag: v for v in vecs}


def products(data):
    """Each vector's product with (gamma beta), by tag, as the identity
    checks computed it."""
    vecs = build_vectors(data)
    return {v.tag: F(k, data.grid.denom) for v, k in zip(vecs, verify_identities(data, vecs))}


class TestFig1Vectors:
    def test_component_b_contents(self, fig1):
        data = compute_return_map(JB, compute_attractor(fig1))
        vecs = by_tag(build_vectors(data))
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
        values = products(compute_return_map(JB, compute_attractor(fig1)))
        # <L_1, (gamma beta)> = -a_1
        assert values[("L", 1)] == -F(2, 3)
        # <R_1^+, (gamma beta)> = R_J(a_1+) = gamma_1 + gamma_3 + beta_2
        assert values[("R", "+", 1)] == F(1, 2)
        assert values[("R", "-", 1)] == F(17, 21)

    def test_zero_vector(self, fig1):
        # a connection vector's identity is a zero product
        zero = CoefficientVector((0, 0, 0), (0, 0), ("C", "+", 1, 1))
        data = compute_return_map(JB, compute_attractor(fig1))
        assert verify_identities(data, (zero,)) == (0,)

    def test_component_a_landing_counts(self, fig1):
        # a_1 = 4/21 rides branches 1 then 2 before landing on beta_2
        data = compute_return_map(JA, compute_attractor(fig1))
        vecs = by_tag(build_vectors(data))
        assert vecs[("L", 1)].e == (1, 1, 0)
        assert vecs[("L", 1)].f == (0, -1)
        assert products(data)[("L", 1)] == -F(4, 21)

    def test_identities(self, fig1):
        for J in (JA, JB):
            data = compute_return_map(J, compute_attractor(fig1))
            vecs = build_vectors(data)
            products = verify_identities(data, vecs)
            assert products and len(products) == len(vecs)
            assert all(type(k) is int for k in products)

    def test_pattern_holds(self, fig1):
        for J in (JA, JB):
            data = compute_return_map(J, compute_attractor(fig1))
            res = check_lin_dep_pattern(data, build_vectors(data))
            assert res.holds and res.nullity == res.pattern_nullity


class TestChainTimePartition:
    def test_counts_match_naive_orbits(self, fig1, corpus, corpus_q1024):
        # every vector's e is the branch count of its leg, with the legs cut
        # at the hits of naive_signed_chain and counted along naive_orbit
        checked = 0
        for m in [fig1] + corpus + corpus_q1024:
            att = compute_attractor(m)
            for kJ, J in zip(att.kcomponents, att.components()):
                data = compute_return_map(kJ, att)
                cut_points = fraction_views(data)[0]
                expected = {}
                for c in data.chains:
                    a = cut_points[c.j]
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
                vecs = build_vectors(data)
                assert {v.tag: v.e for v in vecs} == expected
                assert len(vecs) == len(expected)
                checked += len(vecs)
        assert checked > 1000

    def test_entry_counts_partition_time(self, fig1, corpus):
        # along each signed chain: l_j + connection legs + return leg = entry
        for m in [fig1] + corpus[:20]:
            att = compute_attractor(m)
            for kcomp, comp in zip(att.kcomponents, att.components()):
                data = compute_return_map(kcomp, att)
                vecs = by_tag(build_vectors(data))
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


def _minus_landing_skewed(real):
    # the minus chain of every interior cut records its first-hit branch
    # counts in reverse order, so the two sides disagree on L_j
    def skewed(grid, J, j, side, start, cap):
        c = real(grid, J, j, side, start, cap)
        if side == "+" or not c.hits:
            return c
        first = c.hits[0]
        hits = (ChainHit(first.disc, first.time, first.counts[::-1]),) + c.hits[1:]
        return SignedChain(c.j, c.side, hits, c.entry_time, c.kentry, c.entry_counts)
    return skewed


class TestVectorInvariant:
    """build_vectors raises a typed error, also under ``python -O``."""

    def test_sides_disagree_on_landing(self, fig1, monkeypatch):
        att = compute_attractor(fig1)
        skewed = _minus_landing_skewed(return_map._signed_chain)
        monkeypatch.setattr(return_map, "_signed_chain", skewed)
        data = compute_return_map(JA, att)
        assert data.chain(1, "+").hits[0].counts == (1, 1, 0)
        assert data.chain(1, "-").hits[0].counts == (0, 1, 1)
        with pytest.raises(InvariantError, match="cut 1"):
            build_vectors(data)

    def test_is_an_assertion_error(self):
        assert issubclass(InvariantError, AssertionError)


class TestRank:
    def test_simple_kernel(self):
        # columns (1,0),(0,1),(1,1): kernel spanned by (1,1,-1)
        assert rank([[1, 0], [0, 1], [1, 1]], 2) == 2
        assert rank([[2, -4], [-1, 2], [3, -6]], 2) == 1

    def test_full_rank(self):
        assert rank([[1, 0], [0, 1]], 2) == 2
        assert rank([], 3) == 0

    def test_against_rational_elimination(self):
        rng = random.Random(51)
        for _ in range(200):
            dim = rng.randint(2, 5)
            ncols = rng.randint(1, 6)
            cols = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(ncols)]
            assert rank(cols, dim) == ncols - len(naive_nullspace(cols, dim))

    def test_dimension_invariant_under_permutation(self, fig1):
        data = compute_return_map(JB, compute_attractor(fig1))
        vecs = list(build_vectors(data))
        dim = 2 * fig1.r - 1
        base = rank([v.e + v.f for v in vecs], dim)
        rng = random.Random(53)
        for _ in range(5):
            rng.shuffle(vecs)
            assert rank([v.e + v.f for v in vecs], dim) == base


class TestPatternOracle:
    def test_agrees_with_naive_pattern_on_mutations(self, fig1, corpus, corpus_q1024):
        # each case, and each copy with one vector's e[0] raised by 1 under
        # the same tag, against the block-by-block check of a Fraction basis
        cases = violations = 0
        for m in [fig1] + corpus[:20] + corpus_q1024:
            att = compute_attractor(m)
            dim = 2 * m.r - 1
            for kcomp in att.kcomponents:
                data = compute_return_map(kcomp, att)
                vecs = build_vectors(data)
                variants = [vecs] + [
                    vecs[:i] + (CoefficientVector((v.e[0] + 1,) + v.e[1:], v.f, v.tag),)
                    + vecs[i + 1:]
                    for i, v in enumerate(vecs)
                ]
                for variant in variants:
                    res = check_lin_dep_pattern(data, variant)
                    assert (res.holds, res.nullity) == naive_pattern(
                        variant, data.n_intervals, dim)
                    # P is injective, so the pattern's nullspace embeds in that of A
                    assert res.pattern_nullity <= res.nullity
                    cases += 1
                    violations += not res.holds
        assert violations >= 100 and cases > violations


class TestPatternElimination:
    """``check_lin_dep_pattern`` reduces the columns of A P, then the columns
    of A Q on the same pivot rows, and stops at rank ``2r - 1``."""

    def _spy(self, monkeypatch):
        from itmlab import vectors

        calls = []
        real = vectors._eliminate

        def spy(pivots, rows, dim):
            before = len(pivots)
            real(pivots, rows, dim)
            calls.append((before, len(rows), len(pivots)))

        monkeypatch.setattr(vectors, "_eliminate", spy)
        return calls

    def test_early_stop_once_pattern_columns_reach_dim(self, rotation35, monkeypatch):
        # r = 2, so dim = 3; N = 2 with both boundary landings. A P has the
        # columns L_0, L_2, c_0 = R+_0 - R-_1 - L_1 and c_1 = L_1 + R+_1 - R-_2,
        # of rank 3, so the columns of A Q (L_1, R-_1, R-_2) are never reduced
        data = compute_return_map((0, 5), compute_attractor(rotation35))
        assert data.n_intervals == 2
        vecs = (
            CoefficientVector((1, 0), (0,), ("L", 0)),
            CoefficientVector((0, 0), (1,), ("R", "+", 0)),
            CoefficientVector((2, 1), (-1,), ("L", 1)),
            CoefficientVector((1, 1), (0,), ("R", "+", 1)),
            CoefficientVector((0, 3), (1,), ("R", "-", 1)),
            CoefficientVector((0, 1), (0,), ("L", 2)),
            CoefficientVector((1, 2), (1,), ("R", "-", 2)),
        )
        calls = self._spy(monkeypatch)
        res = check_lin_dep_pattern(data, vecs)
        assert calls == [(0, 4, 3), (3, 3, 3)]
        # every column of A Q adds to the nullity of A, none to that of A P
        assert (res.holds, res.nullity) == (False, 4) == naive_pattern(vecs, 2, 3)
        assert res.pattern_nullity == 1

    def test_one_pass_over_every_vector(self, fig1, monkeypatch):
        # fig1's component B: the columns of A P (c_0, c_1), then the four
        # vectors that are no R+_j (L_1, R-_1, R-_2); rank 4 < dim 5
        data = compute_return_map(JB, compute_attractor(fig1))
        vecs = build_vectors(data)
        calls = self._spy(monkeypatch)
        res = check_lin_dep_pattern(data, vecs)
        assert [v.tag for v in vecs] == [
            ("R", "+", 0), ("L", 1), ("R", "+", 1), ("R", "-", 1), ("R", "-", 2)]
        assert calls[0][:2] == (0, 2) and calls[1][1] == 3
        assert calls[1][2] == rank([v.e + v.f for v in vecs], 5)
        assert (res.holds, res.nullity) == naive_pattern(vecs, 2, 5)


class TestRecords:
    def test_named_fields_in_order_and_read_only(self, fig1):
        data = compute_return_map(JB, compute_attractor(fig1))
        vecs = build_vectors(data)
        pattern = check_lin_dep_pattern(data, vecs)
        for record, names in [
            (vecs[1], ("e", "f", "tag")),
            (pattern, ("nullity", "pattern_nullity")),
        ]:
            assert type(record)._fields == names
            assert tuple(record) == tuple(getattr(record, name) for name in names)
            for name in (*names, "other"):
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
        assert vecs[1].e + vecs[1].f == (0, 0, 0, 0, -1)
        # each product is a numerator over the grid: <L_1, (gamma beta)> = -2/3
        products = verify_identities(data, vecs)
        assert products[1] == -28 and data.grid.denom == 42
        # the pattern holds exactly when the two nullities agree
        assert pattern.holds and pattern.nullity == pattern.pattern_nullity
        with pytest.raises(AttributeError):
            pattern.holds = False


class TestIdentityViolation:
    """verify_identities raises at the first identity that fails, with the
    failing vector's tag, also under ``python -O``."""

    def test_each_changed_vector_is_named(self, fig1):
        checked = 0
        for J in (JA, JB):
            data = compute_return_map(J, compute_attractor(fig1))
            vecs = build_vectors(data)
            for i, (e, f, tag) in enumerate(vecs):
                for k in range(len(e)):
                    # one more step on branch k + 1 adds gamma_{k+1} != 0
                    moved = e[:k] + (e[k] + 1,) + e[k + 1:]
                    variant = vecs[:i] + (CoefficientVector(moved, f, tag),) + vecs[i + 1:]
                    message = re.escape(f"product identity violated for {tag}")
                    with pytest.raises(InvariantError, match=message):
                        verify_identities(data, variant)
                    checked += 1
        assert checked == 2 * 5 * 3  # two components, five vectors each, r = 3

    def test_is_an_assertion_error(self):
        assert issubclass(InvariantError, AssertionError)


class TestCorpusProperties:
    def test_identities_and_pattern(self, corpus):
        seen_connection_vectors = 0
        seen_boundary_landings = 0
        for m in corpus:
            att = compute_attractor(m)
            for kcomp, comp in zip(att.kcomponents, att.components()):
                data = compute_return_map(kcomp, att)
                vecs = build_vectors(data)
                # each product against the pairing with the Fraction parameters
                params = (*m.gamma, *m.beta)
                assert [F(k, data.grid.denom) for k in verify_identities(data, vecs)] == [
                    sum(x * p for x, p in zip(e + f, params)) for e, f, _ in vecs]
                assert check_lin_dep_pattern(data, vecs).holds
                tags = [v.tag for v in vecs]
                seen_connection_vectors += sum(1 for t in tags if t[0] == "C")
                seen_boundary_landings += sum(
                    1 for t in tags if t in (("L", 0), ("L", data.n_intervals))
                )
        # the corpus must actually exercise the multi-hit and boundary-variant
        # blocks of the dependence pattern, not just the simple rotation case
        assert seen_connection_vectors >= 10
        assert seen_boundary_landings >= 10
