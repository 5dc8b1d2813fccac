"""Property test: the integer kernel against the plain Fraction oracles on
random maps with r in {2, 3, 4} and Q <= 64.

The attractor, the ghost edges, every signed chain's entry and every
touching value are compared with ``naive_attractor``, ``naive_ghost_edges``
and ``naive_signed_chain``, which iterate plain Fractions with no kernel
code; every ghost edge lands by Q - 1 and every return time is at most
|X| - |J| + 1 grid cells. The return maps are those of
``full_analysis``, which transports most of them along towers; each must
also equal the direct walk of ``compute_return_map``, whose return time and
image at every grid cell must be those of ``naive_first_return``. The
dependence check of every component, and of each copy with one vector
changed, must agree with ``naive_pattern``'s Fraction nullspace. Every
``kernel.walk`` of a signed grid point into X or one component J must give
the hits, stop, point and counts of ``walk_oracle``, built from
``ItmMap.iterate`` and ``IntervalSet.contains_signed``. Needs ``hypothesis``
(the ``test`` extra), kept in its own module so the rest of the tests do not
depend on it.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from itmlab import (
    build_vectors,
    check_lin_dep_pattern,
    compute_attractor,
    compute_return_map,
    full_analysis,
    validate,
    verify_touching_equations,
)
from itmlab.intervals import MINUS, PLUS, IntervalSet, SignedPoint
from itmlab.kernel import ChainHit, walk
from itmlab.vectors import CoefficientVector
from conftest import (
    fraction_views,
    naive_attractor,
    naive_first_return,
    naive_ghost_edges,
    naive_pattern,
    naive_signed_chain,
)


@st.composite
def maps(draw):
    """A map whose parameters all lie on one grid 1/q, q <= 64: cuts drawn
    as distinct numerators, each translation inside its polytope bounds."""
    r = draw(st.sampled_from([2, 3, 4]))
    q = draw(st.integers(r, 64))
    ks = sorted(draw(st.sets(st.integers(1, q - 1), min_size=r - 1, max_size=r - 1)))
    cuts = [0, *ks, q]
    gamma = [draw(st.integers(-cuts[i - 1], q - cuts[i])) for i in range(1, r + 1)]
    return validate(r, [Fraction(k, q) for k in ks], [Fraction(g, q) for g in gamma])


@settings(max_examples=200, deadline=None)
@given(maps())
def test_kernel_against_fraction_oracles(m):
    pairs, step = naive_attractor(m)
    analysis = full_analysis(m)
    att = analysis.attractor
    assert att.X.components() == tuple(pairs)
    assert att.stabilization_step == step
    graph = analysis.ghost_graph
    edges, in_x = naive_ghost_edges(m)
    assert ({(e.child, e.parent, e.time) for e in graph.edges}, graph.in_x) == (edges, in_x)
    assert all(e.time <= m.Q - 1 for e in graph.edges)
    size = sum(r - l for l, r in att.kcomponents)
    for kJ, J, data in zip(att.kcomponents, att.components(), analysis.return_maps):
        assert max(data.return_times) <= size - (kJ[1] - kJ[0]) + 1
        walked = compute_return_map(kJ, att)
        cut_points = fraction_views(data)[0]
        assert data == walked and data.chains == walked.chains
        naive = {}
        for c in data.chains:
            # a horizon of the kernel's entry time is enough: the oracle
            # reports no entry if the kernel's is too early, an earlier one
            # if it is too late
            hits, entry, value = naive_signed_chain(
                m, J, cut_points[c.j], c.side, c.entry_time)
            assert (c.entry_time, Fraction(c.kentry, m.Q)) == (entry, value)
            assert [(h.disc, h.time) for h in c.hits] == hits
            naive[c.j, c.side] = value
        sigma = data.sigma
        values = verify_touching_equations(data)
        assert len(values) == data.n_intervals - 1
        for p, k in enumerate(values):
            assert Fraction(k, m.Q) == naive[sigma[p], "-"] == naive[sigma[p + 1] - 1, "+"]


@settings(max_examples=200, deadline=None)
@given(maps())
def test_return_map_against_naive_first_return(m):
    # every grid cell k/Q of every component J returns after the return time
    # of the continuity interval holding it, translated onto that
    # interval's image
    att = compute_attractor(m)
    for kJ, J in zip(att.kcomponents, att.components()):
        data = compute_return_map(kJ, att)
        for k in range(*kJ):
            j = bisect_right(data.kcuts, k) - 1
            image = data.kimages[j][0] + (k - data.kcuts[j])
            assert naive_first_return(m, J, Fraction(k, m.Q)) == (
                data.return_times[j], Fraction(image, m.Q))


@settings(max_examples=150, deadline=None)
@given(maps())
def test_pattern_against_fraction_nullspace(m):
    # every component, and every copy with one vector's e[0] raised by 1
    # under the same tag: the one-elimination check against the block by
    # block check of a Fraction nullspace basis
    dim = 2 * m.r - 1
    for data in full_analysis(m).return_maps:
        vecs = build_vectors(data)
        variants = [vecs] + [
            vecs[:i] + (CoefficientVector((v.e[0] + 1,) + v.e[1:], v.f, v.tag),) + vecs[i + 1:]
            for i, v in enumerate(vecs)
        ]
        for variant in variants:
            res = check_lin_dep_pattern(data, variant)
            assert (res.holds, res.nullity) == naive_pattern(variant, data.n_intervals, dim)
            # P is injective, so the pattern's nullspace embeds in that of A
            assert res.pattern_nullity <= res.nullity


def walk_oracle(m, ends, k: int, side: str, steps: int):
    """``kernel.walk`` in Fractions: one ``ItmMap.iterate`` step at a time,
    signed membership of the union by ``IntervalSet.contains_signed``."""
    q = m.Q
    union = IntervalSet(tuple((Fraction(l, q), Fraction(r, q)) for l, r in zip(ends[::2], ends[1::2])))
    p, counts, hits = SignedPoint(Fraction(k, q), side), (0,) * m.r, []
    for t in range(steps + 1):
        if t == steps or (t and union.contains_signed(p)):
            return hits, t, p.value, counts
        if p.value in m.beta:
            hits.append((m.beta.index(p.value) + 1, t, counts))
        step = m.iterate(p, 1)
        p, counts = step.point, tuple(a + b for a, b in zip(counts, step.counts))


def assert_walk(m, ends, k: int, side: str, steps: int):
    hits, t, kstop, counts = walk(m.grid, ends, k, side, steps)
    assert ([tuple(h) for h in hits], t, Fraction(kstop, m.Q), counts) == walk_oracle(m, ends, k, side, steps)
    return hits, t, kstop, counts


@st.composite
def walks(draw):
    """A map, the ends of X or of one component J of its attractor, and a
    signed grid start (often a cut or an end of the union) with a step bound."""
    m = draw(maps())
    att = compute_attractor(m)
    pick = draw(st.integers(-1, len(att.kcomponents) - 1))
    ends = att.ends if pick < 0 else att.kcomponents[pick]
    side = draw(st.sampled_from([MINUS, PLUS]))
    lo, hi = (1, m.Q) if side == MINUS else (0, m.Q - 1)  # 0- and 1+ do not exist
    k = draw(st.one_of(st.integers(lo, hi), st.sampled_from([*m.grid.cuts, *ends]).filter(lambda k: lo <= k <= hi)))
    return m, ends, k, side, draw(st.integers(0, 2 * m.Q + 2))


@settings(max_examples=300, deadline=None)
@given(walks())
def test_walk_against_iterate(case):
    assert_walk(*case)


class TestWalkExamples:
    """fig1 on the grid 1/42: cuts 14 and 28, X = [7, 13) + [21, 34)."""

    def test_start_on_a_cut_hits_at_time_0(self, fig1):
        ends = compute_attractor(fig1).ends
        assert assert_walk(fig1, ends, 14, PLUS, 43) == ((ChainHit(1, 0, (0, 0, 0)),), 2, 26, (0, 2, 0))
        # 14- lands on beta_2 as it enters X: the stop is not a hit
        assert assert_walk(fig1, ends, 14, MINUS, 43) == ((ChainHit(1, 0, (0, 0, 0)),), 1, 28, (1, 0, 0))

    def test_start_inside_the_union_is_no_stop(self, fig1):
        # 7+ lies in J = [7, 13) and returns to it at time 4
        assert assert_walk(fig1, (7, 13), 7, PLUS, 10) == ((), 4, 12, (1, 2, 1))

    def test_stop_by_the_union_at_time_1(self, fig1):
        # X is invariant, so a start in X stops one step later
        assert assert_walk(fig1, compute_attractor(fig1).ends, 7, PLUS, 43)[1:] == (1, 21, (1, 0, 0))

    def test_stop_at_steps(self, fig1):
        assert assert_walk(fig1, (7, 13), 7, PLUS, 3)[1] == 3
        assert assert_walk(fig1, (7, 13), 7, PLUS, 0) == ((), 0, 7, (0, 0, 0))

    def test_ends_of_the_interval(self, fig1):
        # 1- and 0+ are no discontinuities: no time-0 hit
        ends = compute_attractor(fig1).ends
        assert assert_walk(fig1, ends, 42, MINUS, 43) == ((), 2, 27, (0, 1, 1))
        assert assert_walk(fig1, ends, 0, PLUS, 43) == ((ChainHit(1, 1, (1, 0, 0)),), 3, 26, (1, 2, 0))
