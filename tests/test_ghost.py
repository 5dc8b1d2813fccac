"""Ghost preimages, the signed graph, trees, and condition A3."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from itmlab import (
    DepthBoundError,
    NotFiniteTypeError,
    build_ghost_graph,
    check_A3,
    compute_attractor,
    full_analysis,
    ghost_tree,
    minus,
    plus,
    validate,
)
from itmlab.intervals import SignedPoint

from conftest import naive_branch_counts, naive_ghost_edges


class TestGhostPreimages:
    # the ghost preimages of a signed discontinuity are its children
    def test_fig1_beta2_plus(self, fig1):
        # T(beta_1-) = beta_2-, and 1/3 sits outside the attractor
        children = build_ghost_graph(compute_attractor(fig1)).children((2, "+"))
        assert [(e.child, e.time) for e in children] == [((1, "-"), 1)]

    def test_fig1_beta1_plus_empty(self, fig1):
        # beta_2-'s orbit never leaves X; nothing outside lands on beta_1-
        assert build_ghost_graph(compute_attractor(fig1)).children((1, "+")) == ()

    def test_rotation_all_empty(self, rotation35):
        # every orbit is periodic inside X = [0,1): landings there are the
        # periodic structure, not ghost relations
        graph = build_ghost_graph(compute_attractor(rotation35))
        assert graph.children((1, "+")) == () == graph.children((1, "-"))

    def test_ghost_map_cycle_edges(self, ghost_map):
        graph = build_ghost_graph(compute_attractor(ghost_map))
        assert ((1, "-"), 1) in [(e.child, e.time) for e in graph.children((2, "+"))]
        assert ((2, "+"), 1) in [(e.child, e.time) for e in graph.children((1, "-"))]


class TestGhostGraph:
    def test_fig1_single_edge(self, fig1):
        graph = build_ghost_graph(compute_attractor(fig1))
        assert [(e.child, e.parent, e.time) for e in graph.edges] == [
            ((1, "-"), (2, "+"), 1)
        ]
        assert graph.in_x[(2, "+")] and graph.in_x[(2, "-")]
        assert not graph.in_x[(1, "+")] and not graph.in_x[(1, "-")]

    def test_side_alternation(self, fig1, ghost_map, corpus):
        for m in [fig1, ghost_map] + corpus[:15]:
            graph = build_ghost_graph(compute_attractor(m))
            for e in graph.edges:
                assert e.child[1] != e.parent[1]

    def test_edge_times_verify(self, fig1, ghost_map, corpus):
        # every edge's landing re-verifies by direct iteration within Q steps
        for m in [fig1, ghost_map] + corpus[:15]:
            graph = build_ghost_graph(compute_attractor(m))
            for e in graph.edges:
                assert 1 <= e.time <= m.Q - 1
                start = SignedPoint(m.beta[e.child[0] - 1], e.child[1])
                res = m.iterate(start, e.time)
                assert res.point.value == m.beta[e.parent[0] - 1]
                assert res.point.side == e.child[1]

    def test_matches_naive_edges(self, fig1, ghost_map, corpus, corpus_q1024):
        # the complete edge set, minimal times and in_x agree with plain
        # iteration: no edge is missing and none is extra
        total = 0
        for m in [fig1, ghost_map] + corpus[:15] + corpus_q1024:
            att = compute_attractor(m)
            graph = build_ghost_graph(att)
            edges, in_x = naive_ghost_edges(m)
            assert len(graph.edges) == len(edges)
            assert {(e.child, e.parent, e.time) for e in graph.edges} == edges
            assert graph.in_x == in_x
            for node in graph.nodes:
                assert {(e.child, e.parent, e.time) for e in graph.children(node)} == {
                    edge for edge in edges if edge[1] == node
                }
            total += len(edges)
        assert total > 0

    def test_edge_counts_match_naive(self, fig1, ghost_map, corpus, a3_violators):
        # each edge carries the branch counts of the steps before its landing
        total = 0
        for m in [fig1, ghost_map] + corpus + list(a3_violators.values()):
            for e in build_ghost_graph(compute_attractor(m)).edges:
                assert e.counts == naive_branch_counts(m, m.beta[e.child[0] - 1], e.child[1], e.time)
                total += 1
        assert total == 64

    def test_no_edge_joins_the_two_sides_of_one_discontinuity(
        self, fig1, ghost_map, corpus, corpus_q1024, branchy_q1024
    ):
        # a walk landing on its own discontinuity would have come back to
        # its start with the same side: the start is then periodic, so in
        # X, and its walk never takes a step
        total = 0
        for m in [fig1, ghost_map] + corpus + corpus_q1024 + branchy_q1024:
            edges = build_ghost_graph(compute_attractor(m)).edges
            assert all(e.child[0] != e.parent[0] for e in edges)
            total += len(edges)
        assert total == 49

    @pytest.mark.parametrize("q", [5, 9, 64])
    def test_walk_enters_x_at_the_bound(self, q):
        # X = [1/Q, 2/Q), one grid point of each side: beta_4+ steps down
        # one cell at a time, lands on beta_3 and beta_2, drops to 0 and
        # enters X on beta_1 at exactly Q - 1, the bound of the walk
        m = validate(5, [F(1, q), F(2, q), F(3, q), F(q - 1, q)],
                     [F(1, q), F(0), F(-2, q), F(-1, q), F(-1, q)])
        att = compute_attractor(m)
        assert att.kcomponents == ((1, 2),)
        graph = build_ghost_graph(att)
        assert [(e.parent, e.time) for e in graph.parents((4, "+"))] == [
            ((1, "-"), q - 1), ((2, "-"), q - 3), ((3, "-"), q - 4)
        ]

    @pytest.mark.parametrize("cap", [1, 2])
    def test_capped_attractor_refused(self, fig1, cap):
        # X_1 and X_2 are not X: a graph of them would be no ghost graph
        with pytest.raises(NotFiniteTypeError, match="finite-type attractor"):
            build_ghost_graph(compute_attractor(fig1, cap))
        analysis = full_analysis(fig1, cap)
        with pytest.raises(NotFiniteTypeError):
            analysis.return_maps
        with pytest.raises(NotFiniteTypeError):
            analysis.ghost_graph

    def test_all_in_x_vacuous(self):
        m = validate(2, [F(1, 2)], [F(1, 2), F(-1, 2)])
        graph = build_ghost_graph(compute_attractor(m))
        assert all(graph.in_x.values())
        assert graph.edges == ()
        assert check_A3(graph).holds


class TestA3:
    def test_fig1_holds(self, fig1):
        assert check_A3(build_ghost_graph(compute_attractor(fig1))).holds

    def test_ghost_map_violated(self, ghost_map):
        res = check_A3(build_ghost_graph(compute_attractor(ghost_map)))
        assert not res.holds
        w = res.witness
        assert w.disc == 1
        assert len(w.cycle) == 2 and len(w.times) == 2
        # the witness cycle re-verifies by direct iteration leg by leg
        for k, node in enumerate(w.cycle):
            start = SignedPoint(ghost_map.beta[node[0] - 1], node[1])
            land = ghost_map.iterate(start, w.times[k]).point
            nxt = w.cycle[(k + 1) % len(w.cycle)]
            assert land.value == ghost_map.beta[nxt[0] - 1]

    def test_brute_force_tree_equivalence(self, fig1, ghost_map, rotation35, corpus):
        # graph-cycle answer == root reappearing in a depth-(2(r-1)+1) tree
        for m in [fig1, ghost_map, rotation35] + corpus[:15]:
            att = compute_attractor(m)
            graph = build_ghost_graph(att)
            depth = 2 * (m.r - 1) + 1
            brute_violated = None
            for i in range(1, m.r):
                if graph.in_x[(i, "-")] or graph.in_x[(i, "+")]:
                    continue
                for side in ("-", "+"):
                    tree = ghost_tree(graph, (i, side), depth)
                    reappears = any(
                        (i, side) in level for level in tree.levels[1:]
                    )
                    if reappears:
                        brute_violated = i
                        break
                if brute_violated is not None:
                    break
            assert check_A3(graph).holds == (brute_violated is None)


class TestGhostTree:
    def test_fig1_two_levels(self, fig1):
        tree = ghost_tree(build_ghost_graph(compute_attractor(fig1)), (2, "+"), 2)
        assert tree.levels == (((2, "+"),), ((1, "-"),))
        assert tree.repeated == ()

    def test_ghost_map_repeats(self, ghost_map):
        tree = ghost_tree(build_ghost_graph(compute_attractor(ghost_map)), (1, "-"), 4)
        assert tree.levels[0] == ((1, "-"),)
        assert (1, "-") in tree.levels[2]
        assert (1, "-") in tree.levels[4]
        assert (2, (1, "-")) in tree.repeated

    def test_depth_zero(self, ghost_map):
        tree = ghost_tree(build_ghost_graph(compute_attractor(ghost_map)), (1, "-"), 0)
        assert tree.levels == (((1, "-"),),)

    def test_negative_depth(self, fig1):
        with pytest.raises(ValueError):
            ghost_tree(build_ghost_graph(compute_attractor(fig1)), (1, "-"), -1)

    @pytest.mark.parametrize("root", [(7, "+"), (1, "x"), (0, "-")])
    def test_root_not_in_graph(self, fig1, root):
        # fig1 has r = 3: its signed discontinuities are 1-, 1+, 2- and 2+
        graph = build_ghost_graph(compute_attractor(fig1))
        with pytest.raises(ValueError, match="is not a signed discontinuity of the graph") as info:
            ghost_tree(graph, root, 3)
        assert info.type is ValueError

    def test_depth_bound(self, fig1, ghost_map):
        # fewer than 2**len(nodes) = 2**(2(r-1)) levels are distinct, so depth
        # is refused past that bound (fig1's 1- has no ghost preimage; the
        # ghost map's 1- lies on a cycle)
        for m, bound, levels in ((fig1, 16, 1), (ghost_map, 64, 65)):
            graph = build_ghost_graph(compute_attractor(m))
            assert 2 ** len(graph.nodes) == bound == 2 ** (2 * (m.r - 1))
            assert len(ghost_tree(graph, (1, "-"), bound).levels) == levels
            message = rf"depth must be in 0..2\*\*\(2\*\(r-1\)\) = {bound} for r = {m.r}, got {bound + 1}"
            with pytest.raises(DepthBoundError, match=message):
                ghost_tree(graph, (1, "-"), bound + 1)
