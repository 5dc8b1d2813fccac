"""Ghost preimages, the ghost graph over signed discontinuities, and A3.

A ghost preimage of ``beta*+`` is a minus-type discontinuity whose orbit
lands exactly on the value ``beta*`` (then on ``beta*-``, since iteration
preserves the side); a small perturbation turns the near-miss into an actual
preimage of ``beta*+``. The minus-type case mirrors. A landing only counts
while the orbit stays outside the attractor: once an orbit is inside X it is
pinned to the periodic structure and cannot be pushed past a discontinuity
to enlarge X, and a point of X never ghost-feeds a discontinuity outside the
closure of X.

Condition A3 fails exactly when a discontinuity with both signed parts
outside X sits on a directed cycle of the graph, which by the pigeonhole on
signed nodes is the same as the discontinuity reappearing in its own ghost
tree.
"""

from __future__ import annotations

from typing import NamedTuple

from .attractor import AttractorResult, NotFiniteTypeError
from .intervals import MINUS, PLUS
from .kernel import branch_rule, walk

SignedDisc = tuple[int, str]  # (discontinuity index 1..r-1, side)


class DepthBoundError(ValueError):
    """A ghost tree deeper than ``2**(2*(r-1))`` levels, or of negative depth."""


class GhostEdge(NamedTuple):
    """child -> parent: the child is a ghost preimage of the parent,
    landing after ``time`` steps on the parent's opposite-side companion;
    ``counts[b - 1]`` of those steps take branch b (no report writes them)."""

    child: SignedDisc
    parent: SignedDisc
    time: int
    counts: tuple[int, ...]


class GhostGraph(NamedTuple):
    nodes: tuple[SignedDisc, ...]
    edges: tuple[GhostEdge, ...]
    in_x: dict[SignedDisc, bool]

    def children(self, node: SignedDisc) -> tuple[GhostEdge, ...]:
        return tuple(e for e in self.edges if e.parent == node)

    def parents(self, node: SignedDisc) -> tuple[GhostEdge, ...]:
        return tuple(e for e in self.edges if e.child == node)


class A3Witness(NamedTuple):
    """A directed cycle through a signed part of the violating discontinuity.

    ``cycle[k]`` is a ghost preimage of ``cycle[k+1]`` (indices mod length),
    landing after ``times[k]`` steps; following the cycle is forward time."""

    disc: int
    cycle: tuple[SignedDisc, ...]
    times: tuple[int, ...]

    def as_dict(self) -> dict:
        """The witness as the report shows it."""
        return {
            "disc": self.disc,
            "cycle": [list(node) for node in self.cycle],
            "times": list(self.times),
        }


class Verdict(NamedTuple):
    """A condition's witness to its violation; it holds when there is none.
    The witness of A3 is an :class:`A3Witness`, that of any other condition a
    dict."""

    witness: A3Witness | dict | None = None

    @property
    def holds(self) -> bool:
        return self.witness is None


class GhostTree(NamedTuple):
    root: SignedDisc
    levels: tuple[tuple[SignedDisc, ...], ...]
    repeated: tuple[tuple[int, SignedDisc], ...]  # (level, vertex) seen before


def build_ghost_graph(attractor: AttractorResult) -> GhostGraph:
    """Full edge set over all 2(r-1) signed discontinuities of the attractor's
    grid; NotFiniteTypeError if the attractor is capped. A node lies in X iff
    the branch rule of its side finds its cut at an odd position of
    ``attractor.ends``. Every other node is walked until its orbit enters X,
    and its edges are its landings on beta_j at t >= 1, the stop included. A
    periodic point lies in every X_n, so in X; the walk's points at times
    0..t-1 lie outside X, so they are distinct signed grid points of one
    side, and X holds one of each side. So the walk is in X by t = Q - 1 (one
    that runs out there has entered X), and lands on a beta_j at most once.
    """
    if not attractor.finite_type:
        raise NotFiniteTypeError("the ghost graph needs a finite-type attractor")
    grid, ends = attractor.grid, attractor.ends
    cuts, beta_index = grid.cuts, grid.beta_index()
    nodes = [(i, side) for i in range(1, len(cuts) - 1) for side in (MINUS, PLUS)]
    in_x = {node: branch_rule(node[1])(ends, cuts[node[0]]) % 2 == 1 for node in nodes}
    edges: list[GhostEdge] = []
    for child in [node for node in nodes if not in_x[node]]:
        hits, t, k, counts = walk(grid, ends, cuts[child[0]], child[1], attractor.denom - 1)
        parent_side = MINUS if child[1] == PLUS else PLUS
        for disc, time, before in (*hits[1:], (beta_index.get(k), t, counts)):  # hits[0]: the child
            if disc is not None:
                edges.append(GhostEdge(child, (disc, parent_side), time, before))
    edges.sort(key=lambda e: (e.parent[0], e.parent[1] == PLUS, e.child[0]))  # in node order
    return GhostGraph(tuple(nodes), tuple(edges), in_x)


def _find_cycle_through(graph: GhostGraph, start: SignedDisc) -> tuple[list[GhostEdge], bool]:
    # DFS over child -> parent edges looking for a path start -> ... -> start.
    stack: list[tuple[SignedDisc, list[GhostEdge]]] = [(start, [])]
    seen: set[SignedDisc] = set()
    while stack:
        node, path = stack.pop()
        for edge in sorted(graph.parents(node), key=lambda e: e.parent):
            if edge.parent == start:
                return path + [edge], True
            if edge.parent not in seen:
                seen.add(edge.parent)
                stack.append((edge.parent, path + [edge]))
    return [], False


def check_A3(graph: GhostGraph) -> Verdict:
    """A3 holds unless a discontinuity with both signed parts outside X lies
    on a directed cycle; the witness is one explicit cycle through it."""
    indices = sorted({i for i, _ in graph.nodes})
    for i in indices:
        if graph.in_x[(i, MINUS)] or graph.in_x[(i, PLUS)]:
            continue
        for side in (MINUS, PLUS):
            path, ok = _find_cycle_through(graph, (i, side))
            if ok:
                cycle = tuple(e.child for e in path)
                times = tuple(e.time for e in path)
                return Verdict(A3Witness(i, cycle, times))
    return Verdict()


def ghost_tree(graph: GhostGraph, root: SignedDisc, depth: int) -> GhostTree:
    """Breadth-first unrolling of a map's ghost graph from a signed root.

    Level n + 1 holds the ghost preimages of the level-n vertices, so the
    side types alternate by level; vertices already seen at an earlier level
    are marked as repeats (and still expanded one level later, like any
    other vertex, but a repeat is what makes the tree infinite). Level n + 1
    depends only on level n, a set of the 2(r-1) signed discontinuities, so
    fewer than ``2**(2*(r-1))`` levels are distinct, and a deeper (or a
    negative) depth raises DepthBoundError, and a root that is not a node
    of the graph ValueError.
    """
    if root not in graph.nodes:
        raise ValueError(f"root {root} is not a signed discontinuity of the graph: {graph.nodes}")
    bound = 2 ** len(graph.nodes)
    if not 0 <= depth <= bound:
        raise DepthBoundError(
            f"depth must be in 0..2**(2*(r-1)) = {bound} for r = {len(graph.nodes) // 2 + 1}, "
            f"got {depth}: deeper levels only repeat"
        )
    levels: list[tuple[SignedDisc, ...]] = [(root,)]
    repeated: list[tuple[int, SignedDisc]] = []
    seen: set[SignedDisc] = {root}
    for level in range(1, depth + 1):
        nxt: list[SignedDisc] = []
        for parent in levels[-1]:
            for edge in graph.children(parent):
                nxt.append(edge.child)
                if edge.child in seen:
                    repeated.append((level, edge.child))
                seen.add(edge.child)
        if not nxt:
            break
        levels.append(tuple(sorted(set(nxt))))
    return GhostTree(root, tuple(levels), tuple(repeated))
