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

from .attractor import AttractorResult, compute_attractor
from .intervals import MINUS, PLUS
from .itm import ItmMap
from .kernel import branch_rule

SignedDisc = tuple[int, str]  # (discontinuity index 1..r-1, side)


class GhostEdge(NamedTuple):
    """child -> parent: the child is a ghost preimage of the parent,
    landing after ``time`` steps on the parent's opposite-side companion."""

    child: SignedDisc
    parent: SignedDisc
    time: int


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
        """The witness as the verdict and the report show it."""
        return {
            "disc": self.disc,
            "cycle": [list(node) for node in self.cycle],
            "times": list(self.times),
        }


class A3Result(NamedTuple):
    holds: bool
    witness: A3Witness | None


class GhostTree(NamedTuple):
    root: SignedDisc
    levels: tuple[tuple[SignedDisc, ...], ...]
    repeated: tuple[tuple[int, SignedDisc], ...]  # (level, vertex) seen before


def _ghost_walks(
    m: ItmMap, ends: list[int], nodes: list[SignedDisc]
) -> dict[SignedDisc, dict[int, int]]:
    """For each signed discontinuity, one walk of its orbit on the integer
    grid: the first landing time k >= 1 on each beta_j, taken while every
    point before the landing is outside X.

    A walk stops when the orbit enters X or after Q + 1 steps: outside X no
    state can repeat, so the orbit either enters X or exhausts the grid. It
    also stops once it has landed on every beta_j, as nothing is left to
    record.
    """
    grid = m.grid
    cuts, gamma = grid.cuts, grid.gamma
    beta_index = {c: j for j, c in enumerate(cuts[1:-1], start=1)}
    walks: dict[SignedDisc, dict[int, int]] = {}
    for node in nodes:
        find = branch_rule(node[1])
        k = cuts[node[0]]
        landed: dict[int, int] = {}
        for t in range(1, m.Q + 2):
            if find(ends, k) % 2:
                break
            k += gamma[find(cuts, k) - 1]
            j = beta_index.get(k)
            if j is not None and j not in landed:
                landed[j] = t
                if len(landed) == len(beta_index):
                    break
        walks[node] = landed
    return walks


def ghost_preimages(
    m: ItmMap, target: SignedDisc, attractor: AttractorResult | None = None
) -> tuple[tuple[SignedDisc, int], ...]:
    """All ghost preimages of a signed discontinuity with their landing times:
    the children of ``target`` in the ghost graph.

    For a plus-type target these are the minus-type discontinuities landing
    on the target's value at minimal time k >= 1 with the whole orbit before
    the landing outside X (mirrored for minus-type targets). k <= Q always:
    outside X no state can repeat, so the orbit either lands, enters X, or
    exhausts the grid.
    """
    graph = build_ghost_graph(m, attractor)
    return tuple((e.child, e.time) for e in graph.children(target))


def build_ghost_graph(m: ItmMap, attractor: AttractorResult | None = None) -> GhostGraph:
    """Full edge set over all 2(r-1) signed discontinuities, from one walk
    per signed discontinuity."""
    if attractor is None:
        attractor = compute_attractor(m)
    nodes = [(i, side) for i in range(1, m.r) for side in (MINUS, PLUS)]
    # X's endpoints flattened into one sorted list: (k, side) lies in X iff
    # branch_rule(side)(ends, k) is odd
    ends = [k for pair in attractor.kcomponents for k in pair]
    walks = _ghost_walks(m, ends, nodes)
    edges: list[GhostEdge] = []
    for parent in nodes:
        child_side = MINUS if parent[1] == PLUS else PLUS
        for i in range(1, m.r):
            child = (i, child_side)
            time = walks[child].get(parent[0])
            if time is not None:
                edges.append(GhostEdge(child, parent, time))
    cuts = m.grid.cuts
    in_x = {node: branch_rule(node[1])(ends, cuts[node[0]]) % 2 == 1 for node in nodes}
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


def check_A3(graph: GhostGraph) -> A3Result:
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
                return A3Result(False, A3Witness(i, cycle, times))
    return A3Result(True, None)


def ghost_tree(graph: GhostGraph, root: SignedDisc, depth: int) -> GhostTree:
    """Breadth-first unrolling of a map's ghost graph from a signed root.

    Level n + 1 holds the ghost preimages of the level-n vertices, so the
    side types alternate by level; vertices already seen at an earlier level
    are marked as repeats (and still expanded one level later, like any
    other vertex, but a repeat is what makes the tree infinite). Level n + 1
    depends only on level n, so a depth past ``2**len(graph.nodes)`` is refused.
    """
    bound = 2 ** len(graph.nodes)
    if not 0 <= depth <= bound:
        raise ValueError(f"depth must be in 0..2**{len(graph.nodes)} = {bound}, got {depth}")
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
