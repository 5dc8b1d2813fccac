"""Integer-grid kernel: the hot loops on numerators of one ``1/denom`` grid.

Every value a rational map reaches is ``k / denom`` for a fixed ``denom``
(the map's Q, or a multiple of it when the input is finer), so the kernel
carries only the integer ``k``: interval unions are sorted canonical lists of
``(int, int)`` pairs and signed points are ``(int, side)``. Fractions cross
in through :func:`on_grid`, which is exact or raises, and out through
:func:`to_interval_set`; everything in between is integer arithmetic, still
exact and free of floating point. Even :func:`hausdorff_closure_distance`
returns a numerator, over the grid its caller put both unions on.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import NamedTuple, Sequence

from .intervals import MINUS, PLUS, EmptySetError, IntervalSet, merge

IntPair = tuple[int, int]


class ChainHit(NamedTuple):
    """A walk sits on beta_disc at ``time``; ``counts`` is how many of the
    steps before it took each branch."""

    disc: int
    time: int
    counts: tuple[int, ...]


class OffGridError(ValueError):
    """A rational is not an integer multiple of ``1/denom``."""


def on_grid(x: Fraction, denom: int) -> int:
    """The numerator ``k`` with ``x == k / denom``, checked to be exact."""
    factor, rem = divmod(denom, x.denominator)
    if rem:
        raise OffGridError(f"{x} is not on the 1/{denom} grid")
    return x.numerator * factor


def to_interval_set(pairs: Sequence[IntPair], denom: int) -> IntervalSet:
    """Canonical integer pairs back to the Fraction API type."""
    return IntervalSet(tuple((Fraction(l, denom), Fraction(r, denom)) for l, r in pairs))


def branch_rule(side: str):
    """The bisect that finds a signed point's branch among sorted cuts.

    ``v+`` lies in ``[c_{i-1}, c_i)``, which ``bisect_right`` returns as
    ``i``; ``v-`` lies in ``(c_{i-1}, c_i]``, found by ``bisect_left``.
    Applied to a single interval ``(l, r)`` the same rule gives signed
    membership: the point is inside iff the result is 1.
    """
    return bisect_right if side == PLUS else bisect_left


class Grid(NamedTuple):
    """A map's cuts ``0 = c_0 < ... < c_r = denom`` and translations as
    integer numerators over ``denom``. A NamedTuple, like every plain
    record of the package (see :class:`~itmlab.intervals.Frozen`)."""

    denom: int
    cuts: tuple[int, ...]
    gamma: tuple[int, ...]

    def refined(self, denom: int) -> "Grid":
        """The same map on the finer grid ``1/denom`` (a multiple of this one)."""
        factor, rem = divmod(denom, self.denom)
        if rem:
            raise OffGridError(f"1/{denom} does not refine the 1/{self.denom} grid")
        if factor == 1:
            return self
        return Grid(
            denom,
            tuple(c * factor for c in self.cuts),
            tuple(g * factor for g in self.gamma),
        )

    def beta_index(self) -> dict[int, int]:
        """The discontinuity index ``d`` of each interior cut ``beta_d``, by numerator."""
        return {c: d for d, c in enumerate(self.cuts[1:-1], start=1)}


def split(cuts: Sequence[int], l: int, r: int) -> list[tuple[int, int, int]]:
    """The pieces ``(lo, hi, i)`` of ``[l, r)`` cut at every cut strictly
    inside it, left to right, each with its branch ``i``."""
    i = bisect_right(cuts, l)  # branch of l+
    last = bisect_left(cuts, r)  # branch of r-
    out = []
    while i < last:
        c = cuts[i]
        out.append((l, c, i))
        l = c
        i += 1
    out.append((l, r, last))
    return out


def push(grid: Grid, pairs: Sequence[IntPair]) -> list[IntPair]:
    """The pieces of T(S) with multiplicity: each interval split at the cuts
    inside it and each piece translated by its branch, unsorted; pieces of
    different branches may overlap."""
    cuts, gamma = grid.cuts, grid.gamma
    pieces: list[IntPair] = []
    for l, r in pairs:
        i = bisect_right(cuts, l)  # branch of l+
        if r <= cuts[i]:  # no cut strictly inside: one piece
            g = gamma[i - 1]
            pieces.append((l + g, r + g))
            continue
        for lo, hi, i in split(cuts, l, r):
            g = gamma[i - 1]
            pieces.append((lo + g, hi + g))
    return pieces


def image(grid: Grid, pairs: Sequence[IntPair]) -> list[IntPair]:
    """Exact T(S): the pushed pieces, sorted and merged."""
    return merge(push(grid, pairs))


def walk(
    grid: Grid, ends: Sequence[int], k: int, side: str, steps: int
) -> tuple[tuple[ChainHit, ...], int, int, tuple[int, ...]]:
    """Walk the signed point ``k/denom`` with ``side`` for at most ``steps``
    steps, stopping at the first time t >= 1 at which it lies in the union
    with sorted endpoints ``ends`` (at an odd position under its branch
    rule). Returns the discontinuity hits before the stop, time 0 included,
    the stop time, and the point and branch counts at that time. The branch
    lookup of a step also finds its hit: ``v+`` on beta_d lies in branch
    d + 1, ``v-`` on beta_d in branch d.
    """
    cuts, gamma = grid.cuts, grid.gamma
    r = len(gamma)
    find = branch_rule(side)
    off = 1 if side == MINUS else 0  # an int: CPython adds two ints faster than an int and a bool
    hits: list[ChainHit] = []
    counts = [0] * r
    for t in range(steps):
        if t and find(ends, k) & 1:
            break
        i = find(cuts, k) - 1
        d = i + off
        if cuts[d] == k and 0 < d < r:
            hits.append(ChainHit(d, t, tuple(counts)))
        counts[i] += 1
        k += gamma[i]
    else:
        t = steps
    return tuple(hits), t, k, tuple(counts)


def _directed_hausdorff(a: Sequence[int], b: Sequence[int]) -> int:
    # sup over closure(a) of dist(x, closure(b)); the sup of a piecewise
    # linear function is attained at an endpoint of a or at a gap midpoint
    # of b lying inside closure(a), where it is half the gap. One bisect
    # per candidate: an endpoint of a against b, a midpoint against a.
    best = 0
    n = len(b)
    for x in a:
        i = bisect_left(b, x)
        if i & 1 or (i < n and b[i] == x):
            continue  # inside closure(b)
        if i == 0:
            d = b[0] - x
        elif i == n:
            d = x - b[-1]
        else:
            d = min(x - b[i - 1], b[i] - x)
        if d > best:
            best = d
    for k in range(1, n - 1, 2):
        gap = b[k + 1] - b[k]
        if gap & 1:
            raise OffGridError(f"the midpoint of the gap ({b[k]}, {b[k + 1]}) is not on the grid")
        half = gap >> 1
        if half > best:
            mid = b[k] + half
            i = bisect_left(a, mid)
            if i & 1 or (i < len(a) and a[i] == mid):
                best = half
    return best


def hausdorff_closure_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Exact Hausdorff distance between the closures of two interval
    unions, each given by its sorted endpoints ``l_1, r_1, l_2, r_2, ...``
    (like ``AttractorResult.ends``) as numerators over one grid, returned
    as a numerator over that grid.

    Closures are taken in ``[0, 1]`` (each ``[l, r)`` becomes ``[l, r]``).
    Symmetric, and zero iff the closures coincide. The grid must hold the
    midpoint of every gap of either union: a gap of odd width raises
    OffGridError. Endpoints over ``L`` scaled to ``2 L`` satisfy this.
    """
    if not a or not b:
        raise EmptySetError("hausdorff distance needs non-empty sets")
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))
