"""The attractor X of a map, its forward images and the non-wandering probe.

``X_0 = [0,1)`` and ``X_{n+1} = T(X_n)`` form a nested chain of finite
interval unions. For rational parameters the chain stabilizes after at most
Q steps: measure lives on the 1/Q grid, strictly drops until the fixed point
is reached, and nested equal-measure unions of half-open intervals coincide.

:func:`compute_attractor` follows the chain through the preimage count
``c_n(y) = #{i : y - g_i in X_n and in I_i}``, a piecewise-constant integer
function on the grid with ``X_{n+1} = {c_n > 0}``. Only the removed part
``D_n = X_n minus X_{n+1}`` is pushed forward, ``c_{n+1} = c_n - T(D_n)``
counted with multiplicity, and ``D_{n+1}`` is where that drops a count to 0;
the chain has stabilized when ``D_n`` is empty. Each removed piece is pushed
once, so the cost follows what the steps remove, not steps times X.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property

from . import kernel
from .intervals import Frozen, IntervalSet, InvariantError, Pair, interval
from .itm import ItmMap
from .kernel import IntPair


class NotFiniteTypeError(RuntimeError):
    """An iteration cap was reached before the attractor stabilized."""


class AttractorResult(Frozen):
    """Attractor of a map: the map's integer ``grid``, the components of X
    as the kernel computed them (``kcomponents``, integer numerators over
    ``grid.denom``) and the ``stabilization_step``.

    ``stabilization_step`` is the first n with X_{n+1} = X_n, or None when
    the cap was reached first (then ``infinite_type_suspected`` is true; for
    rational maps this only happens with a user-lowered cap).

    The constructor derives the rest from these three values, so they
    cannot disagree with the components: ``denom``, ``ends`` (X's endpoints
    as one sorted tuple; a signed grid point ``(k, side)`` lies in X iff
    ``kernel.branch_rule(side)(ends, k)`` is odd) and the discontinuities
    in three tuples: strictly inside a component (with its index), on the
    boundary of the closure of X, or at positive distance from the closure.
    ``X`` and ``components()`` are the Fraction views, built on first use.
    """

    _fields = ("grid", "kcomponents", "stabilization_step")
    grid: kernel.Grid
    kcomponents: tuple[IntPair, ...]
    stabilization_step: int | None
    denom: int
    ends: tuple[int, ...]
    discontinuities_inside: tuple[tuple[int, int], ...]
    discontinuities_outside: tuple[int, ...]
    boundary_hits: tuple[int, ...]

    def __init__(self, grid, kcomponents, stabilization_step):
        ends = tuple([k for pair in kcomponents for k in pair])
        inside: list[tuple[int, int]] = []
        outside: list[int] = []
        boundary: list[int] = []
        for i, b in enumerate(grid.cuts[1:-1], start=1):
            p = bisect_left(ends, b)
            if p < len(ends) and ends[p] == b:
                boundary.append(i)
            elif p % 2:
                inside.append((i, (p + 1) // 2))
            else:
                outside.append(i)
        vars(self).update(
            grid=grid, kcomponents=kcomponents, stabilization_step=stabilization_step,
            denom=grid.denom, ends=ends, discontinuities_inside=tuple(inside),
            discontinuities_outside=tuple(outside), boundary_hits=tuple(boundary),
        )

    @property
    def finite_type(self) -> bool:
        return self.stabilization_step is not None

    @property
    def infinite_type_suspected(self) -> bool:
        return self.stabilization_step is None

    @cached_property
    def X(self) -> IntervalSet:
        return kernel.to_interval_set(self.kcomponents, self.denom)

    def components(self) -> tuple[Pair, ...]:
        return self.X.components()


def _to_grid(m: ItmMap, s: IntervalSet) -> tuple[kernel.Grid, list[IntPair]]:
    """The map's integer grid refined to hold every endpoint of ``s``."""
    denom = math.lcm(m.Q, *(x.denominator for pair in s.intervals for x in pair))
    return m.grid.refined(denom), [
        (kernel.on_grid(l, denom), kernel.on_grid(r, denom)) for l, r in s.intervals
    ]


def image(m: ItmMap, s: IntervalSet) -> IntervalSet:
    """Exact T(S): split each interval at interior discontinuities, translate
    each piece by its branch, canonicalize."""
    grid, pairs = _to_grid(m, s)
    return kernel.to_interval_set(kernel.image(grid, pairs), grid.denom)


def orbit_closure(m: ItmMap, s: IntervalSet) -> IntervalSet:
    """Union of all forward images of ``s``, complete by pass Q - 1 (a refined
    cell moves with its 1/Q cell, whose orbit repeats within Q steps)."""
    grid, total = _to_grid(m, s)
    cur = total
    for _ in range(m.Q):
        cur = kernel.image(grid, cur)
        nxt = kernel.merge(total + cur)
        if nxt == total:
            return kernel.to_interval_set(total, grid.denom)
        total = nxt
    raise NotFiniteTypeError("orbit union did not stabilize within the cap")


def _count(denom: int, pieces: list[IntPair]) -> tuple[list[int], list[int], list[IntPair]]:
    """The count of ``pieces`` over ``[0, denom)`` by one sweep, as
    breakpoints ``xs`` and counts ``cs`` (``cs[k]`` holds on ``[xs[k],
    xs[k+1])``, equal neighbours merged, ``cs[-1] = -1`` past the right
    end), and the merged parts of ``[0, denom)`` where it is 0."""
    delta = {0: 0, denom: -1}  # the pieces' deltas sum to 0, so cs[-1] = -1
    for a, b in pieces:
        delta[a] = delta.get(a, 0) + 1
        delta[b] = delta.get(b, 0) - 1
    last = delta.pop(0)  # no piece starts left of 0
    xs, cs = [0], [last]
    zeros: list[IntPair] = []
    for x in sorted(delta):
        c = last + delta[x]
        if c != last:
            if not last:
                zeros.append((xs[-1], x))
            xs.append(x)
            cs.append(c)
            last = c
    return xs, cs, zeros


def _remove(xs: list[int], cs: list[int], pieces: list[IntPair]) -> list[IntPair]:
    """Subtract 1 from the count on every piece, and return the merged
    parts of the pieces where the count reached 0.

    A piece first splits the segments at its ends; after the subtraction
    only those two breakpoints can separate equal counts, and they are
    merged away. Raises InvariantError on a negative count.
    """
    zeros: list[IntPair] = []
    for a, b in pieces:
        i = bisect_left(xs, a)
        if xs[i] != a:
            xs.insert(i, a)
            cs.insert(i, cs[i - 1])
        j = bisect_left(xs, b, i)
        if xs[j] != b:
            xs.insert(j, b)
            cs.insert(j, cs[j - 1])
        for k in range(i, j):
            c = cs[k] - 1
            cs[k] = c
            if c <= 0:
                if c < 0:
                    raise InvariantError(
                        f"preimage count below 0 on grid interval [{xs[k]}, {xs[k + 1]})"
                    )
                zeros.append((xs[k], xs[k + 1]))
        if cs[j] == cs[j - 1]:
            del xs[j], cs[j]
        if i and cs[i] == cs[i - 1]:
            del xs[i], cs[i]
    return kernel.merge(zeros)


def compute_attractor(m: ItmMap, max_iter: int | None = None) -> AttractorResult:
    """Iterate X_{n+1} = T(X_n) from [0,1) until exact equality, through
    the preimage count on the map's integer grid (see the module notes).

    The default cap is Q, which the finite-type termination bound makes
    unreachable; a lower user cap yields ``infinite_type_suspected`` and
    X = X_cap. Two linear checks raise InvariantError: no count
    goes negative, and at stabilization every point of X has exactly one
    preimage in X (T(X) = X and each branch is a translation, so T is a
    bijection of X's grid cells).
    """
    if max_iter is None:
        max_iter = m.Q
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    grid = m.grid
    denom = grid.denom
    # c_0 and D_0 = X_0 minus X_1
    xs, cs, removed = _count(denom, kernel.push(grid, [(0, denom)]))
    step: int | None = None
    for n in range(max_iter):
        if not removed:
            step = n
            break
        if n + 1 < max_iter:
            removed = _remove(xs, cs, kernel.push(grid, removed))
    if step is not None and max(cs) > 1:
        raise InvariantError(f"X has a grid cell with {max(cs)} preimages in X at stabilization")
    # X = {c > 0}, X_n at stabilization and X_cap otherwise: its ends are
    # the breakpoints where the count turns positive or stops being so
    # (cs[-1] = -1 closes the last component)
    ends = []
    positive = False
    for x, c in zip(xs, cs):
        if (c > 0) is not positive:
            ends.append(x)
            positive = not positive
    return AttractorResult(grid, tuple(zip(ends[::2], ends[1::2])), step)


def nonwandering_witness(
    m: ItmMap, x: Fraction, delta: Fraction, horizon: int
) -> int | None:
    """First n <= horizon with T^n(U) meeting U for U = (x-d, x+d) clipped to
    [0, 1), computed exactly through interval images; None when no such n
    exists within the horizon."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    lo = max(Fraction(0), x - delta)
    hi = min(Fraction(1), x + delta)
    u = interval(lo, hi)
    if u.is_empty():
        raise ValueError("neighbourhood does not meet [0, 1)")
    grid, cur = _to_grid(m, u)
    (ul, ur), = cur
    for n in range(1, horizon + 1):
        cur = kernel.image(grid, cur)
        if any(l < ur and ul < r for l, r in cur):
            return n
    return None
