"""Nested forward images, the attractor X and the non-wandering probe.

``X_0 = [0,1)`` and ``X_{n+1} = T(X_n)`` form a nested chain of finite
interval unions. For rational parameters the chain stabilizes after at most
Q steps: measure lives on the 1/Q grid, strictly drops until the fixed point
is reached, and nested equal-measure unions of half-open intervals coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import kernel
from .intervals import IntervalSet, Pair, interval
from .itm import ItmMap
from .kernel import IntPair


class NotFiniteTypeError(RuntimeError):
    """An iteration cap was reached before the attractor stabilized."""


@dataclass(frozen=True)
class AttractorResult:
    """Attractor of a map together with the discontinuity classification.

    ``stabilization_step`` is the first n with X_{n+1} = X_n, or None when
    the cap was reached first (then ``infinite_type_suspected`` is set; for
    rational maps this only happens with a user-lowered cap).

    Discontinuities are partitioned into three lists: strictly inside a
    component (with its index), on the boundary of the closure of X, or at
    positive distance from the closure.

    ``kcomponents`` are the components of X as the kernel computed them:
    integer numerators over the map's grid.
    """

    X: IntervalSet
    stabilization_step: int | None
    infinite_type_suspected: bool
    discontinuities_inside: tuple[tuple[int, int], ...]
    discontinuities_outside: tuple[int, ...]
    boundary_hits: tuple[int, ...]
    kcomponents: tuple[IntPair, ...] = field(repr=False, compare=False)

    @property
    def finite_type(self) -> bool:
        return self.stabilization_step is not None

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


def orbit_closure(m: ItmMap, s: IntervalSet, cap: int | None = None) -> IntervalSet:
    """Union of all forward images of ``s`` (stabilizes for finite-type input)."""
    if cap is None:
        cap = 2 * m.Q * (m.r + 1)
    grid, total = _to_grid(m, s)
    cur = total
    for _ in range(cap):
        cur = kernel.image(grid, cur)
        nxt = kernel.merge(total + cur)
        if nxt == total:
            return kernel.to_interval_set(total, grid.denom)
        total = nxt
    raise NotFiniteTypeError("orbit union did not stabilize within the cap")


def compute_attractor(m: ItmMap, max_iter: int | None = None) -> AttractorResult:
    """Iterate X_{n+1} = T(X_n) from [0,1) until exact equality.

    The iteration runs on the map's integer grid; every step is checked to
    nest inside the previous one. The default cap is Q, which the
    finite-type termination bound makes unreachable; a lower user cap yields
    ``infinite_type_suspected``.
    """
    if max_iter is None:
        max_iter = m.Q
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    grid = m.grid
    cur: list[IntPair] = [(0, grid.denom)]
    step: int | None = None
    for n in range(max_iter):
        nxt = kernel.image(grid, cur)
        kernel.check_nested(nxt, cur)
        if nxt == cur:
            step = n
            break
        cur = nxt
    inside: list[tuple[int, int]] = []
    outside: list[int] = []
    boundary: list[int] = []
    for i, b in enumerate(grid.cuts[1:-1], start=1):
        comp = None
        on_boundary = False
        for k, (l, r) in enumerate(cur, start=1):
            if b == l or b == r:
                on_boundary = True
                break
            if l < b < r:
                comp = k
                break
        if on_boundary:
            boundary.append(i)
        elif comp is not None:
            inside.append((i, comp))
        else:
            outside.append(i)
    return AttractorResult(
        X=kernel.to_interval_set(cur, grid.denom),
        stabilization_step=step,
        infinite_type_suspected=step is None,
        discontinuities_inside=tuple(inside),
        discontinuities_outside=tuple(outside),
        boundary_hits=tuple(boundary),
        kcomponents=tuple(cur),
    )


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
