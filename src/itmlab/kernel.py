"""Integer-grid kernel: the hot loops on numerators of one ``1/denom`` grid.

Every value a rational map reaches is ``k / denom`` for a fixed ``denom``
(the map's Q, or a multiple of it when the input is finer), so the kernel
carries only the integer ``k``: interval unions are sorted canonical lists of
``(int, int)`` pairs and signed points are ``(int, side)``. Fractions cross
in through :func:`on_grid`, which is exact or raises, and out through
:func:`to_interval_set`; everything in between is integer arithmetic, still
exact and free of floating point.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import NamedTuple, Sequence

from .intervals import PLUS, IntervalSet

IntPair = tuple[int, int]


class OffGridError(ValueError):
    """A rational is not an integer multiple of ``1/denom``."""


class NestingViolatedError(AssertionError):
    """X_{n+1} is not contained in X_n; impossible on exact data, so a bug."""


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
    integer numerators over ``denom``. A NamedTuple rather than a dataclass
    because class creation at import is ten times cheaper."""

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


def merge(pieces: list[IntPair]) -> list[IntPair]:
    """Sort and merge overlapping or abutting pairs (all with ``l < r``)."""
    pieces.sort()
    out: list[IntPair] = []
    if not pieces:
        return out
    cur_l, cur_r = pieces[0]
    for l, r in pieces:
        if l <= cur_r:
            if r > cur_r:
                cur_r = r
        else:
            out.append((cur_l, cur_r))
            cur_l, cur_r = l, r
    out.append((cur_l, cur_r))
    return out


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


def image(grid: Grid, pairs: Sequence[IntPair]) -> list[IntPair]:
    """Exact T(S): split each interval at the cuts inside it, translate each
    piece by its branch, then sort and merge."""
    cuts, gamma = grid.cuts, grid.gamma
    pieces: list[IntPair] = []
    for l, r in pairs:
        for lo, hi, i in split(cuts, l, r):
            g = gamma[i - 1]
            pieces.append((lo + g, hi + g))
    return merge(pieces)


def check_nested(inner: Sequence[IntPair], outer: Sequence[IntPair]) -> None:
    """Raise NestingViolatedError unless ``inner`` is a subset of ``outer``.

    One two-pointer pass over both canonical lists: each interval of
    ``inner`` must lie in the first component of ``outer`` that does not
    end before it does.
    """
    j, n = 0, len(outer)
    for l, r in inner:
        while j < n and outer[j][1] < r:
            j += 1
        if j == n or outer[j][0] > l:
            raise NestingViolatedError(
                f"nesting X_(n+1) <= X_n violated: grid interval [{l}, {r}) is outside X_n"
            )
