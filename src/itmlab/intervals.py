"""Exact scalars, signed points and half-open interval-set algebra.

Everything downstream is built on three kinds of values:

* rationals (``fractions.Fraction``) -- the only scalar type of the engine,
* signed points ``x-`` / ``x+`` carrying the left/right limit of the dynamics,
* canonical finite unions of half-open intervals ``[a, b)`` inside ``[0, 1]``.

All operations are pure and exact; there is no floating point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

MINUS = "-"
PLUS = "+"

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


class EmptySetError(ValueError):
    """An operation that needs non-empty interval sets got an empty one."""


def parse_rational(text: str | int) -> Fraction:
    """Parse the strict wire format ``p/q`` or ``p`` (optional leading minus)."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(q: Fraction) -> str:
    """Render as ``p/q`` (or ``p`` when the denominator is 1). Inverse of parse."""
    return str(q)


@dataclass(frozen=True)
class SignedPoint:
    """A one-sided point: ``value`` approached from the left (-) or right (+).

    ``x-`` stands for the limit from below, ``x+`` for the limit from above;
    ``0-`` and ``1+`` do not exist inside ``[0, 1]``. Ordered so that
    ``x- < x+`` for equal values.
    """

    value: Fraction
    side: str

    def __post_init__(self) -> None:
        if self.side not in (MINUS, PLUS):
            raise ValueError(f"side must be '-' or '+', got {self.side!r}")
        if not (0 <= self.value <= 1):
            raise ValueError(f"value {self.value} outside [0, 1]")
        if self.side == MINUS and self.value == 0:
            raise ValueError("0- is not a valid signed point")
        if self.side == PLUS and self.value == 1:
            raise ValueError("1+ is not a valid signed point")

    def _key(self) -> tuple[Fraction, int]:
        return (self.value, 0 if self.side == MINUS else 1)

    def __lt__(self, other: "SignedPoint") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "SignedPoint") -> bool:
        return self._key() <= other._key()

    def __str__(self) -> str:
        return f"{self.value}{self.side}"


def minus(value: Fraction | int) -> SignedPoint:
    return SignedPoint(Fraction(value), MINUS)


def plus(value: Fraction | int) -> SignedPoint:
    return SignedPoint(Fraction(value), PLUS)


Pair = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class IntervalSet:
    """Canonical finite union of disjoint half-open intervals ``[l, r)``.

    Canonical means: every pair has ``l < r``, pairs are sorted, and
    consecutive pairs are separated (abutting pairs are merged into one
    connected component). Construct through :func:`canonicalize`.
    """

    intervals: tuple[Pair, ...]

    def __post_init__(self) -> None:
        prev_right: Fraction | None = None
        for left, right in self.intervals:
            if not (0 <= left < right <= 1):
                raise ValueError(f"bad interval [{left}, {right})")
            if prev_right is not None and left <= prev_right:
                raise ValueError("intervals not separated/sorted")
            prev_right = right

    # -- queries ---------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> Fraction:
        return sum((r - l for l, r in self.intervals), Fraction(0))

    def components(self) -> tuple[Pair, ...]:
        """Connected components in left-to-right order."""
        return self.intervals

    def contains_value(self, x: Fraction) -> bool:
        return any(l <= x < r for l, r in self.intervals)

    def contains_signed(self, p: SignedPoint) -> bool:
        """Signed membership: ``v+`` lies in ``[l, r)`` iff ``l <= v < r``,
        ``v-`` iff ``l < v <= r``."""
        if p.side == PLUS:
            return any(l <= p.value < r for l, r in self.intervals)
        return any(l < p.value <= r for l, r in self.intervals)

    def closure_contains(self, x: Fraction) -> bool:
        return any(l <= x <= r for l, r in self.intervals)

    def distance_to_closure(self, x: Fraction) -> Fraction:
        """Exact distance from ``x`` to the closure (in ``[0, 1]``)."""
        if self.is_empty():
            raise EmptySetError("distance to empty set")
        best: Fraction | None = None
        for l, r in self.intervals:
            d = l - x if x < l else (x - r if x > r else Fraction(0))
            if best is None or d < best:
                best = d
        assert best is not None
        return best

    def issubset(self, other: "IntervalSet") -> bool:
        return self.difference(other).is_empty()

    # -- set algebra -----------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return canonicalize(list(self.intervals) + list(other.intervals))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Pair] = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return canonicalize(out)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """One two-pointer pass: ``j`` skips the intervals of ``other`` that
        end before the current interval of ``self`` starts."""
        out: list[Pair] = []
        b = other.intervals
        j = 0
        for l, r in self.intervals:
            while j < len(b) and b[j][1] <= l:
                j += 1
            cur = l
            k = j
            while k < len(b) and b[k][0] < r:
                bl, br = b[k]
                if bl > cur:
                    out.append((cur, bl))
                cur = max(cur, br)
                k += 1
            if cur < r:
                out.append((cur, r))
        return IntervalSet(tuple(out))

    def __str__(self) -> str:
        if not self.intervals:
            return "{}"
        return " u ".join(f"[{l},{r})" for l, r in self.intervals)


EMPTY = IntervalSet(())


def canonicalize(raw: Iterable[Sequence[Fraction | int]]) -> IntervalSet:
    """Sort, drop degenerate pairs and merge overlapping or abutting ones.

    Input pairs must satisfy ``left <= right``; degenerate pairs are dropped,
    so degenerate input simply yields the empty set.
    """
    pairs: list[Pair] = []
    for entry in raw:
        l, r = Fraction(entry[0]), Fraction(entry[1])
        if l > r:
            raise ValueError(f"inverted interval [{l}, {r})")
        if l < r:
            pairs.append((l, r))
    pairs.sort()
    merged: list[Pair] = []
    for l, r in pairs:
        if merged and l <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], r))
        else:
            merged.append((l, r))
    return IntervalSet(tuple(merged))


def interval(l: Fraction | int, r: Fraction | int) -> IntervalSet:
    return canonicalize([(Fraction(l), Fraction(r))])


def set_ops(a: IntervalSet, b: IntervalSet, kind: str) -> IntervalSet:
    """Dispatch helper for the three exact set operations."""
    if kind == "union":
        return a.union(b)
    if kind == "intersection":
        return a.intersection(b)
    if kind == "difference":
        return a.difference(b)
    raise ValueError(f"unknown set operation {kind!r}")


def _directed_hausdorff(a: IntervalSet, b: IntervalSet) -> Fraction:
    # sup over closure(a) of dist(x, closure(b)); the sup of a piecewise
    # linear function is attained at an endpoint of a or at a gap midpoint
    # of b lying inside closure(a).
    candidates: list[Fraction] = []
    for l, r in a.intervals:
        candidates.append(l)
        candidates.append(r)
    bints = b.intervals
    for k in range(len(bints) - 1):
        mid = (bints[k][1] + bints[k + 1][0]) / 2
        if a.closure_contains(mid):
            candidates.append(mid)
    return max(b.distance_to_closure(x) for x in candidates)


def hausdorff_closure_distance(a: IntervalSet, b: IntervalSet) -> Fraction:
    """Exact Hausdorff distance between the closures of two interval sets.

    Closures are taken in ``[0, 1]`` (each ``[l, r)`` becomes ``[l, r]``).
    Symmetric, and zero iff the closures coincide.
    """
    if a.is_empty() or b.is_empty():
        raise EmptySetError("hausdorff distance needs non-empty sets")
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))
