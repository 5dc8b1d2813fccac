"""Exact scalars, signed points and half-open interval-set algebra.

Everything downstream is built on three kinds of values:

* rationals (``fractions.Fraction``) -- the only scalar type of the engine,
* signed points ``x-`` / ``x+`` carrying the left/right limit of the dynamics,
* canonical finite unions of half-open intervals ``[a, b)`` inside ``[0, 1]``.

All operations are pure and exact; there is no floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

MINUS = "-"
PLUS = "+"

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


class EmptySetError(ValueError):
    """An operation that needs non-empty interval sets got an empty one."""


def parse_rational(text: str | int) -> Fraction:
    """Parse the strict wire format ``p/q`` or ``p`` (optional leading minus,
    ASCII digits only, nothing before or after); a JSON integer is taken
    as is, a JSON boolean is not a number."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


class InvariantError(AssertionError):
    """An exact identity the engine re-checks on every run failed, which
    only a bug can cause; the message names the identity. A typed error
    rather than an ``assert``, so the checks also run under ``python -O``."""


class Frozen:
    """Base of the records with cached views or checked input; plain records
    are NamedTuples. ``__init__`` stores the value fields ``_fields`` first (a
    record may store more after them), equality, hash and repr use only them,
    and nothing can be set or deleted. Creating a subclass generates no code."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        d = vars(self)
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")


class SignedPoint(Frozen):
    """A one-sided point: ``value`` approached from the left (-) or right (+).

    ``x-`` stands for the limit from below, ``x+`` for the limit from above;
    ``0-`` and ``1+`` do not exist inside ``[0, 1]``. Ordered so that
    ``x- < x+`` for equal values.
    """

    _fields = ("value", "side")
    value: Fraction
    side: str

    def __init__(self, value: Fraction, side: str) -> None:
        if side not in (MINUS, PLUS):
            raise ValueError(f"side must be '-' or '+', got {side!r}")
        if not (0 <= value <= 1):
            raise ValueError(f"value {value} outside [0, 1]")
        if side == MINUS and value == 0:
            raise ValueError("0- is not a valid signed point")
        if side == PLUS and value == 1:
            raise ValueError("1+ is not a valid signed point")
        vars(self).update(value=value, side=side)

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


class IntervalSet(Frozen):
    """Canonical finite union of disjoint half-open intervals ``[l, r)``.

    Canonical means: every pair has ``l < r``, pairs are sorted, and
    consecutive pairs are separated (abutting pairs are merged into one
    connected component). Construct through :func:`canonicalize`.
    """

    _fields = ("intervals",)
    intervals: tuple[Pair, ...]

    def __init__(self, intervals: tuple[Pair, ...]) -> None:
        prev_right: Fraction | None = None
        for left, right in intervals:
            if not (0 <= left < right <= 1):
                raise ValueError(f"bad interval [{left}, {right})")
            if prev_right is not None and left <= prev_right:
                raise ValueError("intervals not separated/sorted")
            prev_right = right
        vars(self)["intervals"] = intervals

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
        return min(l - x if x < l else (x - r if x > r else Fraction(0)) for l, r in self.intervals)

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


def merge(pieces: list[tuple]) -> list[tuple]:
    """Sort and merge overlapping or abutting pairs (all with ``l < r``);
    fewer than two pairs come back as they are."""
    if len(pieces) < 2:
        return pieces
    pieces.sort()
    out: list[tuple] = []
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
    return IntervalSet(tuple(merge(pairs)))


def interval(l: Fraction | int, r: Fraction | int) -> IntervalSet:
    return canonicalize([(Fraction(l), Fraction(r))])
