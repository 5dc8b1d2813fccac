"""The interval translation map itself: validation, signed dynamics, orbits.

A map on ``r`` branches is given by discontinuities
``0 < beta_1 < ... < beta_{r-1} < 1`` and translations ``gamma_1 .. gamma_r``
with ``T(x) = x + gamma_i`` on ``[beta_{i-1}, beta_i)``. Only rational
parameters are accepted, so every orbit lives on the grid ``{k/Q}`` for
``Q = lcm`` of all parameter denominators and every question below is
decidable exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .intervals import SignedPoint, parse_rational
from .kernel import Grid, branch_rule


class BadOrderError(ValueError):
    """Discontinuities are not strictly increasing inside (0, 1)."""


class BadTranslationError(ValueError):
    """gamma_i falls outside [-beta_{i-1}, 1 - beta_i]."""

    def __init__(self, index: int, value: Fraction):
        self.index = index
        self.value = value
        super().__init__(f"gamma_{index} = {value} violates the polytope constraint")


class MapFormatError(ValueError):
    """A map specification file does not follow the wire format."""


@dataclass(frozen=True)
class ItmMap:
    """Validated interval translation map with cached grid denominator Q.

    ``grid`` holds the cuts and translations as integer numerators over Q,
    computed once here for the integer kernel.
    """

    r: int
    beta: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]
    Q: int
    image_compactly_contained: bool
    _cuts: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    grid: Grid = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cuts = (Fraction(0),) + self.beta + (Fraction(1),)
        object.__setattr__(self, "_cuts", cuts)
        object.__setattr__(self, "grid", Grid.of(cuts, self.gamma, self.Q))

    def cuts(self) -> tuple[Fraction, ...]:
        """beta_0 = 0, beta_1, ..., beta_{r-1}, beta_r = 1."""
        return self._cuts

    # -- signed dynamics -------------------------------------------------

    def branch_of(self, p: SignedPoint) -> int:
        """Branch index in 1..r; '+' points use [b_{i-1}, b_i), '-' use (b_{i-1}, b_i]."""
        return branch_rule(p.side)(self._cuts, p.value)

    def step(self, p: SignedPoint) -> SignedPoint:
        """One application of T; translation preserves the side tag."""
        return SignedPoint(p.value + self.gamma[self.branch_of(p) - 1], p.side)

    def iterate(self, p: SignedPoint, n: int) -> "IterationResult":
        """n-fold iteration with itinerary and per-branch entry counts."""
        if n < 0:
            raise ValueError("n must be >= 0")
        symbols: list[int] = []
        counts = [0] * self.r
        cur = p
        for _ in range(n):
            b = self.branch_of(cur)
            symbols.append(b)
            counts[b - 1] += 1
            cur = SignedPoint(cur.value + self.gamma[b - 1], cur.side)
        return IterationResult(cur, tuple(symbols), tuple(counts))

    def translation_factor(self, p: SignedPoint, n: int) -> Fraction:
        """T^n(p) - p, equal to sum_s k_s(p, n) * gamma_s exactly."""
        if n < 1:
            raise ValueError("n must be >= 1")
        res = self.iterate(p, n)
        total = sum((k * g for k, g in zip(res.counts, self.gamma)), Fraction(0))
        assert res.point.value - p.value == total
        return total

    def classify_orbit(self, p: SignedPoint) -> Union["Precritical", "Preperiodic"]:
        """Decide the fate of a signed orbit on the 1/Q grid.

        Purely periodic starting points are reported Preperiodic even when a
        discontinuity lies on their cycle (passing through it is part of the
        periodic motion, not a transient landing). Otherwise the minimal
        landing time >= 1 on some beta_i wins, and only then preperiod and
        period are reported. Terminates within Q + 1 states.
        """
        beta_index = {b: i + 1 for i, b in enumerate(self.beta)}
        seen: dict[Fraction, int] = {}
        first_hit: tuple[int, int] | None = None
        cur = p
        t = 0
        while cur.value not in seen:
            seen[cur.value] = t
            cur = self.step(cur)
            t += 1
            if first_hit is None and cur.value in beta_index and cur.value not in seen:
                first_hit = (beta_index[cur.value], t)
        preperiod = seen[cur.value]
        period = t - preperiod
        if preperiod == 0:
            return Preperiodic(0, period)
        if first_hit is not None:
            return Precritical(first_hit[0], p.side, first_hit[1])
        return Preperiodic(preperiod, period)


@dataclass(frozen=True)
class IterationResult:
    point: SignedPoint
    itinerary: tuple[int, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class Precritical:
    """The orbit lands on beta_{index} (side inherited) at the given time."""

    index: int
    side: str
    time: int


@dataclass(frozen=True)
class Preperiodic:
    preperiod: int
    period: int


def validate(r: int, beta: Sequence[Fraction], gamma: Sequence[Fraction]) -> ItmMap:
    """Check the polytope constraints and build the map.

    Also records whether T(I) is compactly contained in (0, 1), which the
    perturbation machinery relies on.
    """
    if r < 2:
        raise BadOrderError(f"need r >= 2 branches, got {r}")
    if len(beta) != r - 1 or len(gamma) != r:
        raise MapFormatError(
            f"expected {r - 1} discontinuities and {r} translations, "
            f"got {len(beta)} and {len(gamma)}"
        )
    beta_t = tuple(Fraction(b) for b in beta)
    gamma_t = tuple(Fraction(g) for g in gamma)
    cuts = (Fraction(0),) + beta_t + (Fraction(1),)
    for i in range(1, len(cuts)):
        if not cuts[i - 1] < cuts[i]:
            raise BadOrderError(f"discontinuities not strictly increasing: {beta_t}")
    for i in range(1, r + 1):
        g = gamma_t[i - 1]
        if not (-cuts[i - 1] <= g <= 1 - cuts[i]):
            raise BadTranslationError(i, g)
    q = 1
    for x in beta_t + gamma_t:
        q = math.lcm(q, x.denominator)
    lo = min(cuts[i - 1] + gamma_t[i - 1] for i in range(1, r + 1))
    hi = max(cuts[i] + gamma_t[i - 1] for i in range(1, r + 1))
    compact = lo > 0 and hi < 1
    return ItmMap(r, beta_t, gamma_t, q, compact)


_MAP_KEYS = {"r", "beta", "gamma"}


def parse_map(doc: dict) -> ItmMap:
    """Build a map from the JSON wire format; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise MapFormatError("map specification must be a JSON object")
    unknown = set(doc) - _MAP_KEYS
    if unknown:
        raise MapFormatError(f"unknown keys in map specification: {sorted(unknown)}")
    missing = _MAP_KEYS - set(doc)
    if missing:
        raise MapFormatError(f"missing keys in map specification: {sorted(missing)}")
    r = doc["r"]
    if not isinstance(r, int):
        raise MapFormatError("r must be an integer")
    try:
        beta = [parse_rational(b) for b in doc["beta"]]
        gamma = [parse_rational(g) for g in doc["gamma"]]
    except (ValueError, TypeError) as exc:
        raise MapFormatError(f"bad rational in map specification: {exc}") from exc
    return validate(r, beta, gamma)


def load_map(path: str) -> ItmMap:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MapFormatError(f"invalid JSON: {exc}") from exc
    return parse_map(doc)
