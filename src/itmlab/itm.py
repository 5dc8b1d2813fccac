"""The interval translation map itself: validation, signed dynamics, orbits.

A map on ``r`` branches is given by discontinuities
``0 < beta_1 < ... < beta_{r-1} < 1`` and translations ``gamma_1 .. gamma_r``
with ``T(x) = x + gamma_i`` on ``[beta_{i-1}, beta_i)``. Only rational
parameters are accepted, so every orbit lives on the grid ``{k/Q}`` for
``Q = lcm`` of all parameter denominators and every question below is
decidable exactly.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .intervals import Frozen, InvariantError, SignedPoint, parse_rational
from .kernel import Grid, branch_rule, on_grid


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


class ItmMap(Frozen):
    """Validated interval translation map, held as its integer grid: the
    cuts and translations as numerators over Q in lowest terms, so equal
    maps have equal grids. Build maps with :func:`validate` or
    :func:`from_numerators`, which check the polytope; the Fraction views
    ``beta``, ``gamma`` and ``cuts()`` are built on first read."""

    _fields = ("grid",)
    grid: Grid

    def __init__(self, grid: Grid) -> None:
        vars(self)["grid"] = grid

    @property
    def r(self) -> int:
        return len(self.grid.gamma)

    @property
    def Q(self) -> int:
        return self.grid.denom

    @cached_property
    def _fraction_cuts(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.grid.denom) for c in self.grid.cuts)

    def cuts(self) -> tuple[Fraction, ...]:
        """beta_0 = 0, beta_1, ..., beta_{r-1}, beta_r = 1."""
        return self._fraction_cuts

    @cached_property
    def beta(self) -> tuple[Fraction, ...]:
        return self._fraction_cuts[1:-1]

    @cached_property
    def gamma(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(g, self.grid.denom) for g in self.grid.gamma)

    @cached_property
    def image_compactly_contained(self) -> bool:
        """T(I) lies in (0, 1) with room to spare, which perturbations need."""
        denom, cuts, gamma = self.grid
        return all(0 < cuts[i] + g and cuts[i + 1] + g < denom for i, g in enumerate(gamma))

    # -- signed dynamics -------------------------------------------------

    def branch_of(self, p: SignedPoint) -> int:
        """Branch index in 1..r; '+' points use [b_{i-1}, b_i), '-' use (b_{i-1}, b_i]."""
        return branch_rule(p.side)(self._fraction_cuts, p.value)

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
        if res.point.value - p.value != total:
            raise InvariantError(f"T^{n}({p}) - {p} != {total}")
        return total


class IterationResult(NamedTuple):
    point: SignedPoint
    itinerary: tuple[int, ...]
    counts: tuple[int, ...]


def validate(r: int, beta: Sequence[Fraction], gamma: Sequence[Fraction]) -> ItmMap:
    """Check the polytope constraints and build the map.

    The parameters go onto the grid of their common denominator and
    through the integer check of :func:`from_numerators`.
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
    q = math.lcm(*(x.denominator for x in beta_t + gamma_t))
    return from_numerators(
        r, [on_grid(b, q) for b in beta_t], [on_grid(g, q) for g in gamma_t], q
    )


def from_numerators(r: int, beta: Sequence[int], gamma: Sequence[int], denom: int) -> ItmMap:
    """The map with ``beta_i = beta[i-1] / denom`` and ``gamma_i =
    gamma[i-1] / denom``, checked against the polytope on integers and
    reduced by the common gcd to its own grid ``1/Q``.

    Raises BadOrderError unless ``0 < beta_1 < ... < beta_{r-1} < 1`` and
    BadTranslationError for the first ``gamma_i`` outside
    ``[-beta_{i-1}, 1 - beta_i]``.
    """
    cuts = (0, *beta, denom)
    for i in range(1, r + 1):
        if not cuts[i - 1] < cuts[i]:
            shown = tuple(Fraction(b, denom) for b in beta)
            raise BadOrderError(f"discontinuities not strictly increasing: {shown}")
    for i, g in enumerate(gamma, start=1):
        if not -cuts[i - 1] <= g <= denom - cuts[i]:
            raise BadTranslationError(i, Fraction(g, denom))
    g = math.gcd(denom, *beta, *gamma)
    return ItmMap(Grid(denom // g, tuple([c // g for c in cuts]), tuple([x // g for x in gamma])))


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
    if not isinstance(r, int) or isinstance(r, bool):
        raise MapFormatError("r must be an integer")
    if not isinstance(doc["beta"], list) or not isinstance(doc["gamma"], list):
        raise MapFormatError("beta/gamma must be JSON arrays")
    try:
        beta = [parse_rational(b) for b in doc["beta"]]
        gamma = [parse_rational(g) for g in doc["gamma"]]
    except (ValueError, TypeError) as exc:
        raise MapFormatError(f"bad rational in map specification: {exc}") from exc
    m = validate(r, beta, gamma)
    # a report writes Q and every parameter as p/q with |p| <= Q and q
    # dividing Q, so a Q within the int-to-str digit limit can be written out
    check_digit_limit(m.Q, "grid denominator Q = lcm of the parameter denominators", MapFormatError)
    return m


def check_digit_limit(n: int, name: str, error: type[Exception]) -> None:
    """Raise ``error``, naming ``n`` as ``name``, when the positive integer
    ``n`` has more decimal digits than ``str`` writes
    (``sys.get_int_max_str_digits()``). A report writes each rational as
    p/q, so every denominator it writes must divide a bound that passes.
    2**(3 * limit) < 10**limit, so the bit length settles most values."""
    limit = sys.get_int_max_str_digits()
    if limit and n.bit_length() > 3 * limit and n >= 10**limit:
        raise error(
            f"{name} must have at most {limit} decimal digits (sys.get_int_max_str_digits())"
        )
