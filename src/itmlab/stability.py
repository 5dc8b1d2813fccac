"""ACC and Matching checks, the analysis that carries their verdicts, and
perturbation probes.

``FullAnalysis.stable`` is the right-hand side of the characterisation
theorem: a map is declared stable iff it is finite type and passes A1, A2,
A3 and Matching, each a :class:`~itmlab.ghost.Verdict` cached on the analysis.
The Hausdorff/homeomorphism definition of stability quantifies over all
small perturbations and is not decidable directly; ``perturbation_probe``
cross-validates the verdict empirically with exact rational perturbations,
and ``a3_breaking_perturbation`` realizes the explicit attractor-enlarging
perturbation that an A3 violation promises.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .attractor import AttractorResult, compute_attractor
from .ghost import GhostGraph, Verdict, build_ghost_graph, check_A3
from .intervals import MINUS, PLUS, Frozen
from .itm import BadOrderError, BadTranslationError, ItmMap, from_numerators, validate
from .kernel import hausdorff_closure_distance
from .return_map import (
    IDENTITY,
    NotFiniteTypeError,
    ReturnMapData,
    classify_return_dynamics,
    compute_return_map,
    transported,
)

# Probe deltas are drawn on the grid epsilon / 2**10 by a linear congruential
# generator with fixed published constants (Numerical Recipes).
LCG_A = 1664525
LCG_C = 1013904223
LCG_M = 2**32
GRID_BITS = 10


def probe_grid(q: int, epsilon: Fraction) -> int:
    """D = lcm(Q, 2**GRID_BITS den(epsilon)): the grid of every perturbed
    parameter a probe of a map with grid denominator ``q`` draws."""
    return math.lcm(q, 2**GRID_BITS * epsilon.denominator)


class NoValidSamplesError(RuntimeError):
    """Every probe draw left the parameter polytope."""


class NotRealizableDirectlyError(RuntimeError):
    """There is no ghost cycle, or direct parameter shifts alone cannot
    break it (legs share branches or hit other discontinuities mid-leg)."""


# the verdict of every condition on a capped attractor
_NOT_FINITE_TYPE = Verdict({"reason": "not finite type"})


class FullAnalysis(Frozen):
    """An analysis holds its attractor, computed up front; the map is read
    off its grid, and the return maps, the ghost graph and the verdicts are
    built on first access (the return maps and the ghost graph of a capped
    attractor raise NotFiniteTypeError)."""

    _fields = ("attractor",)
    attractor: AttractorResult

    def __init__(self, attractor: AttractorResult) -> None:
        vars(self)["attractor"] = attractor

    @cached_property
    def map(self) -> ItmMap:
        return ItmMap(self.attractor.grid)

    @cached_property
    def return_maps(self) -> tuple[ReturnMapData, ...]:
        """One return map per component, in order; NotFiniteTypeError if capped.

        One orbit is walked per tower. A component J with no cut strictly
        inside whose image J + gamma_b is exactly a component J' hands its
        return map on to J' (see :mod:`itmlab.return_map`). Only the roots,
        the components that are not such an image, are walked, and one
        component of each tower that closes into a cycle.
        """
        attractor = self.attractor
        comps = attractor.kcomponents
        n = len(comps)
        cuts, gamma = attractor.grid.cuts, attractor.grid.gamma
        # (index of J's image, J's branch) for each J that hands its return
        # map on; T|X is a bijection, so each component is the image of at
        # most one other and two towers never merge
        successor: dict[int, tuple[int, int]] = {}
        is_image = [False] * n
        for k, (l, r) in enumerate(comps):
            b = bisect_right(cuts, l)  # branch of l+
            if r <= cuts[b]:
                image = (l + gamma[b - 1], r + gamma[b - 1])
                k2 = bisect_left(comps, image)
                if k2 < n and comps[k2] == image:
                    successor[k] = (k2, b - 1)
                    is_image[k2] = True
        out: list[ReturnMapData | None] = [None] * n
        # the roots first (the sort is stable); the components left are cycles
        for k in sorted(range(n), key=is_image.__getitem__):
            if out[k] is None:
                out[k] = data = compute_return_map(comps[k], attractor)
                while k in successor:
                    k, b = successor[k]
                    if out[k] is not None:  # the cycle closed
                        break
                    out[k] = data = transported(data, b)
        return tuple(out)

    @cached_property
    def ghost_graph(self) -> GhostGraph:
        return build_ghost_graph(self.attractor)

    @property
    def finite_type(self) -> bool:
        return self.attractor.finite_type

    @cached_property
    def a1(self) -> Verdict:
        if not self.finite_type:
            return _NOT_FINITE_TYPE
        return check_A1(self.return_maps)

    @cached_property
    def a2(self) -> Verdict:
        if not self.finite_type:
            return _NOT_FINITE_TYPE
        return check_A2(self)

    @cached_property
    def a3(self) -> Verdict:
        """A3 on the ghost graph; its witness is an :class:`~itmlab.ghost.A3Witness`."""
        if not self.finite_type:
            return _NOT_FINITE_TYPE
        return check_A3(self.ghost_graph)

    @cached_property
    def matching(self) -> Verdict:
        if not self.finite_type:
            return _NOT_FINITE_TYPE
        return check_matching(self.return_maps)

    @property
    def stable(self) -> bool:
        """The characterisation: finite type, and A1, A2, A3 and Matching hold."""
        return (self.finite_type and self.a1.holds and self.a2.holds
                and self.a3.holds and self.matching.holds)


class PerturbationSpec(NamedTuple):
    """Delta vector over (gamma_1..gamma_r, beta_1..beta_{r-1})."""

    epsilon: Fraction
    deltas: tuple[Fraction, ...]


class DirectedPerturbation(NamedTuple):
    """The deltas, the interval they make periodic, its period and the perturbed map."""

    spec: PerturbationSpec
    predicted_interval: tuple[Fraction, Fraction]
    period: int
    perturbed: ItmMap


class SampleRecord(NamedTuple):
    """One probe draw; the fields past ``accepted`` are None for a rejected
    draw, and ``khausdorff`` is over ``ProbeResult.hausdorff_denom``. A
    NamedTuple, cheaper to build than a :class:`~itmlab.intervals.Frozen` record."""

    index: int
    accepted: bool
    component_count: int | None = None
    khausdorff: int | None = None
    disc_inside: int | None = None
    disc_outside_closure: int | None = None
    signature_match: bool | None = None


class ProbeResult(Frozen):
    """The sample records of a probe; the summary is read off them.
    ``base`` is the analysis of the unperturbed map, which ``itmlab probe``
    reports (not a value field)."""

    _fields = ("epsilon", "seed", "samples")
    epsilon: Fraction
    seed: int
    samples: tuple[SampleRecord, ...]
    base: FullAnalysis

    def __init__(self, epsilon, seed, samples, base):
        vars(self).update(epsilon=epsilon, seed=seed, samples=samples, base=base)

    @cached_property
    def _accepted(self) -> tuple[SampleRecord, ...]:
        return tuple(rec for rec in self.samples if rec.accepted)

    @cached_property
    def accepted(self) -> int:
        return len(self._accepted)

    @cached_property
    def hausdorff_denom(self) -> int:
        """2 D, D = ``probe_grid(Q, epsilon)``, the grid of every
        ``khausdorff``: the base grid and each sample's reduced grid divide
        D, and on 2 D every gap midpoint is a grid point."""
        return 2 * probe_grid(self.base.attractor.denom, self.epsilon)

    @cached_property
    def max_hausdorff(self) -> Fraction:
        return Fraction(max(rec.khausdorff for rec in self._accepted), self.hausdorff_denom)

    @cached_property
    def min_hausdorff(self) -> Fraction:
        return Fraction(min(rec.khausdorff for rec in self._accepted), self.hausdorff_denom)

    @cached_property
    def all_signatures_match(self) -> bool:
        return all(rec.signature_match for rec in self._accepted)

    @cached_property
    def component_counts(self) -> tuple[int, ...]:
        return tuple(sorted({rec.component_count for rec in self._accepted}))


def _signature(analysis_return_maps: tuple[ReturnMapData, ...]) -> tuple:
    return tuple([(d.n_intervals, d.return_times, d.sigma) for d in analysis_return_maps])


def check_A1(return_maps: tuple[ReturnMapData, ...]) -> Verdict:
    """At most one critical hit along every signed endpoint's journey back to
    its component (a time-0 hit counts when the point itself is critical)."""
    for comp_idx, data in enumerate(return_maps, start=1):
        for chain in data.chains:
            if len(chain.hits) > 1:
                return Verdict({
                    "component": comp_idx,
                    "cut_index": chain.j,
                    "side": chain.side,
                    "point": Fraction(data.kcuts[chain.j], data.grid.denom),
                    "hits": [(h.disc, h.time) for h in chain.hits],
                })
    return Verdict()


def check_A2(analysis: FullAnalysis) -> Verdict:
    """Boundary points of dynamically non-trivial components hit no
    discontinuity before returning (time 0 included, so a critical boundary
    point is itself a violation), and no discontinuity sits on the boundary
    of the closure of X.

    The closure-boundary clause also covers dynamically trivial components:
    a pointwise-fixed band whose endpoint is a discontinuity breaks up under
    perturbation even though its boundary chains are skipped, so a critical
    endpoint anywhere on the closure of X is fatal (``attractor.boundary_hits``).
    """
    attractor = analysis.attractor
    if not attractor.finite_type:
        raise NotFiniteTypeError("A2 needs a finite-type attractor")
    if attractor.boundary_hits:
        i = attractor.boundary_hits[0]
        b = attractor.grid.cuts[i]
        # components are separated, so b is exactly one endpoint: the left
        # end of component p // 2 + 1 when its position p is even
        p = bisect_left(attractor.ends, b)
        return Verdict({
            "component": p // 2 + 1,
            "boundary": "right" if p % 2 else "left",
            "point": Fraction(b, attractor.denom),
            "first_hit": (i, 0),
            "kind": "closure_boundary",
        })
    for comp_idx, data in enumerate(analysis.return_maps, start=1):
        if data.dynamically_trivial:
            continue
        n = data.n_intervals
        for j, side in ((0, PLUS), (n, MINUS)):
            chain = data.chain(j, side)
            if chain.hits:
                return Verdict({
                    "component": comp_idx,
                    "boundary": "left" if side == PLUS else "right",
                    "point": Fraction(data.kcuts[j], data.grid.denom),
                    "first_hit": (chain.hits[0].disc, chain.hits[0].time),
                })
    return Verdict()


def check_matching(return_maps: tuple[ReturnMapData, ...]) -> Verdict:
    """Every dynamically non-trivial component returns like a rotation:
    exactly one interior landing point and the two pieces swapped.

    A component with one interior landing whose pieces both return to
    themselves (the return map is then the identity) is reported as a
    violation: its halves join only through the coincidence, and the
    attractor does not survive perturbations there.
    """
    for comp_idx, data in enumerate(return_maps, start=1):
        if data.dynamically_trivial:
            continue
        n = data.n_intervals
        if n != 2:
            return Verdict({
                "component": comp_idx,
                "interior_landing_points": n - 1,
                "reason": "interior landing count != 1",
            })
        if classify_return_dynamics(data) == IDENTITY:
            return Verdict({
                "component": comp_idx,
                "interior_landing_points": 1,
                "reason": "pieces return to themselves (identity with a coincidental cut)",
            })
    return Verdict()


def full_analysis(m: ItmMap, max_iter: int | None = None) -> FullAnalysis:
    """The attractor now; the return maps, the ghost graph, the verdicts
    and the signed chains when first read."""
    return FullAnalysis(compute_attractor(m, max_iter))


# -- perturbation machinery ------------------------------------------------


def apply_spec(m: ItmMap, spec: PerturbationSpec) -> ItmMap:
    """Perturbed map; raises ValueError unless epsilon > 0 and there are
    2r - 1 deltas, each with |delta| <= epsilon, and
    BadOrderError/BadTranslationError when they leave the polytope."""
    if spec.epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if len(spec.deltas) != 2 * m.r - 1:
        raise ValueError(
            f"a map with r = {m.r} takes 2r - 1 = {2 * m.r - 1} deltas, got {len(spec.deltas)}"
        )
    for i, delta in enumerate(spec.deltas):
        if abs(delta) > spec.epsilon:
            raise ValueError(f"|delta {i}| = {abs(delta)} exceeds epsilon = {spec.epsilon}")
    gamma = [g + spec.deltas[i] for i, g in enumerate(m.gamma)]
    beta = [b + spec.deltas[m.r + i] for i, b in enumerate(m.beta)]
    return validate(m.r, beta, gamma)


def _probe_one(
    index: int, m: ItmMap, double: int, base_ends: list[int], base_signature: tuple
) -> SampleRecord:
    """One accepted sample, compared with the base attractor on integers:
    its endpoints ``base_ends`` over the probe grid ``double`` = 2 D, which
    the sample's reduced grid divides, and its return-map signature."""
    analysis = full_analysis(m)
    attractor = analysis.attractor
    n = len(attractor.kcomponents)
    scale = double // attractor.denom
    khausdorff = hausdorff_closure_distance(base_ends, [k * scale for k in attractor.ends])
    match = (attractor.finite_type and n == len(base_signature)
             and _signature(analysis.return_maps) == base_signature)
    return SampleRecord(index, True, n, khausdorff, len(attractor.discontinuities_inside),
                        len(attractor.discontinuities_outside), match)


def perturbation_probe(
    m: ItmMap, epsilon: Fraction, samples: int, seed: int
) -> ProbeResult:
    """Exact random probe of the neighbourhood of a finite-type map.

    Samples are drawn deterministically from (seed, index); out-of-polytope
    draws are rejected but keep their index. Records component counts,
    discontinuity counts, Hausdorff distances and return-map signature
    matches against the unperturbed map, in sample order.

    Each delta is ``k * epsilon / 2**GRID_BITS`` with an integer ``k`` from
    the LCG, so every perturbed parameter is an integer numerator over one
    grid D (:func:`probe_grid`) and each perturbed map is built from
    integers (:func:`~itmlab.itm.from_numerators`). The base
    attractor's endpoints are scaled onto 2 D once, and each Hausdorff
    distance is kept as its numerator over 2 D.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    base = full_analysis(m)  # the default cap Q is never reached
    base_signature = _signature(base.return_maps)
    grid = 2**GRID_BITS
    span = 2 * grid - 1  # k in [-(grid-1), grid-1] keeps |delta| < epsilon
    denom = probe_grid(m.Q, epsilon)
    unit = epsilon.numerator * (denom // (grid * epsilon.denominator))
    scale = denom // m.Q
    base_ends = [k * 2 * scale for k in base.attractor.ends]
    # numerators over denom in draw order: gamma_1..gamma_r, beta_1..beta_{r-1}
    params = [g * scale for g in m.grid.gamma] + [c * scale for c in m.grid.cuts[1:-1]]
    state = seed % LCG_M
    records = []
    for i in range(samples):
        shifted = []
        for p in params:
            state = (LCG_A * state + LCG_C) % LCG_M
            shifted.append(p + (state % span - (grid - 1)) * unit)
        try:
            perturbed = from_numerators(m.r, shifted[m.r:], shifted[:m.r], denom)
        except (BadOrderError, BadTranslationError):
            records.append(SampleRecord(i, accepted=False))
            continue
        records.append(_probe_one(i, perturbed, 2 * denom, base_ends, base_signature))
    if not any(rec.accepted for rec in records):
        raise NoValidSamplesError("all probe draws left the parameter polytope")
    return ProbeResult(epsilon, seed, tuple(records), base)


def a3_breaking_perturbation(analysis: FullAnalysis, epsilon: Fraction) -> DirectedPerturbation:
    """Directed deltas that close the violated ghost cycle of ``analysis``
    into a periodic interval.

    Each leg of the cycle is pushed past its target by epsilon, to the right
    for minus-type legs and to the left for plus-type legs, so the interval
    hugging the starting discontinuity maps around the cycle continuously
    and returns to itself with period sum(k_j). Implemented only in the
    direct special case: legs must not hit other discontinuities on the way
    and must use pairwise disjoint branch sets, so that adjusting one gamma
    per leg realizes exactly the required shifts; each leg's branch counts
    are on its ghost edge. A capped analysis raises NotFiniteTypeError.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    graph = analysis.ghost_graph
    witness = analysis.a3.witness
    if witness is None:
        raise NotRealizableDirectlyError("A3 holds: there is no ghost cycle to break")
    cycle = witness.cycle
    legs = []
    for node, target in zip(cycle, cycle[1:] + cycle[:1]):
        # the edges out of a node are the first landings of its one walk, so
        # the leg meets another discontinuity first iff one lands sooner
        landings = graph.parents(node)
        leg = next(e for e in landings if e.parent == target)
        if any(e.time < leg.time for e in landings):
            raise NotRealizableDirectlyError(
                "a cycle leg hits another discontinuity before its landing"
            )
        legs.append(leg)
    used = [i for leg in legs for i, c in enumerate(leg.counts) if c]
    if len(used) != len(set(used)):  # the branch sets are not pairwise disjoint
        raise NotRealizableDirectlyError(
            "cycle legs share branches; direct gamma shifts cannot decouple them"
        )
    m = analysis.map
    deltas = [Fraction(0)] * (2 * m.r - 1)
    for leg in legs:
        i = next(i for i, c in enumerate(leg.counts) if c)  # the lowest branch used
        sign = 1 if leg.child[1] == MINUS else -1
        deltas[i] = Fraction(sign, leg.counts[i]) * epsilon
    spec = PerturbationSpec(epsilon, tuple(deltas))
    try:
        perturbed = apply_spec(m, spec)
    except (BadOrderError, BadTranslationError) as exc:
        raise NotRealizableDirectlyError(f"directed deltas leave the polytope: {exc}") from exc
    start_node = cycle[0]
    beta0 = m.beta[start_node[0] - 1]
    predicted = (beta0 - epsilon, beta0) if start_node[1] == MINUS else (beta0, beta0 + epsilon)
    return DirectedPerturbation(spec, predicted, sum(witness.times), perturbed)
