"""ACC and Matching checks, the stability verdict, and perturbation probes.

The verdict is the right-hand side of the characterisation theorem: a map is
declared stable iff it is finite type and passes A1, A2, A3 and Matching.
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
from .ghost import A3Result, GhostGraph, build_ghost_graph, check_A3
from .intervals import MINUS, PLUS, Frozen
from .itm import BadOrderError, BadTranslationError, ItmMap, from_numerators, validate
from .kernel import branch_rule, hausdorff_closure_distance
from .return_map import (
    IDENTITY,
    NotFiniteTypeError,
    ReturnMapData,
    _transported,
    classify_return_dynamics,
    compute_return_map,
)

# Probe deltas are drawn on the grid epsilon / 2**10 by a linear congruential
# generator with fixed published constants (Numerical Recipes).
LCG_A = 1664525
LCG_C = 1013904223
LCG_M = 2**32
GRID_BITS = 10


class NoValidSamplesError(RuntimeError):
    """Every probe draw left the parameter polytope."""


class NotRealizableDirectlyError(RuntimeError):
    """The ghost cycle cannot be broken by direct parameter shifts alone
    (legs share branches or hit other discontinuities mid-leg)."""


class Verdict(NamedTuple):
    holds: bool
    witness: dict | None = None


class StabilityReport(NamedTuple):
    finite_type: bool
    stabilization_step: int | None
    a1: Verdict
    a2: Verdict
    a3: Verdict
    matching: Verdict
    stable: bool


class FullAnalysis(Frozen):
    """The attractor, computed up front; the return maps, the ghost graph,
    its A3 result and the stability verdict are built on first access."""

    _fields = ("map", "attractor")
    map: ItmMap
    attractor: AttractorResult

    def __init__(self, map: ItmMap, attractor: AttractorResult) -> None:
        vars(self).update(map=map, attractor=attractor)

    @cached_property
    def return_maps(self) -> tuple[ReturnMapData, ...]:
        """One return map per component, in order; none for a capped attractor.

        One orbit is walked per tower. A component J with no cut strictly
        inside whose image J + gamma_b is exactly a component J' hands its
        return map on to J' (see :mod:`itmlab.return_map`). Only the roots,
        the components that are not such an image, are walked, and one
        component of each tower that closes into a cycle.
        """
        m, attractor = self.map, self.attractor
        if not attractor.finite_type:
            return ()
        comps = attractor.kcomponents
        n = len(comps)
        cuts, gamma = m.grid.cuts, m.grid.gamma
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
                out[k] = data = compute_return_map(m, comps[k], attractor)
                while k in successor:
                    k, b = successor[k]
                    if out[k] is not None:  # the cycle closed
                        break
                    out[k] = data = _transported(data, b)
        return tuple(out)

    @cached_property
    def ghost_graph(self) -> GhostGraph | None:
        if not self.attractor.finite_type:
            return None
        return build_ghost_graph(self.map, self.attractor)

    @cached_property
    def a3(self) -> A3Result | None:
        """A3 on the ghost graph, checked once for the verdict and the report."""
        if self.ghost_graph is None:
            return None
        return check_A3(self.ghost_graph)

    @cached_property
    def report(self) -> StabilityReport:
        if not self.attractor.finite_type:
            fails = Verdict(False, {"reason": "not finite type"})
            return StabilityReport(False, None, fails, fails, fails, fails, False)
        m, attractor, return_maps = self.map, self.attractor, self.return_maps
        a3 = self.a3
        a1 = check_A1(m, attractor, return_maps)
        a2 = check_A2(m, attractor, return_maps)
        matching = check_matching(m, attractor, return_maps)
        a3_verdict = Verdict(a3.holds, None if a3.holds else a3.witness.as_dict())
        return StabilityReport(
            finite_type=True,
            stabilization_step=attractor.stabilization_step,
            a1=a1,
            a2=a2,
            a3=a3_verdict,
            matching=matching,
            stable=a1.holds and a2.holds and a3.holds and matching.holds,
        )


class PerturbationSpec(NamedTuple):
    """Delta vector over (gamma_1..gamma_r, beta_1..beta_{r-1})."""

    epsilon: Fraction
    deltas: tuple[Fraction, ...]
    seed: int | None = None
    index: int | None = None


class DirectedPerturbation(NamedTuple):
    spec: PerturbationSpec
    predicted_interval: tuple[Fraction, Fraction]
    period: int


class SampleRecord(NamedTuple):
    """One probe draw; the fields past ``accepted`` are None for a rejected
    draw. A NamedTuple, cheaper to build than a :class:`~itmlab.intervals.Frozen` record."""

    index: int
    accepted: bool
    component_count: int | None = None
    hausdorff: Fraction | None = None
    disc_inside: int | None = None
    disc_outside_closure: int | None = None
    signature_match: bool | None = None


class ProbeResult(Frozen):
    """Sample records and their summary; ``base`` is the analysis of the
    unperturbed map, which ``itmlab probe`` reports (not a value field)."""

    _fields = ("epsilon", "seed", "samples", "accepted", "max_hausdorff", "min_hausdorff",
               "all_signatures_match", "component_counts")
    epsilon: Fraction
    seed: int
    samples: tuple[SampleRecord, ...]
    accepted: int
    max_hausdorff: Fraction
    min_hausdorff: Fraction
    all_signatures_match: bool
    component_counts: tuple[int, ...]
    base: FullAnalysis

    def __init__(self, epsilon, seed, samples, accepted, max_hausdorff, min_hausdorff,
                 all_signatures_match, component_counts, base):
        vars(self).update(
            epsilon=epsilon, seed=seed, samples=samples, accepted=accepted,
            max_hausdorff=max_hausdorff, min_hausdorff=min_hausdorff,
            all_signatures_match=all_signatures_match, component_counts=component_counts, base=base,
        )


def _signature(analysis_return_maps: tuple[ReturnMapData, ...]) -> tuple:
    return tuple((d.n_intervals, d.return_times, d.sigma) for d in analysis_return_maps)


def check_A1(m: ItmMap, attractor: AttractorResult, return_maps: tuple[ReturnMapData, ...]) -> Verdict:
    """At most one critical hit along every signed endpoint's journey back to
    its component (a time-0 hit counts when the point itself is critical)."""
    if not attractor.finite_type:
        raise NotFiniteTypeError("A1 needs a finite-type attractor")
    for comp_idx, data in enumerate(return_maps, start=1):
        for chain in data.chains:
            if len(chain.hits) > 1:
                return Verdict(False, {
                    "component": comp_idx,
                    "cut_index": chain.j,
                    "side": chain.side,
                    "point": Fraction(data.kcuts[chain.j], data.grid.denom),
                    "hits": [(h.disc, h.time) for h in chain.hits],
                })
    return Verdict(True)


def check_A2(m: ItmMap, attractor: AttractorResult, return_maps: tuple[ReturnMapData, ...]) -> Verdict:
    """Boundary points of dynamically non-trivial components hit no
    discontinuity before returning (time 0 included, so a critical boundary
    point is itself a violation), and no discontinuity sits on the boundary
    of the closure of X.

    The closure-boundary clause also covers dynamically trivial components:
    a pointwise-fixed band whose endpoint is a discontinuity breaks up under
    perturbation even though its boundary chains are skipped, so a critical
    endpoint anywhere on the closure of X is fatal.
    """
    if not attractor.finite_type:
        raise NotFiniteTypeError("A2 needs a finite-type attractor")
    for i in attractor.boundary_hits:
        b = m.grid.cuts[i]
        for comp_idx, (l, r) in enumerate(attractor.kcomponents, start=1):
            if b == l or b == r:
                return Verdict(False, {
                    "component": comp_idx,
                    "boundary": "left" if b == l else "right",
                    "point": Fraction(b, m.Q),
                    "first_hit": (i, 0),
                    "kind": "closure_boundary",
                })
    for comp_idx, data in enumerate(return_maps, start=1):
        if data.dynamically_trivial:
            continue
        n = data.n_intervals
        for j, side in ((0, PLUS), (n, MINUS)):
            chain = data.chain(j, side)
            if chain.hits:
                return Verdict(False, {
                    "component": comp_idx,
                    "boundary": "left" if side == PLUS else "right",
                    "point": Fraction(data.kcuts[j], data.grid.denom),
                    "first_hit": (chain.hits[0].disc, chain.hits[0].time),
                })
    return Verdict(True)


def check_matching(m: ItmMap, attractor: AttractorResult, return_maps: tuple[ReturnMapData, ...]) -> Verdict:
    """Every dynamically non-trivial component returns like a rotation:
    exactly one interior landing point and the two pieces swapped.

    A component with one interior landing whose pieces both return to
    themselves (the return map is then the identity) is reported as a
    violation: its halves join only through the coincidence, and the
    attractor does not survive perturbations there.
    """
    if not attractor.finite_type:
        raise NotFiniteTypeError("Matching needs a finite-type attractor")
    for comp_idx, data in enumerate(return_maps, start=1):
        if data.dynamically_trivial:
            continue
        n = data.n_intervals
        if n != 2:
            return Verdict(False, {
                "component": comp_idx,
                "interior_landing_points": n - 1,
                "reason": "interior landing count != 1",
            })
        if classify_return_dynamics(data) == IDENTITY:
            return Verdict(False, {
                "component": comp_idx,
                "interior_landing_points": 1,
                "reason": "pieces return to themselves (identity with a coincidental cut)",
            })
    return Verdict(True)


def full_analysis(m: ItmMap, max_iter: int | None = None) -> FullAnalysis:
    """The attractor now; the return maps, the ghost graph, the stability
    verdict, the signed chains and the Fraction views when first read."""
    return FullAnalysis(m, compute_attractor(m, max_iter))


def stability_verdict(m: ItmMap, max_iter: int | None = None) -> StabilityReport:
    return full_analysis(m, max_iter).report


# -- perturbation machinery ------------------------------------------------


def apply_spec(m: ItmMap, spec: PerturbationSpec) -> ItmMap:
    """Perturbed map; raises BadOrderError/BadTranslationError when the
    deltas leave the polytope."""
    gamma = [g + spec.deltas[i] for i, g in enumerate(m.gamma)]
    beta = [b + spec.deltas[m.r + i] for i, b in enumerate(m.beta)]
    return validate(m.r, beta, gamma)


def _probe_one(
    index: int, m: ItmMap, base: AttractorResult, base_signature: tuple
) -> SampleRecord:
    """One accepted sample, compared with the base attractor on the
    integer components of both."""
    analysis = full_analysis(m)
    attractor = analysis.attractor
    comps = attractor.kcomponents
    signature_match = (
        attractor.finite_type
        and len(comps) == len(base.kcomponents)
        and _signature(analysis.return_maps) == base_signature
    )
    return SampleRecord(
        index=index,
        accepted=True,
        component_count=len(comps),
        hausdorff=hausdorff_closure_distance(
            base.kcomponents, base.denom, comps, attractor.denom
        ),
        disc_inside=len(attractor.discontinuities_inside),
        disc_outside_closure=len(attractor.discontinuities_outside),
        signature_match=signature_match,
    )


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
    grid ``D = lcm(Q, 2**GRID_BITS * den(epsilon))`` and each perturbed map
    is built from integers (:func:`~itmlab.itm.from_numerators`).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    base = full_analysis(m)
    if not base.attractor.finite_type:
        raise NotFiniteTypeError("probe needs a finite-type base map")
    base_signature = _signature(base.return_maps)
    grid = 2**GRID_BITS
    span = 2 * grid - 1  # k in [-(grid-1), grid-1] keeps |delta| < epsilon
    denom = math.lcm(m.Q, grid * epsilon.denominator)
    unit = epsilon.numerator * (denom // (grid * epsilon.denominator))
    scale = denom // m.Q
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
        records.append(_probe_one(i, perturbed, base.attractor, base_signature))
    accepted = [rec for rec in records if rec.accepted]
    if not accepted:
        raise NoValidSamplesError("all probe draws left the parameter polytope")
    # Every distance is a multiple of 1/(2 denom): the base grid and each
    # sample's reduced grid divide denom, so its reduced denominator divides
    # 2 denom, and the numerator over 2 denom orders the distances.
    distances = [rec.hausdorff for rec in accepted]
    double = 2 * denom

    def over_double(h: Fraction) -> int:
        return h.numerator * (double // h.denominator)

    return ProbeResult(
        epsilon=epsilon,
        seed=seed,
        samples=tuple(records),
        accepted=len(accepted),
        max_hausdorff=max(distances, key=over_double),
        min_hausdorff=min(distances, key=over_double),
        all_signatures_match=all(rec.signature_match for rec in accepted),
        component_counts=tuple(sorted({rec.component_count for rec in accepted})),
        base=base,
    )


def a3_breaking_perturbation(
    m: ItmMap, witness, epsilon: Fraction
) -> DirectedPerturbation:
    """Directed deltas that close a violated ghost cycle into a periodic
    interval.

    Each leg of the cycle is pushed past its target by epsilon, to the right
    for minus-type legs and to the left for plus-type legs, so the interval
    hugging the starting discontinuity maps around the cycle continuously
    and returns to itself with period sum(k_j). Implemented only in the
    direct special case: legs must not hit other discontinuities on the way
    and must use pairwise disjoint branch sets, so that adjusting one gamma
    per leg realizes exactly the required shifts.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    cycle = witness.cycle
    times = witness.times
    cuts, gamma = m.grid.cuts, m.grid.gamma
    betas = set(cuts[1:-1])
    legs = []
    for idx, node in enumerate(cycle):
        # one walk per leg: the points at times 1 .. k-1 must avoid every
        # discontinuity, and the branches used are those with nonzero counts
        find = branch_rule(node[1])
        k = cuts[node[0]]
        counts = [0] * m.r
        for t in range(times[idx]):
            if t and k in betas:
                raise NotRealizableDirectlyError(
                    "a cycle leg hits another discontinuity before its landing"
                )
            i = find(cuts, k) - 1
            counts[i] += 1
            k += gamma[i]
        branches = {i + 1 for i, c in enumerate(counts) if c}
        legs.append((node, counts, branches))
    used = [b for _, _, branches in legs for b in branches]
    if len(used) != len(set(used)):  # the branch sets are not pairwise disjoint
        raise NotRealizableDirectlyError(
            "cycle legs share branches; direct gamma shifts cannot decouple them"
        )
    deltas = [Fraction(0)] * (2 * m.r - 1)
    for node, counts, branches in legs:
        branch = min(branches)
        sign = 1 if node[1] == MINUS else -1
        deltas[branch - 1] = Fraction(sign, counts[branch - 1]) * epsilon
    spec = PerturbationSpec(epsilon, tuple(deltas))
    try:
        apply_spec(m, spec)
    except (BadOrderError, BadTranslationError) as exc:
        raise NotRealizableDirectlyError(f"directed deltas leave the polytope: {exc}") from exc
    start_node = cycle[0]
    beta0 = m.beta[start_node[0] - 1]
    predicted = (beta0 - epsilon, beta0) if start_node[1] == MINUS else (beta0, beta0 + epsilon)
    return DirectedPerturbation(spec, predicted, sum(times))
