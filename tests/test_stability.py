"""A1/A2/Matching verdicts, the stability theorem verdict, probes."""

from __future__ import annotations

import itertools
import math
import os
import random
from fractions import Fraction as F

import pytest

from itmlab import (
    BadTranslationError,
    FullAnalysis,
    NotFiniteTypeError,
    NoValidSamplesError,
    NotRealizableDirectlyError,
    PerturbationSpec,
    a3_breaking_perturbation,
    apply_spec,
    check_A1,
    check_A2,
    check_matching,
    compute_attractor,
    full_analysis,
    minus,
    perturbation_probe,
    plus,
    validate,
)
from itmlab.intervals import SignedPoint
from conftest import (
    fraction_views,
    naive_branch_counts,
    naive_probe_records,
    random_map,
    set_hausdorff,
)


class TestConditionChecks:
    def test_fig1_all_hold(self, fig1):
        fa = full_analysis(fig1)
        assert check_A1(fa.return_maps).holds
        assert check_A2(fa).holds
        assert check_matching(fa.return_maps).holds

    def test_rotation_all_hold(self, rotation35):
        fa = full_analysis(rotation35)
        assert check_A1(fa.return_maps).holds
        assert check_A2(fa).holds
        assert check_matching(fa.return_maps).holds

    def test_iet3_violates_matching(self, iet3):
        v = check_matching(full_analysis(iet3).return_maps)
        assert not v.holds
        assert v.witness["interior_landing_points"] == 2

    def test_identity_with_cut_violates_matching(self):
        # both pieces return to themselves; the component only looks joined
        m = validate(2, [F(1, 2)], [F(0), F(0)])
        v = check_matching(full_analysis(m).return_maps)
        assert not v.holds
        assert "identity" in v.witness["reason"]
        assert not full_analysis(m).stable

    def test_trivial_component_with_critical_endpoint_fails_a2(self, trivial_component_map):
        # the pointwise-fixed band [1/2, 1) starts at beta_1: perturbing the
        # fixed branch makes the band slide away, so the map is unstable and
        # the closure-boundary clause of A2 must flag it despite the
        # component being dynamically trivial
        fa = full_analysis(trivial_component_map)
        assert fa.return_maps[0].dynamically_trivial
        v = check_A2(fa)
        assert not v.holds
        assert v.witness["kind"] == "closure_boundary"
        assert v.witness["first_hit"] == (1, 0)
        assert not full_analysis(trivial_component_map).stable


def find_violations(kinds, max_tries=4000, seed=1298):
    """Scan seeded random coarse maps until one of each wanted verdict-failure
    kind shows up; coincidences are common on coarse grids."""
    rng = random.Random(seed)
    found = {}
    for _ in range(max_tries):
        m = random_map(rng, max_q=12, min_q=4)
        fa = full_analysis(m)
        if not fa.a1.holds and "a1" not in found:
            found["a1"] = fa
        if not fa.a2.holds and "a2" not in found:
            found["a2"] = fa
        if not fa.matching.holds and "matching" not in found:
            found["matching"] = fa
        if all(k in found for k in kinds):
            return found
    raise AssertionError(f"could not find violations {kinds} within {max_tries} maps")


@pytest.fixture(scope="module")
def violations():
    return find_violations(("a1", "a2", "matching"))


class TestViolationWitnesses:
    def test_a1_witness_reverifies(self, violations):
        fa = violations["a1"]
        w = fa.a1.witness
        m = fa.map
        data = fa.return_maps[w["component"] - 1]
        start = SignedPoint(fraction_views(data)[0][w["cut_index"]], w["side"])
        for disc, time in w["hits"]:
            assert m.iterate(start, time).point.value == m.beta[disc - 1]
        assert len(w["hits"]) >= 2

    def test_a2_witness_reverifies(self, violations):
        fa = violations["a2"]
        w = fa.a2.witness
        m = fa.map
        disc, time = w["first_hit"]
        if w.get("kind") == "closure_boundary":
            comp = fa.attractor.components()[w["component"] - 1]
            endpoint = comp[0] if w["boundary"] == "left" else comp[1]
            assert endpoint == m.beta[disc - 1] == w["point"]
            assert time == 0
            return
        data = fa.return_maps[w["component"] - 1]
        j = 0 if w["boundary"] == "left" else data.n_intervals
        side = "+" if w["boundary"] == "left" else "-"
        start = SignedPoint(fraction_views(data)[0][j], side)
        assert m.iterate(start, time).point.value == m.beta[disc - 1]
        entry = data.return_times[0] if j == 0 else data.return_times[-1]
        assert time < entry

    def test_a2_closure_boundary_witness_at_both_ends(self, corpus, corpus_q1024, branchy_q1024):
        # the witness point is the named end of the named component: right
        # ends in corpus maps 1 and 3, corpus-q1024 map 7 and branchy-q1024
        # map 13, the left end of component 2 in corpus map 14
        cases = [
            (corpus[1], "right", 1, F(7, 36)),
            (corpus[3], "right", 1, F(7, 29)),
            (corpus[14], "left", 2, F(13, 19)),
            (corpus_q1024[7], "right", 7, F(225, 748)),
            (branchy_q1024[13], "right", 5, F(7, 114)),
        ]
        for m, boundary, component, point in cases:
            fa = full_analysis(m)
            w = fa.a2.witness
            assert w["kind"] == "closure_boundary"
            assert (w["boundary"], w["component"], w["point"]) == (boundary, component, point)
            comp = fa.attractor.components()[component - 1]
            assert point == (comp[0] if boundary == "left" else comp[1])
            disc, time = w["first_hit"]
            assert point == m.beta[disc - 1] and time == 0

    def test_matching_witness(self, violations):
        fa = violations["matching"]
        w = fa.matching.witness
        data = fa.return_maps[w["component"] - 1]
        assert not data.dynamically_trivial
        if "interior landing count" in w["reason"]:
            assert data.n_intervals - 1 == w["interior_landing_points"] != 1


class TestVerdict:
    def test_fig1_stable(self, fig1):
        fa = full_analysis(fig1)
        assert fa.finite_type and fa.stable
        assert fa.a1.holds and fa.a2.holds and fa.a3.holds and fa.matching.holds

    def test_ghost_map_unstable_via_a3(self, ghost_map):
        fa = full_analysis(ghost_map)
        assert fa.finite_type and not fa.stable
        assert not fa.a3.holds
        assert fa.a3.witness.disc == 1

    def test_rotation_stable(self, rotation35):
        assert full_analysis(rotation35).stable

    def test_capped_run_reports_unstable(self, fig1):
        fa = full_analysis(fig1, max_iter=2)
        assert not fa.finite_type and not fa.stable
        with pytest.raises(NotFiniteTypeError):
            check_A2(fa)

    def test_stable_is_finite_type_and_the_four_verdicts(self, corpus, branchy_q1024):
        # the uncapped runs give both outcomes of the verdicts, the capped
        # runs the not-finite branch
        seen = set()
        for m in [*corpus, *branchy_q1024]:
            for max_iter in (None, 1):
                fa = full_analysis(m, max_iter)
                verdicts = (fa.a1, fa.a2, fa.a3, fa.matching)
                assert fa.finite_type is (fa.attractor.stabilization_step is not None)
                assert fa.stable is (fa.finite_type and all(v.holds for v in verdicts))
                seen.add((fa.finite_type, fa.stable))
        assert seen == {(True, True), (True, False), (False, False)}

    def test_analysis_holds_the_attractor_only(self, fig1):
        assert FullAnalysis._fields == ("attractor",)
        analysis = full_analysis(fig1, max_iter=2)
        assert list(vars(analysis)) == ["attractor"]
        with pytest.raises(AttributeError):
            analysis.attractor = None
        # a capped attractor has no return maps and no ghost graph
        with pytest.raises(NotFiniteTypeError):
            analysis.return_maps
        with pytest.raises(NotFiniteTypeError):
            analysis.ghost_graph
        assert list(vars(analysis)) == ["attractor"]

    def test_map_is_read_off_the_attractor(self, fig1, ghost_map, corpus):
        for m in (fig1, ghost_map, *corpus):
            analysis = full_analysis(m)
            assert analysis.map == m and analysis.map.grid is analysis.attractor.grid
            assert analysis == FullAnalysis(analysis.attractor)


class TestApplySpec:
    def test_roundtrip(self, fig1):
        spec = PerturbationSpec(F(1, 100), (F(1, 100), F(0), F(0), F(0), F(0)))
        m2 = apply_spec(fig1, spec)
        assert m2.gamma[0] == F(1, 3) + F(1, 100)
        assert m2.beta == fig1.beta

    def test_out_of_polytope(self, fig1):
        spec = PerturbationSpec(F(1), (F(1), F(0), F(0), F(0), F(0)))
        with pytest.raises(BadTranslationError):
            apply_spec(fig1, spec)

    @pytest.mark.parametrize("count", [4, 6])
    def test_wrong_delta_count(self, fig1, count):
        # fig1 has r = 3, so a perturbation takes 2r - 1 = 5 deltas: a sixth
        # is not ignored and a missing one is not an IndexError
        spec = PerturbationSpec(F(1, 100), (F(0),) * count)
        with pytest.raises(ValueError, match=f"2r - 1 = 5 deltas, got {count}"):
            apply_spec(fig1, spec)

    def test_delta_beyond_epsilon(self, fig1):
        # a delta 100 epsilons away is not applied as given: gamma_1 would
        # become 13/30
        spec = PerturbationSpec(F(1, 1000), (F(1, 10), F(0), F(0), F(0), F(0)))
        with pytest.raises(ValueError, match=r"\|delta 0\| = 1/10 exceeds epsilon = 1/1000"):
            apply_spec(fig1, spec)
        spec = PerturbationSpec(F(1, 1000), (F(0), F(0), F(0), F(0), F(-1, 999)))
        with pytest.raises(ValueError, match=r"\|delta 4\| = 1/999"):
            apply_spec(fig1, spec)
        # |delta| = epsilon is allowed
        spec = PerturbationSpec(F(1, 1000), (F(0), F(0), F(0), F(0), F(-1, 1000)))
        assert apply_spec(fig1, spec).beta[1] == F(2, 3) - F(1, 1000)

    @pytest.mark.parametrize("eps", [F(0), F(-1, 100)])
    def test_epsilon_not_positive(self, fig1, eps):
        spec = PerturbationSpec(eps, (F(0),) * 5)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            apply_spec(fig1, spec)


class TestProbe:
    def test_deterministic(self, fig1):
        a = perturbation_probe(fig1, F(1, 1000), 25, seed=42)
        b = perturbation_probe(fig1, F(1, 1000), 25, seed=42)
        assert a == b

    def test_seed_changes_draws(self, fig1):
        a = perturbation_probe(fig1, F(1, 1000), 25, seed=1)
        b = perturbation_probe(fig1, F(1, 1000), 25, seed=2)
        assert a != b

    def test_stable_map_preserved(self, fig1):
        pr = perturbation_probe(fig1, F(1, 2048), 40, seed=11)
        assert pr.accepted == 40
        assert pr.component_counts == (2,)
        assert pr.all_signatures_match
        recs = [r for r in pr.samples if r.accepted]
        assert all(r.disc_inside == 1 for r in recs)
        assert all(r.disc_outside_closure == 1 for r in recs)

    def test_probe_builds_no_interval_set(self, fig1, ghost_map, monkeypatch):
        # the base analysis and every sample stay on integer components:
        # no Fraction view of any attractor is built
        from itmlab.intervals import IntervalSet

        def forbidden(self, intervals):
            raise AssertionError("an IntervalSet was built")

        monkeypatch.setattr(IntervalSet, "__init__", forbidden)
        for m in (fig1, ghost_map):
            pr = perturbation_probe(m, F(1, 1000), 20, seed=3)
            assert pr.accepted > 0 and pr.max_hausdorff >= 0

    def test_sample_maps_build_no_fraction_view(self, fig1, ghost_map, monkeypatch):
        # every accepted sample map still holds only its grid afterwards
        from itmlab import stability

        maps = []
        real = stability.from_numerators

        def capturing(*args):
            m = real(*args)
            maps.append(m)
            return m

        monkeypatch.setattr(stability, "from_numerators", capturing)
        for m in (fig1, ghost_map):
            maps.clear()
            pr = perturbation_probe(m, F(1, 1000), 20, seed=3)
            assert len(maps) == pr.accepted > 0
            assert [vars(s) for s in maps] == [{"grid": s.grid} for s in maps]

    def test_return_maps_only_where_counts_match(self, corpus, monkeypatch):
        # a sample whose component count differs from the base's cannot
        # match its signature, so none of its return maps is built; a
        # matching sample walks at least one return orbit (one per tower)
        from itmlab import stability

        walked = []
        analyses = []
        real_walk, real_analysis = stability.compute_return_map, stability.full_analysis

        def counting(J, attractor):
            walked.append(attractor)
            return real_walk(J, attractor)

        def recording(m, max_iter=None):
            analyses.append(real_analysis(m, max_iter))
            return analyses[-1]

        monkeypatch.setattr(stability, "compute_return_map", counting)
        monkeypatch.setattr(stability, "full_analysis", recording)
        pr = perturbation_probe(corpus[1], F(1, 1000), 20, seed=5)
        base = len(pr.base.attractor.kcomponents)
        accepted = [rec for rec in pr.samples if rec.accepted]
        assert analyses[0] is pr.base and len(analyses) == 1 + len(accepted)
        walks = [sum(att is a.attractor for att in walked) for a in analyses]
        assert walks[0] >= 1
        same = 0
        for rec, n in zip(accepted, walks[1:]):
            if rec.component_count == base:
                assert n >= 1
                same += 1
            else:
                assert n == 0
        assert 0 < same < pr.accepted
        assert len(walked) == sum(walks)
        assert len(pr.component_counts) > 1
        assert pr.component_counts == tuple(sorted({rec.component_count for rec in accepted}))

    def test_no_valid_samples(self, rotation35):
        # all three draws of this seed leave the polytope at eps = 3
        with pytest.raises(NoValidSamplesError):
            perturbation_probe(rotation35, F(3), 3, seed=9)

    # corpus maps whose 40-sample probes at eps = 1/1000 settle within a
    # quarter second; other corpus maps have perturbed transients of
    # seconds per sample (there is no per-sample work budget yet)
    PROBED_CORPUS = (0, 2, 4, 7, 14, 19, 25)

    def test_records_match_fraction_oracle(self, fig1, ghost_map, corpus):
        # gamma_1 and gamma_2 sit 1/4000 inside the polytope edge, so draws
        # with delta_1 > 1/4000 or delta_2 < -1/4000 leave it
        near_edge = validate(2, [F(2, 5)], [F(3, 5) - F(1, 4000), F(-2, 5) + F(1, 4000)])
        maps = [fig1, ghost_map, near_edge] + [corpus[i] for i in self.PROBED_CORPUS]
        eps = F(1, 1000)
        summaries = set()
        for m in maps:
            pr = perturbation_probe(m, eps, 40, seed=3)
            records = naive_probe_records(m, eps, 40, 3)
            assert list(pr.samples) == records
            assert pr.base == full_analysis(m)
            assert pr.base.return_maps == full_analysis(m).return_maps
            # the summary is read off the accepted records only
            accepted = [rec for rec in records if rec.accepted]
            distances = [F(rec.khausdorff, pr.hausdorff_denom) for rec in accepted]
            assert pr.accepted == len(accepted)
            assert pr.max_hausdorff == max(distances) and pr.min_hausdorff == min(distances)
            assert pr.all_signatures_match is all(rec.signature_match for rec in accepted)
            assert pr.component_counts == tuple(sorted({rec.component_count for rec in accepted}))
            summaries.add(pr.all_signatures_match)
            if m is near_edge:
                assert 0 < pr.accepted < 40
        assert summaries == {True, False}

    @pytest.mark.parametrize("eps,seed,rejected", [
        (F(1, 5), 1, 5),  # five draws leave the polytope
        (F(1, 7), 4, None),
        (F(3, 1000), 0, None),
    ])
    def test_summary_extremes_match_fraction_max_min(self, fig1, ghost_map, eps, seed, rejected):
        # the probe picks its extremes by integer keys over 2 D; they must
        # be the plain Fraction max and min of the accepted distances
        for m in (fig1, ghost_map):
            pr = perturbation_probe(m, eps, 20, seed)
            distances = [F(rec.khausdorff, pr.hausdorff_denom) for rec in pr.samples if rec.accepted]
            assert len(set(distances)) > 2
            assert pr.max_hausdorff == max(distances) and type(pr.max_hausdorff) is F
            assert pr.min_hausdorff == min(distances) and type(pr.min_hausdorff) is F
            if rejected is not None and m is fig1:
                assert 20 - pr.accepted == rejected

    @pytest.mark.parametrize("eps", [F(1, 1000), F(3, 1000), F(1, 7), F(5, 96)])
    def test_one_probe_grid(self, fig1, ghost_map, monkeypatch, eps):
        # the draws and the distances use the one grid D that the CLI's
        # digit limit checks
        from itmlab import stability

        denoms = []
        real = stability.from_numerators
        monkeypatch.setattr(stability, "from_numerators",
                            lambda *args: denoms.append(args[-1]) or real(*args))
        for m in (fig1, ghost_map):
            denoms.clear()
            pr = perturbation_probe(m, eps, 10, seed=2)
            d = stability.probe_grid(m.Q, eps)
            assert d == m.Q * 1024 * eps.denominator // math.gcd(m.Q, 1024 * eps.denominator)
            assert pr.hausdorff_denom == 2 * d
            assert denoms and set(denoms) == {d}

    def test_samples_go_through_the_traced_bindings(self, fig1, monkeypatch):
        # the bench tracer times the base and each sample through
        # stability.full_analysis and each distance through
        # stability.hausdorff_closure_distance, wrapping those names; a
        # sample path around them would read 0 there without any error
        from itmlab import stability

        calls = {"full_analysis": 0, "hausdorff_closure_distance": 0}

        def counting(name):
            real = getattr(stability, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(stability, name, counting(name))
        pr = perturbation_probe(fig1, F(1, 5), 20, seed=1)  # five draws are rejected
        assert pr.accepted == 15
        assert calls == {"full_analysis": 16, "hausdorff_closure_distance": 15}

    def test_bad_arguments(self, fig1):
        with pytest.raises(ValueError):
            perturbation_probe(fig1, F(1, 100), 0, seed=1)
        with pytest.raises(ValueError):
            perturbation_probe(fig1, F(0), 5, seed=1)


class TestVerdictConsistency:
    def test_stable_verdicts_survive_probing(self):
        # theorem at desk scale: verdict-stable maps keep component count,
        # discontinuity counts and return signatures under the exact probe
        # (coarse grids so that eps = 1/2048 sits inside the margins)
        rng = random.Random(424242)
        probed_with_quorum = 0
        tries = 0
        while probed_with_quorum < 3 and tries < 300:
            tries += 1
            m = random_map(rng, max_q=12, min_q=4)
            fa = full_analysis(m)
            if not fa.stable:
                continue
            pr = perturbation_probe(m, F(1, 2048), 110, seed=71)
            recs = [r for r in pr.samples if r.accepted]
            base = fa.attractor
            assert all(r.component_count == len(base.components()) for r in recs)
            assert all(r.disc_inside == len(base.discontinuities_inside) for r in recs)
            assert all(
                r.disc_outside_closure == len(base.discontinuities_outside)
                for r in recs
            )
            assert all(r.signature_match for r in recs)
            if pr.accepted >= 100:
                probed_with_quorum += 1
        assert probed_with_quorum == 3


class TestDirectedPerturbation:
    def test_ghost_map_breaks(self, ghost_map):
        fa = full_analysis(ghost_map)
        from itmlab.ghost import check_A3
        wit = check_A3(fa.ghost_graph).witness
        eps = F(1, 4096)
        dp = a3_breaking_perturbation(fa, eps)
        assert dp.period == sum(wit.times)
        b1 = ghost_map.beta[0]
        assert dp.predicted_interval in (((b1 - eps), b1), (b1, b1 + eps))
        perturbed = dp.perturbed
        assert perturbed == apply_spec(ghost_map, dp.spec)
        # the predicted interval is periodic for the perturbed map
        left = dp.predicted_interval[0]
        res = perturbed.iterate(plus(left), dp.period)
        assert res.point.value == left

    def test_epsilon_independent_jump(self, ghost_map):
        fa = full_analysis(ghost_map)
        base = fa.attractor.X
        d = base.distance_to_closure(ghost_map.beta[0])
        assert d > 0
        jumps = []
        for eps in (F(1, 2048), F(1, 4096)):
            dp = a3_breaking_perturbation(fa, eps)
            att2 = compute_attractor(apply_spec(ghost_map, dp.spec))
            jumps.append(set_hausdorff(base, att2.X))
        assert all(j >= d / 2 for j in jumps)

    def test_seeded_sample_has_six_violators(self, a3_violators):
        assert sorted(a3_violators) == [70, 84, 188, 245, 321, 368]

    def test_shared_branch_rejected(self, a3_violators):
        # two legs of the cycle take a common branch, so no single gamma
        # shift per leg moves one leg alone
        for draw in (70, 84):
            m = a3_violators[draw]
            fa = full_analysis(m)
            counts = [naive_branch_counts(m, m.beta[node[0] - 1], node[1], time)
                      for node, time in zip(fa.a3.witness.cycle, fa.a3.witness.times)]
            assert any(a[b] and c[b] for a, c in itertools.combinations(counts, 2)
                       for b in range(m.r))
            with pytest.raises(NotRealizableDirectlyError, match=(
                    "^cycle legs share branches; direct gamma shifts cannot decouple them$")):
                a3_breaking_perturbation(fa, F(1, 4096))

    def test_mid_leg_hit_rejected(self, a3_violators):
        # some leg's orbit meets another discontinuity before its landing
        for draw in (188, 245, 321, 368):
            m = a3_violators[draw]
            fa = full_analysis(m)
            cycle, times = fa.a3.witness.cycle, fa.a3.witness.times
            assert any(
                m.iterate(SignedPoint(m.beta[node[0] - 1], node[1]), t).point.value in m.beta
                for node, time in zip(cycle, times) for t in range(1, time)
            )
            with pytest.raises(NotRealizableDirectlyError, match=(
                    "^a cycle leg hits another discontinuity before its landing$")):
                a3_breaking_perturbation(fa, F(1, 4096))

    def test_a3_holds_rejected(self, fig1):
        with pytest.raises(NotRealizableDirectlyError,
                           match="^A3 holds: there is no ghost cycle to break$"):
            a3_breaking_perturbation(full_analysis(fig1), F(1, 4096))

    def test_capped_analysis_raises(self, ghost_map):
        # a capped analysis's A3 witness is the not-finite-type dict, so the
        # ghost graph is read first
        capped = full_analysis(ghost_map, 1)
        assert not capped.finite_type
        with pytest.raises(NotFiniteTypeError):
            a3_breaking_perturbation(capped, F(1, 4096))

    def test_polytope_overflow_rejected(self, ghost_map):
        with pytest.raises(NotRealizableDirectlyError):
            a3_breaking_perturbation(full_analysis(ghost_map), F(2))

    def test_non_positive_epsilon_raises(self, ghost_map):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            a3_breaking_perturbation(full_analysis(ghost_map), F(0))
