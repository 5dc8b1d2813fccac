"""First-return structures: cut points, times, chains, permutations."""

from __future__ import annotations

import inspect
import random
from fractions import Fraction as F

import pytest

from itmlab import (
    InvariantError,
    NotAComponentError,
    NotFiniteTypeError,
    classify_return_dynamics,
    compute_attractor,
    compute_return_map,
    full_analysis,
    validate,
    verify_touching_equations,
)
from itmlab import return_map
from itmlab.attractor import AttractorResult
from itmlab.return_map import (
    IDENTITY,
    MANY_BRANCHES,
    ROTATION_LIKE,
    ReturnMapData,
    ChainHit,
    SignedChain,
)
from conftest import fraction_views, grid_points, naive_first_return, naive_signed_chain

# fig1's components as numerators over its grid 1/42
JB = (21, 34)  # [1/2, 17/21)
JA = (7, 13)  # [1/6, 13/42)


class TestFig1Structure:
    def test_component_b(self, fig1):
        data = compute_return_map(JB, compute_attractor(fig1))
        cut_points, images = fraction_views(data)
        assert cut_points == (F(1, 2), F(2, 3), F(17, 21))
        assert data.return_times == (1, 2)
        assert data.sigma == (2, 1)
        assert data.tau == (2, 1)
        assert images == ((F(9, 14), F(17, 21)), (F(1, 2), F(9, 14)))
        assert not data.dynamically_trivial
        rec = data.landings[0]
        assert rec.time == 0 and rec.disc == 2

    def test_component_b_chains(self, fig1):
        data = compute_return_map(JB, compute_attractor(fig1))
        cp = data.chain(1, "+")
        assert [(h.disc, h.time) for h in cp.hits] == [(2, 0)]
        assert cp.entry_time == 2
        cm = data.chain(1, "-")
        assert [(h.disc, h.time) for h in cm.hits] == [(2, 0)]
        assert cm.entry_time == 1
        assert data.chain(0, "+").hits == ()
        assert data.chain(2, "-").hits == ()
        # the left end has no minus chain, the right end no plus chain
        for j, side in ((0, "-"), (2, "+")):
            with pytest.raises(KeyError):
                data.chain(j, side)

    def test_component_a(self, fig1):
        data = compute_return_map(JA, compute_attractor(fig1))
        cut_points, images = fraction_views(data)
        assert cut_points == (F(1, 6), F(4, 21), F(13, 42))
        assert data.return_times == (4, 3)
        assert data.sigma == (2, 1)
        assert images == ((F(2, 7), F(13, 42)), (F(1, 6), F(2, 7)))
        rec = data.landings[0]
        assert rec.time == 2 and rec.disc == 2

    def test_touching_values(self, fig1):
        # numerators over fig1's grid 1/42: 9/14 and 2/7
        att = compute_attractor(fig1)
        assert verify_touching_equations(compute_return_map(JB, att)) == (27,)
        assert verify_touching_equations(compute_return_map(JA, att)) == (12,)

    def test_landing_before_return(self, fig1):
        # l_j < r_j and l_j < r_{j+1} for every interior cut point
        for J in (JA, JB):
            data = compute_return_map(J, compute_attractor(fig1))
            for rec in data.landings:
                assert rec.time < data.return_times[rec.j - 1]
                assert rec.time < data.return_times[rec.j]


class TestRotation:
    def test_full_circle(self, rotation35):
        data = compute_return_map((0, 5), compute_attractor(rotation35))
        cut_points = fraction_views(data)[0]
        assert cut_points == (F(0), F(2, 5), F(1))
        assert data.return_times == (1, 1)
        assert data.sigma == (2, 1)
        assert data.landings[0].time == 0
        assert classify_return_dynamics(data) == ROTATION_LIKE


class TestTrivialComponent:
    def test_identity_component(self, trivial_component_map):
        m = trivial_component_map
        data = compute_return_map((2, 4), compute_attractor(m))
        assert data.n_intervals == 1
        assert data.dynamically_trivial
        assert data.return_times == (1,)
        assert verify_touching_equations(data) == ()
        assert classify_return_dynamics(data) == IDENTITY
        # the left boundary is the discontinuity itself: a time-0 chain hit
        assert [(h.disc, h.time) for h in data.chain(0, "+").hits] == [(1, 0)]


class TestManyBranches:
    def test_iet3(self, iet3):
        data = compute_return_map((0, 3), compute_attractor(iet3))
        assert data.n_intervals == 3
        assert data.sigma == (3, 2, 1)
        assert classify_return_dynamics(data) == MANY_BRANCHES
        assert tuple(F(k, data.grid.denom) for k in verify_touching_equations(data)) == (
            F(1, 3), F(2, 3))


class TestErrors:
    def test_not_a_component(self, fig1):
        # on the 1/42 grid: all of [0, 1), past both components, inside the
        # first, and the first's left end with the second's right end
        att = compute_attractor(fig1)
        for J in [(0, 42), (35, 36), (7, 12), (7, 34)]:
            with pytest.raises(NotAComponentError):
                compute_return_map(J, att)

    def test_not_finite_type(self, fig1):
        att = compute_attractor(fig1, max_iter=2)
        with pytest.raises(NotFiniteTypeError):
            compute_return_map(JB, att)

    def test_return_time_cap(self, fig1):
        # [0, 1/42) lies outside fig1's X, so no piece of it ever returns;
        # named the component of a hand-made attractor on fig1's grid, its
        # walk stops at the cap attractor.denom = 42 steps
        att = AttractorResult(fig1.grid, ((0, 1),), 3)
        with pytest.raises(NotFiniteTypeError, match="return-time safety cap exceeded"):
            compute_return_map((0, 1), att)


def _split_nudged(real):
    # every piece one grid step too long: pieces end up straddling J
    def nudged(cuts, l, r):
        return [(lo, hi + 1, i) for lo, hi, i in real(cuts, l, r)]
    return nudged


def _split_doubled(real):
    # the last piece of every split flies twice
    def doubled(cuts, l, r):
        out = real(cuts, l, r)
        return out + out[-1:]
    return doubled


def _split_dropped(real):
    # the last piece of every split vanishes, so J returns as one piece
    # that is not the identity
    def dropped(cuts, l, r):
        out = real(cuts, l, r)
        return out[:-1] or out
    return dropped


def _split_second_repeated(real):
    # at the second split the first piece vanishes and the second flies
    # twice, so a retired source repeats and another cut point has no
    # piece, while the retired pieces still number one more than the cuts
    calls = []

    def repeated(cuts, l, r):
        out = real(cuts, l, r)
        calls.append(out)
        return [out[1], *out[1:]] if len(calls) == 2 else out
    return repeated


def _split_second_lost(real):
    # at the second split the first piece vanishes: its source, a cut point
    # of an earlier split, retires no piece, and no retired source repeats
    calls = []

    def lost(cuts, l, r):
        out = real(cuts, l, r)
        calls.append(out)
        return out[1:] if len(calls) == 2 else out
    return lost


def _chain_long(real):
    # every walk is given one step more than its return time
    return lambda *args: real(*args[:-1], args[-1] + 1)


def _chain_short(real):
    # every walk is given one step less than its return time
    return lambda *args: real(*args[:-1], args[-1] - 1)


def _chain_blind(real):
    def blind(*args):
        c = real(*args)
        return SignedChain(c.j, c.side, (), c.entry_time, c.kentry, c.entry_counts)
    return blind


class TestInvariantErrors:
    """A broken kernel must stop the return map with a typed error, also
    under ``python -O``; the chain checks run when the chains are read."""

    @pytest.mark.parametrize("target,broken,message", [
        ("split", _split_nudged, "straddles"),
        ("split", _split_doubled, "retired pieces do not match"),
        ("split", _split_dropped, "do not tile J"),
    ])
    def test_broken_propagation_raises(self, fig1, monkeypatch, target, broken, message):
        att = compute_attractor(fig1)
        monkeypatch.setattr(return_map, target, broken(getattr(return_map, target)))
        with pytest.raises(InvariantError, match=message):
            compute_return_map(JB, att)

    def test_whole_piece_straddling_j_raises(self, fig1, monkeypatch):
        # the hand-made component [2/42, 8/42) moves whole through
        # [16, 22), [22, 28) and [28, 34) to [7, 13), which straddles it at
        # time 4: the straddle check sees a piece that split never touched
        calls = []
        real = return_map.split
        monkeypatch.setattr(return_map, "split", lambda *args: calls.append(args) or real(*args))
        att = AttractorResult(fig1.grid, ((2, 8),), 3)
        with pytest.raises(InvariantError, match="straddles .* at time 4"):
            compute_return_map((2, 8), att)
        assert calls == []

    def test_gap_between_return_images_raises(self, fig1):
        # the hand-made component [7/42, 14/42) runs one grid step past
        # fig1's [7/42, 13/42): its pieces come back with images that start
        # at J's left end but leave a gap before the next one
        att = AttractorResult(fig1.grid, ((7, 14),), 3)
        with pytest.raises(InvariantError, match="return images are not contiguous"):
            compute_return_map((7, 14), att)

    @pytest.mark.parametrize("broken", [_split_second_repeated, _split_second_lost])
    def test_retired_sources_checked_against_cut_points(self, monkeypatch, broken):
        # a component whose walk splits twice, at t = 0 (cut points 14 and
        # 19, numerators over 56) and at t = 1 (cut point 20); against those
        # cut points the faults retire sources 9, 14, 20, 20 and 9, 14, 20
        m = validate(6, [F(1, 56), F(1, 4), F(19, 56), F(45, 56), F(27, 28)],
                     [F(1, 2), F(19, 28), F(15, 56), F(-19, 56), F(-4, 7), F(-5, 8)])
        att = compute_attractor(m)
        assert (9, 26) in att.kcomponents
        monkeypatch.setattr(return_map, "split", broken(return_map.split))
        with pytest.raises(InvariantError, match="retired pieces do not match"):
            compute_return_map((9, 26), att)

    @pytest.mark.parametrize("broken,message", [
        (_chain_long, r"re-entered J at time \d+, before its return time"),
        (_chain_short, "is not in J at its return time"),
        (_chain_blind, "does not first hit"),
    ])
    def test_broken_chain_walk_raises_when_read(self, fig1, monkeypatch, broken, message):
        att = compute_attractor(fig1)
        monkeypatch.setattr(return_map, "_signed_chain", broken(return_map._signed_chain))
        data = compute_return_map(JB, att)
        with pytest.raises(InvariantError, match=message):
            data.chains

    @pytest.mark.parametrize("p", [1, 2])
    def test_touching_disagreement_raises(self, iet3, monkeypatch, p):
        # iet3's return map reverses its three intervals (sigma = (3, 2, 1)):
        # equation p reads the minus chain of a_{sigma(p)} and no other
        # equation does, so moving that chain's entry by one grid step
        # breaks equation p and no earlier one
        real = return_map._signed_chain

        def moved(grid, J, j, side, start, steps):
            c = real(grid, J, j, side, start, steps)
            return c._replace(kentry=c.kentry + 1) if side == "-" and j == 4 - p else c

        monkeypatch.setattr(return_map, "_signed_chain", moved)
        data = compute_return_map((0, 3), compute_attractor(iet3))
        assert data.sigma == (3, 2, 1)
        with pytest.raises(InvariantError, match=f"touching equation {p} violated"):
            verify_touching_equations(data)

    def test_is_an_assertion_error(self):
        assert issubclass(InvariantError, AssertionError)


class TestRecords:
    def test_hand_written_init_takes_the_fields(self, fig1):
        # ReturnMapData and AttractorResult fill their instance dict in
        # __init__ by hand: it takes the declared fields in order (the value
        # fields first, then the return map's grid and source) and stores
        # them first; the attractor stores after them what it derives from
        # them. The return map's images are a view, stored only once read.
        # The instances stay frozen
        att = compute_attractor(fig1)
        data = compute_return_map(JB, att)
        derived = ("denom", "ends", "discontinuities_inside", "discontinuities_outside",
                   "boundary_hits")
        assert type(data)._fields == ("kcuts", "return_times", "landings", "sigma")
        for obj, extra, stored in ((att, (), derived), (data, ("grid", "_source"), ())):
            names = [*type(obj)._fields, *extra]
            assert list(inspect.signature(type(obj)).parameters) == names
            assert list(vars(obj)) == [*names, *stored]
            for name in (*names, *stored):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
        assert data.kimages == ((27, 34), (21, 27))
        assert list(vars(data)) == [*ReturnMapData._fields, "grid", "_source", "kimages"]
        with pytest.raises(AttributeError):
            data.kimages = ()
        assert type(att) is AttractorResult and type(data) is ReturnMapData

    def test_chain_records_named_fields_in_order_and_read_only(self, fig1):
        data = compute_return_map(JB, compute_attractor(fig1))
        chain = data.chain(1, "+")
        for record, names in [
            (chain.hits[0], ("disc", "time", "counts")),
            (chain, ("j", "side", "hits", "entry_time", "kentry", "entry_counts")),
            (data.landings[0], ("j", "time", "disc")),
        ]:
            assert type(record)._fields == names
            assert tuple(record) == tuple(getattr(record, name) for name in names)
            for name in (*names, "other"):
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
        assert chain.hits[0] == ChainHit(2, 0, (0, 0, 0))
        assert chain == SignedChain(1, "+", chain.hits, 2, 21, (1, 0, 1))


class TestInvariants:
    def test_tiling(self, fig1, corpus):
        for m in [fig1] + corpus[:20]:
            att = compute_attractor(m)
            for kcomp, comp in zip(att.kcomponents, att.components()):
                data = compute_return_map(kcomp, att)
                images = fraction_views(data)[1]
                total = sum((r - l for l, r in images), F(0))
                assert total == comp[1] - comp[0]
                spans = sorted(images)
                for (l1, r1), (l2, r2) in zip(spans, spans[1:]):
                    assert r1 <= l2
                assert spans[0][0] == comp[0] and spans[-1][1] == comp[1]

    def test_chain_entry_matches_return_times(self, fig1, corpus):
        for m in [fig1] + corpus[:20]:
            att = compute_attractor(m)
            for kcomp, comp in zip(att.kcomponents, att.components()):
                data = compute_return_map(kcomp, att)
                for c in data.chains:
                    expected = data.return_times[c.j] if c.side == "+" \
                        else data.return_times[c.j - 1]
                    assert c.entry_time == expected

    def test_shared_first_discontinuity(self, fig1, corpus):
        # both signed views of an interior cut point first hit the same disc
        for m in [fig1] + corpus[:20]:
            att = compute_attractor(m)
            for kcomp, comp in zip(att.kcomponents, att.components()):
                data = compute_return_map(kcomp, att)
                for rec in data.landings:
                    for side in ("+", "-"):
                        first = data.chain(rec.j, side).hits[0]
                        assert (first.disc, first.time) == (rec.disc, rec.time)

    def test_signed_chains_match_naive_orbits(self, fig1, corpus, corpus_q1024):
        checked = 0
        for m in [fig1] + corpus + corpus_q1024:
            att = compute_attractor(m)
            for kJ, J in zip(att.kcomponents, att.components()):
                data = compute_return_map(kJ, att)
                cut_points = fraction_views(data)[0]
                for c in data.chains:
                    hits, entry, value = naive_signed_chain(
                        m, J, cut_points[c.j], c.side, c.entry_time)
                    assert [(h.disc, h.time) for h in c.hits] == hits
                    assert (c.entry_time, F(c.kentry, m.Q)) == (entry, value)
                    checked += 1
        assert checked > 600  # 674 chains across the three map sets

    def test_pointwise_oracle_fig1(self, fig1):
        att = compute_attractor(fig1)
        for kcomp, comp in zip(att.kcomponents, att.components()):
            data = compute_return_map(kcomp, att)
            cut_points, images = fraction_views(data)
            for z in grid_points(fig1):
                if not (comp[0] <= z < comp[1]):
                    continue
                t, img = naive_first_return(fig1, comp, z)
                j = max(k for k in range(1, data.n_intervals + 1)
                        if cut_points[k - 1] <= z)
                assert t == data.return_times[j - 1]
                assert img == images[j - 1][0] + (z - cut_points[j - 1])

    def test_touching_values_match_naive_entries(self, fig1, corpus, corpus_q1024):
        # each touching value is where both touching signed endpoints enter
        # J under plain iteration
        checked = 0
        for m in [fig1] + corpus + corpus_q1024:
            att = compute_attractor(m)
            for kJ, J in zip(att.kcomponents, att.components()):
                data = compute_return_map(kJ, att)
                cut_points = fraction_views(data)[0]
                sigma = data.sigma
                for p, k in enumerate(verify_touching_equations(data)):
                    value = F(k, data.grid.denom)
                    for j, side in ((sigma[p], "-"), (sigma[p + 1] - 1, "+")):
                        horizon = data.chain(j, side).entry_time
                        _, _, entry_value = naive_signed_chain(
                            m, J, cut_points[j], side, horizon)
                        assert value == entry_value
                        checked += 1
        assert checked > 100

    def test_tau_is_the_inverse_of_sigma(self, fig1, iet3, corpus):
        # tau is a view of sigma: not stored, and tau(sigma(p)) = p
        seen = set()
        for m in [fig1, iet3] + corpus:
            for data in full_analysis(m).return_maps:
                assert "tau" not in vars(data)
                assert [data.tau[j - 1] for j in data.sigma] == list(range(1, data.n_intervals + 1))
                seen.add(data.tau != data.sigma)
        assert seen == {False, True}  # some sigma is not its own inverse

    def test_touching_all_corpus(self, corpus):
        for m in corpus[:25]:
            att = compute_attractor(m)
            for kcomp, comp in zip(att.kcomponents, att.components()):
                data = compute_return_map(kcomp, att)
                values = verify_touching_equations(data)
                assert len(values) == data.n_intervals - 1


def _towers(m, att):
    """The towers of the attractor from its Fraction views: each component's
    successor (the component its image is, when the component lies in one
    branch and its image is exactly a component), the components that are
    such an image, and the number of towers (one per root, one per cycle)."""
    comps = att.components()
    cuts = m.cuts()
    index = {comp: k for k, comp in enumerate(comps)}
    succ = {}
    for k, (x, y) in enumerate(comps):
        b = max(i for i in range(1, m.r + 1) if cuts[i - 1] <= x)
        if y <= cuts[b]:
            g = m.gamma[b - 1]
            if (x + g, y + g) in index:
                succ[k] = index[x + g, y + g]
    images = set(succ.values())
    roots = [k for k in range(len(comps)) if k not in images]
    seen = set()
    towers = 0
    for k in roots + list(range(len(comps))):
        if k not in seen:
            towers += 1
            while k is not None and k not in seen:
                seen.add(k)
                k = succ.get(k)
    return succ, images, towers


class TestTowers:
    """``full_analysis(m).return_maps`` walks one component per tower and
    transports the others; every one must equal the direct walk, chains
    included."""

    def test_transported_equal_direct_walks(self, corpus, corpus_q1024, monkeypatch):
        from itmlab import stability

        walked = []
        real = stability.compute_return_map

        def counting(J, attractor):
            walked.append(J)
            return real(J, attractor)

        monkeypatch.setattr(stability, "compute_return_map", counting)
        rooted = transported = 0
        for m in corpus + corpus_q1024:
            analysis = full_analysis(m)
            att = analysis.attractor
            walked.clear()
            got = analysis.return_maps
            for kJ, data in zip(att.kcomponents, got):
                want = real(kJ, att)
                assert data == want
                # the images are not a field, so equality does not compare them
                assert data.kimages == want.kimages
                assert data.chains == want.chains
            succ, images, towers = _towers(m, att)
            assert len(walked) == towers
            transported += len(images)
            rooted += any(k not in images for k in succ)
        assert rooted > 0 and transported > 100  # 9 maps, 129 components
        # corpus_q1024 map 7: one cycle of 42 components, none a root
        m = corpus_q1024[7]
        succ, images, towers = _towers(m, compute_attractor(m))
        assert len(images) == 42 and towers == 1

    def test_images_tile_j_in_sigma_order(self, corpus, corpus_q1024):
        # the images are read off the cut points and sigma: walked and
        # transported alike, the p-th image from the left is interval
        # sigma[p], as long as that interval, and together they cover J
        transported = 0
        for m in corpus + corpus_q1024:
            analysis = full_analysis(m)
            att = analysis.attractor
            for kJ, derived in zip(att.kcomponents, analysis.return_maps):
                transported += derived._source is not None
                for data in (derived, compute_return_map(kJ, att)):
                    kcuts = data.kcuts
                    assert (kcuts[0], kcuts[-1]) == kJ
                    assert sorted(data.sigma) == list(range(1, len(kcuts)))
                    end = kcuts[0]
                    for j in data.sigma:
                        l, r = data.kimages[j - 1]
                        assert l == end and r - l == kcuts[j] - kcuts[j - 1]
                        end = r
                    assert end == kcuts[-1]
        assert transported > 100
