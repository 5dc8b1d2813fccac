"""Exact scalar parsing, signed points and interval-set algebra."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from itmlab import (
    EmptySetError,
    IntervalSet,
    canonicalize,
    format_rational,
    hausdorff_closure_distance,
    interval,
    minus,
    parse_rational,
    plus,
    set_ops,
)
from itmlab.intervals import SignedPoint


def iset(*pairs):
    return canonicalize(pairs)


class TestRationalFormat:
    @pytest.mark.parametrize("text,value", [
        ("1/3", F(1, 3)), ("-1/2", F(-1, 2)), ("7", F(7)), ("0", F(0)), ("-4", F(-4)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["1/0", " 1/2", "1 /2", "+3", "1.5", "2/-3", "a", ""])
    def test_strict_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            q = F(rng.randint(-500, 500), rng.randint(1, 500))
            assert parse_rational(format_rational(q)) == q


class TestSignedPoint:
    def test_valid_sides(self):
        assert plus(0).side == "+"
        assert minus(1).side == "-"
        assert minus(F(1, 3)) < plus(F(1, 3))

    def test_invalid(self):
        with pytest.raises(ValueError):
            minus(0)
        with pytest.raises(ValueError):
            plus(1)
        with pytest.raises(ValueError):
            SignedPoint(F(1, 2), "x")
        with pytest.raises(ValueError):
            SignedPoint(F(3, 2), "+")


class TestCanonicalize:
    def test_abutting_merge(self):
        assert iset((F(0), F(1, 2)), (F(1, 2), F(1))) == interval(0, 1)

    def test_degenerate_dropped(self):
        assert iset((F(1, 3), F(1, 3))).is_empty()

    def test_sorting(self):
        got = iset((F(1, 2), F(2, 3)), (F(1, 6), F(13, 42)))
        assert got.intervals == ((F(1, 6), F(13, 42)), (F(1, 2), F(2, 3)))

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(100):
            pairs = []
            for _ in range(rng.randint(0, 6)):
                a = F(rng.randint(0, 24), 24)
                b = F(rng.randint(0, 24), 24)
                if a > b:
                    a, b = b, a
                pairs.append((a, b))
            s = canonicalize(pairs)
            assert canonicalize(s.intervals) == s

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            canonicalize([(F(1, 2), F(1, 3))])


def random_set(rng, q=16, max_parts=4):
    pairs = []
    for _ in range(rng.randint(0, max_parts)):
        a = rng.randint(0, q)
        b = rng.randint(0, q)
        if a > b:
            a, b = b, a
        pairs.append((F(a, q), F(b, q)))
    return canonicalize(pairs)


class TestSetOps:
    def test_union_overlap(self):
        # 13/21 < 9/14, so the pieces overlap into one component
        a, b = iset((F(1, 2), F(9, 14))), iset((F(13, 21), F(17, 21)))
        assert a.union(b) == iset((F(1, 2), F(17, 21)))

    def test_intersection_idempotent(self):
        a = iset((F(1, 8), F(1, 2)), (F(3, 4), F(7, 8)))
        assert a.intersection(a) == a

    def test_difference_self_empty(self):
        assert interval(0, 1).difference(interval(0, 1)).is_empty()

    def test_dispatch(self):
        a, b = interval(0, F(1, 2)), interval(F(1, 4), 1)
        assert set_ops(a, b, "union") == interval(0, 1)
        assert set_ops(a, b, "intersection") == interval(F(1, 4), F(1, 2))
        assert set_ops(a, b, "difference") == interval(0, F(1, 4))
        with pytest.raises(ValueError):
            set_ops(a, b, "xor")

    def test_grid_membership_oracle(self):
        # union / intersection / difference agree with pointwise membership
        # on the grid {k/Q}, Q = lcm of all endpoint denominators
        rng = random.Random(23)
        for _ in range(150):
            a, b = random_set(rng), random_set(rng)
            q = 16
            for k in range(q):
                x = F(k, q)
                assert a.union(b).contains_value(x) == (
                    a.contains_value(x) or b.contains_value(x))
                assert a.intersection(b).contains_value(x) == (
                    a.contains_value(x) and b.contains_value(x))
                assert a.difference(b).contains_value(x) == (
                    a.contains_value(x) and not b.contains_value(x))

    def test_difference_many_components(self):
        # the two-pointer pass against pointwise membership, with many
        # interleaved components on both sides
        rng = random.Random(41)
        q = 128
        for _ in range(60):
            a = random_set(rng, q=q, max_parts=30)
            b = random_set(rng, q=q, max_parts=30)
            d = a.difference(b)
            for k in range(q):
                x = F(k, q)
                assert d.contains_value(x) == (a.contains_value(x) and not b.contains_value(x))
            assert d.issubset(a)
            assert d.intersection(b).is_empty()

    def test_measure_arithmetic(self):
        rng = random.Random(31)
        for _ in range(100):
            a, b = random_set(rng), random_set(rng)
            assert a.union(b).measure() + a.intersection(b).measure() == \
                a.measure() + b.measure()
            assert a.difference(b).measure() <= a.measure()
            if a.intersection(b).is_empty():
                assert a.union(b).measure() == a.measure() + b.measure()

    def test_subset(self):
        a = iset((F(1, 4), F(1, 2)))
        assert a.issubset(interval(0, 1))
        assert not interval(0, 1).issubset(a)


class TestComponents:
    def test_empty(self):
        assert canonicalize([]).components() == ()

    def test_two(self):
        s = iset((F(1, 6), F(13, 42)), (F(1, 2), F(17, 21)))
        assert s.components() == ((F(1, 6), F(13, 42)), (F(1, 2), F(17, 21)))

    def test_full(self):
        assert interval(0, 1).components() == ((F(0), F(1)),)


def brute_hausdorff(a: IntervalSet, b: IntervalSet) -> F:
    # dense candidate oracle: every endpoint plus every midpoint of a pair of
    # endpoints; the true maximizer of a piecewise linear function is there
    pts = [e for l, r in a.intervals for e in (l, r)]
    pts += [e for l, r in b.intervals for e in (l, r)]
    cands = set(pts)
    for p in pts:
        for q in pts:
            cands.add((p + q) / 2)
    d_ab = max(b.distance_to_closure(x) for x in cands if a.closure_contains(x))
    d_ba = max(a.distance_to_closure(x) for x in cands if b.closure_contains(x))
    return max(d_ab, d_ba)


class TestHausdorff:
    def test_equal_sets(self):
        a = interval(0, F(1, 2))
        assert hausdorff_closure_distance(a, a) == 0

    def test_extra_component(self):
        a = interval(0, F(1, 4))
        b = iset((F(0), F(1, 4)), (F(3, 4), F(7, 8)))
        assert hausdorff_closure_distance(a, b) == F(5, 8)

    def test_shifted_endpoint(self):
        a = interval(0, F(1, 2))
        b = interval(F(1, 100), F(1, 2))
        assert hausdorff_closure_distance(a, b) == F(1, 100)

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            hausdorff_closure_distance(canonicalize([]), interval(0, 1))

    def test_zero_iff_equal_closures(self):
        # [0,1/2) and [0,1/2)+[1/2,3/4) differ, distance positive
        a = interval(0, F(1, 2))
        b = iset((F(0), F(1, 2)), (F(1, 2), F(3, 4)))
        assert hausdorff_closure_distance(a, b) > 0
        # abutting pieces merge, so closures coincide after canonicalize
        c = iset((F(0), F(1, 4)), (F(1, 4), F(1, 2)))
        assert hausdorff_closure_distance(a, c) == 0

    def test_against_brute_force(self):
        rng = random.Random(41)
        checked = 0
        while checked < 120:
            a, b = random_set(rng), random_set(rng)
            if a.is_empty() or b.is_empty():
                continue
            assert hausdorff_closure_distance(a, b) == brute_hausdorff(a, b)
            checked += 1

    def test_symmetry_and_triangle(self):
        rng = random.Random(43)
        checked = 0
        while checked < 80:
            a, b, c = random_set(rng), random_set(rng), random_set(rng)
            if a.is_empty() or b.is_empty() or c.is_empty():
                continue
            dab = hausdorff_closure_distance(a, b)
            assert dab == hausdorff_closure_distance(b, a)
            dac = hausdorff_closure_distance(a, c)
            dcb = hausdorff_closure_distance(c, b)
            assert dab <= dac + dcb
            checked += 1


class TestSignedMembership:
    def test_half_open_sides(self):
        s = interval(F(1, 2), F(17, 21))
        assert s.contains_signed(plus(F(1, 2)))
        assert not s.contains_signed(minus(F(1, 2)))
        assert s.contains_signed(minus(F(17, 21)))
        assert not s.contains_signed(plus(F(17, 21)))
