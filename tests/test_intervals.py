"""Exact scalar parsing, signed points and interval-set algebra."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from itmlab import (
    EmptySetError,
    OffGridError,
    canonicalize,
    hausdorff_closure_distance,
    interval,
    minus,
    parse_rational,
    plus,
)
from itmlab.intervals import IntervalSet, SignedPoint
from conftest import brute_hausdorff, set_hausdorff


def iset(*pairs):
    return canonicalize(pairs)


class TestRationalFormat:
    @pytest.mark.parametrize("text,value", [
        ("1/3", F(1, 3)), ("-1/2", F(-1, 2)), ("7", F(7)), ("0", F(0)), ("-4", F(-4)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", [
        "1/0", " 1/2", "1 /2", "+3", "1.5", "2/-3", "a", "",
        "1/2\n", "7\n", "\u0661", "1/1\u0662", True, False,
    ])
    def test_strict_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            q = F(rng.randint(-500, 500), rng.randint(1, 500))
            assert parse_rational(str(q)) == q


class TestSignedPoint:
    def test_valid_sides(self):
        assert plus(0).side == "+"
        assert minus(1).side == "-"
        assert minus(F(1, 3)) < plus(F(1, 3))
        x = F(1, 3)
        assert minus(x) <= plus(x) and not plus(x) < minus(x) and minus(x) != plus(x)
        assert sorted([plus(x), minus(x), plus(0), minus(1)]) == [plus(0), minus(x), plus(x), minus(1)]

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
    def test_direct_construction_validates(self):
        for bad in [((F(1, 2), F(1, 4)),), ((F(0), F(1, 2)), (F(1, 2), F(1))), ((F(-1), F(0)),)]:
            with pytest.raises(ValueError):
                IntervalSet(bad)

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


class TestHausdorff:
    def test_equal_sets(self):
        a = interval(0, F(1, 2))
        assert set_hausdorff(a, a) == 0

    def test_extra_component(self):
        a = interval(0, F(1, 4))
        b = iset((F(0), F(1, 4)), (F(3, 4), F(7, 8)))
        assert set_hausdorff(a, b) == F(5, 8)

    def test_shifted_endpoint(self):
        a = interval(0, F(1, 2))
        b = interval(F(1, 100), F(1, 2))
        assert set_hausdorff(a, b) == F(1, 100)

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            set_hausdorff(canonicalize([]), interval(0, 1))
        with pytest.raises(EmptySetError):
            IntervalSet(()).distance_to_closure(F(1, 2))

    def test_endpoint_numerators_on_one_grid(self):
        # [0, 2] u [4, 6] against [0, 6]: the gap midpoint 3 lies 1 from
        # the first union; the result is a numerator over the same grid
        assert hausdorff_closure_distance([0, 2, 4, 6], [0, 6]) == 1
        assert hausdorff_closure_distance((0, 6), (0, 2, 4, 6)) == 1
        # a gap of odd width has its midpoint off the grid, on either side
        for a, b in (([0, 1, 4, 6], [0, 6]), ([0, 6], [0, 1, 4, 6])):
            with pytest.raises(OffGridError, match=r"midpoint of the gap \(1, 4\)"):
                hausdorff_closure_distance(a, b)

    def test_zero_iff_equal_closures(self):
        # [0,1/2) and [0,1/2)+[1/2,3/4) differ, distance positive
        a = interval(0, F(1, 2))
        b = iset((F(0), F(1, 2)), (F(1, 2), F(3, 4)))
        assert set_hausdorff(a, b) > 0
        # abutting pieces merge, so closures coincide after canonicalize
        c = iset((F(0), F(1, 4)), (F(1, 4), F(1, 2)))
        assert set_hausdorff(a, c) == 0

    def test_against_brute_force(self):
        rng = random.Random(41)
        checked = 0
        while checked < 120:
            a, b = random_set(rng), random_set(rng)
            if a.is_empty() or b.is_empty():
                continue
            assert set_hausdorff(a, b) == brute_hausdorff(a, b)
            checked += 1

    def test_symmetry_and_triangle(self):
        rng = random.Random(43)
        checked = 0
        while checked < 80:
            a, b, c = random_set(rng), random_set(rng), random_set(rng)
            if a.is_empty() or b.is_empty() or c.is_empty():
                continue
            dab = set_hausdorff(a, b)
            assert dab == set_hausdorff(b, a)
            dac = set_hausdorff(a, c)
            dcb = set_hausdorff(c, b)
            assert dab <= dac + dcb
            checked += 1


class TestSignedMembership:
    def test_half_open_sides(self):
        s = interval(F(1, 2), F(17, 21))
        assert s.contains_signed(plus(F(1, 2)))
        assert not s.contains_signed(minus(F(1, 2)))
        assert s.contains_signed(minus(F(17, 21)))
        assert not s.contains_signed(plus(F(17, 21)))
