"""Map validation, signed dynamics, wire format."""

from __future__ import annotations

import random
import sys
from fractions import Fraction as F

import pytest

from itmlab import (
    BadOrderError,
    BadTranslationError,
    InvariantError,
    MapFormatError,
    minus,
    parse_map,
    plus,
    validate,
)
from itmlab.itm import ItmMap, from_numerators
from itmlab.kernel import on_grid
from conftest import naive_orbit, random_map


class TestValidate:
    def test_fig1(self, fig1):
        assert fig1.Q == 42
        assert fig1.image_compactly_contained

    def test_rotation(self, rotation35):
        assert rotation35.Q == 5

    def test_bad_translation(self):
        with pytest.raises(BadTranslationError) as exc:
            validate(2, [F(1, 2)], [F(3, 4), F(0)])
        assert exc.value.index == 1

    def test_bad_order(self):
        with pytest.raises(BadOrderError):
            validate(3, [F(2, 3), F(1, 3)], [F(0), F(0), F(0)])
        with pytest.raises(BadOrderError):
            validate(2, [F(0)], [F(0), F(0)])

    def test_wrong_lengths(self):
        with pytest.raises(MapFormatError):
            validate(3, [F(1, 2)], [F(0), F(0), F(0)])

    def test_r_too_small(self):
        with pytest.raises(BadOrderError):
            validate(1, [], [F(0)])

    def test_the_grid_is_the_only_state(self, fig1, corpus):
        # parameters given over a multiple of the map's grid reduce to the
        # map validate builds from the same Fractions: equal, with the same
        # hash, and holding nothing but the grid until a view is read
        assert ItmMap._fields == ("grid",)
        for m in [fig1] + corpus[:10]:
            q = 6 * m.Q
            built = from_numerators(
                m.r, [on_grid(b, q) for b in m.beta], [on_grid(g, q) for g in m.gamma], q
            )
            assert vars(built) == {"grid": m.grid}
            with pytest.raises(AttributeError):
                built.grid = None
            again = validate(m.r, list(m.beta), list(m.gamma))
            assert built == again and hash(built) == hash(again)
            assert (built.r, built.Q, built.beta, built.gamma) == (m.r, m.Q, m.beta, m.gamma)
            assert built.cuts() == (F(0), *m.beta, F(1))


class TestBranchAndStep:
    def test_branch_of_signed(self, fig1):
        assert fig1.branch_of(plus(F(2, 3))) == 3
        assert fig1.branch_of(minus(F(2, 3))) == 2
        assert fig1.branch_of(plus(F(1, 5))) == 1
        assert fig1.branch_of(minus(F(1, 5))) == 1

    def test_step(self, fig1):
        assert fig1.step(plus(F(2, 3))) == plus(F(1, 6))
        assert fig1.step(minus(F(2, 3))) == minus(F(17, 21))
        assert fig1.step(minus(F(1, 3))) == minus(F(2, 3))

    def test_side_preserved(self, fig1):
        rng = random.Random(3)
        for _ in range(50):
            v = F(rng.randint(1, 41), 42)
            assert fig1.step(plus(v)).side == "+"
            assert fig1.step(minus(v)).side == "-"


class TestIterate:
    def test_touching_pair(self, fig1):
        res = fig1.iterate(plus(F(2, 3)), 3)
        assert res.point == plus(F(9, 14))
        assert res.itinerary == (3, 1, 2)
        assert res.counts == (1, 1, 1)
        res = fig1.iterate(minus(F(2, 3)), 3)
        assert res.point == minus(F(9, 14))
        assert res.itinerary == (2, 3, 1)
        assert res.counts == (1, 1, 1)

    def test_zero_steps(self, fig1):
        p = plus(F(1, 5))
        res = fig1.iterate(p, 0)
        assert res.point == p and res.itinerary == () and res.counts == (0, 0, 0)
        with pytest.raises(ValueError, match="n must be >= 0"):
            fig1.iterate(p, -1)

    def test_explicit_formula(self, fig1, rotation35):
        # T^n(x) = x + sum_s k_s(x, n) gamma_s, exactly, up to n = 3Q
        rng = random.Random(5)
        for m in (fig1, rotation35):
            for _ in range(12):
                v = F(rng.randint(0, 4 * m.Q - 1), 4 * m.Q)
                n = rng.randint(0, 3 * m.Q)
                p = plus(v) if v < 1 else minus(v)
                res = m.iterate(p, n)
                total = sum((k * g for k, g in zip(res.counts, m.gamma)), F(0))
                assert res.point.value == p.value + total
                assert sum(res.counts) == n

    def test_matches_naive_orbit(self, fig1):
        rng = random.Random(9)
        for _ in range(20):
            v = F(rng.randint(0, 167), 168)
            n = rng.randint(1, 60)
            res = fig1.iterate(plus(v), n)
            assert res.point.value == naive_orbit(fig1, v, n)[-1]

    def test_monotone_branch_action(self, fig1):
        # same itinerary up to n forces T^n(q) - T^n(p) = q - p
        rng = random.Random(13)
        for _ in range(40):
            a = F(rng.randint(0, 167), 168)
            b = F(rng.randint(0, 167), 168)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            n = rng.randint(1, 40)
            ra, rb = fig1.iterate(plus(a), n), fig1.iterate(plus(b), n)
            if ra.itinerary == rb.itinerary:
                assert rb.point.value - ra.point.value == b - a


class TestTranslationFactor:
    def test_fig1(self, fig1):
        assert fig1.translation_factor(plus(F(2, 3)), 3) == F(-1, 42)

    def test_rotation_period(self, rotation35):
        rng = random.Random(17)
        for _ in range(10):
            v = F(rng.randint(0, 19), 20)
            assert rotation35.translation_factor(plus(v), 5) == 0

    def test_single_step(self, fig1):
        assert fig1.translation_factor(plus(F(1, 5)), 1) == F(1, 3)
        assert fig1.translation_factor(plus(F(1, 2)), 1) == F(1, 7)

    def test_broken_identity_raises_a_typed_error(self, fig1, monkeypatch):
        # a typed AssertionError, not an assert, so it also fires under -O
        real = ItmMap.iterate

        def shifted(self, p, n):
            res = real(self, p, n)
            return res._replace(point=plus(res.point.value + F(1, 1000)))

        monkeypatch.setattr(ItmMap, "iterate", shifted)
        with pytest.raises(InvariantError, match="T\\^3"):
            fig1.translation_factor(plus(F(1, 5)), 3)
        assert issubclass(InvariantError, AssertionError)

    def test_needs_positive_n(self, fig1):
        with pytest.raises(ValueError):
            fig1.translation_factor(plus(F(1, 5)), 0)


class TestWireFormat:
    DOC = {"r": 3, "beta": ["1/3", "2/3"], "gamma": ["1/3", "1/7", "-1/2"]}

    def test_parse(self, fig1):
        m = parse_map(dict(self.DOC))
        assert m == fig1

    def test_unknown_key_rejected(self):
        doc = dict(self.DOC)
        doc["note"] = "hi"
        with pytest.raises(MapFormatError):
            parse_map(doc)

    def test_missing_key(self):
        with pytest.raises(MapFormatError):
            parse_map({"r": 3, "beta": ["1/3", "2/3"]})

    def test_bad_rational(self):
        # JSON false is a Python int subclass; it is not a number
        for bad in ("0.5", False):
            doc = dict(self.DOC)
            doc["gamma"] = ["1/3", bad, "-1/2"]
            with pytest.raises(MapFormatError, match="bad rational"):
                parse_map(doc)

    def test_q_digit_bound(self):
        # Q = lcm(2, q) with q written in `limit` digits: accepted while Q
        # keeps `limit` digits, rejected once it needs one more
        limit = sys.get_int_max_str_digits()
        for q, ok in [(10**limit - 2, True), (10**limit - 1, False),
                      (5 * 10**(limit - 1), True), (5 * 10**(limit - 1) + 1, False)]:
            doc = {"r": 2, "beta": ["1/2"], "gamma": [f"1/{q}", "0"]}
            if ok:
                assert len(str(parse_map(doc).Q)) == limit
            else:
                with pytest.raises(MapFormatError, match=f"at most {limit} decimal digits"):
                    parse_map(doc)

    def test_non_integer_r(self):
        for bad in ("3", True):
            doc = dict(self.DOC)
            doc["r"] = bad
            with pytest.raises(MapFormatError, match="r must be an integer"):
                parse_map(doc)

    @pytest.mark.parametrize("key,value", [("beta", "5"), ("gamma", "1/3"), ("beta", {"1/3": 0})])
    def test_non_array_parameters_rejected(self, key, value):
        doc = dict(self.DOC)
        doc[key] = value
        with pytest.raises(MapFormatError, match="beta/gamma must be JSON arrays"):
            parse_map(doc)

    def test_integer_entries_allowed(self):
        m = parse_map({"r": 2, "beta": ["1/2"], "gamma": [0, 0]})
        assert m.gamma == (F(0), F(0))


def test_random_maps_validate(corpus):
    for m in corpus:
        assert m.r in (2, 3, 4)
        assert all(x.denominator <= 64 for x in m.beta + m.gamma)
        assert m.Q <= 64


def test_random_map_generator_seeded():
    a = random_map(random.Random(123))
    b = random_map(random.Random(123))
    assert a == b
