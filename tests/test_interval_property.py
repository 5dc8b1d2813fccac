"""Property test: the laws of the half-open interval-set algebra on
canonical sets whose endpoints mix several denominators.

Needs ``hypothesis`` (the ``test`` extra), kept in its own module so the
rest of the interval tests do not depend on it.
"""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from itmlab import canonicalize

_values = st.integers(1, 60).flatmap(lambda q: st.integers(0, q).map(lambda k: F(k, q)))


@st.composite
def raw_pairs(draw):
    """One pair per point of a sorted pool of endpoints with denominators up
    to 60, spanning 0, 1 or 2 steps of the pool, so degenerate, abutting,
    overlapping and separated pairs are all common."""
    pool = sorted(set(draw(st.lists(_values, min_size=2, max_size=14))))
    widths = draw(st.lists(st.integers(0, 2), min_size=len(pool), max_size=len(pool)))
    last = len(pool) - 1
    return [(x, pool[min(k + w, last)]) for k, (x, w) in enumerate(zip(pool, widths))]


sets = raw_pairs().map(canonicalize)


def gaps(*ss):
    """The consecutive pairs of 0, 1 and every endpoint of the sets:
    membership is constant inside each gap."""
    ends = sorted({F(0), F(1)} | {x for s in ss for pair in s.intervals for x in pair})
    return list(zip(ends, ends[1:]))


@settings(max_examples=200, deadline=None)
@given(a=sets, b=sets)
def test_laws(a, b):
    union, inter, diff = a.union(b), a.intersection(b), a.difference(b)
    cells = gaps(a, b)
    # every endpoint and the midpoint of every gap
    points = [x for x, _ in cells] + [F(1)] + [(x + y) / 2 for x, y in cells]
    for x in points:
        in_a, in_b = a.contains_value(x), b.contains_value(x)
        assert union.contains_value(x) == (in_a or in_b)
        assert inter.contains_value(x) == (in_a and in_b)
        assert diff.contains_value(x) == (in_a and not in_b)
    assert union.measure() + inter.measure() == a.measure() + b.measure()
    assert inter.measure() + diff.measure() == a.measure()
    for s in (a, b, union, inter, diff):
        assert s.measure() == sum(y - x for x, y in cells if s.contains_value((x + y) / 2))
    pointwise = all(b.contains_value(x) for x in points if a.contains_value(x))
    assert a.issubset(b) == diff.is_empty() == pointwise
    assert inter.issubset(a) and a.issubset(union)


@settings(max_examples=200, deadline=None)
@given(raw=raw_pairs())
def test_canonicalize_is_idempotent(raw):
    once = canonicalize(raw)
    assert canonicalize(once.intervals) == once
