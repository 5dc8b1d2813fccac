"""Property test: the integer Hausdorff distance against the brute-force
oracle on interval sets whose endpoints mix several denominators.

Needs ``hypothesis`` (the ``test`` extra), kept in its own module so the
rest of the interval tests do not depend on it.
"""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from itmlab import canonicalize
from conftest import brute_hausdorff, set_hausdorff


@st.composite
def mixed_sets(draw):
    """A non-empty interval set whose endpoints have denominators up to 60,
    drawn independently, so one set mixes several grids."""
    ends = draw(st.lists(
        st.builds(F, st.integers(0, 60), st.integers(1, 60)).filter(lambda x: x <= 1),
        min_size=2, max_size=12, unique=True,
    ))
    ends.sort()
    pairs = [(ends[k], ends[k + 1]) for k in range(0, len(ends) - 1, 2)]
    return canonicalize(pairs)


@settings(max_examples=200, deadline=None)
@given(a=mixed_sets(), b=mixed_sets())
def test_mixed_denominators_against_brute_force(a, b):
    # endpoints on different grids, so the common grid 1/(2L) is finer
    # than either set's own
    assert set_hausdorff(a, b) == brute_hausdorff(a, b)
