"""Property test: the integer rank against the plain Fraction elimination
oracle on random integer matrices.

Needs ``hypothesis`` (the ``test`` extra), kept in its own module so the
rest of the vector tests do not depend on it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from itmlab.vectors import rank
from conftest import naive_nullspace


@st.composite
def matrices(draw):
    """Columns of a matrix with up to 15 rows and 12 columns, entries up to
    +-1024; a small value range on some draws makes rank deficiency common."""
    dim = draw(st.integers(1, 15))
    ncols = draw(st.integers(1, 12))
    bound = draw(st.sampled_from([1, 3, 1024]))
    entry = st.integers(-bound, bound)
    cols = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                         min_size=ncols, max_size=ncols))
    return cols, dim


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_integer_rank_against_fraction_elimination(matrix):
    cols, dim = matrix
    assert rank(cols, dim) == len(cols) - len(naive_nullspace(cols, dim))
