"""Property test: the integer rank against the plain Fraction elimination
oracle on random integer matrices.

Needs ``hypothesis`` (the ``test`` extra), kept in its own module so the
rest of the vector tests do not depend on it.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from itmlab.vectors import rank
from conftest import naive_nullspace


@st.composite
def matrices(draw):
    """Columns of a matrix with up to 15 rows and 15 columns, entries up to
    +-2**40; a small value range on some draws makes rank deficiency
    common, and square draws with a large range reach full rank, where
    the elimination stops."""
    dim = draw(st.integers(1, 15))
    ncols = draw(st.integers(1, 15))
    bound = draw(st.sampled_from([1, 3, 1024, 2**40]))
    entry = st.integers(-bound, bound)
    cols = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                         min_size=ncols, max_size=ncols))
    return cols, dim


# 15 x 15 and of full rank: row k holds 2**40 - k on the diagonal and 3**k
# to its right, so it is triangular with a nonzero diagonal
FULL_RANK_15 = [[3**k if j > k else (2**40 - k if j == k else 0) for j in range(15)]
                for k in range(15)]


@settings(max_examples=300, deadline=None)
@given(matrices())
@example((FULL_RANK_15, 15))
@example(([[x**j for j in range(15)] for x in range(1, 16)] + [[1] * 15], 15))  # Vandermonde
def test_integer_rank_against_fraction_elimination(matrix):
    cols, dim = matrix
    assert rank(cols, dim) == len(cols) - len(naive_nullspace(cols, dim))
