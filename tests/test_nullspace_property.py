"""Property test: the integer nullspace against the plain Fraction
elimination oracle on random integer matrices.

Needs ``hypothesis`` (the ``test`` extra), kept in its own module so the
rest of the vector tests do not depend on it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from itmlab.vectors import nullspace
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
def test_integer_nullspace_against_fraction_elimination(matrix):
    cols, dim = matrix
    basis = nullspace(cols, dim)
    assert len(basis) == len(naive_nullspace(cols, dim))
    for alpha in basis:
        assert all(type(x) is int for x in alpha)
        assert any(alpha)
        for row in range(dim):
            assert sum(c[row] * a for c, a in zip(cols, alpha)) == 0
    # independent, so the basis spans the whole kernel
    assert naive_nullspace(basis, len(cols)) == []
