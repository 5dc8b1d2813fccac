"""Coefficient vectors of a return structure and their exact identities.

Each orbit leg of a cut point is encoded as an integer vector in
``Z^r (+) Z^{r-1}``: landing vectors L_j (cut point to its first
discontinuity), critical connection vectors C+-(j, k) (discontinuity to the
next one along a signed chain) and return vectors R+-_j (last discontinuity
back into J). Pairing a vector with the parameter vector
``(gamma_1..gamma_r, beta_1..beta_{r-1})`` recovers the dynamical identity it
encodes, with exact equality. Every function here reads one component's
``ReturnMapData`` and works on its grid (``data.grid``, the map's grid):
a product is an integer numerator over ``data.grid.denom``.

Any vanishing rational combination of the stacked vectors is forced into a
rigid coefficient pattern (equal coefficients along each signed chain,
opposite across the two sides of a cut point, landing coefficient equal to
the sum). ``check_lin_dep_pattern`` verifies that the exact nullspace lies
in that pattern subspace by comparing two integer ranks: that of the
vectors A, and that of the vectors combined along the pattern, A P. One
elimination gives both. It reduces the columns of A P first, then the
vectors other than each R+_j and the boundary landings, which are the
columns of A Q for a matrix Q of unit columns. [P | Q] is unimodular,
because column j of P is the only column that touches R+_j and each
boundary landing is its own unit column of P, so A [P | Q] has the rank
of A.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from math import gcd
from operator import add, mul, sub
from typing import NamedTuple

from .intervals import PLUS, InvariantError
from .return_map import ReturnMapData

Tag = tuple


class CoefficientVector(NamedTuple):
    """One vector of ``Z^r (+) Z^{r-1}`` and its tag. Like the other
    records here, a NamedTuple: every component builds a few dozen, each
    cheaper to build than a :class:`~itmlab.intervals.Frozen` record."""

    e: tuple[int, ...]
    f: tuple[int, ...]
    tag: Tag


class PatternResult(NamedTuple):
    """The nullity of the vectors and that of the pattern combinations;
    every vanishing combination follows the pattern when they agree."""

    nullity: int
    pattern_nullity: int

    @property
    def holds(self) -> bool:
        return self.nullity == self.pattern_nullity


def build_vectors(data: ReturnMapData) -> tuple[CoefficientVector, ...]:
    """All landing / critical connection / return vectors of one component.

    Interior cut points contribute L_j plus both signed chains; boundary
    points contribute their chain's vectors when the chain is non-empty, and
    otherwise only the f-free return vector. Each ``e`` is the difference of
    two cumulative branch-count snapshots the chain walk recorded: L_j up
    to the first hit, C between consecutive hits, R from the last hit (or
    from the start, for an empty chain) to the entry into J. The vectors
    follow the chains' order (a_0+ .. a_{N-1}+, then a_1- .. a_N-), each
    L_j just before the vectors of the first chain of a_j.
    """
    n = data.n_intervals
    ups, downs = _units(len(data.grid.gamma) - 1)
    zero = ups[0]
    out: list[CoefficientVector] = []
    append = out.append
    for c in data.chains:
        j, side, hits = c.j, c.side, c.hits
        if not hits:
            append(CoefficientVector(c.entry_counts, zero, ("R", side, j)))
            continue
        first = hits[0]
        if side == PLUS or j == n:
            append(CoefficientVector(first.counts, downs[first.disc], ("L", j)))
        else:  # interior a_j, whose + chain gave L_j (same first disc and time, as checked)
            if data.chain(j, PLUS).hits[0] != first:
                raise InvariantError(f"the two sides of cut {j} give different landing vectors")
        for k in range(1, len(hits)):
            cur, nxt = hits[k - 1], hits[k]
            e = tuple(map(sub, nxt.counts, cur.counts))
            f = tuple(map(add, ups[cur.disc], downs[nxt.disc]))
            append(CoefficientVector(e, f, ("C", side, j, k)))
        last = hits[-1]
        e = tuple(map(sub, c.entry_counts, last.counts))
        append(CoefficientVector(e, ups[last.disc], ("R", side, j)))
    return tuple(out)


@cache
def _units(size: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """``(ups, downs)``: ``ups[d]`` is the unit f of beta_d in ``Z^size``
    (``d`` from 1), ``downs[d]`` its negative; index 0 holds the zero f."""
    def unit(d: int, sign: int) -> tuple[int, ...]:
        return tuple(sign if i == d else 0 for i in range(1, size + 1))

    return tuple(unit(d, 1) for d in range(size + 1)), tuple(unit(d, -1) for d in range(size + 1))


def verify_identities(data: ReturnMapData, vectors: tuple[CoefficientVector, ...]) -> tuple[int, ...]:
    """The product of every vector of ``build_vectors(data)`` with the
    parameters, as its numerator over ``data.grid.denom``, each checked
    against the identity the vector encodes by exact equality / membership.
    The first identity that fails raises InvariantError with its tag."""
    params = [*data.grid.gamma, *data.grid.cuts[1:-1]]  # grid numerators of (gamma, beta)
    kcuts = data.kcuts
    x, y = kcuts[0], kcuts[-1]
    products: list[int] = []
    for e, f, tag in vectors:
        val = sum(map(mul, e + f, params))
        if tag[0] == "L":
            ok = val + kcuts[tag[1]] == 0
        elif tag[0] == "C":
            ok = val == 0
        else:
            _, side, j = tag
            chain = data.chain(j, side)
            if chain.hits:
                ok = val == chain.kentry and (x <= val < y if side == PLUS else x < val <= y)
            else:
                ok = val == chain.kentry - kcuts[j]
        if not ok:
            raise InvariantError(f"product identity violated for {tag}")
        products.append(val)
    return tuple(products)


# -- rank and the dependence pattern ---------------------------------------


def rank(columns: Sequence[Sequence[int]], dim: int) -> int:
    """Rank of the integer matrix whose ``dim``-entry columns are given.

    Incremental fraction-free elimination on the transpose, one row per
    column (see ``_eliminate``); the pass stops once the rank reaches
    ``dim``.
    """
    pivots: list[tuple[int, Sequence[int]]] = []
    _eliminate(pivots, columns, dim)
    return len(pivots)


def _eliminate(
    pivots: list[tuple[int, Sequence[int]]], rows: Sequence[Sequence[int]], dim: int
) -> None:
    """Reduce each row against ``pivots`` (``(coordinate, row)`` pairs) and
    append it when it stays nonzero, until there are ``dim`` pivots.

    A row is reduced by ``p * row - a * pivot_row``, which clears it at each
    pivot's coordinate, and divided by its content (the gcd of its entries),
    so entries do not grow doubly exponentially. A nonzero reduced row
    becomes a pivot at its first nonzero coordinate; each pivot row is zero
    at the earlier pivots' coordinates, so the pivot rows are independent
    and span what the rows seen so far span.
    """
    for row in rows:
        if len(pivots) == dim:
            return
        for k, prow in pivots:
            a = row[k]
            if a:
                p = prow[k]
                row = [p * x - a * y for x, y in zip(row, prow)]
        g = gcd(*row)
        if not g:
            continue
        if g != 1:
            row = [x // g for x in row]
        pivots.append((row.index(next(filter(None, row))), row))


def check_lin_dep_pattern(data: ReturnMapData, vectors: tuple[CoefficientVector, ...]) -> PatternResult:
    """Verify that every vanishing combination of ``vectors``, those of
    ``build_vectors(data)``, follows the forced pattern.

    The pattern: for each 0 <= j < N the coefficients of C+(j, 1..m-1) and
    R+_j all equal one value c_j, those of C-(j+1, .) and R-_{j+1} all
    equal -c_j, and for interior j the landing coefficient of L_j is
    c_j - c_{j-1}; boundary landings L_0 / L_N are free. These combinations
    are the range of an injective matrix P with one column per c_j and one
    unit column per boundary landing, so the nullspace of the vectors A
    lies in the pattern iff nullity(A) == nullity(A P). The columns of A P
    are signed sums of the vectors.

    Both ranks come from one elimination. The columns of A P are reduced
    first, which gives rank(A P); the same pivot rows then take every
    vector except each R+_j and the boundary landings. Those vectors are
    the columns of A Q, where Q holds their unit columns. [P | Q] is square
    and unimodular: on the rows of the R+_j and the boundary landings, P is
    the identity (column c_j is the only column that touches R+_j, and each
    boundary landing is its own unit column) and Q is zero. So A [P | Q]
    spans what A spans, and the final rank is rank(A). The elimination
    stops once the rank reaches the dimension, ``2r - 1``.

    A violation is returned, never raised (``holds`` is false): it would
    falsify the underlying lemma and means an engine bug.
    """
    n = data.n_intervals
    dim = 2 * len(data.grid.gamma) - 1
    spanned: list[Sequence[int]] = [(0,) * dim] * n  # the columns of A P
    rest = []  # the columns of A Q
    for e, f, tag in vectors:
        row = e + f
        if tag[0] == "L":
            j = tag[1]
            if j == 0 or j == n:
                spanned.append(row)
                continue
            spanned[j] = list(map(add, spanned[j], row))
            spanned[j - 1] = list(map(sub, spanned[j - 1], row))
        elif tag[1] == PLUS:
            spanned[tag[2]] = list(map(add, spanned[tag[2]], row))
            if tag[0] == "R":
                continue
        else:
            spanned[tag[2] - 1] = list(map(sub, spanned[tag[2] - 1], row))
        rest.append(row)
    pivots: list[tuple[int, Sequence[int]]] = []
    _eliminate(pivots, spanned, dim)
    pattern_nullity = len(spanned) - len(pivots)
    _eliminate(pivots, rest, dim)
    return PatternResult(len(vectors) - len(pivots), pattern_nullity)
