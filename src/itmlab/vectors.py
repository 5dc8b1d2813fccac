"""Coefficient vectors of a return structure and their exact identities.

Each orbit leg of a cut point is encoded as an integer vector in
``Z^r (+) Z^{r-1}``: landing vectors L_j (cut point to its first
discontinuity), critical connection vectors C+-(j, k) (discontinuity to the
next one along a signed chain) and return vectors R+-_j (last discontinuity
back into J). Pairing a vector with the parameter vector
``(gamma_1..gamma_r, beta_1..beta_{r-1})`` recovers the dynamical identity it
encodes, with exact equality.

Any vanishing rational combination of the stacked vectors is forced into a
rigid coefficient pattern (equal coefficients along each signed chain,
opposite across the two sides of a cut point, landing coefficient equal to
the sum). ``check_lin_dep_pattern`` verifies that the exact nullspace lies
in that pattern subspace by comparing two integer ranks: that of the
vectors, and that of the vectors combined along the pattern.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .intervals import PLUS
from .itm import ItmMap
from .return_map import ReturnMapData

Tag = tuple


class VectorInvariantError(AssertionError):
    """The two signed chains of an interior cut point give different landing
    vectors; impossible on exact data, so a bug. A typed error rather than
    an ``assert``, so the check also runs under ``python -O``."""


class IdentityViolatedError(AssertionError):
    """A product identity failed on exact data; indicates an engine bug."""

    def __init__(self, tag: Tag):
        self.tag = tag
        super().__init__(f"product identity violated for {tag}")


@dataclass(frozen=True)
class CoefficientVector:
    e: tuple[int, ...]
    f: tuple[int, ...]
    tag: Tag

    def entries(self) -> tuple[int, ...]:
        return self.e + self.f


@dataclass(frozen=True)
class IdentityCheck:
    """The product of one vector, held as its numerator ``kvalue`` over
    ``denom`` (the map's grid); ``value`` is its Fraction view."""

    tag: Tag
    kind: str
    kvalue: int
    denom: int
    ok: bool

    @property
    def value(self) -> Fraction:
        return Fraction(self.kvalue, self.denom)


@dataclass(frozen=True)
class PatternResult:
    holds: bool
    nullity: int
    witness: dict | None


def product(v: CoefficientVector, m: ItmMap) -> Fraction:
    """<v, (gamma beta)> = sum e_s gamma_s + sum f_s beta_s, exact: an
    integer sum over the grid numerators of the parameters."""
    return Fraction(sum(map(mul, v.entries(), _params(m))), m.Q)


def _params(m: ItmMap) -> list[int]:
    """The grid numerators of ``(gamma_1..gamma_r, beta_1..beta_{r-1})``."""
    grid = m.grid
    return [*grid.gamma, *grid.cuts[1:-1]]


def build_vectors(m: ItmMap, data: ReturnMapData) -> tuple[CoefficientVector, ...]:
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
    chains = data.chains
    r1 = m.r - 1
    out: list[CoefficientVector] = []
    append = out.append
    sub = int.__sub__
    for c in chains:
        j, side, hits = c.j, c.side, c.hits
        if not hits:
            append(CoefficientVector(c.entry_counts, (0,) * r1, ("R", side, j)))
            continue
        first = hits[0]
        if side == PLUS or j == n:
            f = [0] * r1
            f[first.disc - 1] = -1
            append(CoefficientVector(first.counts, tuple(f), ("L", j)))
        else:  # the interior cut a_j, whose + chain gave L_j
            other = chains[j].hits
            if not other or other[0].counts != first.counts or other[0].disc != first.disc:
                raise VectorInvariantError(
                    f"the two sides of cut {j} give different landing vectors"
                )
        for k in range(1, len(hits)):
            cur, nxt = hits[k - 1], hits[k]
            f = [0] * r1
            f[cur.disc - 1] += 1
            f[nxt.disc - 1] -= 1
            e = tuple(map(sub, nxt.counts, cur.counts))
            append(CoefficientVector(e, tuple(f), ("C", side, j, k)))
        last = hits[-1]
        f = [0] * r1
        f[last.disc - 1] = 1
        e = tuple(map(sub, c.entry_counts, last.counts))
        append(CoefficientVector(e, tuple(f), ("R", side, j)))
    return tuple(out)


def verify_identities(
    m: ItmMap, data: ReturnMapData, vectors: tuple[CoefficientVector, ...] | None = None
) -> tuple[IdentityCheck, ...]:
    """Check every vector's defining identity by exact equality / membership."""
    if vectors is None:
        vectors = build_vectors(m, data)
    params = _params(m)
    kcuts, chains, n, q = data.kcuts, data.chains, data.n_intervals, m.Q
    x, y = kcuts[0], kcuts[-1]
    checks: list[IdentityCheck] = []
    for v in vectors:
        val = sum(map(mul, v.e + v.f, params))
        tag = v.tag
        if tag[0] == "L":
            ok = val + kcuts[tag[1]] == 0
            kind = "landing"
        elif tag[0] == "C":
            ok = val == 0
            kind = "connection"
        else:
            _, side, j = tag
            chain = chains[j] if side == PLUS else chains[n + j - 1]
            if chain.hits:
                ok = val == chain.kentry and (x <= val < y if side == PLUS else x < val <= y)
                kind = "return"
            else:
                ok = val == chain.kentry - kcuts[j]
                kind = "return_free"
        checks.append(IdentityCheck(tag, kind, val, q, ok))
        if not ok:
            raise IdentityViolatedError(tag)
    return tuple(checks)


# -- rank and the dependence pattern ---------------------------------------


def rank(columns: Sequence[Sequence[int]], dim: int) -> int:
    """Rank of the integer matrix whose ``dim``-entry columns are given.

    Incremental fraction-free elimination on the transpose, one row per
    column: each row is reduced against the pivot rows so far by
    ``p * row - a * pivot_row``, which clears it at each pivot's
    coordinate, and divided by its content (the gcd of its entries), so
    entries do not grow doubly exponentially. A nonzero reduced row becomes
    a pivot at its first nonzero coordinate; each pivot row is zero at the
    earlier pivots' coordinates, so the pivot rows are independent. The
    pass stops once the rank reaches ``dim``.
    """
    pivots: list[tuple[int, Sequence[int]]] = []  # (coordinate, row)
    for row in columns:
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
        pivots.append((next(k for k, x in enumerate(row) if x), row))
        if len(pivots) == dim:
            break
    return len(pivots)


def check_lin_dep_pattern(
    m: ItmMap, data: ReturnMapData, vectors: tuple[CoefficientVector, ...] | None = None
) -> PatternResult:
    """Verify that every vanishing combination follows the forced pattern.

    The pattern: for each 0 <= j < N the coefficients of C+(j, 1..m-1) and
    R+_j all equal one value c_j, those of C-(j+1, .) and R-_{j+1} all
    equal -c_j, and for interior j the landing coefficient of L_j is
    c_j - c_{j-1}; boundary landings L_0 / L_N are free. These combinations
    are the range of an injective matrix P with one column per c_j and one
    unit column per boundary landing, so the nullspace of the vectors A
    lies in the pattern iff nullity(A) == nullity(A P). The columns of A P
    are signed sums of the vectors. A violation is returned as a witness,
    never raised: it would falsify the underlying lemma and means an
    engine bug.
    """
    if vectors is None:
        vectors = build_vectors(m, data)
    n = data.n_intervals
    dim = 2 * m.r - 1
    add, sub = int.__add__, int.__sub__
    spanned: list[Sequence[int]] = [(0,) * dim] * n  # the columns of A P
    rows = []
    for v in vectors:
        row = v.e + v.f
        rows.append(row)
        tag = v.tag
        if tag[0] == "L":
            j = tag[1]
            if j == 0 or j == n:
                spanned.append(row)
                continue
            spanned[j] = list(map(add, spanned[j], row))
            spanned[j - 1] = list(map(sub, spanned[j - 1], row))
        elif tag[1] == PLUS:
            spanned[tag[2]] = list(map(add, spanned[tag[2]], row))
        else:
            spanned[tag[2] - 1] = list(map(sub, spanned[tag[2] - 1], row))
    nullity = len(vectors) - rank(rows, dim)
    pattern_nullity = len(spanned) - rank(spanned, dim)
    if nullity == pattern_nullity:
        return PatternResult(True, nullity, None)
    return PatternResult(False, nullity, {
        "nullity": nullity, "pattern_nullity": pattern_nullity,
        "reason": "a vanishing combination leaves the pattern",
    })
