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

from .intervals import MINUS, PLUS
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
    return Fraction(_kproduct(v, m), m.Q)


def _kproduct(v: CoefficientVector, m: ItmMap) -> int:
    """Numerator of :func:`product` over the map's grid."""
    grid = m.grid
    total = sum(c * g for c, g in zip(v.e, grid.gamma))
    return total + sum(c * b for c, b in zip(v.f, grid.cuts[1:-1]))


def _diff(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Branch counts between two cumulative snapshots of one chain walk."""
    return tuple(x - y for x, y in zip(a, b))


def _f_unit(m: ItmMap, index: int, sign: int) -> tuple[int, ...]:
    f = [0] * (m.r - 1)
    f[index - 1] += sign
    return tuple(f)


def _f_zero(m: ItmMap) -> tuple[int, ...]:
    return (0,) * (m.r - 1)


def _f_sum(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def build_vectors(m: ItmMap, data: ReturnMapData) -> tuple[CoefficientVector, ...]:
    """All landing / critical connection / return vectors of one component.

    Interior cut points contribute L_j plus both signed chains; boundary
    points contribute their chain's vectors when the chain is non-empty, and
    otherwise only the f-free return vector. Each ``e`` is the difference of
    two cumulative branch-count snapshots the chain walk recorded: L_j up
    to the first hit, C between consecutive hits, R from the last hit (or
    from the start, for an empty chain) to the entry into J.
    """
    n = data.n_intervals
    out: list[CoefficientVector] = []
    landings: dict[int, CoefficientVector] = {}

    for c in data.chains:
        if c.hits:
            first = c.hits[0]
            f = _f_unit(m, first.disc, -1)
            if c.j not in landings:
                landings[c.j] = CoefficientVector(first.counts, f, ("L", c.j))
            elif landings[c.j].e != first.counts or landings[c.j].f != f:
                raise VectorInvariantError(
                    f"the two sides of cut {c.j} give different landing vectors"
                )

    for side in (PLUS, MINUS):
        js = range(n) if side == PLUS else range(1, n + 1)
        for j in js:
            c = data.chain(j, side)
            if j in landings:
                out.append(landings.pop(j))
            if not c.hits:
                out.append(CoefficientVector(c.entry_counts, _f_zero(m), ("R", side, j)))
                continue
            for k in range(len(c.hits) - 1):
                cur, nxt = c.hits[k], c.hits[k + 1]
                e = _diff(nxt.counts, cur.counts)
                f = _f_sum(_f_unit(m, cur.disc, 1), _f_unit(m, nxt.disc, -1))
                out.append(CoefficientVector(e, f, ("C", side, j, k + 1)))
            last = c.hits[-1]
            e = _diff(c.entry_counts, last.counts)
            out.append(CoefficientVector(e, _f_unit(m, last.disc, 1), ("R", side, j)))
    return tuple(out)


def verify_identities(
    m: ItmMap, data: ReturnMapData, vectors: tuple[CoefficientVector, ...] | None = None
) -> tuple[IdentityCheck, ...]:
    """Check every vector's defining identity by exact equality / membership."""
    if vectors is None:
        vectors = build_vectors(m, data)
    kcuts = data.kcuts
    x, y = kcuts[0], kcuts[-1]
    checks: list[IdentityCheck] = []
    for v in vectors:
        val = _kproduct(v, m)
        if v.tag[0] == "L":
            j = v.tag[1]
            ok = val + kcuts[j] == 0
            kind = "landing"
        elif v.tag[0] == "C":
            ok = val == 0
            kind = "connection"
        else:
            _, side, j = v.tag
            chain = data.chain(j, side)
            entry = chain.kentry
            if chain.hits:
                ok = val == entry and (x <= val < y if side == PLUS else x < val <= y)
                kind = "return"
            else:
                ok = val == entry - kcuts[j]
                kind = "return_free"
        checks.append(IdentityCheck(v.tag, kind, val, m.Q, ok))
        if not ok:
            raise IdentityViolatedError(v.tag)
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
    spanned = [[0] * dim for _ in range(n)]  # the columns of A P
    for v in vectors:
        if v.tag[0] == "L":
            j = v.tag[1]
            if j in (0, n):
                spanned.append(list(v.entries()))
                continue
            terms = ((j, 1), (j - 1, -1))
        elif v.tag[1] == PLUS:
            terms = ((v.tag[2], 1),)
        else:
            terms = ((v.tag[2] - 1, -1),)
        for c, sign in terms:
            spanned[c] = [a + sign * x for a, x in zip(spanned[c], v.entries())]
    nullity = len(vectors) - rank([v.entries() for v in vectors], dim)
    pattern_nullity = len(spanned) - rank(spanned, dim)
    if nullity == pattern_nullity:
        return PatternResult(True, nullity, None)
    return PatternResult(False, nullity, {
        "nullity": nullity, "pattern_nullity": pattern_nullity,
        "reason": "a vanishing combination leaves the pattern",
    })
