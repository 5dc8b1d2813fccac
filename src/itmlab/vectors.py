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
the sum). ``check_lin_dep_pattern`` verifies that the exact nullspace is
contained in that pattern subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

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
    tag: Tag
    kind: str
    value: Fraction
    ok: bool


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
        checks.append(IdentityCheck(v.tag, kind, Fraction(val, m.Q), ok))
        if not ok:
            raise IdentityViolatedError(v.tag)
    return tuple(checks)


# -- exact nullspace ------------------------------------------------------


def nullspace(columns: list[list[int]], dim: int) -> list[list[int]]:
    """Exact integer nullspace basis of the matrix whose columns are given.

    Fraction-free (Bareiss) forward elimination on the integer matrix, first
    nonzero entry in column order as pivot; the last pivot is then the
    determinant d of the pivot submatrix (pivot rows x pivot columns). One
    basis vector per free column f: coordinate f is d, the other free
    coordinates are 0, and back-substitution gives the pivot coordinates.
    By Cramer's rule each of those is a determinant of the pivot submatrix
    with one column replaced by column f, so every division is exact; a
    remainder raises VectorInvariantError.
    """
    ncols = len(columns)
    rows = [[columns[c][r] for c in range(ncols)] for r in range(dim)]
    nrows = dim
    prev = 1
    pivots: list[tuple[int, int]] = []  # (row, col)
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, nrows):
            if rows[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        if sel != rank:
            rows[sel], rows[rank] = rows[rank], rows[sel]
        pivot_row = rows[rank]
        piv = pivot_row[col]
        # both rows are zero left of col, so whole-row updates are exact
        for r in range(rank + 1, nrows):
            factor = rows[r][col]
            rows[r] = [(piv * a - factor * b) // prev for a, b in zip(rows[r], pivot_row)]
        prev = piv
        pivots.append((rank, col))
        rank += 1
    pivot_cols = {c for _, c in pivots}
    basis: list[list[int]] = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [0] * ncols
        vec[free] = prev
        for r, c in reversed(pivots):
            row = rows[r]
            # row is zero left of c and vec[c] is still 0
            q, rem = divmod(-sum(map(mul, row, vec)), row[c])
            if rem:
                raise VectorInvariantError(f"inexact back-substitution in column {c}")
            vec[c] = q
        basis.append(vec)
    return basis


def check_lin_dep_pattern(
    m: ItmMap, data: ReturnMapData, vectors: tuple[CoefficientVector, ...] | None = None
) -> PatternResult:
    """Verify that every vanishing combination follows the forced pattern.

    For each basis element of the exact nullspace and each 0 <= j < N:
    the coefficients of C+(j, 1..m-1) and R+_j must all agree (common value
    c+_j), those of C-(j+1, .) and R-_{j+1} must agree (c-_{j+1}), and
    c+_j = -c-_{j+1}; for interior j the landing coefficient alpha_j must
    equal c-_j + c+_j. Boundary blocks without landings keep only their
    return-vector constraint. Every constraint is homogeneous, so the
    integer scaling of a basis vector changes neither the verdict nor the
    witness. A violation is returned as a witness, never raised: it would
    falsify the underlying lemma and means an engine bug.
    """
    if vectors is None:
        vectors = build_vectors(m, data)
    n = data.n_intervals
    dim = 2 * m.r - 1
    basis = nullspace([list(v.entries()) for v in vectors], dim)
    index = {v.tag: i for i, v in enumerate(vectors)}
    # the vectors of each signed chain (side, j): its C's, then its R
    blocks: dict[tuple, list[int]] = {}
    for i, v in enumerate(vectors):
        if v.tag[0] == "C":
            blocks.setdefault(v.tag[1:3], []).append(i)
    for side, js in ((PLUS, range(n)), (MINUS, range(1, n + 1))):
        for j in js:
            blocks.setdefault((side, j), []).append(index[("R", side, j)])

    def block(alpha: list[int], side: str, j: int) -> list[int]:
        return [alpha[i] for i in blocks[side, j]]

    for b_i, alpha in enumerate(basis):
        for j in range(n):
            plus_block = block(alpha, PLUS, j)
            minus_block = block(alpha, MINUS, j + 1)
            if any(c != plus_block[0] for c in plus_block) or any(
                c != minus_block[0] for c in minus_block
            ):
                return PatternResult(False, len(basis), {
                    "basis_index": b_i, "j": j, "reason": "unequal coefficients in a chain block",
                })
            if plus_block[0] != -minus_block[0]:
                return PatternResult(False, len(basis), {
                    "basis_index": b_i, "j": j, "reason": "plus/minus blocks not opposite",
                })
        for j in range(1, n):
            c_minus = block(alpha, MINUS, j)[0]
            c_plus = block(alpha, PLUS, j)[0]
            if alpha[index[("L", j)]] != c_minus + c_plus:
                return PatternResult(False, len(basis), {
                    "basis_index": b_i, "j": j, "reason": "landing coefficient != block sum",
                })
    return PatternResult(True, len(basis), None)
