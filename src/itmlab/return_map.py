"""Exact first-return structure on an interval component of the attractor.

An interval component J of a finite-type attractor is propagated forward as
a set of in-flight pieces. Whenever a discontinuity falls strictly inside a
piece, the piece splits and the split point pulls back to a cut point of J
(recording its landing time and the discontinuity hit); a piece landing
wholly inside J retires with its return time. Pieces never straddle J and
never partially overlap it.

On top of the piece propagation, every signed endpoint a_j+ / a_j- of the
continuity intervals is iterated as a signed point to obtain its chain of
discontinuity hits (times in [0, entry time), time 0 included) and its entry
time into J. These chains drive the coefficient vectors and the A1/A2
conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .attractor import AttractorResult, NotFiniteTypeError, compute_attractor
from .intervals import MINUS, PLUS, Pair
from .itm import ItmMap
from .kernel import Grid, IntPair, branch_rule, on_grid, split, walk

IDENTITY = "identity"
ROTATION_LIKE = "rotation_like"
MANY_BRANCHES = "many_branches"


class NotAComponentError(ValueError):
    """The requested interval is not exactly a component of the attractor."""


class TouchingViolatedError(AssertionError):
    """A touching equation failed; impossible on exact data, so a bug."""

    def __init__(self, j: int):
        self.j = j
        super().__init__(f"touching equation {j} violated")


@dataclass(frozen=True)
class ChainHit:
    disc: int
    time: int


@dataclass(frozen=True)
class SignedChain:
    """Critical hits of one signed endpoint before it re-enters J."""

    j: int
    side: str
    hits: tuple[ChainHit, ...]
    entry_time: int
    entry_value: Fraction


@dataclass(frozen=True)
class LandingRecord:
    """Interior cut point a_j: first landing time l_j and discontinuity hit."""

    j: int
    time: int
    disc: int


@dataclass(frozen=True)
class ReturnMapData:
    J: Pair
    cut_points: tuple[Fraction, ...]
    return_times: tuple[int, ...]
    landings: tuple[LandingRecord, ...]
    chains: tuple[SignedChain, ...]
    sigma: tuple[int, ...]
    tau: tuple[int, ...]
    images: tuple[Pair, ...]
    dynamically_trivial: bool

    @property
    def n_intervals(self) -> int:
        return len(self.cut_points) - 1

    def continuity_intervals(self) -> tuple[Pair, ...]:
        cp = self.cut_points
        return tuple((cp[j - 1], cp[j]) for j in range(1, len(cp)))

    def chain(self, j: int, side: str) -> SignedChain:
        for c in self.chains:
            if c.j == j and c.side == side:
                return c
        raise KeyError((j, side))

    def landing(self, j: int) -> LandingRecord:
        for rec in self.landings:
            if rec.j == j:
                return rec
        raise KeyError(j)


def _signed_chain(
    grid: Grid, beta_index: dict[int, int], J: IntPair, j: int, side: str, start: int, cap: int
) -> SignedChain:
    """Walk the signed point ``start/denom`` with ``side`` on the integer
    grid until it re-enters J; record discontinuity hits before that."""
    cuts, gamma = grid.cuts, grid.gamma
    find = branch_rule(side)  # finds the branch, and signed membership of J
    k = start
    hits: list[ChainHit] = []
    t = 0
    while True:
        if t >= 1 and find(J, k) == 1:
            return SignedChain(j, side, tuple(hits), t, Fraction(k, grid.denom))
        disc = beta_index.get(k)
        if disc is not None:
            hits.append(ChainHit(disc, t))
        k += gamma[find(cuts, k) - 1]
        t += 1
        if t > cap:
            raise NotFiniteTypeError(
                f"signed point {Fraction(start, grid.denom)}{side} did not re-enter {J}"
            )


def compute_return_map(
    m: ItmMap, J: Pair, attractor: AttractorResult | None = None
) -> ReturnMapData:
    """Full first-return structure of one attractor component.

    Raises NotFiniteTypeError when the attractor is not finite type (or the
    generous safety cap is exceeded) and NotAComponentError when J is not
    exactly one of its components.
    """
    if attractor is None:
        attractor = compute_attractor(m)
    if not attractor.finite_type:
        raise NotFiniteTypeError("attractor did not stabilize")
    components = attractor.components()
    if tuple(J) not in components:
        raise NotAComponentError(f"{J} is not a component of the attractor")
    x, y = J
    cap = 2 * m.Q * max(1, len(components))
    grid = m.grid
    denom, cuts, gamma = grid.denom, grid.cuts, grid.gamma
    kx, ky = on_grid(x, denom), on_grid(y, denom)

    # In-flight pieces (cur_l, cur_r, src_l) on the integer grid; src_l
    # locates the piece's preimage inside J, so a split at value v pulls back
    # to src_l + (v - cur_l).
    flying: list[tuple[int, int, int]] = [(kx, ky, kx)]
    cut_info: dict[int, tuple[int, int]] = {}
    retired: list[tuple[int, int, int]] = []  # (src_l, img_l, time)
    t = 0
    while flying:
        if t > cap:
            raise NotFiniteTypeError("return-time safety cap exceeded")
        if t > 0:
            still: list[tuple[int, int, int]] = []
            for cl, cr, src in flying:
                if kx <= cl and cr <= ky:
                    retired.append((src, cl, t))
                elif cr <= kx or cl >= ky:
                    still.append((cl, cr, src))
                else:
                    raise AssertionError(
                        f"piece [{Fraction(cl, denom)},{Fraction(cr, denom)}) "
                        f"straddles {J} at time {t}"
                    )
            flying = still
        nxt: list[tuple[int, int, int]] = []
        for cl, cr, src in flying:
            for lo, hi, i in split(cuts, cl, cr):
                if lo > cl:  # lo is the cut beta_{i-1}
                    cut_info.setdefault(src + (lo - cl), (t, i - 1))
                g = gamma[i - 1]
                nxt.append((lo + g, hi + g, src + (lo - cl)))
        flying = sorted(nxt)
        t += 1

    kcuts = (kx,) + tuple(sorted(cut_info)) + (ky,)
    n = len(kcuts) - 1
    landings = tuple(
        LandingRecord(j, cut_info[kcuts[j]][0], cut_info[kcuts[j]][1]) for j in range(1, n)
    )

    by_src = {src: (img, rt) for src, img, rt in retired}
    assert len(by_src) == n, "retired pieces do not match continuity intervals"
    return_times = tuple(by_src[kcuts[j]][1] for j in range(n))
    sigma = tuple(sorted(range(1, n + 1), key=lambda j: by_src[kcuts[j - 1]][0]))
    tau = tuple(sigma.index(j) + 1 for j in range(1, n + 1))
    kimages = [
        (by_src[kcuts[j - 1]][0], by_src[kcuts[j - 1]][0] + kcuts[j] - kcuts[j - 1])
        for j in range(1, n + 1)
    ]
    assert sum(ir - il for il, ir in kimages) == ky - kx, "return images do not tile J"
    for p in range(len(sigma) - 1):
        assert kimages[sigma[p] - 1][1] == kimages[sigma[p + 1] - 1][0], "images not contiguous"

    beta_index = {c: i for i, c in enumerate(cuts[1:-1], start=1)}
    chains = []
    for j in range(n):
        chains.append(_signed_chain(grid, beta_index, (kx, ky), j, PLUS, kcuts[j], cap))
    for j in range(1, n + 1):
        chains.append(_signed_chain(grid, beta_index, (kx, ky), j, MINUS, kcuts[j], cap))

    # A single-piece return is forced to be the identity (equal-length image
    # inside J), which is exactly the dynamically trivial case.
    if n == 1:
        assert kimages[0] == (kx, ky), "single-piece return must be the identity"
    data = ReturnMapData(
        J=(x, y),
        cut_points=tuple(Fraction(k, denom) for k in kcuts),
        return_times=return_times,
        landings=landings,
        chains=tuple(chains),
        sigma=sigma,
        tau=tau,
        images=tuple((Fraction(l, denom), Fraction(r, denom)) for l, r in kimages),
        dynamically_trivial=n == 1,
    )

    # Entry times of signed endpoints must agree with the piece return times,
    # and both sides of an interior cut point must first hit the same
    # discontinuity at the landing time.
    for c in data.chains:
        expected = return_times[c.j] if c.side == PLUS else return_times[c.j - 1]
        assert c.entry_time == expected, f"chain entry {c} != return time {expected}"
    for rec in landings:
        for side in (PLUS, MINUS):
            hits = data.chain(rec.j, side).hits
            assert hits and hits[0].time == rec.time and hits[0].disc == rec.disc
    return data


def verify_touching_equations(m: ItmMap, data: ReturnMapData) -> tuple[Fraction, ...]:
    """Evaluate both sides of each of the N-1 touching equations exactly.

    The p-th equation says the right end of the p-th image from the left
    touches the left end of the next one: R(a_{sigma(p)}-) ~ R(a_{sigma(p+1)-1}+).
    Returns the touching values; a failure raises TouchingViolatedError.
    """
    grid = m.grid
    denom = grid.denom
    sigma = data.sigma
    out: list[Fraction] = []
    for p in range(len(sigma) - 1):
        left = data.chain(sigma[p], MINUS)
        right = data.chain(sigma[p + 1] - 1, PLUS)
        lval = walk(grid, on_grid(data.cut_points[left.j], denom), MINUS, left.entry_time)[0]
        rval = walk(grid, on_grid(data.cut_points[right.j], denom), PLUS, right.entry_time)[0]
        if lval != rval:
            raise TouchingViolatedError(p + 1)
        if (lval, rval) != (on_grid(left.entry_value, denom), on_grid(right.entry_value, denom)):
            raise TouchingViolatedError(p + 1)
        out.append(Fraction(lval, denom))
    return tuple(out)


def classify_return_dynamics(data: ReturnMapData) -> str:
    """Identity, rotation-like (N = 2) or many-branches (N >= 3)."""
    n = data.n_intervals
    if n >= 3:
        return MANY_BRANCHES
    if all(img[0] == data.cut_points[j] for j, img in enumerate(data.images)):
        return IDENTITY
    return ROTATION_LIKE
