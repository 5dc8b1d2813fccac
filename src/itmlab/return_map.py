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

Most components need no walk of their own. On a finite-type attractor T|X
is a bijection, so when J has no cut strictly inside (all of J lies in one
branch b) and T(J) = J + gamma_b is exactly a component J', J is the whole
preimage of J' in X and R_{J'} = T R_J T^{-1}. The return map of J' is
J's one step on: cut points and images shift by gamma_b, return times and
the permutation stay, and each landing comes one step earlier. A signed
endpoint a' = a + gamma_b of J' walks a's orbit from time 1, so its chain is
a's chain with the time-0 hit dropped, every other hit one step earlier
with one fewer step on branch b, one more hit one step before entry when a
entered J on a discontinuity, and the entry shifted by gamma_b (same entry
time and counts). Components linked this way form towers; only the first
component of each tower, or one component of a tower that closes into a
cycle, is walked.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .attractor import AttractorResult, NotFiniteTypeError
from .intervals import MINUS, PLUS, Frozen, InvariantError
from .kernel import ChainHit, Grid, IntPair, branch_rule, split, walk

IDENTITY = "identity"
ROTATION_LIKE = "rotation_like"
MANY_BRANCHES = "many_branches"


class NotAComponentError(ValueError):
    """The requested interval is not exactly a component of the attractor."""


class SignedChain(NamedTuple):
    """Critical hits of one signed endpoint before it re-enters J at grid
    numerator ``kentry``, and the branch counts of the whole walk (``entry_counts``)."""

    j: int
    side: str
    hits: tuple[ChainHit, ...]
    entry_time: int
    kentry: int
    entry_counts: tuple[int, ...]


class LandingRecord(NamedTuple):
    """Interior cut point a_j: first landing time l_j and discontinuity hit."""

    j: int
    time: int
    disc: int


class ReturnMapData(Frozen):
    """First-return structure of one component J.

    The cut points are integer numerators over the map's grid; the images
    and ``tau`` are read off them and ``sigma``, and the signed chains are
    built on first access. Equality, hash and repr leave out ``grid`` and
    ``_source``, so a transported map equals the walked one.
    """

    _fields = ("kcuts", "return_times", "landings", "sigma")
    kcuts: tuple[int, ...]
    return_times: tuple[int, ...]
    landings: tuple[LandingRecord, ...]
    sigma: tuple[int, ...]
    grid: Grid
    # (return map of the component whose image this one is, 0-based branch of
    # that component) when the chains are shifted from it rather than walked
    _source: tuple[ReturnMapData, int] | None

    def __init__(self, kcuts, return_times, landings, sigma, grid, _source=None):
        vars(self).update(
            kcuts=kcuts, return_times=return_times, landings=landings, sigma=sigma,
            grid=grid, _source=_source,
        )

    @property
    def n_intervals(self) -> int:
        return len(self.kcuts) - 1

    @property
    def dynamically_trivial(self) -> bool:
        return len(self.kcuts) == 2

    @cached_property
    def kimages(self) -> tuple[IntPair, ...]:
        """The image of each continuity interval, in order: the images tile
        J in ``sigma`` order, so that of interval j is the tau(j)-th."""
        kcuts = self.kcuts
        ends = list(accumulate((kcuts[j] - kcuts[j - 1] for j in self.sigma), initial=kcuts[0]))
        return tuple((ends[p - 1], ends[p]) for p in self.tau)

    @property
    def tau(self) -> tuple[int, ...]:
        """The inverse of ``sigma``: the image of interval j is the tau(j)-th from the left."""
        tau = [0] * len(self.sigma)
        for p, j in enumerate(self.sigma, start=1):
            tau[j - 1] = p
        return tuple(tau)

    @cached_property
    def chains(self) -> tuple[SignedChain, ...]:
        """The signed chains of a_0+ .. a_{N-1}+, then a_1- .. a_N-, walked,
        or shifted from the source component's chains for a transported
        map. Down a tower the shifts run as a loop from the nearest member
        whose chains are known, filling each member's cache on the way,
        because towers reach thousands of components."""
        if self._source is None:
            grid, kcuts, times, n = self.grid, self.kcuts, self.return_times, self.n_intervals
            J = (kcuts[0], kcuts[-1])
            return self._checked([
                _signed_chain(grid, J, j, PLUS, kcuts[j], times[j]) for j in range(n)
            ] + [
                _signed_chain(grid, J, j, MINUS, kcuts[j], times[j - 1]) for j in range(1, n + 1)
            ])
        pending = [self]
        src = self._source[0]
        while src._source is not None and "chains" not in src.__dict__:
            pending.append(src)
            src = src._source[0]
        chains = src.chains
        beta_index = self.grid.beta_index()
        for data in reversed(pending):
            chains = data._checked(_shifted_chains(data.grid, beta_index, data._source[1], chains))
            data.__dict__["chains"] = chains  # what cached_property stores
        return chains

    def _checked(self, chains: list[SignedChain]) -> tuple[SignedChain, ...]:
        """The chains, checked against the piece propagation: both sides of
        an interior cut point must first hit the same discontinuity at its
        landing time."""
        n = self.n_intervals
        for rec in self.landings:
            for c in (chains[rec.j], chains[n + rec.j - 1]):
                if not (c.hits and c.hits[0].time == rec.time and c.hits[0].disc == rec.disc):
                    raise InvariantError(
                        f"chain {c} does not first hit beta_{rec.disc} at landing time {rec.time}"
                    )
        return tuple(chains)

    def chain(self, j: int, side: str) -> SignedChain:
        n = self.n_intervals
        if side == PLUS and 0 <= j < n:
            return self.chains[j]
        if side == MINUS and 1 <= j <= n:
            return self.chains[n + j - 1]
        raise KeyError((j, side))


def _signed_chain(grid: Grid, J: IntPair, j: int, side: str, start: int, steps: int) -> SignedChain:
    """The chain of the signed point ``start/denom`` with ``side``: its walk
    for ``steps``, the return time the piece propagation measured, must stay
    outside J until then and be inside J at that time."""
    hits, t, k, counts = walk(grid, J, start, side, steps)
    if t < steps:
        raise InvariantError(
            f"signed point {Fraction(start, grid.denom)}{side} re-entered J at time {t}, "
            f"before its return time {steps}"
        )
    if branch_rule(side)(J, k) != 1:
        raise InvariantError(
            f"signed point {Fraction(start, grid.denom)}{side} is not in J at its return time {steps}"
        )
    return SignedChain(j, side, hits, steps, k, counts)


def compute_return_map(J: IntPair, attractor: AttractorResult) -> ReturnMapData:
    """Full first-return structure of one attractor component, given as
    integer numerators over ``attractor.grid`` like ``attractor.kcomponents``.

    Each step is one pass over the pieces the last step moved. A piece
    that meets J retires as (source, image, time) when it lies in J, or
    straddles J (an error); any other moves on. A piece with no cut
    strictly inside costs one bisect and moves whole; ``split`` cuts any
    other, and each split point pulls back to a cut point of J with its
    landing time and discontinuity. Sorted once by source, the retired
    pieces give the cut points and return times in order, checked against
    the split points (x, then each cut point once); sorted once by image,
    they give sigma, checked to tile J without gaps, which makes the images
    a view of the cut points and sigma. Every transported return map must
    equal this walk. T permutes the 1/denom cells of X, so each cell of J
    returns within |X| - |J| + 1 <= denom steps, the cap.

    Raises NotFiniteTypeError when the attractor is not finite type (or the
    cap is exceeded), NotAComponentError when J is not exactly one of its
    components, and InvariantError when the propagation breaks one of its
    invariants (a piece straddling J, retired pieces that do not match the
    cut points, images that do not tile J).
    """
    if not attractor.finite_type:
        raise NotFiniteTypeError("attractor did not stabilize")
    kx, ky = J
    grid = attractor.grid
    denom, cuts, gamma = grid.denom, grid.cuts, grid.gamma
    kcomponents = attractor.kcomponents
    i = bisect_left(kcomponents, (kx, ky))
    if i == len(kcomponents) or kcomponents[i] != (kx, ky):
        raise NotAComponentError(
            f"[{Fraction(kx, denom)}, {Fraction(ky, denom)}) is not a component of the attractor"
        )

    # Pieces (l, r, src_l) at time t on the integer grid; src_l locates the
    # piece's preimage inside J, so a split at value v pulls back to
    # src_l + (v - l).
    moved: list[tuple[int, int, int]] = [(kx, ky, kx)]
    cut_info: dict[int, tuple[int, int]] = {}  # cut point -> (landing time, disc)
    retired: list[tuple[int, int, int]] = []  # (src_l, img_l, time)
    t = 0
    while moved:
        if t > denom:  # past every return time (see above)
            raise NotFiniteTypeError("return-time safety cap exceeded")
        pieces, moved = moved, []
        for l, r, src in pieces:
            if t and l < ky and kx < r:  # meets J (J itself moves on at t = 0)
                if l < kx or r > ky:
                    raise InvariantError(
                        f"piece [{Fraction(l, denom)},{Fraction(r, denom)}) "
                        f"straddles J = [{Fraction(kx, denom)},{Fraction(ky, denom)}) at time {t}"
                    )
                retired.append((src, l, t))
                continue
            b = bisect_right(cuts, l)  # branch of l+
            if r <= cuts[b]:  # no cut strictly inside: the piece moves whole
                g = gamma[b - 1]
                moved.append((l + g, r + g, src))
                continue
            for lo, hi, b in split(cuts, l, r):
                if lo > l:  # lo is the cut beta_{b-1}, hit at time t; set once,
                    # as the sources are disjoint and split points stay piece ends
                    cut_info[src + (lo - l)] = (t, b - 1)
                g = gamma[b - 1]
                moved.append((lo + g, hi + g, src + (lo - l)))
        t += 1

    # Sorted by source, the retired pieces are the continuity intervals in
    # order: their sources are x and then each cut point once.
    retired.sort()
    n = len(retired)
    if n != len(cut_info) + 1 or retired[0][0] != kx:
        raise InvariantError("retired pieces do not match continuity intervals")
    kcuts = [kx]
    landings = []
    for j in range(1, n):
        src = retired[j][0]
        info = cut_info.get(src)
        if info is None or src == kcuts[-1]:
            raise InvariantError("retired pieces do not match continuity intervals")
        kcuts.append(src)
        landings.append(LandingRecord(j, *info))
    kcuts.append(ky)
    # The images have the lengths of the continuity intervals, so they tile
    # J when, sorted, the first starts at x and each ends where the next
    # starts; their order is sigma. For a single piece this says the return
    # is the identity, which is exactly the dynamically trivial case.
    sigma = []
    end = kx
    for img, j in sorted([(img, j) for j, (_, img, _) in enumerate(retired, start=1)]):
        if img != end:
            raise InvariantError(
                "return images are not contiguous" if sigma else "return images do not tile J"
            )
        sigma.append(j)
        end = img + kcuts[j] - kcuts[j - 1]
    return ReturnMapData(
        tuple(kcuts), tuple([rt for _, _, rt in retired]), tuple(landings), tuple(sigma), grid
    )


def transported(src: ReturnMapData, b: int) -> ReturnMapData:
    """The return map of T(J) = J + gamma_b from that of J, a component with
    no cut strictly inside whose image is exactly a component; ``b`` is J's
    0-based branch (see the module notes)."""
    g = src.grid.gamma[b]
    return ReturnMapData(
        kcuts=tuple(k + g for k in src.kcuts),
        return_times=src.return_times,
        landings=tuple(LandingRecord(rec.j, rec.time - 1, rec.disc) for rec in src.landings),
        sigma=src.sigma,
        grid=src.grid,
        _source=(src, b),
    )


def _shifted_chains(
    grid: Grid, beta_index: dict[int, int], b: int, chains: tuple[SignedChain, ...]
) -> list[SignedChain]:
    """The signed chains of T(J) from those of J, whose branch is ``b``
    (see the module notes)."""
    g = grid.gamma[b]

    def one_step_fewer(counts: tuple[int, ...]) -> tuple[int, ...]:
        out = list(counts)
        out[b] -= 1
        return tuple(out)

    shifted = []
    for j, side, hits, entry_time, kentry, entry_counts in chains:
        moved = [ChainHit(d, t - 1, one_step_fewer(counts)) for d, t, counts in hits if t]
        disc = beta_index.get(kentry)
        if disc is not None:
            moved.append(ChainHit(disc, entry_time - 1, one_step_fewer(entry_counts)))
        shifted.append(SignedChain(j, side, tuple(moved), entry_time, kentry + g, entry_counts))
    return shifted


def verify_touching_equations(data: ReturnMapData) -> tuple[int, ...]:
    """The touching values of the N-1 touching equations, read off the
    signed chains, as numerators over ``data.grid.denom``.

    The p-th equation says the right end of the p-th image from the left
    touches the left end of the next one: R(a_{sigma(p)}-) ~ R(a_{sigma(p+1)-1}+).
    Both sides are the entry numerators the chain walk recorded; a failure
    raises InvariantError naming equation p.
    """
    sigma = data.sigma
    out: list[int] = []
    for p in range(len(sigma) - 1):
        lval = data.chain(sigma[p], MINUS).kentry
        if lval != data.chain(sigma[p + 1] - 1, PLUS).kentry:
            raise InvariantError(f"touching equation {p + 1} violated")
        out.append(lval)
    return tuple(out)


def classify_return_dynamics(data: ReturnMapData) -> str:
    """Identity (each image on its own interval: ``sigma`` is the
    identity), rotation-like (N = 2) or many-branches (N >= 3)."""
    n = data.n_intervals
    if n >= 3:
        return MANY_BRANCHES
    if data.sigma == tuple(range(1, n + 1)):
        return IDENTITY
    return ROTATION_LIKE
