"""Multiresolution nets, covering ball families, partitions, and the
Jones-type flatness functionals built on them.

Per scale n the construction is:
  E_n   a greedy alpha0^n-net of the support (pairwise > alpha0^n, covering
        within alpha0^n),
  B_n   the balls B(x, 4 alpha0^n) centred on the greedy 2 alpha0^n-net of
        E_n (scanned in net order), so their quarter balls are maximal
        mutually disjoint; B_n still covers,
  P_n   a partition of the support with
        supp /\\ (1/4)B_{n,j}  <=  P_{n,j}  <=  supp /\\ (3/4)B_{n,j},
        built by trimming the leftover quarter balls against the kept
        quarter balls and earlier leftovers, then assigning each leftover
        to the smallest kept index whose quarter ball it meets.

A level makes two greedy walks, each over one cell grid built for its
radius r (measure._radius_grid): the net walk grids the cloud's points at
q, and the ball family's walk grids the net points at 2q.  A grid only
proposes candidates, and its cells are padded so that every pair within r
is one: their side is sqrt(r*r + 2^-1070) _PAD^2, one pad for the rounding
of the einsum and one for that of the cell coordinates, whose error the
cap of 2^20 cells per axis bounds.  Every hit is the exact einsum test
|x - y|^2 <= r*r, so a walk keeps its bits whatever the cells.  The
partition queries nothing: its first pass reads the net walk's hit pairs,
and its leftover routing the two greedy walks' cover maps.  The resolution
floor, the cloud's median nearest-neighbour distance, is the one distance
summed in another order, a cKDTree's, whose bits it keeps.

The discrete functional reads one planes.beta2 per family ball, through the
family's cache.  The continuous functional evaluates every scale of its
grid at once, with one planes._beta2_layers call, which returns the bits of
one beta2 call per (x, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measure import Ball, WeightedPointCloud, _level, _power, _radius_grid, _sq_dists, _sq_norms
from .planes import _beta2_layers, _check_dim, beta2

# Most levels a family spans below n_top.  A floor's level grows like
# ln(diam / floor) / ln(1/alpha0), so only an alpha0 near 1 reaches it: a
# cloud with duplicated points has the floor 1e-9 diam, 15 levels at
# alpha0 = 0.25, and needs alpha0 above about 0.72 to reach 64.
MAX_LEVELS_BELOW_TOP = 64
# Ratio of consecutive scales t_{j+1} / t_j of the continuous functional's
# quadrature.
SCALE_RATIO = 0.5
# Most grid candidates one block of a net walk fetches and re-tests at
# once, which bounds the walk's memory.
BLOCK_CANDIDATES = 2**16
# Grid candidates a net walk's block may fetch per uncovered point left: a
# grid proposes about 1.5 to 3 candidates per hit, so a block then holds
# about as many hits as there are points left to cover.
CANDIDATES_PER_POINT_LEFT = 4


def scale_index(diam: float, alpha0: float) -> int:
    """m(Q), the m with alpha0^m <= diam < alpha0^{m-1} under floating
    point, with a power that overflows taken as +inf, above every finite
    diameter: the measure._level k of diam where alpha0^k equals it, else
    k + 1.  The scale m(Q) of a ball Q is scale_index(Q.diameter, alpha0)."""
    if not 0.0 < diam < math.inf:
        raise ValueError("scale index needs a positive finite diameter")
    if not 0.0 < alpha0 < 1.0:
        raise ValueError("alpha0 must lie in (0, 1)")
    k = int(_level([diam], alpha0)[0])
    return k if _power(alpha0, k) == diam else k + 1


def build_net(points: np.ndarray, order: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Greedy r-separated net over `points`, scanned in `order`.

    Returns (net, cover, hits): the selected indices in admission order;
    per point p the position in `net` of the first admitted point within r
    of p, -1 only for points `order` leaves out (a net tree's parent
    pointer); and hits = (points, owners), int arrays of every pair (p, i)
    with p within r of net[i], grouped by ascending net position i.  A
    point is admitted iff no earlier admitted point lies within r of it,
    by the exact closed comparison |x - y|^2 <= r*r, which is symmetric.

    Candidates come from one measure._radius_grid over the points at r,
    which holds every hit among them (where r*r overflows, every point is a
    candidate); its cell runs and candidate counts are read once for every
    point.

    The scan walks the points of `order` not yet covered in blocks.  A
    block is the longest run of them whose grid candidate counts sum to at
    most CANDIDATES_PER_POINT_LEFT times the number of uncovered points left
    and BLOCK_CANDIDATES, and at least one point: a larger block would
    mostly query ground that its own first admissions cover.  One
    vectorised comparison re-tests the block's candidates.  The admissions
    are then resolved in scan order, each setting `cover` on its uncovered
    hits, so a block member covered by an earlier one is skipped as in a
    one-at-a-time scan, and the re-tested hits of the admitted members are
    kept as `hits`.  The walk ends once every point of `order` is covered.

    The net points are pairwise more than r apart, so at most a packing
    number of them lie within r of one point (2 on a line, 5 in the
    plane), and `hits` holds at most that many pairs per point.
    """
    grid = _radius_grid(points, r)
    run_lo, run_hi = grid.runs(np.arange(len(points)))
    count = (run_hi - run_lo).sum(axis=1)
    cover = np.full(len(points), -1)
    selected = []
    hit_points, hit_owners = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    rest = np.asarray(order, dtype=int)
    width = 1
    while True:
        rest = rest[cover[rest] < 0]
        if len(rest) == 0:
            hits = np.concatenate(hit_points), np.concatenate(hit_owners)
            return np.asarray(selected, dtype=int), cover, hits
        window = rest[:width]
        counts = count[window]
        cap = min(BLOCK_CANDIDATES, CANDIDATES_PER_POINT_LEFT * len(rest))
        k = max(1, int(np.searchsorted(np.cumsum(counts), cap, side="right")))
        block, rest = window[:k], rest[k:]
        block_points = points.take(block, axis=0)
        cand, owner = grid.gather(run_lo[block], run_hi[block])
        hit = _sq_norms(points.take(cand, axis=0) - block_points.take(owner, axis=0)) <= r * r
        cand, owner = cand[hit], owner[hit]
        ends = np.cumsum(np.bincount(owner, minlength=k)).tolist()
        position = np.full(k, -1)
        for j, (idx, lo, hi) in enumerate(zip(block.tolist(), [0] + ends, ends)):
            if cover[idx] < 0:
                near = cand[lo:hi]
                cover[near[cover[near] < 0]] = position[j] = len(selected)
                selected.append(idx)
        owner = position[owner]
        hit_points.append(cand[owner >= 0])
        hit_owners.append(owner[owner >= 0])
        # the next window holds about twice the points that fill a block here
        cap = min(BLOCK_CANDIDATES, CANDIDATES_PER_POINT_LEFT * len(rest))
        width = int(2 * cap / max(counts.mean(), 1.0)) + 1


def build_ball_family(net_points: np.ndarray, quarter_radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy subfamily whose quarter balls (radius = quarter_radius) are
    maximal mutually disjoint.  Returns (kept, route): positions within the
    net list, and per net point the position in `kept` of the first kept
    quarter ball that meets its own.

    Closed balls of radius q are disjoint iff their centers are more than
    2q apart, so `kept` is the greedy 2q-net of the net, scanned in net
    order, and `route` is its cover.
    """
    kept, route, _ = build_net(net_points, np.arange(len(net_points)), 2.0 * quarter_radius)
    return kept, route


def build_partition(kept: np.ndarray, hits: tuple, cover: np.ndarray, route: np.ndarray) -> np.ndarray:
    """Assign every point to a kept ball index, realising the leftover
    construction, from the walk of a q-net of the points (build_net at
    r = q = quarter_radius: its `hits` and `cover`) and from its ball
    family (build_ball_family at q: `kept` and `route`).  Makes no query.

    A point inside a kept quarter ball goes to that ball (smallest index on
    boundary ties; kept quarter balls are disjoint so ties only occur
    exactly on spheres).  Any other point p lies in some leftover quarter
    ball B' (centered on a dropped net point); it is claimed by the first
    such B' in net order and routed to g(B') = the smallest kept index
    whose quarter ball meets B'.

    The first pass keeps the hit pairs whose net point is kept and gives
    each point the smallest kept index among them, which is the first kept
    centre within q since `kept` ascends.  Every net point within q of a
    point left over is a dropped one, so the first of them, B', is
    cover[p] and g(B') is route[cover[p]].  Each comparison, in the net
    walk or the family walk, is the einsum of the same difference (p - c,
    leftover - kept) against the same rounded square, so the partition is
    bit for bit that of the construction.  route[cover] is total when the
    net's order covers every point: each walk ends only once its whole
    order is covered.  A cover that leaves out a point no kept quarter
    ball holds (-1, from a net whose order skips it) raises ValueError.
    Besides the assignment, the pass holds one entry per hit pair, at most
    a packing number per point (see build_net).
    """
    points, owners = hits
    index = np.full(len(route), -1)
    index[kept] = np.arange(len(kept))
    owners = index[owners]
    assignment = np.full(len(cover), len(kept))
    np.minimum.at(assignment, points[owners >= 0], owners[owners >= 0])
    unassigned = np.flatnonzero(assignment == len(kept))
    owner = cover[unassigned]
    if (owner < 0).any():
        raise ValueError(
            f"point {unassigned[owner < 0][0]} lies in no kept quarter ball and the cover leaves it "
            "out; build the net over an order that covers every point"
        )
    assignment[unassigned] = route[owner]
    return assignment


@dataclass(frozen=True)
class NetLevel:
    """One scale of the multiresolution construction."""

    n: int
    alpha0: float
    net: np.ndarray        # cloud indices of the net points, admission order
    kept: np.ndarray       # positions within `net` whose balls were kept
    partition: np.ndarray  # point index -> j in [0, len(kept))

    @property
    def radius(self) -> float:
        return 4.0 * self.alpha0**self.n

    @property
    def quarter_radius(self) -> float:
        return self.alpha0**self.n

    def centers(self, cloud: WeightedPointCloud) -> np.ndarray:
        return cloud.points[self.net[self.kept]]

    def ball(self, cloud: WeightedPointCloud, j: int) -> Ball:
        return Ball(cloud.points[self.net[self.kept[j]]], self.radius)

    def n_balls(self) -> int:
        return len(self.kept)


def build_level(cloud: WeightedPointCloud, n: int, alpha0: float, order: np.ndarray) -> NetLevel:
    r = alpha0**n
    net, cover, hits = build_net(cloud.points, order, r)
    kept, route = build_ball_family(cloud.points.take(net, axis=0), r)
    partition = build_partition(kept, hits, cover, route)
    return NetLevel(n=n, alpha0=alpha0, net=net, kept=kept, partition=partition)


@dataclass
class FlatnessReport:
    """Value of a Jones-type flatness functional plus its per-term table."""

    total: float
    terms: list = field(default_factory=list)


class MultiresolutionFamily:
    """Scales of nets/balls/partitions for one cloud, built on demand.

    The scan order is a seeded permutation fixed at construction so every
    level (and everything derived from it) is deterministic.  Levels finer
    than the resolution floor (alpha0^n below the median nearest-neighbour
    distance) are not built: their balls hold too few points to carry
    geometry and contribute 0 to the flatness sums.  A floor
    MAX_LEVELS_BELOW_TOP or more levels below n_top is refused with a
    ValueError.
    """

    def __init__(self, cloud: WeightedPointCloud, alpha0: float, order_seed: int = 0):
        if not 0.0 < alpha0 < 1.0:
            raise ValueError("alpha0 must lie in (0, 1)")
        self.cloud = cloud
        self.alpha0 = float(alpha0)
        self.order = np.random.default_rng(order_seed).permutation(len(cloud))
        self._levels: dict[int, NetLevel] = {}
        # (n, j, d) -> (beta_2^2, mu(B)) of family ball j at level n
        self._beta_cache: dict[tuple[int, int, int], tuple[float, float]] = {}

        diam = max(cloud.support_diameter(), 1e-300)
        self.n_top = scale_index(diam, alpha0)
        floor = cloud.median_nn_distance()
        if floor <= 0:
            floor = 1e-9 * diam
        # deepest level built: alpha0^n >= resolution floor
        self.n_floor = max(int(_level([floor], alpha0)[0]), self.n_top - 1)
        if self.n_floor - self.n_top >= MAX_LEVELS_BELOW_TOP:
            raise ValueError(
                f"resolution floor {floor!r} lies {self.n_floor - self.n_top} levels below the top level "
                f"{self.n_top}, at or past the cap of {MAX_LEVELS_BELOW_TOP}; use a smaller alpha0"
            )

    def level(self, n: int) -> NetLevel:
        if n not in self._levels:
            self._levels[n] = build_level(self.cloud, n, self.alpha0, self.order)
        return self._levels[n]

    def levels_for(self, query: Ball) -> range:
        """All built scales relevant to a query ball: n >= m(Q), down to the
        resolution floor.  A ball of diameter 0 has m(Q) = +inf, so none:
        D(Q) is empty and its discrete flatness is 0."""
        if query.diameter == 0.0:
            return range(0)
        m = scale_index(query.diameter, self.alpha0)
        return range(m, self.n_floor + 1)

    def beta2_sq(self, n: int, j: int, d: int) -> float:
        key = (n, j, d)
        if key not in self._beta_cache:
            res = beta2(self.cloud, self.level(n).ball(self.cloud, j), d)
            self._beta_cache[key] = (res.value**2, res.mass)
        return self._beta_cache[key][0]


def local_family(family: MultiresolutionFamily, query: Ball) -> list[tuple[int, int]]:
    """D(Q) as (n, j) pairs: all family balls at scales n >= m(Q) that
    intersect Q, intersection decided by the center-distance rule
    |c_B - c_Q| <= r_B + r_Q in measure's squared form.  Ball j of level n is
    family.level(n).ball(family.cloud, j)."""
    out = []
    for n in family.levels_for(query):
        lvl = family.level(n)
        reach = lvl.radius + query.radius
        d2 = _sq_dists(lvl.centers(family.cloud), query.center[None])[:, 0]
        out.extend((n, int(j)) for j in np.nonzero(d2 <= reach * reach)[0])
    return out


def jones_flatness_discrete(
    cloud: WeightedPointCloud, query: Ball, family: MultiresolutionFamily, d: int
) -> FlatnessReport:
    """J_d^D(mu|_Q) = sum over B in D(Q) of beta_2^2(B) mu(B)."""
    if family.cloud is not cloud:
        raise ValueError("family was built over a different cloud")
    _check_dim(d, cloud.ambient_dim)
    terms = []
    total = 0.0
    for n, j in local_family(family, query):
        b2 = family.beta2_sq(n, j, d)
        mass = family._beta_cache[n, j, d][1]
        total += b2 * mass
        terms.append({"level": n, "j": j, "beta2sq": b2, "mass": mass})
    return FlatnessReport(total=total, terms=terms)


def jones_flatness_continuous(
    cloud: WeightedPointCloud,
    query: Ball,
    d: int,
    x_cap: int = 256,
) -> FlatnessReport:
    """J_d(mu|_B) = int_0^{diam B} int_B beta_2^2(x, t) dmu(x) dt/t.

    Quadrature: geometric scale grid t_j = diam(B) SCALE_RATIO^j with log
    weight ln(1/SCALE_RATIO), truncated at the resolution floor
    max(median_nn, 1e-12 diam(B)); the x-integral is the weighted sum over
    support points in B, decimated to at most x_cap points (stride
    subsample, mass rescaled).  A ball so wide that 1e-12 diam(B) exceeds a
    positive median_nn, or of infinite diameter, is rejected: its grid
    would stop above the support's scales and return almost nothing, or
    never end.  Any other ball has a finite floor of at least 1e-12 diam(B),
    so the grid has at most 41 levels and needs no cap of its own.  A cloud
    whose median nearest-neighbour distance overflows has no floor, and is
    rejected too.

    Every beta_2(x, t) comes from one planes._beta2_layers call over the
    sampled x and the whole grid, which scans the centres in blocks and
    returns beta2(cloud, Ball(x, t), d).value bit for bit.  The terms are
    then built t-major, each value squared with Python's float power as
    beta2(...).value ** 2 is, and each layer is summed in x order before its
    log weight is applied: total and terms are those of a loop of one beta2
    call per (x, t).
    """
    if x_cap < 1:
        raise ValueError("x_cap must be >= 1")
    _check_dim(d, cloud.ambient_dim)

    idx = cloud.in_ball(query)
    terms: list = []
    if len(idx) == 0:
        return FlatnessReport(total=0.0, terms=terms)
    mass_b = float(cloud.weights[idx].sum())
    if len(idx) > x_cap:
        stride = int(np.ceil(len(idx) / x_cap))
        sub = idx[::stride]
    else:
        sub = idx
    w_sub = cloud.weights[sub]
    w_sub = w_sub * (mass_b / w_sub.sum())

    median_nn = cloud.median_nn_distance()
    if median_nn == math.inf:
        raise ValueError(
            "the cloud's median nearest-neighbour distance is not finite (its squared distances "
            "overflow the float range), so the continuous functional has no resolution floor"
        )
    floor = max(median_nn, 1e-12 * max(query.diameter, 1e-300))
    if 0 < median_nn < floor or floor == math.inf:
        raise ValueError(
            f"ball too wide for the continuous functional: 1e-12 * diam(B) = {floor!r} exceeds "
            f"the median nearest-neighbour distance {median_nn!r}, so the scale grid would stop "
            "above the support's scales"
        )
    radii = []
    t = query.diameter
    while t >= floor:
        radii.append(t)
        t *= SCALE_RATIO
    values, _ = _beta2_layers(cloud, cloud.points[sub], radii, d)
    log_w = math.log(1.0 / SCALE_RATIO)
    total = 0.0
    for t, row in zip(radii, values.tolist()):
        layer = 0.0
        for pi, wx, value in zip(sub, w_sub, row):
            b2 = value**2
            layer += wx * b2
            terms.append({"t": t, "x": int(pi), "beta2sq": b2, "weight": float(wx)})
        total += log_w * layer
    return FlatnessReport(total=total, terms=terms)
