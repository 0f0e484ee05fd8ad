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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geometry import InvariantError
from .measure import _PAD, Ball, WeightedPointCloud, _power, _sq_norms
from .planes import beta2

# Hard cap on how far below the nearest-neighbour floor level building may
# run; guards degenerate clouds with duplicated points.
MAX_LEVELS_BELOW_TOP = 64
# Ratio of consecutive scales t_{j+1} / t_j of the continuous functional's
# quadrature.
SCALE_RATIO = 0.5
# Most k-d-tree candidates one block of a net or first-centre walk fetches
# and re-tests at once, which bounds the walk's memory.
BLOCK_CANDIDATES = 2**16


def scale_index(diam: float, alpha0: float) -> int:
    """m(Q) = ceil(ln diam / ln alpha0), patched so that the defining
    sandwich alpha0^m <= diam < alpha0^{m-1} holds under floating point,
    with a power that overflows taken as +inf, above every finite diameter.
    The scale m(Q) of a ball Q is scale_index(Q.diameter, alpha0)."""
    if not 0.0 < diam < math.inf:
        raise ValueError("scale index needs a positive finite diameter")
    if not 0.0 < alpha0 < 1.0:
        raise ValueError("alpha0 must lie in (0, 1)")
    m = math.ceil(math.log(diam) / math.log(alpha0))
    while _power(alpha0, m) > diam:
        m += 1
    while _power(alpha0, m - 1) <= diam:
        m -= 1
    return m


def build_net(points: np.ndarray, order: np.ndarray, r: float) -> np.ndarray:
    """Greedy r-separated net over `points`, scanned in `order`.

    Returns the selected indices (in admission order).  Admitted points are
    pairwise more than r apart and every point is within r of one of them.
    A point is admitted iff no earlier admitted point lies within r of it,
    by the exact closed comparison |x - y|^2 <= r*r, which is symmetric.

    The scan walks the points of `order` not yet covered in blocks.  A
    block is the longest run of them whose k-d-tree candidate counts
    (return_length=True, fetched once per point) sum to at most the number
    of uncovered points left and BLOCK_CANDIDATES, and at least one point:
    a larger block would mostly query ground that its own first admissions
    cover.  One query_ball_point call fetches the block's candidates and
    one vectorised comparison re-tests them.  The admissions are then
    resolved in scan order, each marking its hits covered, so a block
    member covered by an earlier one is skipped as in a one-at-a-time scan.
    The walk ends once every point of `order` is covered.
    """
    tree = cKDTree(points)
    radius = r * _PAD
    covered = np.zeros(len(points), dtype=bool)
    count = np.full(len(points), -1)
    selected = []
    rest = np.asarray(order, dtype=int)
    width = 1
    while True:
        rest = rest[~covered[rest]]
        if len(rest) == 0:
            return np.asarray(selected, dtype=int)
        window = rest[:width]
        new = window[count[window] < 0]
        count[new] = tree.query_ball_point(points[new], radius, return_length=True)
        counts = count[window]
        cap = min(BLOCK_CANDIDATES, len(rest))
        k = max(1, int(np.searchsorted(np.cumsum(counts), cap, side="right")))
        block, rest = window[:k], rest[k:]
        cand, owner = _candidates(tree, points[block], radius)
        hit = _sq_norms(points[cand] - points[block[owner]]) <= r * r
        ends = np.cumsum(np.bincount(owner[hit], minlength=k)).tolist()
        cand = cand[hit]
        for idx, lo, hi in zip(block.tolist(), [0] + ends, ends):
            if not covered[idx]:
                selected.append(idx)
                covered[cand[lo:hi]] = True
        # the next window holds about twice the points that fill a block here
        width = int(2 * min(BLOCK_CANDIDATES, len(rest)) / max(counts.mean(), 1.0)) + 1


def _candidates(tree: cKDTree, centers: np.ndarray, radius: float):
    """The k-d-tree candidates within `radius` of each centre, from one
    query_ball_point call, as one flat index array and the position of each
    candidate's centre."""
    lists = tree.query_ball_point(centers, radius, return_sorted=False)
    lengths = np.fromiter(map(len, lists), dtype=int, count=len(lists))
    cand = np.fromiter(itertools.chain.from_iterable(lists), dtype=int, count=int(lengths.sum()))
    return cand, np.repeat(np.arange(len(centers)), lengths)


def build_ball_family(net_points: np.ndarray, quarter_radius: float) -> np.ndarray:
    """Greedy subfamily whose quarter balls (radius = quarter_radius) are
    maximal mutually disjoint.  Returns positions within the net list.

    Closed balls of radius q are disjoint iff their centers are more than
    2q apart, so the kept centers are the greedy 2q-net of the net, scanned
    in net order.
    """
    return build_net(net_points, np.arange(len(net_points)), 2.0 * quarter_radius)


def build_partition(
    points: np.ndarray, net_points: np.ndarray, kept: np.ndarray, quarter_radius: float
) -> np.ndarray:
    """Assign every point to a kept ball index, realising the leftover
    construction.

    A point inside a kept quarter ball goes to that ball (smallest index on
    boundary ties; kept quarter balls are disjoint so ties only occur
    exactly on spheres).  Any other point lies in some leftover quarter
    ball B' (centered on a dropped net point); it is claimed by the first
    such B' in net order and routed to g(B') = the smallest kept index
    whose quarter ball meets B'.  Every dropped net point has a kept center
    within 2q, so g is total.
    """
    q2 = quarter_radius * quarter_radius
    kept_centers = net_points[kept]
    assignment = _first_within(points, kept_centers, q2)
    unassigned = np.nonzero(assignment < 0)[0]
    if len(unassigned) == 0:
        return assignment

    leftover = np.ones(len(net_points), dtype=bool)
    leftover[kept] = False
    leftover_centers = net_points[leftover]
    # g(B'): smallest kept index whose quarter ball meets the leftover ball,
    # i.e. center distance <= 2q.  Guaranteed to exist by the drop rule, as
    # long as both compare against the same rounded square (2q)*(2q).
    two_q = 2.0 * quarter_radius
    g = _first_within(leftover_centers, kept_centers, two_q * two_q)
    if (g < 0).any():
        raise InvariantError("dropped net ball meets no kept quarter ball")
    first = _first_within(points[unassigned], leftover_centers, q2)
    if (first < 0).any():
        raise InvariantError("net covering violated: point outside every quarter ball")
    assignment[unassigned] = g[first]
    return assignment


def _first_within(points: np.ndarray, centers: np.ndarray, r2: float) -> np.ndarray:
    """Index of the first centre within squared distance r2 of each point,
    -1 where there is none.

    The centres are walked in index order, in blocks whose k-d-tree
    candidate counts (return_length=True) sum to at most BLOCK_CANDIDATES,
    and at least one centre.  Each block makes one query_ball_point call;
    the candidates not yet claimed are re-tested with the exact closed
    comparison, vectorised, and each point they hit is claimed by the
    smallest hitting centre.  The walk stops once every point is claimed.
    """
    first = np.full(len(points), -1, dtype=int)
    tree = cKDTree(points)
    radius = math.sqrt(r2) * _PAD
    counts = tree.query_ball_point(centers, radius, return_length=True)
    csum = np.cumsum(counts)
    left, lo = len(points), 0
    while lo < len(centers) and left:
        done = csum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(csum, done + BLOCK_CANDIDATES, side="right")))
        cand, owner = _candidates(tree, centers[lo:hi], radius)
        owner += lo
        free = first[cand] < 0
        cand, owner = cand[free], owner[free]
        hit = _sq_norms(points[cand] - centers[owner]) <= r2
        cand, owner = cand[hit], owner[hit]
        # a point hit by several centres of the block keeps the smallest
        first[cand] = len(centers)
        np.minimum.at(first, cand, owner)
        left = np.count_nonzero(first < 0)
        lo = hi
    return first


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
    net = build_net(cloud.points, order, r)
    net_points = cloud.points[net]
    kept = build_ball_family(net_points, r)
    partition = build_partition(cloud.points, net_points, kept, r)
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
    geometry and contribute 0 to the flatness sums.
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
        n = self.n_top
        while self.alpha0**n >= floor and n - self.n_top < MAX_LEVELS_BELOW_TOP:
            n += 1
        self.n_floor = n - 1  # deepest level built: alpha0^n >= resolution floor

    def level(self, n: int) -> NetLevel:
        if n not in self._levels:
            self._levels[n] = build_level(self.cloud, n, self.alpha0, self.order)
        return self._levels[n]

    def levels_for(self, query: Ball) -> range:
        """All built scales relevant to a query ball: n >= m(Q), down to the
        resolution floor."""
        m = scale_index(query.diameter, self.alpha0)
        return range(m, self.n_floor + 1)

    def beta2_sq(self, n: int, j: int, d: int) -> float:
        key = (n, j, d)
        if key not in self._beta_cache:
            res = beta2(self.cloud, self.level(n).ball(self.cloud, j), d)
            self._beta_cache[key] = (res.value**2, res.mass)
        return self._beta_cache[key][0]


def local_family(family: MultiresolutionFamily, query: Ball) -> list[tuple[int, int, Ball]]:
    """D(Q): all family balls at scales n >= m(Q) that intersect Q,
    intersection decided by the center-distance rule |c_B - c_Q| <= r_B + r_Q."""
    out = []
    cq = np.asarray(query.center, dtype=float)
    for n in family.levels_for(query):
        lvl = family.level(n)
        centers = lvl.centers(family.cloud)
        d = np.linalg.norm(centers - cq, axis=1)
        hit = np.nonzero(d <= lvl.radius + query.radius)[0]
        for j in hit:
            out.append((n, int(j), lvl.ball(family.cloud, int(j))))
    return out


def jones_flatness_discrete(
    cloud: WeightedPointCloud, query: Ball, family: MultiresolutionFamily, d: int
) -> FlatnessReport:
    """J_d^D(mu|_Q) = sum over B in D(Q) of beta_2^2(B) mu(B)."""
    if family.cloud is not cloud:
        raise ValueError("family was built over a different cloud")
    terms = []
    total = 0.0
    for n, j, _ in local_family(family, query):
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
    so the grid has at most 41 levels and needs no cap of its own.
    """
    if x_cap < 1:
        raise ValueError("x_cap must be >= 1")

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
    floor = max(median_nn, 1e-12 * max(query.diameter, 1e-300))
    if 0 < median_nn < floor or floor == math.inf:
        raise ValueError(
            f"ball too wide for the continuous functional: 1e-12 * diam(B) = {floor!r} exceeds "
            f"the median nearest-neighbour distance {median_nn!r}, so the scale grid would stop "
            "above the support's scales"
        )
    log_w = math.log(1.0 / SCALE_RATIO)
    total = 0.0
    t = query.diameter
    while t >= floor:
        layer = 0.0
        for pi, wx in zip(sub, w_sub):
            b2 = beta2(cloud, Ball(cloud.points[pi], t), d).value ** 2
            layer += wx * b2
            terms.append({"t": t, "x": int(pi), "beta2sq": b2, "weight": float(wx)})
        total += log_w * layer
        t *= SCALE_RATIO
    return FlatnessReport(total=total, terms=terms)
