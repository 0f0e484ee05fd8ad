"""Weighted point clouds as discrete measures: containers, CSV I/O,
reference generators and Ahlfors-regularity probing.

A cloud computes three facts about its points once, on first use, and
keeps them: the support diameter, the median nearest-neighbour distance,
and their coordinate columns (`columns`), which every ball scan over the
whole cloud reads.  A cloud's points must not change after it is built; a
cloud over other points, or over a subset, is a new cloud with its own
cached facts.

The one squared-distance rule: |p - c|^2 is the einsum of p - c with
itself (_sq_norms, _sq_dists), and p is within r of c iff it is <= r*r.
Balls, net and family walks, the diameter, local_family,
sample_scaled_simplex, ordered_cd_sq_sum and level_axioms all use it.  The
one exception is the nearest-neighbour distance, which sums its squares in
the order of the cKDTree k-d tree (_lane_sq_norms), so that the resolution
floor it sets keeps the bits it had when a cKDTree computed it.

The one spatial index is a cell grid (_Grid), which hashes the points into
cubic cells on their three widest axes and proposes the points of the
neighbouring cells as candidates.  _radius_grid pads its cells so that
every pair within r is a candidate, and every hit is then decided by the
rule above.  So the library runs on numpy alone.

CSV format: first line `dim=D`, then one row `c_1,...,c_D,weight` per
point.  Weights must be strictly positive.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Entries per row block of a point-to-centre difference array, and so of
# its squared-distance table.
BLOCK_ENTRIES = 2**22

# Relative pad on the bounds that spatial searches prune with, so that
# rounding in a bound cannot drop a pair that the exact einsum test keeps.
_PAD = 1.0 + 1e-9


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The table d2[i, j] = |points[i] - centers[j]|^2, each entry the
    _sq_norms einsum of its difference row, filled in row blocks whose
    (rows, centers, D) difference arrays hold at most BLOCK_ENTRIES entries.
    Blocks split rows only, so no entry depends on the block size."""
    out = np.empty((len(points), len(centers)))
    rows = max(1, BLOCK_ENTRIES // max(len(centers) * points.shape[1], 1))
    for lo in range(0, len(points), rows):
        diff = points[lo : lo + rows, None, :] - centers[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[lo : lo + rows])
        del diff  # free it before the next block is allocated
    return out


def _sq_norms(v: np.ndarray) -> np.ndarray:
    """Row-wise squared norms of a 2-D array."""
    return np.einsum("ij,ij->i", v, v)


def _power(base: float, exp: int) -> float:
    """base**exp for base >= 0, Python's float power, or +inf where it
    overflows (a scale alpha0 below about 5.6e-309 at exp = -1, a mass
    factor mu(Q)^{d+2}, a squared separation floor)."""
    try:
        return base**exp
    except OverflowError:
        return math.inf


def _powers(alpha0: float, exps: np.ndarray) -> np.ndarray:
    """alpha0**j for every entry j of exps, each one _power."""
    return np.array([_power(alpha0, j) for j in exps.tolist()], dtype=float)


def _level(x, alpha0: float) -> np.ndarray:
    """The k with alpha0^{k+1} < x <= alpha0^k of each entry of a 1-D array
    of positive finite values, 0 < alpha0 < 1: a log estimate, then steps in
    which every power is _power, so k matches the scalar definition bit for
    bit."""
    x = np.asarray(x, dtype=float)
    k = np.floor(np.log(x) / math.log(alpha0)).astype(np.int64)
    while len(k):
        step = (_powers(alpha0, k + 1) >= x).astype(np.int64) - (_powers(alpha0, k) < x)
        if not step.any():
            break
        k += step
    return k


# Largest leaf of the diameter's branch and bound; a cloud this small is
# one leaf, scanned against itself.
LEAF_SIZE = 256


def _leaves(points: np.ndarray) -> list[np.ndarray]:
    """Index sets of at most LEAF_SIZE points, by median splits along the
    widest axis."""
    stack, leaves = [np.arange(len(points))], []
    while stack:
        idx = stack.pop()
        if len(idx) <= LEAF_SIZE:
            leaves.append(idx)
            continue
        sub = points[idx]
        axis = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
        half = len(idx) // 2
        order = np.argpartition(sub[:, axis], half)
        stack += [idx[order[:half]], idx[order[half:]]]
    return leaves


def _max_sq_dist(points: np.ndarray) -> float:
    """Largest squared pairwise distance, as the einsum of _sq_dists.

    The farthest-point sweep, the box bounds and a Gram block per leaf pair
    only prune; the result is the maximum over _sq_dists scans alone.
    A leaf pair is skipped when the squared max-distance between the two
    bounding boxes, times _PAD, is below both the sweep's bound and the best
    scanned pair; the pad covers a numpy whose row-norm and table einsums
    round differently.  A pair that survives gets one BLAS product of
    centred coordinates, g = |x'|^2 + |y'|^2 - 2 x'.y' with x' = fl(x - c)
    for the bounding-box centre c, and only its point pairs with g at or
    above the running threshold minus _gram_margin are scanned, in one
    _sq_dists table over their rows and columns.  The threshold is
    the best scanned pair, or the sweep's bound over _PAD before any scan;
    neither exceeds the largest einsum, so the pair that attains it is
    always scanned.  Where the margin is not a normal float (subnormal
    squares) or a Gram block could hold an overflow, a surviving pair is
    scanned whole, as without the Gram blocks.
    """
    far = points[np.argmax(_sq_norms(points - points[0]))]
    lb = float(_sq_norms(points - far).max())
    best = 0.0
    leaves = _leaves(points)
    lo = np.array([points[i].min(axis=0) for i in leaves])
    hi = np.array([points[i].max(axis=0) for i in leaves])
    a, b = np.triu_indices(len(leaves))
    span = np.maximum(hi[a] - lo[b], hi[b] - lo[a])
    ub = _sq_norms(span)
    with np.errstate(over="ignore"):
        cen = points - (lo.min(axis=0) / 2 + hi.max(axis=0) / 2)
        norms = _sq_norms(cen)
    r2 = float(norms.max())
    margin = _gram_margin(points.shape[1], r2)
    # Each Gram value sums terms of absolute sum <= 4 r2, so none overflows
    # below 8 r2 < inf.  Outside that range, or where the margin is not a
    # normal float, every surviving leaf pair is scanned whole.
    gram = np.finfo(float).tiny <= margin and 8.0 * r2 < math.inf
    if gram:
        # rows [x', |x'|^2, 1] and columns [-2 y', 1, |y'|^2]: one product is g
        ones = np.ones(len(points))
        left, right = np.c_[cen, norms, ones], np.r_[-2.0 * cen.T, [ones, norms]]
        left, right = [left[i] for i in leaves], [right[:, i] for i in leaves]
    for k in np.argsort(ub, kind="stable")[::-1]:
        if ub[k] * _PAD < max(lb, best):
            break
        rows, cols = leaves[a[k]], leaves[b[k]]
        if gram:
            g = left[a[k]] @ right[b[k]]
            floor = max(lb / _PAD, best) - margin
            if g.max() < floor:
                continue
            i, j = np.nonzero(g >= floor)
            rows, cols = rows[np.unique(i)], cols[np.unique(j)]
        best = max(best, float(_sq_dists(points[rows], points[cols]).max()))
    return best


def _gram_margin(dim: int, r2: float) -> float:
    """Bound on |g - e| for one pair, where g is _max_sq_dist's Gram value
    and e the _sq_dists einsum, given r2 >= every |x'|^2 as computed.

    With eps = 2^-52, rho^2 the largest exact |x - c|^2 (within (1 + D eps)
    of r2) and D = dim, three roundings separate g from the exact |x - y|^2
    and e from it:
      translation  x' = fl(x - c) moves each coordinate by at most
                   eps/2 |x - c|, so |x' - y'| is within eps rho of |x - y|
                   <= 2 rho, and the squares within 4 eps rho^2 (plus
                   eps^2 rho^2);
      Gram         the stored |x'|^2 carry a relative D eps/2 each, and the
                   (D + 2)-term product adds (D + 2) eps/2 of its absolute
                   terms' sum, at most 4 rho^2 in any summation order and
                   with or without FMA: (3 D + 4) eps rho^2 together;
      einsum       each difference, square and addition of e rounds once, a
                   relative (D + 2) eps/2 of |x - y|^2 <= 4 rho^2:
                   2 (D + 2) eps rho^2.
    Their sum is (5 D + 12) eps rho^2; the margin (8 D + 32) eps r2 leaves
    room for the second-order terms, for rho^2 against r2, for the rounding
    of the threshold minus the margin, and for underflow, which adds at
    most a few 2^-1074 per value, far below a margin that is a normal float.
    So every pair whose einsum reaches the threshold has g within the margin
    of it.  A margin that is not a normal float is not trusted at all.
    """
    return (8 * dim + 32) * np.finfo(float).eps * r2


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "radius", float(self.radius))
        if self.center.ndim != 1 or len(self.center) == 0 or not np.isfinite(self.center).all():
            raise ValueError("ball centre must be a finite, non-empty 1-D coordinate vector")
        if not self.radius >= 0:  # also rejects NaN; +inf stays legal
            raise ValueError(f"ball radius must be nonnegative, got {self.radius}")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def blow(self, factor: float) -> "Ball":
        return Ball(self.center, factor * self.radius)

    def contains(self, points) -> np.ndarray:
        """Boolean mask for closed-ball membership of the rows of an (N, D)
        array: _sq_norms(points - center) <= r*r, bit for bit, decided by
        _within_sq_radius."""
        P = np.asarray(points, dtype=float)
        c = self.center
        if P.ndim != 2 or P.shape[1] != len(c):
            raise ValueError(f"points must be (N, {len(c)}) to match the ball centre, got {P.shape}")
        d2 = _column_sq_dists(P.T, c)
        return _within_sq_radius(d2, self.radius * self.radius, lambda rows: P[rows] - c)


def _column_sq_dists(columns: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distances from `center` to N points given as their D
    coordinate columns (D, N), summed one column at a time:
    ((p_0 - c_0)^2 + (p_1 - c_1)^2) + ...

    Row-wise numpy ops on an (N, D) array with small D run their inner loop
    once per row, which is why the columns are summed instead.  An
    overflowing square is +inf, without a warning, as in the einsum.
    """
    with np.errstate(over="ignore"):
        d2 = columns[0] - center[0]
        np.square(d2, out=d2)
        for j in range(1, len(columns)):
            term = columns[j] - center[j]
            d2 += np.square(term, out=term)
    return d2


def _within_sq_radius(d2: np.ndarray, r2: float, diffs) -> np.ndarray:
    """Boolean mask of the point-centre pairs with _sq_norms(p - c) <= r2,
    bit for bit, from their column sums d2 (_column_sq_dists, 1-D);
    diffs(rows) returns the difference rows p - c of the pairs at `rows`.

    The column sum can differ from the einsum's in its last bit (at D = 3
    numpy's einsum adds (p0 + p2) + p1), but its terms are the einsum's
    products and all >= 0, so the two orders differ by at most 2(D-1) eps
    relative, and subnormal sums are exact.  Pairs whose column sum lies
    within a relative _PAD - 1 of r2, or is infinite, are decided again by
    the einsum itself, one row per pair, so the answer for a pair does not
    depend on which other pairs are tested with it.  A NaN column sum comes
    from a NaN coordinate, whose einsum is NaN too: both compare False.
    """
    inside = d2 <= r2
    near = d2 >= r2 / _PAD
    near &= d2 <= r2 * _PAD
    near |= np.isinf(d2)
    rows = near.nonzero()[0]
    if len(rows):
        with np.errstate(over="ignore"):
            inside[rows] = _sq_norms(diffs(rows)) <= r2
    return inside


# Most cells a grid has along one axis: cells are at least extent / GRID_CELLS
# wide, so a cell coordinate and its neighbours fit in GRID_BITS bits and
# three of them in one int64 key.
GRID_CELLS = 2**20
GRID_BITS = GRID_CELLS.bit_length()


class _Grid:
    """Points in cubic cells of side `side` over their at most three widest
    coordinate axes, sorted by cell.  The candidates of a point are the
    points of its own cell and of the cells next to it (3^k cells on k
    axes), read off the sorted order as one contiguous run per cell row.

    The padding argument.  The side is the requested one, but at least
    extent / GRID_CELLS (extent: the widest axis's max - min).  A cell
    coordinate fl(fl(x - lo) / side) is at most GRID_CELLS = 2^20 and
    carries two roundings of eps/2 = 2^-53 relative each (a subnormal
    difference is exact), so two of them differ from their exact difference
    by less than delta = 5e-10.  So two points whose coordinates differ by
    at most (1 - delta) side on every gridded axis have cell coordinates
    less than 1 apart and are candidates of each other; and a point that is
    not a candidate of p differs from p by more than (1 - delta) side, which
    exceeds side / _PAD, on some gridded axis.  Coordinates are clipped to
    [0, GRID_CELLS], which keeps both statements.  A side that is not
    finite (an extent or radius that overflows) puts every point in one
    cell.
    """

    def __init__(self, points: np.ndarray, side: float):
        lo = points.min(axis=0, initial=np.inf)  # an empty grid has no cells
        with np.errstate(over="ignore"):
            extent = points.max(axis=0, initial=-np.inf) - lo
        axes = np.argsort(-extent, kind="stable")[:3]
        self.side = max(side, float(extent.max()) / GRID_CELLS, math.ulp(0.0))
        if math.isfinite(self.side):
            cells = np.floor((points[:, axes] - lo[axes]) / self.side)
            cells = np.clip(cells, 0, GRID_CELLS).astype(np.int64) + 1
        else:
            cells = np.ones((len(points), len(axes)), dtype=np.int64)
        # mixed-radix keys; a coordinate and its neighbours lie in [0, 2^GRID_BITS)
        self.keys = cells[:, 0]
        for j in range(1, len(axes)):
            self.keys = (self.keys << GRID_BITS) + cells[:, j]
        self.order = np.argsort(self.keys, kind="stable")
        self._sorted = self.keys[self.order]
        # key offsets of the neighbour cells on all but the last axis; the
        # last axis's three cells are consecutive keys, one run
        shifts = np.zeros(1, dtype=np.int64)
        for _ in range(len(axes) - 1):
            shifts = ((shifts[:, None] << GRID_BITS) + np.arange(-1, 2)).ravel()
        self._shifts = shifts << GRID_BITS

    def runs(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi), each (len(rows), 3^(k-1)): per point at `rows`, the
        disjoint runs self.order[lo:hi] that hold its candidates, one per
        neighbour cell row.  Each distinct cell is searched once, in key
        order."""
        cells, inverse = np.unique(self.keys[rows], return_inverse=True)
        base = self._shifts[:, None] + cells
        lo, hi = np.searchsorted(self._sorted, base - 1), np.searchsorted(self._sorted, base + 2)
        return lo.T[inverse], hi.T[inverse]

    def gather(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The candidates in the runs (lo, hi) of `runs`, as one flat index
        array and the row of each candidate's point, grouped by ascending
        row.  The runs are disjoint, so no candidate repeats."""
        size = (hi - lo).ravel()
        ends = np.cumsum(size)
        pos = np.arange(ends[-1] if len(ends) else 0) + np.repeat(lo.ravel() - (ends - size), size)
        return self.order[pos], np.repeat(np.arange(len(lo)), (hi - lo).sum(axis=1))


def _radius_grid(points: np.ndarray, r: float) -> _Grid:
    """The _Grid over `points` whose candidates hold every pair with
    _sq_norms(p - q) <= r*r: cells of side sqrt(r*r + 2^-1070) _PAD^2.

    Such a pair's einsum is at least the rounded square of each rounded
    coordinate difference, so each of those squares is at most r*r, and each
    coordinate difference at most sqrt(r*r + 2^-1073) (1 + 2 eps): a square
    rounds by eps/2 relative or 2^-1075 absolute, a difference by eps/2
    relative.  That is below (1 - delta) side, so the pair is a candidate
    (see _Grid).  So is a pair within r _PAD by any sum of rounded squares
    (a k-d tree's search padded by _PAD): its differences are at most
    r _PAD (1 + 3 eps), below (1 - delta) side too.  Where r*r overflows,
    the side is +inf and every point is a candidate, as every einsum is
    <= inf.
    """
    return _Grid(points, math.sqrt(r * r + 2.0**-1070) * _PAD**2)


def _lane_sq_norms(v: np.ndarray) -> np.ndarray:
    """Row-wise squared norms of a 2-D array in the order of the cKDTree
    k-d tree: four lane sums over the coordinates j mod 4 of the first
    D - D % 4 coordinates, added ((a0 + a1) + a2) + a3, then the remaining
    coordinates one at a time.  Below D = 4 that is ((v0^2 + v1^2) + v2^2),
    _column_sq_dists' order."""
    with np.errstate(over="ignore"):
        sq = np.square(v)
    D = v.shape[1]
    whole = D - D % 4
    if whole:
        lanes = sq[:, :4].copy()
        for j in range(4, whole, 4):
            lanes += sq[:, j : j + 4]
        s = lanes[:, 0] + lanes[:, 1]
        s += lanes[:, 2]
        s += lanes[:, 3]
    else:
        s, whole = sq[:, 0].copy(), 1
    for j in range(whole, D):
        s += sq[:, j]
    return s


# Most candidates per point the first grid of a nearest-neighbour search
# may propose before its cells are shrunk.
NN_CANDIDATES = 16


def _median_nn_distance(points: np.ndarray) -> float:
    """Median over the points (at least two) of the distance to the nearest
    other-index point, 0 for a duplicate: np.median of the cKDTree k-d
    tree's k = 2 distances, bit for bit, as each squared distance is summed
    by _lane_sq_norms and the square root is correctly rounded.

    Rounds of grids settle the points.  A point is settled when its best
    candidate is at most t = (side / _PAD^2)^2 - 2^-1073: a point that is
    not a candidate differs from it by more than side / _PAD on some axis
    (see _Grid), so its squared distance, a sum of nonnegative rounded
    squares, is at least that difference's rounded square and exceeds t.  So every unsettled distance exceeds every settled
    one, and once more than half the points are settled the median is that
    of the settled distances with the others taken as +inf.  A round in
    which every point is a candidate of every unsettled one settles them
    all.  The first grid's cells are extent / N^(1/k) wide on k = min(3, D)
    axes, shrunk 4-fold while there are more than NN_CANDIDATES candidates
    per point; if the cells reach their narrowest first, every point with
    an exact copy is settled at 0, the least distance there is.  Each later
    grid is 4 times wider and queries the unsettled points only, in blocks
    of at most BLOCK_ENTRIES difference entries, or one point.
    """
    n, dim = points.shape
    best = np.full(n, np.inf)
    pending = np.ones(n, dtype=bool)
    with np.errstate(over="ignore"):
        extent = float((points.max(axis=0) - points.min(axis=0)).max())
    side = extent / n ** (1 / min(3, dim))
    shrink = True
    while n - np.count_nonzero(pending) <= n // 2:
        grid = _Grid(points, side)
        rows = grid.order[pending[grid.order]]
        lo, hi = grid.runs(rows)
        counts = (hi - lo).sum(axis=1)
        if shrink and counts.sum() > NN_CANDIDATES * n:
            if side > extent / GRID_CELLS:
                side /= 4.0
            else:  # the narrowest cells still hold many points: copies of one point
                _, inverse, copies = np.unique(points, axis=0, return_inverse=True, return_counts=True)
                copy = copies[inverse.ravel()] > 1
                best[copy] = 0.0
                pending[copy] = False
                shrink = False
            continue
        shrink = False
        block = (np.cumsum(counts) - counts) // max(1, BLOCK_ENTRIES // dim)
        cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(rows)]
        for a, b in zip(cuts, cuts[1:]):
            cand, owner = grid.gather(lo[a:b], hi[a:b])
            owner = rows[a:b][owner]
            d2 = _lane_sq_norms(points[cand] - points[owner])
            d2[cand == owner] = np.inf
            best[rows[a:b]] = np.minimum.reduceat(d2, np.cumsum(counts[a:b]) - counts[a:b])
        gap = grid.side / _PAD**2
        settled = best[rows] <= gap * gap - 2.0**-1073
        pending[rows[settled | (counts == n).all()]] = False
        side = 4.0 * grid.side
    best[pending] = np.inf
    return float(np.median(np.sqrt(best)))


class WeightedPointCloud:
    """Finite weighted point cloud mu = sum_i w_i delta_{p_i}."""

    def __init__(self, points, weights):
        points = np.ascontiguousarray(points, dtype=float)
        weights = np.ascontiguousarray(weights, dtype=float)
        if points.ndim != 2 or points.shape[1] < 1:
            raise ValueError("points must be (N, D) with D >= 1")
        if weights.shape != (len(points),):
            raise ValueError("need exactly one weight per point")
        if not np.all(np.isfinite(points)) or not np.all(np.isfinite(weights)):
            raise ValueError("points and weights must be finite")
        if len(points) == 0:
            raise ValueError("a cloud needs at least one point")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        self.points = points
        self.weights = weights
        self._diameter: float | None = None
        self._median_nn: float | None = None
        self._columns: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.points)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def in_ball(self, ball: Ball) -> np.ndarray:
        return np.nonzero(ball.contains(self.columns.T))[0]

    def mass_in(self, ball: Ball) -> float:
        return float(self.weights[ball.contains(self.columns.T)].sum())

    def subset(self, indices) -> "WeightedPointCloud":
        return WeightedPointCloud(self.points[indices], self.weights[indices])

    def support_diameter(self) -> float:
        """Exact diameter of the support: the largest pairwise distance.

        Branch and bound over leaf pairs (_max_sq_dist): the points are
        bisected into leaves of at most LEAF_SIZE, a double farthest-point
        sweep gives a lower bound, and leaf pairs are visited from the
        largest bounding-box max-distance down until that bound falls below
        the best pair found.  In each visited pair one BLAS Gram block of
        centred coordinates picks the point pairs within a proven rounding
        margin of the running best, and only those are scanned.  Every
        candidate distance is the blocked scan's einsum, so the value is the
        all-pairs maximum bit for bit.
        """
        if self._diameter is None:
            self._diameter = float(np.sqrt(_max_sq_dist(self.points)))
        return self._diameter

    @property
    def columns(self) -> np.ndarray:
        """The points as coordinate columns, a C-contiguous (D, N) copy built
        on first use and kept: a ball scan (in_ball, mass_in) passes its
        transpose to Ball.contains, which then reads each column
        contiguously rather than with a stride of D."""
        if self._columns is None:
            self._columns = np.ascontiguousarray(self.points.T)
        return self._columns

    def median_nn_distance(self) -> float:
        """Median distance to the nearest distinct-index neighbour
        (_median_nn_distance), 0.0 for a single point."""
        if self._median_nn is None:
            self._median_nn = _median_nn_distance(self.points) if len(self.points) > 1 else 0.0
        return self._median_nn

    def bounding_ball(self) -> Ball:
        c = self.points.mean(axis=0)
        r = float(np.linalg.norm(self.points - c, axis=1).max())
        # sqrt/square round trips can push the extreme point a ulp outside
        # the closed ball; pad so the bounding ball really bounds.
        return Ball(c, r * (1.0 + 4.0 * np.finfo(float).eps))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"dim={self.ambient_dim}\n")
            for p, w in zip(self.points, self.weights):
                fh.write(",".join(repr(float(c)) for c in p) + f",{float(w)!r}\n")

    @classmethod
    def from_csv(cls, path) -> "WeightedPointCloud":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header.startswith("dim="):
                raise ValueError("cloud CSV must start with a 'dim=D' header line")
            try:
                dim = int(header[4:])
            except ValueError as exc:
                raise ValueError(f"malformed dimension header {header!r}") from exc
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                arr = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        if arr.size == 0:
            raise ValueError("cloud CSV holds no points")
        if arr.shape[1] != dim + 1:
            raise ValueError(f"expected {dim + 1} fields per row, got {arr.shape[1]}")
        return cls(arr[:, :dim], arr[:, dim])


def gen_plane_patch(d: int, D: int, n: int, seed=0) -> WeightedPointCloud:
    """Uniform sample of a unit d-cube patch of a d-plane embedded in R^D."""
    if not 1 <= d <= D or n < 1:
        raise ValueError("need 1 <= d <= D and n >= 1")
    rng = np.random.default_rng(seed)
    pts = np.zeros((n, D))
    pts[:, :d] = rng.uniform(-0.5, 0.5, size=(n, d))
    return WeightedPointCloud(pts, np.full(n, 1.0 / n))


def gen_sphere(D: int, n: int, seed=0) -> WeightedPointCloud:
    """Uniform sample of the unit sphere in R^D (D=2 gives the circle)."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, D))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return WeightedPointCloud(g, np.full(n, 1.0 / n))


def gen_lipschitz_graph(d: int, D: int, lip: float, n: int, seed=0) -> WeightedPointCloud:
    """Graph of an L-Lipschitz map R^d -> R^{D-d} over a unit cube patch.

    The map is a small sum of smooth waves with gradient bounded by 1,
    scaled so the full Jacobian has operator norm <= lip, a finite lip >= 0.
    """
    if not 1 <= d < D or n < 1:
        raise ValueError("need 1 <= d < D and n >= 1")
    if not 0.0 <= lip < math.inf:  # NaN fails every comparison
        raise ValueError(f"lip must be a finite number >= 0, got {lip!r}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, size=(n, d))
    m_out = D - d
    scale = lip / np.sqrt(m_out)
    vals = np.zeros((n, m_out))
    for j in range(m_out):
        n_waves = 4
        dirs = rng.normal(size=(n_waves, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        freqs = rng.uniform(1.0, 6.0, size=n_waves)
        phases = rng.uniform(0.0, 2 * np.pi, size=n_waves)
        coeffs = rng.uniform(0.2, 1.0, size=n_waves)
        coeffs /= np.abs(coeffs).sum()
        phase_arg = x @ dirs.T * freqs + phases
        vals[:, j] = scale * (np.sin(phase_arg) * (coeffs / freqs)).sum(axis=1)
    return WeightedPointCloud(np.hstack([x, vals]), np.full(n, 1.0 / n))


def gen_four_corner_cantor(level: int) -> WeightedPointCloud:
    """Level-n four-corner Cantor construction with contraction 1/4.

    The unit square is centred at the origin; each square spawns four
    corner squares of a quarter the side.  Level n yields 4^n cell centres
    with weight 4^-n each (a 1-regular measure in the limit).
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    centers = np.zeros((1, 2))
    side = 1.0
    offsets = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    for _ in range(level):
        shift = (3.0 / 8.0) * side
        centers = (centers[:, None, :] + shift * offsets[None, :, :]).reshape(-1, 2)
        side /= 4.0
    n = len(centers)
    return WeightedPointCloud(centers, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class RegularityReport:
    """Empirical d-regularity constant."""

    estimated_Cmu: float
    degenerate: bool = False


def regularity_constant(
    cloud: WeightedPointCloud, d: int, n_centers: int = 32, n_radii: int = 12, seed=0
) -> RegularityReport:
    """Empirical C_mu: max over probed (x, r) of max(mu(B)/r^d, r^d/mu(B)).

    Centers are support points drawn by mass; radii run geometrically from
    the median nearest-neighbour distance to the support diameter.  The
    estimate is clipped below at 1.  A cloud too small to carry scales is
    flagged degenerate.
    """
    rng = np.random.default_rng(seed)
    if len(cloud) < 2:
        return RegularityReport(1.0, degenerate=True)
    w = cloud.weights / cloud.total_mass()
    centers = rng.choice(len(cloud), size=min(n_centers, len(cloud)), replace=False, p=w)
    r_lo = max(cloud.median_nn_distance(), 1e-12)
    r_hi = max(cloud.support_diameter(), 2 * r_lo)
    radii = np.geomspace(r_lo, r_hi, n_radii)
    best = 1.0
    for ci in centers:
        for r in radii:
            mass = cloud.mass_in(Ball(cloud.points[ci], r))
            best = max(best, mass / r**d, r**d / mass)
    return RegularityReport(float(best))
