"""Weighted point clouds as discrete measures: containers, CSV I/O,
reference generators and Ahlfors-regularity probing.

CSV format: first line `dim=D`, then one row `c_1,...,c_D,weight` per
point.  Weights must be strictly positive.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

# Entries per row block of a point-to-centre difference array, and so of
# its squared-distance table.
BLOCK_ENTRIES = 2**22

# Relative pad on the bounds that spatial searches prune with, so that
# rounding in a bound cannot drop a pair that the exact einsum test keeps.
_PAD = 1.0 + 1e-9


def _sq_dist_blocks(points: np.ndarray, centers: np.ndarray):
    """Yield (lo, d2) row blocks of the squared distances from `points` to
    `centers`: d2[i, j] = |points[lo + i] - centers[j]|^2.  Each block's
    (rows, centers, D) difference array holds at most BLOCK_ENTRIES
    entries.  Blocks split rows only, so every entry is the same einsum
    whatever the block size."""
    rows = max(1, BLOCK_ENTRIES // max(len(centers) * points.shape[1], 1))
    for lo in range(0, len(points), rows):
        diff = points[lo : lo + rows, None, :] - centers[None, :, :]
        yield lo, np.einsum("ijk,ijk->ij", diff, diff)
        del diff  # free it before the next block is allocated


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
    """Largest squared pairwise distance, as the einsum of _sq_dist_blocks.

    The farthest-point sweep, the box bounds and a Gram block per leaf pair
    only prune; the result is the maximum over _sq_dist_blocks scans alone.
    A leaf pair is skipped when the squared max-distance between the two
    bounding boxes, times _PAD, is below both the sweep's bound and the best
    scanned pair; the pad covers a numpy whose row-norm and table einsums
    round differently.  A pair that survives gets one BLAS product of
    centred coordinates, g = |x'|^2 + |y'|^2 - 2 x'.y' with x' = fl(x - c)
    for the bounding-box centre c, and only its point pairs with g at or
    above the running threshold minus _gram_margin are scanned, in one
    _sq_dist_blocks table over their rows and columns.  The threshold is
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
        for _, d2 in _sq_dist_blocks(points[rows], points[cols]):
            best = max(best, float(d2.max()))
    return best


def _gram_margin(dim: int, r2: float) -> float:
    """Bound on |g - e| for one pair, where g is _max_sq_dist's Gram value
    and e the _sq_dist_blocks einsum, given r2 >= every |x'|^2 as computed.

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
        array: _sq_norms(points - center) <= r*r, bit for bit.

        Row-wise numpy ops on an (N, D) array with small D run their inner
        loop once per row, so the squared distances are first summed one
        coordinate column at a time.  That sum can differ from the einsum's
        in its last bit (at D = 3 numpy's einsum adds (p0 + p2) + p1), but
        its terms are the einsum's products and all >= 0, so the two orders
        differ by at most 2(D-1) eps relative, and subnormal sums are exact.
        Rows whose column sum lies within a relative _PAD - 1 of r*r, or is
        not finite, are decided again by the einsum itself.  An overflowing
        square is +inf, without a warning, as in the einsum.
        """
        P = np.asarray(points, dtype=float)
        c = self.center
        if P.ndim != 2 or P.shape[1] != len(c):
            raise ValueError(f"points must be (N, {len(c)}) to match the ball centre, got {P.shape}")
        r2 = self.radius * self.radius
        with np.errstate(over="ignore"):
            d2 = np.square(P[:, 0] - c[0])
            for j in range(1, len(c)):
                term = P[:, j] - c[j]
                d2 += np.square(term, out=term)
            inside = d2 <= r2
            near = (d2 >= r2 / _PAD) & (d2 <= r2 * _PAD)
            near |= ~np.isfinite(d2)
            if near.any():
                rows = np.flatnonzero(near)
                inside[rows] = _sq_norms(P[rows] - c) <= r2
        return inside


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

    def __len__(self) -> int:
        return len(self.points)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def in_ball(self, ball: Ball) -> np.ndarray:
        return np.nonzero(ball.contains(self.points))[0]

    def mass_in(self, ball: Ball) -> float:
        return float(self.weights[ball.contains(self.points)].sum())

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

    def median_nn_distance(self) -> float:
        """Median distance to the nearest distinct-index neighbour."""
        if self._median_nn is None:
            if len(self.points) < 2:
                self._median_nn = 0.0
            else:
                tree = cKDTree(self.points)
                dist, _ = tree.query(self.points, k=2)
                self._median_nn = float(np.median(dist[:, 1]))
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
    scaled so the full Jacobian has operator norm <= lip.
    """
    if not 1 <= d < D or n < 1:
        raise ValueError("need 1 <= d < D and n >= 1")
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
