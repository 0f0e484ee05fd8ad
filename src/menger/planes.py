"""Affine d-planes, weighted least-squares fitting, and Jones beta numbers.

beta_2 of a ball is the mass-normalised L2 distance of the measure inside
the ball to its best approximating affine d-plane, scaled by the ball
diameter.  The exact minimiser over planes is the weighted PCA plane
through the weighted centroid.

The fit (_fit), the distances to the fitted planes (_plane_dist) and the
values (_beta2_values) take the points of many balls at once, as
consecutive row segments (lo, hi) of one flat array.  `beta2` passes one
segment; _beta2_layers passes every non-empty ball of one scale layer of a
block of centres.  Each ball keeps the bits it gets alone, because every
step is one of three kinds:

  elementwise over the flat rows: the products w * p and w * (p - c), the
        centring p - c (c repeated per row), the residual v - proj, each
        row's einsum |v - proj|^2 and its square root, and the value terms
        w (dist / diam)^2.  Each output element is one IEEE operation on the
        same inputs, whatever else the array holds.
  per ball, on its row slice: the mass and value sums (numpy's pairwise
        1-D sum), the centroid's axis-0 sum, the scatter product (w v)^T v
        and the projection (v B^T) B.  A row slice of a C-contiguous array
        has the strides of a fresh array of the ball's rows, so numpy runs
        the same loop or BLAS call on it.  These stay per ball: a segmented
        sum (np.add.reduceat) adds in another order, and one product over
        many balls, or a column-major one, lets BLAS group the additions
        differently; both change last bits.
  stacked: one eigh over the (B, D, D) scatters runs the same LAPACK call
        on each matrix as on a single one, and the sign fix and the
        canonical frame only negate or replace whole rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import _column_sq_dists, _sq_norms, _within_sq_radius

# Row budget of _beta2_layers: a block of centres closes once the balls of
# the largest radius around them hold this many points, so every working
# array of a block has fewer than BATCH_ROWS + N rows, one per point of a
# ball.  A single ball can hold all N points, as in one beta2 call.  The
# fits of a block keep about ten arrays of that many rows alive at once.
BATCH_ROWS = 2**14


@dataclass(frozen=True)
class AffinePlane:
    """An affine d-plane: a point on the plane plus an orthonormal basis
    of its direction space, stored as rows of `basis` (d, D).

    Orthonormal means every entry of basis @ basis.T is within
    1e-8 + 1e-5 * I of the identity I: np.allclose(gram, I, atol=1e-8)
    written out, which is cheaper; a NaN entry fails it.
    """

    point: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "basis", np.asarray(self.basis, dtype=float))
        if self.basis.ndim != 2 or self.basis.shape[1] != self.point.shape[0]:
            raise ValueError("basis must be (d, D) matching the point dimension")
        eye = np.eye(len(self.basis))
        if not (np.abs(self.basis @ self.basis.T - eye) <= 1e-8 + 1e-5 * eye).all():
            raise ValueError("basis rows must be orthonormal")

    def distance_many(self, points) -> np.ndarray:
        V = np.asarray(points, dtype=float) - self.point
        return _plane_dist(V, self.basis[None], [(0, len(V))])


def _plane_dist(V: np.ndarray, bases: np.ndarray, segments) -> np.ndarray:
    """Distances of the rows V to planes, taken relative to a point on each:
    the rows lo:hi of segments[b] to the plane of bases[b]."""
    W = np.empty_like(V)
    for basis, (lo, hi) in zip(bases, segments):
        np.matmul(V[lo:hi] @ basis.T, basis, out=W[lo:hi])
    np.subtract(V, W, out=W)
    return np.sqrt(_sq_norms(W))


@dataclass(frozen=True)
class Beta2Result:
    """beta_2 value together with the minimising plane and the ball mass."""

    value: float
    plane: AffinePlane
    mass: float


def _canonical_frame(d: int, D: int) -> np.ndarray:
    return np.eye(D)[:d]


def _check_dim(d: int, D: int) -> None:
    """Refuse a plane dimension outside 1 <= d <= D."""
    if not 1 <= d <= D:
        raise ValueError(f"plane dimension must satisfy 1 <= d <= {D}")


def _fit(points: np.ndarray, weights: np.ndarray, segments, d: int):
    """Weighted PCA d-planes of (N, D) points with positive weights, one
    per row segment (lo, hi) of `segments`, which are non-empty and cover
    the rows in order: returns (masses, centroids, bases, V), with bases
    (B, d, D) and V each row minus its segment's centroid.

    The plane through the weighted centroid spanned by the top d
    eigenvectors of the weighted scatter matrix minimises
    sum_i w_i dist(x_i, L)^2 over all affine d-planes.  Eigenvectors are
    sign-fixed (largest-magnitude entry positive, first maximum on ties) so
    the result is deterministic; zero scatter gets the axis-aligned frame.
    A scatter that is not finite (its squares overflow) is refused with a
    ValueError: its eigenvectors would be NaN.
    """
    B, D = len(segments), points.shape[1]
    masses, sums, scatters = np.empty(B), np.empty((B, D)), np.empty((B, D, D))
    wp = (points.T * weights).T
    for b, (lo, hi) in enumerate(segments):
        masses[b] = weights[lo:hi].sum()
        wp[lo:hi].sum(axis=0, out=sums[b])
    centroids = sums / masses[:, None]
    V = points - centroids.repeat([hi - lo for lo, hi in segments], axis=0)
    wv = (V.T * weights).T
    for b, (lo, hi) in enumerate(segments):
        np.matmul(wv[lo:hi].T, V[lo:hi], out=scatters[b])
    if np.count_nonzero(np.isfinite(scatters)) < scatters.size:
        raise ValueError(
            "the weighted scatter matrix of a ball's points is not finite: their squared "
            "distances to the centroid overflow the float range"
        )
    _, vec = np.linalg.eigh(scatters)
    bases = vec[:, :, ::-1][:, :, :d].transpose(0, 2, 1).copy()
    rows = bases.reshape(-1, D)
    # copysign(1, x) is -1 exactly where x < 0: a unit vector's largest entry x is not 0
    rows *= np.copysign(1.0, rows[np.arange(len(rows)), np.abs(rows).argmax(axis=1)])[:, None]
    spread = scatters.any(axis=(1, 2))
    if np.count_nonzero(spread) < B:
        bases[~spread] = _canonical_frame(d, D)
    return masses, centroids, bases, V


def _beta2_values(dist: np.ndarray, weights: np.ndarray, segments, masses, radius: float) -> np.ndarray:
    """beta_2(B, L): sqrt( sum_{x in B} w(x) (dist(x,L)/diam B)^2 / mu(B) )
    of each row segment (ball) from its points' distances to its plane L,
    with mu(B) = masses[b] and diam B = 2 * radius for every ball."""
    if radius == 0.0:  # a point mass is flat; dist/diam would be 0/0
        return np.zeros(len(masses))
    terms = weights * (dist / (2.0 * radius)) ** 2
    sums = np.empty(len(masses))
    for b, (lo, hi) in enumerate(segments):
        sums[b] = terms[lo:hi].sum()
    return np.sqrt(sums / masses)


def beta2(cloud, ball, d: int) -> Beta2Result:
    """beta_2(B) = inf over affine d-planes, attained by the weighted PCA
    plane.  An empty restriction gives value 0 (mass 0) with a canonical
    plane through the ball center; a ball of radius 0 gives value 0.  A d
    outside 1 <= d <= D is refused, whatever the ball holds."""
    _check_dim(d, cloud.ambient_dim)
    idx = cloud.in_ball(ball)
    if len(idx) == 0:
        plane = AffinePlane(ball.center, _canonical_frame(d, cloud.ambient_dim))
        return Beta2Result(0.0, plane, 0.0)
    weights = cloud.weights.take(idx)
    segments = [(0, len(idx))]
    masses, centroids, bases, V = _fit(cloud.points.take(idx, axis=0), weights, segments, d)
    value = _beta2_values(_plane_dist(V, bases, segments), weights, segments, masses, ball.radius)[0]
    return Beta2Result(float(value), AffinePlane(centroids[0], bases[0]), float(masses[0]))


def _outer_blocks(cloud, centers: np.ndarray, r2: float):
    """Blocks of consecutive centres with the pairs of their balls of
    squared radius r2: yields (lo, k, owner, idx, d2) for centres
    lo .. lo + k - 1, one row per point of a ball, centre-major and in
    ascending point order within a ball, owner the centre's position in the
    block, idx the point and d2 the pair's column sum.

    Each ball is found by one scan of the cloud's columns, the arithmetic
    of Ball.contains.  A block closes at the first centre that brings its
    rows to BATCH_ROWS or more, so it holds fewer than BATCH_ROWS + N.
    """
    points = cloud.points
    lo, parts, size = 0, [], 0
    for i, c in enumerate(centers):
        d2 = _column_sq_dists(cloud.columns, c)
        idx = _within_sq_radius(d2, r2, lambda rows: points.take(rows, axis=0) - c).nonzero()[0]
        parts.append((idx, d2.take(idx)))
        size += len(idx)
        if size >= BATCH_ROWS or i + 1 == len(centers):
            owner = np.repeat(np.arange(len(parts)), [len(p) for p, _ in parts])
            idx, d2 = (np.concatenate(arrays) for arrays in zip(*parts))
            yield lo, len(parts), owner, idx, d2
            lo, parts, size = i + 1, [], 0


def _beta2_layers(cloud, centers: np.ndarray, radii, d: int):
    """(values, masses), each (len(radii), len(centers)): beta2(cloud,
    Ball(centers[i], radii[j]), d).value and .mass at [j, i], bit for bit,
    for descending radii.

    The balls of the largest radius come from _outer_blocks.  Each smaller
    layer keeps the pairs of the layer above that _within_sq_radius finds
    within its radius: membership is the exact einsum <= r*r, and r*r does
    not grow as r falls, so B(x, t') holds no pair that B(x, t) drops for
    t' <= t.  The pairs keep their order, so a layer's balls in a block are
    consecutive row segments of one flat array, fitted together by _fit,
    _plane_dist and _beta2_values.  An empty ball has value 0 and mass 0.
    """
    points, weights = cloud.points, cloud.weights
    values = np.zeros((len(radii), len(centers)))
    masses = np.zeros((len(radii), len(centers)))
    if len(radii) == 0:
        return values, masses
    for lo, k, owner, idx, d2 in _outer_blocks(cloud, centers, radii[0] * radii[0]):
        block = centers[lo : lo + k]
        for j, t in enumerate(radii):
            if j:  # the largest balls are the scan's own
                keep = _within_sq_radius(d2, t * t, lambda rows: points.take(idx[rows], axis=0) - block[owner[rows]])
                keep = keep.nonzero()[0]
                owner, idx, d2 = owner.take(keep), idx.take(keep), d2.take(keep)
            counts = np.bincount(owner, minlength=k)
            held = counts.nonzero()[0]
            if len(held) == 0:
                break  # the smaller balls of this block are empty too
            ends = np.cumsum(counts[held]).tolist()
            segments = list(zip([0, *ends[:-1]], ends))
            w = weights.take(idx)
            mass, _, bases, V = _fit(points.take(idx, axis=0), w, segments, d)
            values[j, lo + held] = _beta2_values(_plane_dist(V, bases, segments), w, segments, mass, t)
            masses[j, lo + held] = mass
    return values, masses
