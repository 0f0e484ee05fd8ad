"""Affine d-planes, weighted least-squares fitting, and Jones beta numbers.

beta_2 of a ball is the mass-normalised L2 distance of the measure inside
the ball to its best approximating affine d-plane, scaled by the ball
diameter.  The exact minimiser over planes is the weighted PCA plane
through the weighted centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        return _plane_dist(np.asarray(points, dtype=float) - self.point, self.basis)


def _plane_dist(V: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Distances to a plane of the rows V, taken relative to a point on it."""
    W = V - V @ basis.T @ basis
    return np.sqrt(np.einsum("ij,ij->i", W, W))


@dataclass(frozen=True)
class Beta2Result:
    """beta_2 value together with the minimising plane and the ball mass."""

    value: float
    plane: AffinePlane
    mass: float


def _canonical_frame(d: int, D: int) -> np.ndarray:
    return np.eye(D)[:d]


def _fit(points: np.ndarray, weights: np.ndarray, mass, d: int):
    """Weighted PCA d-plane of (N, D) points with positive weights summing
    to `mass`: returns (centroid, basis, V), V = points - centroid.

    The plane through the weighted centroid spanned by the top d
    eigenvectors of the weighted scatter matrix minimises
    sum_i w_i dist(x_i, L)^2 over all affine d-planes.  Eigenvectors are
    sign-fixed (largest-magnitude entry positive, first maximum on ties) so
    the result is deterministic; zero scatter gets the axis-aligned frame.
    """
    D = points.shape[1]
    if not 1 <= d <= D:
        raise ValueError(f"plane dimension must satisfy 1 <= d <= {D}")
    centroid = (weights[:, None] * points).sum(axis=0) / mass
    V = points - centroid
    scatter = (weights[:, None] * V).T @ V
    if not np.any(scatter):
        return centroid, _canonical_frame(d, D), V
    _, vec = np.linalg.eigh(scatter)
    basis = vec[:, ::-1][:, :d].T.copy()
    lead = np.abs(basis).argmax(axis=1)
    basis[basis[np.arange(d), lead] < 0] *= -1.0
    return centroid, basis, V


def _beta2_value(dist: np.ndarray, weights: np.ndarray, mass, radius: float) -> float:
    """beta_2(B, L): sqrt( sum_{x in B} w(x) (dist(x,L)/diam B)^2 / mu(B) )
    over the points of B, from their distances to L, with mu(B) = mass and
    diam B = 2 * radius."""
    if radius == 0.0:  # a point mass is flat; dist/diam would be 0/0
        return 0.0
    diam = 2.0 * radius
    return float(np.sqrt(np.sum(weights * (dist / diam) ** 2) / mass))


def beta2(cloud, ball, d: int) -> Beta2Result:
    """beta_2(B) = inf over affine d-planes, attained by the weighted PCA
    plane.  An empty restriction gives value 0 (mass 0) with a canonical
    plane through the ball center; a ball of radius 0 gives value 0."""
    idx = cloud.in_ball(ball)
    if len(idx) == 0:
        plane = AffinePlane(ball.center, _canonical_frame(d, cloud.ambient_dim))
        return Beta2Result(0.0, plane, 0.0)
    weights = cloud.weights[idx]
    mass = weights.sum()
    centroid, basis, V = _fit(cloud.points[idx], weights, mass, d)
    value = _beta2_value(_plane_dist(V, basis), weights, mass, ball.radius)
    return Beta2Result(value, AffinePlane(centroid, basis), float(mass))
