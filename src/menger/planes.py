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
    of its direction space, stored as rows of `basis` (d, D)."""

    point: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "basis", np.asarray(self.basis, dtype=float))
        if self.basis.ndim != 2 or self.basis.shape[1] != self.point.shape[0]:
            raise ValueError("basis must be (d, D) matching the point dimension")
        gram = self.basis @ self.basis.T
        if not np.allclose(gram, np.eye(len(self.basis)), atol=1e-8):
            raise ValueError("basis rows must be orthonormal")

    def distance_many(self, points) -> np.ndarray:
        V = np.asarray(points, dtype=float) - self.point
        W = V - V @ self.basis.T @ self.basis
        return np.sqrt(np.einsum("ij,ij->i", W, W))


@dataclass(frozen=True)
class Beta2Result:
    """beta_2 value together with the minimising plane and the ball mass."""

    value: float
    plane: AffinePlane
    mass: float


def _canonical_frame(d: int, D: int) -> np.ndarray:
    return np.eye(D)[:d]


def fit_plane_points(points, weights, d: int) -> AffinePlane:
    """Weighted least-squares affine d-plane.

    The plane through the weighted centroid spanned by the top d
    eigenvectors of the weighted scatter matrix minimises
    sum_i w_i dist(x_i, L)^2 over all affine d-planes.  Eigenvectors are
    sign-fixed (largest-magnitude entry positive) so the result is
    deterministic; a cloud with zero spread gets the axis-aligned frame.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(P),):
        raise ValueError("weights must be one per point")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    D = P.shape[1]
    if not 1 <= d <= D:
        raise ValueError(f"plane dimension must satisfy 1 <= d <= {D}")

    centroid = (w[:, None] * P).sum(axis=0) / w.sum()
    V = P - centroid
    scatter = (w[:, None] * V).T @ V
    if not np.any(scatter):
        return AffinePlane(centroid, _canonical_frame(d, D))

    ev, vec = np.linalg.eigh(scatter)
    basis = vec[:, ::-1][:, :d].T.copy()
    for row in basis:
        lead = np.argmax(np.abs(row))
        if row[lead] < 0:
            row *= -1.0
    return AffinePlane(centroid, basis)


def _beta2_value(points, weights, plane: AffinePlane, radius: float) -> float:
    """beta_2(B, L): sqrt( sum_{x in B} w(x) (dist(x,L)/diam B)^2 / mu(B) )
    over the points of B, with diam B = 2 * radius."""
    if radius == 0.0:  # a point mass is flat; dist/diam would be 0/0
        return 0.0
    dist = plane.distance_many(points)
    diam = 2.0 * radius
    return float(np.sqrt(np.sum(weights * (dist / diam) ** 2) / weights.sum()))


def beta2(cloud, ball, d: int) -> Beta2Result:
    """beta_2(B) = inf over affine d-planes, attained by the weighted PCA
    plane.  An empty restriction gives value 0 (mass 0) with a canonical
    plane through the ball center; a ball of radius 0 gives value 0."""
    idx = cloud.in_ball(ball)
    if len(idx) == 0:
        plane = AffinePlane(np.asarray(ball.center, dtype=float), _canonical_frame(d, cloud.ambient_dim))
        return Beta2Result(0.0, plane, 0.0)
    points, weights = cloud.points[idx], cloud.weights[idx]
    plane = fit_plane_points(points, weights, d)
    return Beta2Result(_beta2_value(points, weights, plane, ball.radius), plane, float(weights.sum()))
