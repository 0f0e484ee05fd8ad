"""Simplex geometry: Gram contents, polar sines, elevation angles, heights,
and the discrete Menger-type curvatures built out of them.

A simplex tuple X = (x_0, ..., x_{m-1}) is stored as an (m, D) float array.
Coordinate 0 is the base vertex wherever a base is implied.  The functions
here take one tuple at a time.  Every Gram content, polar sine and
curvature is a batch-of-one call into the kernels of _batch.py, so a scalar
and a vectorised evaluation of the same quantity share one formula and one
rank rule.  The one exception is affine_hull_distance (and so the heights
and elevation sines); its docstring says why.
"""

from __future__ import annotations

import math

import numpy as np

from . import _batch

# Contents smaller than DEGENERACY_EPS * diam^n are treated as rank noise:
# the volume/polar-sine cross check is skipped below this floor.
DEGENERACY_EPS = 1e-12
# Maximum tolerated relative disagreement between the polar-sine form and
# the volume form of c_d^2 on non-degenerate input.
IDENTITY_RTOL = 1e-9

_TINY = np.finfo(float).tiny


def _error_model_rtol(tau):
    """Relative tolerance of an identity between Gram-determinant values of
    a simplex of thinness tau (tau = content / diam^{d+1}, or a polar sine):
    IDENTITY_RTOL, widened to the error model 200 eps / tau^2, since Gram
    determinants of thin simplices lose relative accuracy like eps / tau^2.
    Takes a float or an array; tau is clamped below at 1e-300."""
    return np.maximum(IDENTITY_RTOL, 200.0 * np.finfo(float).eps / np.maximum(tau, 1e-300) ** 2)


class InvariantError(ArithmeticError):
    """An identity the library guarantees failed to hold on valid input."""


def as_tuple_array(X) -> np.ndarray:
    """Coerce a simplex tuple to an (m, D) float array, m >= 2."""
    A = np.asarray(X, dtype=float)
    if A.ndim != 2 or A.shape[0] < 2:
        raise ValueError("simplex tuple must have shape (m, D) with m >= 2")
    return A


def remove_coordinate(X, i: int):
    """X(i): the tuple with coordinate i removed, 0 <= i <= m-1, as an
    array for an array and as a tuple for any other sequence."""
    m = len(X)
    if not 0 <= i < m:
        raise IndexError(f"coordinate index {i} out of range for tuple of length {m}")
    if isinstance(X, np.ndarray):
        return np.delete(X, i, axis=0)
    return tuple(x for q, x in enumerate(X) if q != i)


def replace_coordinate(X, y, i: int):
    """X(y, i): the tuple with coordinate i replaced by y, 1 <= i <= m-1.

    Replacing the base coordinate is not part of the calculus, so i = 0 is
    rejected rather than silently allowed.
    """
    m = len(X)
    if not 1 <= i < m:
        raise IndexError(f"replacement index must satisfy 1 <= i <= {m - 1}, got {i}")
    if isinstance(X, np.ndarray):
        out = X.copy()
        out[i] = y
        return out
    out = list(X)
    out[i] = y
    return tuple(out)


def max_at0(X) -> float:
    """max_{x_0}(X): longest edge at the base vertex."""
    X = as_tuple_array(X)
    norms = np.linalg.norm(X[1:] - X[0], axis=1)
    v = float(norms.max())
    if v == 0.0:
        raise ValueError("all coordinates coincide with the base vertex")
    return v


def min_at0(X) -> float:
    """min_{x_0}(X): shortest edge at the base vertex (0 if degenerate)."""
    X = as_tuple_array(X)
    return float(np.linalg.norm(X[1:] - X[0], axis=1).min())


def scale_at0(X) -> float:
    """scale_{x_0}(X) = min_at0 / max_at0, in [0, 1]."""
    return min_at0(X) / max_at0(X)


def gram_content(X, base: int = 0) -> float:
    """M_n(X) at the given base vertex: the square root of the Gram
    determinant of the edge vectors out of the base.

    Rank-deficient tuples (n > D, repeated points, affinely dependent
    points) return 0 rather than determinant noise; see
    _batch.content_sq for the rank rule.
    """
    return math.sqrt(_batch.content_sq(as_tuple_array(X)[None], base)[0])


def polar_sine(X, i: int = 0) -> float:
    """psin_{x_i}(X): content at x_i over the product of edge lengths at x_i.

    Returns 0 when a coordinate coincides with another (X outside the
    simplex set) or when the edges at x_i are affinely dependent.
    """
    return math.sqrt(_batch.psin_sq_at(as_tuple_array(X)[None], i)[0])


def affine_hull_distance(x, points) -> float:
    """Distance from x to the affine hull of the given points.

    The hull basis is extracted by SVD with a relative rank cut of 1e-12,
    so nearly dependent spanning sets degrade gracefully.  The residual
    x - proj(x) is formed before its norm is taken, so the distance keeps
    its relative accuracy on thin simplices.  _batch.affine_span_dist_sq
    evaluates |v|^2 - v.proj(v) instead, which cancels there; the two meet
    once that kernel takes the residual form.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    v = np.asarray(x, dtype=float) - P[0]
    E = P[1:] - P[0]
    if len(E) == 0:
        return float(np.linalg.norm(v))
    _, s, Vt = np.linalg.svd(E, full_matrices=False)
    basis = Vt[s > s[0] * 1e-12] if s[0] > 0 else Vt[:0]
    w = v - basis.T @ (basis @ v)
    return float(np.linalg.norm(w))


def height(X, i: int) -> float:
    """h_{x_i}(X): distance from x_i to the affine hull of the other coordinates."""
    X = as_tuple_array(X)
    return affine_hull_distance(X[i], remove_coordinate(X, i))


def elevation_sine(X, i: int) -> float:
    """sin(theta_i(X)) = dist(x_i, aff hull of X(i)) / |x_i - x_0|, i >= 1."""
    X = as_tuple_array(X)
    if not 1 <= i < len(X):
        raise IndexError("elevation angles are defined for 1 <= i <= m-1")
    denom = float(np.linalg.norm(X[i] - X[0]))
    if denom == 0.0:
        raise ValueError("degenerate tuple: x_i coincides with the base vertex")
    return height(X, i) / denom


def menger_curvature(T) -> float:
    """c_M: reciprocal circumradius of a triangle, 4*area / product of sides.

    The base-0 content of a triangle is twice its area, so
    c_M^2 = 4 content^2 / (d01^2 d02^2 d12^2).  Returns 0 for degenerate
    (collinear or coinciding) triples.
    """
    T = as_tuple_array(T)
    if len(T) != 3:
        raise ValueError("Menger curvature takes exactly three points")
    d2, content = _batch.pair_and_content_sq(T[None], 0)
    sides_sq = (float(d2[0, 0]), float(d2[0, 1]), float(d2[0, 2]))  # d01, d02, d12
    content_sq = float(content[0])
    prod = sides_sq[0] * sides_sq[1] * sides_sq[2]
    if _TINY <= prod < math.inf:
        return math.sqrt(4.0 * content_sq / prod)
    # The squared product grows like scale^6 and leaves the normal range
    # long before the product of the sides (scale^3) does.
    prod = math.sqrt(sides_sq[0]) * math.sqrt(sides_sq[1]) * math.sqrt(sides_sq[2])
    if prod == 0.0:
        return 0.0
    return 2.0 * math.sqrt(content_sq) / prod


def discrete_curvature_sq(X) -> float:
    """c_d^2(X) for a (d+2)-tuple X.

    Canonical form: mean of the squared polar sines over all base-vertex
    placements, divided by diam(X)^{d(d+1)}.  The volume form (content at
    x_0 squared times the sum of inverse edge products) is evaluated as a
    cross check whenever the tuple is comfortably non-degenerate; the two
    must agree to _error_model_rtol(tau), or InvariantError is raised.
    """
    X = as_tuple_array(X)
    d = len(X) - 2
    if d < 1:
        raise ValueError("c_d needs at least 3 points (d >= 1)")
    terms = _batch.curvature_terms(X[None])
    value = float(terms["cd_sq"][0])

    diam = math.sqrt(terms["diam2"][0])
    vol = math.sqrt(terms["content0_sq"][0])
    if vol > DEGENERACY_EPS * diam ** (d + 1):
        vol_form = float(terms["cd_sq_vol"][0])
        tol = _error_model_rtol(vol / diam ** (d + 1))
        if abs(value - vol_form) > tol * max(value, vol_form):
            raise InvariantError(
                f"curvature forms disagree: psin form {value!r}, volume form {vol_form!r}"
            )
    return value


def discrete_curvature(X) -> float:
    """c_d(X) = sqrt(c_d^2(X))."""
    return float(np.sqrt(discrete_curvature_sq(X)))


def direct_menger(X) -> float:
    """Direct generalization of 1/circumradius: content over the product of
    all edge lengths, each ordered pair (i, j), i != j, contributing a factor.

    Each unordered pair therefore enters squared.  This variant lacks the
    scale invariance that motivates c_d and is provided for comparison only.
    """
    X = as_tuple_array(X)
    d2 = _batch.pairwise_sq(X[None])[0]
    prod = float(np.prod(d2[np.triu_indices(len(X), k=1)]))
    if prod == 0.0:
        return 0.0
    return gram_content(X, 0) / prod
