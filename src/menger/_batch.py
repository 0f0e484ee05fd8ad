"""Vectorised kernels over stacks of simplex tuples.

A stack is a (B, m, D) array: B tuples of m points each.  These kernels are
the only implementation of the content, polar-sine and curvature formulas:
the scalar functions of geometry.py call them with B = 1.  Gram determinants are clamped at zero
(the Gram matrix is positive semidefinite); tuples with coinciding
coordinates get polar sine 0.
"""

from __future__ import annotations

import numpy as np


def pairwise_sq(T: np.ndarray) -> np.ndarray:
    """Squared distance matrices, shape (B, m, m)."""
    diff = T[:, :, None, :] - T[:, None, :, :]
    return np.einsum("bijk,bijk->bij", diff, diff)


def content_sq(T: np.ndarray, base: int) -> np.ndarray:
    """Squared Gram content at the given base vertex, clamped at 0.

    Tuples whose determinant falls below the determinant noise bound
    (~ k eps trace^k) are re-evaluated through eigenvalues with the
    matrix_rank cut (k eps ev_max): exactly rank-deficient tuples, e.g.
    d+2 points inside a d-plane, come out 0 rather than noise on the order
    of eps * edge scale^2k.
    """
    E = np.delete(T, base, axis=1) - T[:, base, None, :]
    G = np.einsum("bik,bjk->bij", E, E)
    # An LU pivot that underflows to 0 (subnormal edges) makes det warn; its
    # determinant comes out 0, below the floor, so eigvalsh settles it.
    with np.errstate(divide="ignore"):
        det = np.clip(np.linalg.det(G), 0.0, None)
    k = G.shape[1]
    eps = np.finfo(float).eps
    floor = 10.0 * k * eps * np.trace(G, axis1=1, axis2=2) ** k
    suspect = det < floor
    if suspect.any():
        ev = np.clip(np.linalg.eigvalsh(G[suspect]), 0.0, None)
        ev[ev < k * eps * ev[:, -1:]] = 0.0
        det[suspect] = ev.prod(axis=1)
    return det


def edge_prod_sq(d2: np.ndarray, i: int) -> np.ndarray:
    """prod_{j != i} |x_i - x_j|^2 per tuple."""
    col = d2[:, i, :].copy()
    col[:, i] = 1.0
    return col.prod(axis=1)


def psin_sq_at(T: np.ndarray, i: int, d2: np.ndarray | None = None) -> np.ndarray:
    """Squared polar sine at vertex i per tuple, 0 on coinciding coordinates."""
    if d2 is None:
        d2 = pairwise_sq(T)
    num = content_sq(T, i)
    den = edge_prod_sq(d2, i)
    out = np.zeros(len(T))
    ok = den > 0.0
    out[ok] = num[ok] / den[ok]
    return out


def curvature_terms(T: np.ndarray) -> dict:
    """Everything the estimators need, per tuple.

    Returns a dict with
      diam2       (B,)   squared diameters
      min_sep2    (B,)   squared minimal pairwise separations
      psin2       (B, m) squared polar sines at every vertex
      content0_sq (B,)   squared Gram content at the base vertex x_0
      cd_sq       (B,)   c_d^2 in the canonical polar-sine form
      psin0_nrm   (B,)   psin^2_{x_0}(X) / diam^{d(d+1)}  (the decomposition integrand)
      cd_sq_vol   (B,)   volume form of c_d^2 (cross-check path)
    """
    B, m, _ = T.shape
    d = m - 2
    d2 = pairwise_sq(T)
    np.clip(d2, 0.0, None, out=d2)
    offdiag = ~np.eye(m, dtype=bool)
    diam2 = d2[:, offdiag].max(axis=1) if B else np.zeros(0)
    min_sep2 = d2[:, offdiag].min(axis=1) if B else np.zeros(0)

    vol2 = content_sq(T, 0)
    psin2 = np.empty((B, m))
    prods = np.empty((B, m))
    for i in range(m):
        prods[:, i] = edge_prod_sq(d2, i)
        num = vol2 if i == 0 else content_sq(T, i)
        ok = prods[:, i] > 0.0
        psin2[:, i] = 0.0
        psin2[ok, i] = num[ok] / prods[ok, i]

    # diam^{d(d+1)} = (diam^2)^{d(d+1)/2}; d(d+1)/2 is an integer
    half_exp = d * (d + 1) // 2
    denom = diam2**half_exp
    pos = denom > 0.0

    cd_sq = np.zeros(B)
    cd_sq[pos] = psin2[pos].sum(axis=1) / ((d + 2) * denom[pos])

    psin0_nrm = np.zeros(B)
    psin0_nrm[pos] = psin2[pos, 0] / denom[pos]

    inv = np.zeros((B, m))
    allpos = prods > 0.0
    inv[allpos] = 1.0 / prods[allpos]
    good = pos & allpos.all(axis=1)
    cd_sq_vol = np.zeros(B)
    cd_sq_vol[good] = vol2[good] * inv[good].sum(axis=1) / ((d + 2) * denom[good])

    return {
        "diam2": diam2,
        "min_sep2": min_sep2,
        "psin2": psin2,
        "content0_sq": vol2,
        "cd_sq": cd_sq,
        "psin0_nrm": psin0_nrm,
        "cd_sq_vol": cd_sq_vol,
    }


def psin_with_replacement(X: np.ndarray, ys: np.ndarray, i: int) -> np.ndarray:
    """psin^2_{x_0}(X(y, i)) for a batch of replacement points ys (n, D)."""
    n = len(ys)
    T = np.broadcast_to(X, (n,) + X.shape).copy()
    T[:, i, :] = ys
    return psin_sq_at(T, 0)


def affine_span_dist_sq(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Squared distances from xs[b] to the affine hull of points[b].

    points: (B, k, D), xs: (B, D).  Uses the pseudoinverse of the edge Gram
    matrix, so rank-deficient spanning sets (repeated or affinely dependent
    points) give the distance to the hull they actually span.  |v|^2 - v.proj(v)
    cancels on thin simplices; geometry.affine_hull_distance forms the
    residual vector instead.
    """
    v = xs - points[:, 0, :]
    E = points[:, 1:, :] - points[:, 0:1, :]
    if E.shape[1] == 0:
        return np.einsum("bk,bk->b", v, v)
    G = np.einsum("bik,bjk->bij", E, E)
    Ev = np.einsum("bik,bk->bi", E, v)
    sol = np.einsum("bij,bj->bi", np.linalg.pinv(G), Ev)
    out = np.einsum("bk,bk->b", v, v) - np.einsum("bi,bi->b", sol, Ev)
    return np.clip(out, 0.0, None)
