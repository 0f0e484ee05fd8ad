"""Curvature integrals over product measures, scale classification of
sampled simplices, concentration sets, and the separated-tuple ratio.

The continuous curvature c_d^2(mu|_Q) = int_{Q^{d+2}} c_d^2 dmu^{d+2} is
computed exactly (exhaustive sum over ordered index tuples) whenever
|supp /\\ Q|^{d+2} <= exact_threshold, else by Monte Carlo with the mass
factor mu(Q)^{d+2}.  Sampling uses one seeded generator consumed
identically regardless of any separation filter, so U_lambda estimates at
different lambda share a sample stream and are monotone by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _batch, geometry
from .measure import Ball, WeightedPointCloud
from .planes import beta2

EXACT_TUPLE_LIMIT = 10_000_000
_CHUNK = 1 << 18


@dataclass(frozen=True)
class MCEstimate:
    """Estimate of a (d+2)-tuple integral.

    mean is the per-tuple average under the normalised restricted measure;
    the integral estimate is mean * mass_factor with
    mass_factor = mu(Q)^{d+2}.  std_error lives on the mean scale.
    """

    mean: float
    std_error: float
    n_samples: int
    mass_factor: float
    exact: bool
    details: dict = field(default_factory=dict)

    @property
    def estimate(self) -> float:
        return self.mean * self.mass_factor

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "std_error": self.std_error * self.mass_factor,
            "n_samples": self.n_samples,
            "exact": self.exact,
        }


def _restricted(cloud: WeightedPointCloud, query: Ball | None) -> np.ndarray:
    if query is None:
        return np.arange(len(cloud))
    idx = cloud.in_ball(query)
    if len(idx) == 0:
        raise ValueError("query ball holds no support points")
    return idx


def _tuple_values(points: np.ndarray, sep_floor: float | None) -> np.ndarray:
    """c_d^2 per tuple, with the optional separation indicator applied."""
    terms = _batch.curvature_terms(points)
    vals = terms["cd_sq"]
    if sep_floor is not None:
        vals = np.where(terms["min_sep2"] >= sep_floor**2, vals, 0.0)
    return vals


def continuous_curvature_sq(
    cloud: WeightedPointCloud,
    query: Ball | None,
    d: int,
    n_samples: int = 100_000,
    seed: int = 0,
    mode: str = "auto",
    lam: float | None = None,
    exact_threshold: int = EXACT_TUPLE_LIMIT,
) -> MCEstimate:
    """c_d^2(mu|_Q), optionally restricted to the separated region U_lambda(Q).

    mode: "auto" picks exhaustive summation when the tuple count
    m^{d+2} <= exact_threshold, "exact"/"mc" force a path.  lam (with a
    ball query) keeps only tuples whose minimal pairwise distance is at
    least lam * radius(Q).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if lam is not None and query is None:
        raise ValueError("a separation parameter needs a ball query")
    idx = _restricted(cloud, query)
    m = len(idx)
    arity = d + 2
    pts = cloud.points[idx]
    w = cloud.weights[idx]
    sep_floor = None if lam is None else lam * query.radius

    total_tuples = m**arity
    use_exact = mode == "exact" or (mode == "auto" and total_tuples <= exact_threshold)
    if mode not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")

    mass = float(w.sum())
    factor = mass**arity

    if use_exact:
        acc = 0.0
        for lo in range(0, total_tuples, _CHUNK):
            flat = np.arange(lo, min(lo + _CHUNK, total_tuples))
            ti = np.stack(np.unravel_index(flat, (m,) * arity), axis=1)
            vals = _tuple_values(pts[ti], sep_floor)
            acc += float(np.sum(vals * np.prod(w[ti], axis=1)))
        return MCEstimate(
            mean=acc / factor, std_error=0.0, n_samples=total_tuples, mass_factor=factor, exact=True
        )

    rng = np.random.default_rng(seed)
    p = w / w.sum()
    s = 0.0
    s2 = 0.0
    done = 0
    while done < n_samples:
        take = min(_CHUNK, n_samples - done)
        ti = rng.choice(m, size=(take, arity), p=p)
        vals = _tuple_values(pts[ti], sep_floor)
        s += float(vals.sum())
        s2 += float((vals * vals).sum())
        done += take
    mean = s / n_samples
    var = max(s2 / n_samples - mean * mean, 0.0)
    se = math.sqrt(var / n_samples)
    return MCEstimate(mean=mean, std_error=se, n_samples=n_samples, mass_factor=factor, exact=False)


def curvature_over_Ulambda(
    cloud: WeightedPointCloud,
    ball: Ball,
    lam: float,
    d: int,
    n_samples: int = 100_000,
    seed: int = 0,
    mode: str = "auto",
) -> MCEstimate:
    """int over U_lambda(B) of c_d^2: tuples in B^{d+2} with minimal pairwise
    distance >= lam * radius(B).  lam > 2 leaves an empty region."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return continuous_curvature_sq(cloud, ball, d, n_samples=n_samples, seed=seed, mode=mode, lam=lam)


@dataclass(frozen=True)
class ScaleClass:
    """Scale classification of a simplex at its base vertex."""

    kind: str  # "well_scaled" | "scaled"
    k: int
    p: int
    scale: float
    handle_indices: tuple

    @property
    def n_handles(self) -> int:
        return len(self.handle_indices)


def handle_indices(X, k: int, alpha0: float) -> tuple:
    """Coordinates i >= 1 whose edge ratio |x_i - x_0| / max_at0 exceeds
    alpha0^k.  At k = 0 the threshold degenerates to 1, so the coordinates
    attaining the maximum count as handles (the maximal edge is always one)."""
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X[1:] - X[0], axis=1)
    ratios = norms / norms.max()
    if k == 0:
        hit = ratios >= 1.0
    else:
        hit = ratios > alpha0**k
    return tuple(int(i) + 1 for i in np.nonzero(hit)[0])


def _scale_level(s: float, alpha0: float) -> int:
    """Unique k with alpha0^{k+1} < s <= alpha0^k, patched for floats."""
    k = int(math.floor(math.log(s) / math.log(alpha0)))
    while alpha0**k < s:
        k -= 1
    while alpha0 ** (k + 1) >= s:
        k += 1
    return k


def classify_scale(X, alpha0: float, p: int = 1) -> ScaleClass:
    """Classify X at x_0: well-scaled (scale > alpha0^3) or the S_{k,p} cell.

    For p = 1 the cell index k is unique and the cells partition the
    poorly-scaled simplices; for p = 2 the smallest admissible k is
    returned (cells overlap by construction).
    """
    if p not in (1, 2):
        raise ValueError("tolerance p must be 1 or 2")
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X[1:] - X[0], axis=1)
    mx = norms.max()
    if mx == 0.0:
        raise ValueError("degenerate simplex: all coordinates at the base vertex")
    s = float(norms.min() / mx)
    if s == 0.0:
        raise ValueError("degenerate simplex: a coordinate coincides with the base vertex")
    if s > alpha0**3:
        return ScaleClass(kind="well_scaled", k=0, p=3, scale=s, handle_indices=())
    k = _scale_level(s, alpha0)
    if p == 2 and k >= 1:
        k -= 1
    return ScaleClass(kind="scaled", k=k, p=p, scale=s, handle_indices=handle_indices(X, k, alpha0))


def concentration_set_member(X, i: int, j: int, y, C: float) -> bool:
    """True when y lands in U_C(X, i, j), i.e.
    psin_{x_0}(X) <= C (psin_{x_0}(X(y,i)) + psin_{x_0}(X(y,j)))."""
    lhs = geometry.polar_sine(X, 0)
    rhs = geometry.polar_sine(geometry.replace_coordinate(X, y, i), 0) + geometry.polar_sine(
        geometry.replace_coordinate(X, y, j), 0
    )
    return lhs <= C * rhs


def concentration_fraction(
    cloud: WeightedPointCloud, X, i: int, j: int, radius: float, C: float
) -> dict:
    """Mass fraction of U_C(X, i, j) within B(x_0, radius).

    Exact weighted scan over the support; support points coinciding with
    a tuple coordinate simply fail the membership test, which is the
    discrete counterpart of the degenerate null set.
    """
    X = np.asarray(X, dtype=float)
    ball = Ball(X[0], radius)
    idx = cloud.in_ball(ball)
    if len(idx) == 0:
        return {"fraction": 0.0, "ball_mass": 0.0, "n_candidates": 0}
    ys = cloud.points[idx]
    w = cloud.weights[idx]
    lhs = geometry.polar_sine(X, 0)
    rhs = np.sqrt(_batch.psin_with_replacement(X, ys, i)) + np.sqrt(
        _batch.psin_with_replacement(X, ys, j)
    )
    member = lhs <= C * rhs
    return {
        "fraction": float(w[member].sum() / w.sum()),
        "ball_mass": float(w.sum()),
        "n_candidates": int(len(idx)),
    }


def decomposition_check(
    cloud: WeightedPointCloud,
    query: Ball | None,
    d: int,
    alpha0: float,
    n_samples: int = 20_000,
    seed: int = 0,
    k_max: int = 20,
) -> dict:
    """Estimate int psin^2_{x_0}/diam^{d(d+1)} split by scale class.

    Every sampled tuple lands in exactly one bucket (well-scaled, one
    (k, n) cell with p = 1, a k > k_max tail, or degenerate with integrand
    0), so the bucket totals sum to the unrestricted estimator on the same
    stream; totals are exactly-rounded sums, making the equality bitwise.
    The (k, n) cells also record the canonical-handle-position estimate,
    i.e. the cell total divided by the binomial weight C(d+1, n).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    idx = _restricted(cloud, query)
    pts = cloud.points[idx]
    w = cloud.weights[idx]
    p = w / w.sum()
    mass = float(w.sum())
    arity = d + 2
    rng = np.random.default_rng(seed)

    a3 = alpha0**3
    buckets: dict = {}
    all_vals: list[np.ndarray] = []
    done = 0
    while done < n_samples:
        take = min(_CHUNK, n_samples - done)
        ti = rng.choice(len(idx), size=(take, arity), p=p)
        T = pts[ti]
        terms = _batch.curvature_terms(T)
        vals = terms["psin0_nrm"]
        all_vals.append(vals)

        edges = T[:, 1:, :] - T[:, 0:1, :]
        norms = np.sqrt(np.einsum("bik,bik->bi", edges, edges))
        mx = norms.max(axis=1)
        mn = norms.min(axis=1)
        degen = (mx == 0.0) | (mn == 0.0) | (terms["min_sep2"] == 0.0)
        scale = np.where(degen, 1.0, mn / np.where(mx == 0.0, 1.0, mx))

        labels = np.empty(take, dtype=object)
        labels[degen] = "degenerate"
        well = ~degen & (scale > a3)
        labels[well] = "well_scaled"
        rest = np.nonzero(~degen & ~well)[0]
        for r in rest:
            k = _scale_level(float(scale[r]), alpha0)
            if k > k_max:
                labels[r] = "tail"
            else:
                n = len(handle_indices(T[r], k, alpha0))
                labels[r] = f"k={k},n={n}"
        label_list = labels.tolist()
        for lab in set(label_list):
            sel = np.fromiter((l == lab for l in label_list), dtype=bool, count=take)
            buckets.setdefault(lab, []).append(vals[sel])
        done += take

    total = math.fsum(np.concatenate(all_vals).tolist())
    bucket_sums = {lab: math.fsum(np.concatenate(chunks).tolist()) for lab, chunks in buckets.items()}
    recombined = math.fsum(
        v for chunks in buckets.values() for arr in chunks for v in arr.tolist()
    )
    factor = mass**arity / n_samples

    cells = {}
    for lab, ssum in bucket_sums.items():
        entry = {"sum": ssum, "estimate": ssum * factor}
        if lab.startswith("k="):
            n = int(lab.split("n=")[1])
            entry["binomial_weight"] = math.comb(d + 1, n)
            entry["canonical_cell_estimate"] = ssum * factor / math.comb(d + 1, n)
        cells[lab] = entry

    return {
        "total_estimate": total * factor,
        "classes": cells,
        "exact_partition": recombined == total,
        "n_samples": n_samples,
    }


def prop11_ratio(
    cloud: WeightedPointCloud,
    center,
    t: float,
    lam: float,
    d: int,
    n_samples: int = 100_000,
    seed: int = 0,
    mode: str = "auto",
) -> dict:
    """LHS / (beta_2^2(x,t) mu(B(x,t))) with LHS the curvature integral over
    the lam-separated tuples of B(x,t).

    Returns ratio None with a flag when the denominator vanishes while the
    numerator does not (a flat measure with curved noise would do this);
    both sides zero gives ratio 0.
    """
    ball = Ball(center, t)
    est = curvature_over_Ulambda(cloud, ball, lam, d, n_samples=n_samples, seed=seed, mode=mode)
    res = beta2(cloud, ball, d)
    b2sq = res.value**2
    mass = res.mass
    denom = b2sq * mass
    out = {
        "lhs": est.estimate,
        "rhs": denom,
        "std_error": est.std_error * est.mass_factor,
        "exact": est.exact,
        "beta2sq": b2sq,
        "mass": mass,
        "lambda": lam,
        "flag": None,
    }
    if denom > 0.0:
        out["ratio"] = est.estimate / denom
    elif est.estimate == 0.0:
        out["ratio"] = 0.0
        out["flag"] = "zero_over_zero"
    else:
        out["ratio"] = None
        out["flag"] = "denominator_zero"
    return out
