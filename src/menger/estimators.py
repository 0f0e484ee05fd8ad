"""Curvature integrals over product measures, scale classification of
sampled simplices, concentration sets, and the separated-tuple ratio.

The continuous curvature c_d^2(mu|_Q) = int_{Q^{d+2}} c_d^2 dmu^{d+2} is
computed exactly (exhaustive sum over ordered index tuples) whenever
|supp /\\ Q|^{d+2} <= EXACT_TUPLE_LIMIT, else by Monte Carlo with the mass
factor mu(Q)^{d+2}.  Sampling uses one seeded generator consumed
identically regardless of any separation filter, so U_lambda estimates at
different lambda share a sample stream and are monotone by construction.
The stream is Generator.choice's, index for index, with the inverse-CDF
search read off a guide table (_tuple_stream).  The Monte Carlo path
hands each chunk of index tuples, with the restricted points as their
table, to _batch.cd_sq, which gathers each tuple's points block by block,
computes c_d^2 alone and drops a tuple below the separation floor before
its Gram determinants; no coordinate stack of the chunk is built.

The exact path is one call, _batch.ordered_cd_sq_sum, which sums the
ordered tuples _CHUNK at a time in flat order.  It factors each distinct
Gram matrix once, off one dot table per base point, into a polar-sine
table (base vertex) of every ordered tuple that each vertex reads through
a view, with the per-tuple kernel's bits.  The table costs 8 B per ordered
tuple: 134 MB for a forced-exact level-4 Cantor cloud (256^3 tuples); a
forced exact sum whose table would exceed EXACT_TABLE_BYTES is refused.
On the exact path a tuple below the separation floor costs no determinant.

Both paths, and decomposition_check, enter through one argument check
(_restricted): d >= 1, n_samples >= 1, a ball that holds support points,
and points whose scale keeps c_d^2 in the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _batch, geometry
from .measure import Ball, WeightedPointCloud, _level, _power, _powers
from .planes import beta2

EXACT_TUPLE_LIMIT = 10_000_000
# Largest polar-sine table (8 B per ordered tuple) an exact sum may build: the
# auto path stays below it, a forced mode="exact" above it raises.
EXACT_TABLE_BYTES = 1 << 30
_CHUNK = 1 << 18
# _tuple_stream draws and looks up this many rows of uniforms at a time, and
# settles a key by this many guide-table comparisons before a binary search.
_DRAW_ROWS = 1 << 13
_GUIDE_STEPS = 2
# decomposition_check pools the levels k > K_MAX into one "tail" class.
K_MAX = 20


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


def _tuple_stream(weights: np.ndarray, arity: int, n_samples: int, seed: int):
    """n_samples index tuples drawn i.i.d. from the normalised weights, in
    chunks of at most _CHUNK rows, from one generator seeded with seed.

    Each chunk is rng.choice(len(p), size=(rows, arity), p=p), and the
    generator ends in the state choice leaves: the same p, cdf and
    uniforms, drawn _DRAW_ROWS rows at a time (consecutive rng.random calls
    return the doubles of one call).  Only the inverse-CDF search differs:
    choice's cdf.searchsorted(u, side="right"), the count of cdf entries
    <= u, is read off a guide table (Chen & Asau 1974; Devroye 1986, ch. III).

    G is the least power of two >= m, so j = floor(u G) and j / G are
    exact, and guide[j] counts the cdf entries <= j / G.  A key u in
    [j / G, (j + 1) / G) has its count in [guide[j], guide[j + 1]]; the cdf
    is nondecreasing, so each comparison u >= cdf[i] at the running count
    i steps it up by one until it stops.  _GUIDE_STEPS comparisons against
    a cdf padded with +inf settle every key in a bucket at most that wide;
    keys in wider buckets go to searchsorted.
    """
    rng = np.random.default_rng(seed)
    p = weights / weights.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    size = 1 << (len(cdf) - 1).bit_length()
    guide = cdf.searchsorted(np.arange(size + 1) / size, side="right")
    wide = np.diff(guide) > _GUIDE_STEPS
    padded = np.concatenate([cdf, np.full(_GUIDE_STEPS, np.inf)])
    for lo in range(0, n_samples, _CHUNK):
        rows = min(_CHUNK, n_samples - lo)
        out = np.empty((rows, arity), dtype=np.int64)
        for r in range(0, rows, _DRAW_ROWS):
            u = rng.random(min(_DRAW_ROWS, rows - r) * arity)
            j = (u * size).astype(np.intp)
            idx = guide.take(j)
            for _ in range(_GUIDE_STEPS):
                idx += padded.take(idx) <= u
            far = wide.take(j)
            if far.any():
                idx[far] = cdf.searchsorted(u[far], side="right")
            out[r : r + len(u) // arity] = idx.reshape(-1, arity)
        yield out


def _mass_factor(w: np.ndarray, arity: int) -> float:
    """mu(Q)^{d+2} of the restricted weights; a factor that overflows or
    falls below the smallest normal float is refused rather than carried
    as +inf, 0 or a subnormal into every estimate."""
    factor = _power(float(w.sum()), arity)
    if factor == math.inf:
        raise ValueError(f"the mass factor mu(Q)^{arity} overflows a float; rescale the weights")
    if factor < np.finfo(float).tiny:
        raise ValueError(
            f"the mass factor mu(Q)^{arity} underflows the smallest normal float; rescale the weights"
        )
    return factor


def _check_extent(pts: np.ndarray, d: int) -> None:
    """Refuse points whose c_d^2 leaves the float range at their own scale.

    The kernel forms Gram determinants and edge products of d+1 squared
    lengths and diam^{d(d+1)} = (diam^2)^{d(d+1)/2}.  So unless every point
    coincides (every tuple then gives 0), the squared extent of the points
    (the squared diagonal of their bounding box) raised to max(d+1,
    d(d+1)/2) must be a finite normal float; otherwise the estimate comes
    out 0 or NaN.
    """
    span = pts.max(axis=0) - pts.min(axis=0)
    if not span.any():
        return
    extent2 = float((span * span).sum())
    power = max(d + 1, d * (d + 1) // 2)
    if not np.finfo(float).tiny <= _power(extent2, power) < math.inf:
        raise ValueError(
            f"the query's points have squared extent {extent2!r}, whose power {power} leaves the "
            f"normal float range, so c_{d}^2 would overflow or underflow; rescale the coordinates"
        )


def _restricted(
    cloud: WeightedPointCloud, query: Ball | None, d: int, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """The points and weights of the cloud inside the query ball (all of
    them without one), behind the entry checks that the tuple estimators
    share: d >= 1, n_samples >= 1, a ball that holds support points, and
    points whose scale keeps c_d^2 in the float range (_check_extent)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    idx = np.arange(len(cloud)) if query is None else cloud.in_ball(query)
    if len(idx) == 0:
        raise ValueError("query ball holds no support points")
    pts = cloud.points[idx]
    _check_extent(pts, d)
    return pts, cloud.weights[idx]


def continuous_curvature_sq(
    cloud: WeightedPointCloud,
    query: Ball | None,
    d: int,
    n_samples: int = 100_000,
    seed: int = 0,
    mode: str = "auto",
    lam: float | None = None,
) -> MCEstimate:
    """c_d^2(mu|_Q), optionally restricted to the separated region U_lambda(Q).

    mode: "auto" picks exhaustive summation when the tuple count
    m^{d+2} <= EXACT_TUPLE_LIMIT, "exact"/"mc" force a path; "exact" raises
    ValueError when its polar-sine table would exceed EXACT_TABLE_BYTES.  lam
    (with a ball query) keeps only tuples whose minimal pairwise distance
    is at least lam * radius(Q); it must be >= 0, and any lam > 2
    (+inf included) empties the region.  Points whose scale puts c_d^2
    out of the float range raise ValueError (_check_extent).  Every
    argument is checked before the cloud is read.
    """
    if mode not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    if lam is not None and query is None:
        raise ValueError("a separation parameter needs a ball query")
    if lam is not None and not lam >= 0.0:  # NaN fails every comparison
        raise ValueError(f"lambda must be a nonnegative number, got {lam!r}")
    pts, w = _restricted(cloud, query, d, n_samples)
    m = len(pts)
    arity = d + 2
    # a floor whose square overflows is +inf: no tuple of finite points is
    # that far apart, so the separated region is empty
    floor2 = None if lam is None else _power(lam * query.radius, 2)
    factor = _mass_factor(w, arity)

    total_tuples = m**arity
    if mode == "exact" or (mode == "auto" and total_tuples <= EXACT_TUPLE_LIMIT):
        if 8 * total_tuples > EXACT_TABLE_BYTES:
            raise ValueError(
                f"an exact sum over {m}^{arity} ordered tuples needs a polar-sine table of "
                f"{8 * total_tuples / 2**30:.1f} GiB, over the {EXACT_TABLE_BYTES / 2**30:g} GiB "
                "bound; use mode='mc'"
            )
        mean = _batch.ordered_cd_sq_sum(pts, w, arity, floor2, _CHUNK) / factor
        return MCEstimate(mean=mean, std_error=0.0, n_samples=total_tuples, mass_factor=factor, exact=True)

    s = 0.0
    s2 = 0.0
    for ti in _tuple_stream(w, arity, n_samples, seed):
        vals = _batch.cd_sq(pts, ti, floor2)
        s += float(vals.sum())
        s2 += float((vals * vals).sum())
    mean = s / n_samples
    var = max(s2 / n_samples - mean * mean, 0.0)
    se = math.sqrt(var / n_samples)
    return MCEstimate(mean=mean, std_error=se, n_samples=n_samples, mass_factor=factor, exact=False)


@dataclass(frozen=True)
class ScaleClass:
    """Scale classification of a simplex at its base vertex."""

    kind: str  # "well_scaled" | "scaled"
    k: int
    handle_indices: tuple


def scale_classes(T, alpha0: float, level=None):
    """Scale class at x_0 of every tuple of a (B, m, D) stack: the edge
    lengths |x_i - x_0| (B, m-1), the scale min/max of them (0 if an edge
    vanishes), the level k with alpha0^{k+1} < scale <= alpha0^k (-1 at
    scale 0) and the handle mask (B, m-1) of handle_indices at level k.

    The level is measure._level of the scale, and every alpha0^k is
    measure._power, so levels and handles match the scalar definition bit
    for bit.  A given level ((B,) ints) sets the k of the handles and is
    returned as the level.
    """
    if not 0.0 < alpha0 < 1.0:
        raise ValueError("alpha0 must lie in (0, 1)")
    T = np.asarray(T, dtype=float)
    norms = geometry._edge_lengths_at0(T)
    mx = norms.max(axis=1)
    mx[mx == 0.0] = 1.0  # every norm is 0 there, so scale and ratios come out 0
    scale = norms.min(axis=1) / mx
    ok = scale > 0.0
    if level is None:
        level = np.full(len(T), -1)
        level[ok] = _level(scale[ok], alpha0)
    level = np.asarray(level)
    ratios = norms / mx[:, None]
    handles = np.where(level[:, None] == 0, ratios >= 1.0, ratios > _powers(alpha0, level)[:, None])
    return norms, scale, level, handles


def handle_indices(X, k: int, alpha0: float) -> tuple:
    """Coordinates i >= 1 whose edge ratio |x_i - x_0| / max_at0 exceeds
    alpha0^k.  At k = 0 the threshold degenerates to 1, so the coordinates
    attaining the maximum count as handles (the maximal edge is always one)."""
    handles = scale_classes(np.asarray(X, dtype=float)[None], alpha0, level=[k])[3][0]
    return tuple(int(i) + 1 for i in np.nonzero(handles)[0])


def classify_scale(X, alpha0: float) -> ScaleClass:
    """Classify X at x_0: well-scaled (scale > alpha0^3) or the S_{k,1}
    cell, whose index k is unique: the cells partition the poorly-scaled
    simplices."""
    X = np.asarray(X, dtype=float)
    norms, scale, level, handles = scale_classes(X[None], alpha0)
    if norms.max() == 0.0:
        raise ValueError("degenerate simplex: all coordinates at the base vertex")
    s = float(scale[0])
    if s == 0.0:
        raise ValueError("degenerate simplex: a coordinate coincides with the base vertex")
    if s > alpha0**3:
        return ScaleClass(kind="well_scaled", k=0, handle_indices=())
    return ScaleClass(kind="scaled", k=int(level[0]), handle_indices=tuple(int(i) + 1 for i in np.nonzero(handles[0])[0]))


def concentration_test(X, i: int, j: int, C: float):
    """The membership mask of a batch ys (n, D) in the concentration set
    U_C(X, i, j) = {y : psin_{x_0}(X) <= C (psin_{x_0}(X(y,i)) + psin_{x_0}(X(y,j)))},
    as a function of ys; psin_{x_0}(X) is evaluated once, here.  Like
    replace_coordinate, it needs 1 <= i, j <= m-1.
    """
    X = geometry.as_tuple_array(X)
    for r in (i, j):
        if not 1 <= r < len(X):
            raise IndexError(f"replacement index must satisfy 1 <= i <= {len(X) - 1}, got {r}")
    lhs = geometry.polar_sine(X, 0)

    def member(ys) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        rhs = np.sqrt(_batch.psin_with_replacement(X, ys, i)) + np.sqrt(_batch.psin_with_replacement(X, ys, j))
        return lhs <= C * rhs

    return member


def concentration_fraction(
    cloud: WeightedPointCloud, X, i: int, j: int, radius: float, C: float
) -> dict:
    """Mass fraction of U_C(X, i, j) within B(x_0, radius).

    Exact weighted scan over the support; support points coinciding with
    a tuple coordinate simply fail the membership test, which is the
    discrete counterpart of the degenerate null set.
    """
    member = concentration_test(X, i, j, C)
    idx = cloud.in_ball(Ball(np.asarray(X, dtype=float)[0], radius))
    if len(idx) == 0:
        return {"fraction": 0.0, "ball_mass": 0.0, "n_candidates": 0}
    w = cloud.weights[idx]
    return {
        "fraction": float(w[member(cloud.points[idx])].sum() / w.sum()),
        "ball_mass": float(w.sum()),
        "n_candidates": int(len(idx)),
    }


# Class codes of decomposition_check; a (k, n) cell has code k (d+2) + n >= 0.
_DEGENERATE, _WELL_SCALED, _TAIL = -3, -2, -1
_CLASS_NAMES = {_DEGENERATE: "degenerate", _WELL_SCALED: "well_scaled", _TAIL: "tail"}


def decomposition_check(
    cloud: WeightedPointCloud,
    query: Ball | None,
    d: int,
    alpha0: float,
    n_samples: int = 20_000,
    seed: int = 0,
) -> dict:
    """Estimate int psin^2_{x_0}/diam^{d(d+1)} split by scale class.

    Every sampled tuple lands in exactly one class: well-scaled, one
    (k, n) cell with p = 1, the tail of levels k > K_MAX, or degenerate
    with integrand 0.  So the class totals sum to the unrestricted
    estimator on the same stream; totals are exactly-rounded sums, making
    the equality bitwise.  The (k, n) cells also record the
    canonical-handle-position estimate, i.e. the cell total divided by the
    binomial weight C(d+1, n).  d, n_samples, the query and the scale of
    its points are refused as continuous_curvature_sq refuses them.
    """
    pts, w = _restricted(cloud, query, d, n_samples)
    arity = d + 2
    mass_factor = _mass_factor(w, arity)

    vals = []
    codes = []
    for ti in _tuple_stream(w, arity, n_samples, seed):
        T = pts.take(ti, axis=0)
        terms = _batch.curvature_terms(T)
        _, scale, level, handles = scale_classes(T, alpha0)
        code = level * arity + handles.sum(axis=1)
        code[level > K_MAX] = _TAIL
        code[scale > alpha0**3] = _WELL_SCALED
        code[(scale == 0.0) | (terms["min_sep2"] == 0.0)] = _DEGENERATE
        vals.append(terms["psin0_nrm"])
        codes.append(code)
    vals = np.concatenate(vals)
    codes = np.concatenate(codes)
    groups = {int(c): vals[codes == c] for c in np.unique(codes)}

    total = math.fsum(vals.tolist())
    recombined = math.fsum(np.concatenate(list(groups.values())).tolist())
    factor = mass_factor / n_samples
    cells = {}
    for c, group in groups.items():
        ssum = math.fsum(group.tolist())
        entry = {"sum": ssum, "estimate": ssum * factor}
        if c < 0:
            cells[_CLASS_NAMES[c]] = entry
            continue
        k, n = divmod(c, arity)
        entry["binomial_weight"] = math.comb(d + 1, n)
        entry["canonical_cell_estimate"] = ssum * factor / math.comb(d + 1, n)
        cells[f"k={k},n={n}"] = entry

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
    est = continuous_curvature_sq(cloud, ball, d, n_samples=n_samples, seed=seed, mode=mode, lam=lam)
    res = beta2(cloud, ball, d)
    b2sq = res.value**2
    mass = res.mass
    denom = b2sq * mass
    out = {
        "lhs": est.estimate,
        "rhs": denom,
        "std_error": est.to_dict()["std_error"],
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
