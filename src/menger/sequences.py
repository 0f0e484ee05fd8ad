"""Interpolating sequences for poorly-scaled simplices.

A simplex with one long edge (handle) and short edges (tines) at its base
vertex is bridged to well-scaled simplices through auxiliary points placed
in prescribed annuli: the well-scaled sequence swaps one point per step
(k*d steps plus a closing element), the rake tree splits an n-handled
simplex into 2^{n-1} single-handled leaves.  Membership in the augmented
sets (two-term polar sine inequalities along the construction) forces the
multiscale inequalities, which is what the verification harness checks.

Constructors are generic over coordinate type: rows of an array, or any
opaque labels (symbols), which the golden tests use.  Sizes come from the
tuples, checked where they enter (ValueError): a simplex X = (x_0, ...,
x_{d+1}) sets d = len(X) - 2, a well-scaled piece Y of k*d points sets k,
and a short-scale piece Z of 2^{n-1} - 1 points sets the handle count n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import classify_scale, concentration_test, handle_indices, scale_classes
from .geometry import as_tuple_array, max_at0, min_at0, polar_sine, replace_coordinate, scale_at0
from .measure import Ball, WeightedPointCloud, _sq_dists


# Draws per step before a piece sampler gives up, and fresh bases before
# sample_scaled_simplex does.
PIECE_ATTEMPTS = 64
SIMPLEX_ATTEMPTS = 32
# Relative slack of the scale-lemma bounds (BOUND_RTOL) and of the chained
# polar-sine inequalities (CHAIN_RTOL).
BOUND_RTOL = 1e-9
CHAIN_RTOL = 1e-12


class PieceSamplingError(RuntimeError):
    """Rejection sampling of an auxiliary piece failed; carries why."""

    def __init__(self, reason: str, q: int | None = None):
        super().__init__(reason if q is None else f"{reason} (step q={q})")
        self.reason = reason
        self.q = q


# ---------------------------------------------------------------------------
# constants


@dataclass(frozen=True)
class Constants:
    Cp: float
    alpha0: float


def constants(d: int, Cmu: float = 1.0) -> Constants:
    """The pair (C_p, alpha0) used throughout the multiscale machinery.

    C_p = 1 for d = 1, else sqrt(5) pi^2 / (4 asin(2^{-(5d/2+1)} / Cmu^2)).
    alpha0 = min(1/(2 C_p^2), (1/(4 Cmu^2))^{1/d}).  The minimum lands on
    the second branch for d = 1 (Cmu >= 1 gives 1/(4 Cmu^2) <= 1/4 < 1/2)
    and on the first for d > 1: asin(t) <= (pi/2) t makes 1/(2 C_p^2) of
    order 2^{-5d} / Cmu^4, far below (4 Cmu^2)^{-1/d} (the ratio stays
    under 1e-5 for d = 2..6, Cmu in [1, 1e4]).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if Cmu < 1:
        raise ValueError("Cmu must be >= 1")
    if d == 1:
        return Constants(1.0, 1.0 / (4.0 * Cmu * Cmu))
    cp = math.sqrt(5.0) * math.pi**2 / (4.0 * math.asin(2.0 ** -(5.0 * d / 2.0 + 1.0) / Cmu**2))
    return Constants(cp, 1.0 / (2.0 * cp * cp))


def short_scale_size(n: int) -> int:
    """Auxiliary point count of a rake tree of depth n-1: 2^{n-1} - 1."""
    return 2 ** (n - 1) - 1


def bar_index(a: int, d: int) -> int:
    """The unique element of {2, ..., d+1} congruent to a mod d."""
    return 2 + (a - 2) % d


def _dim(X) -> int:
    """d of a simplex X = (x_0, ..., x_{d+1}): len(X) - 2, at least 1."""
    if len(X) < 3:
        raise ValueError(f"simplex needs d+2 >= 3 coordinates, got {len(X)}")
    return len(X) - 2


def _check_handles(n: int, d: int) -> None:
    if not 1 < n <= d:
        raise ValueError(f"handle count must satisfy 1 < n <= d = {d}, got n = {n}")


# ---------------------------------------------------------------------------
# well-scaled sequences


def auxiliary_sequence(X, Y) -> list:
    """The auxiliary sequence: X_tilde_0 = X, then each step replaces the
    cyclically-chosen coordinate bar(q+1) in {2,...,d+1} with y_q.

    d = len(X) - 2 and k = len(Y) / d.  Returns [X_tilde_0, ..., X_tilde_{kd}]
    as tuples.
    """
    X, Y = tuple(X), tuple(Y)
    d = _dim(X)
    if len(Y) == 0 or len(Y) % d != 0:
        raise ValueError(f"piece must hold a positive multiple of d = {d} points, got {len(Y)}")
    seq = [X]
    for q, y in enumerate(Y, 1):
        seq.append(_well_scaled_step(seq[-1], y, q, d))
    return seq


def _well_scaled_step(prev, y, q: int, d: int):
    """X_tilde_q from X_tilde_{q-1}: y_q replaces coordinate bar(q+1)."""
    return replace_coordinate(prev, y, bar_index(q + 1, d))


def well_scaled_sequence(X, Y) -> list:
    """The well-scaled sequence X_1, ..., X_{kd+1}, kd = len(Y): X_q replaces
    coordinate 1 of the previous auxiliary element by y_q; the closing
    element X_{kd+1} is the last auxiliary element itself.
    """
    aux = auxiliary_sequence(X, Y)
    return [replace_coordinate(prev, y, 1) for prev, y in zip(aux, tuple(Y))] + [aux[-1]]


def well_scaled_bound_report(seq, X, k: int, alpha0: float) -> list:
    """Scale-lemma violations of a well-scaled sequence at class level k;
    empty when clean.  d = len(X) - 2, and seq must hold kd+1 elements.

    For q <= kd:  alpha0^{k+1-ceil(q/d)} max_at0(X) < max_at0(X_q)
                  <= alpha0^{k-ceil(q/d)} max_at0(X);
    the closing element keeps max_at0 = max_at0(X) and has
    min_at0 > alpha0 max_at0(X); and every element is well-scaled at x_0.
    """
    X = np.asarray(X, dtype=float)
    d = _dim(X)
    mx = max_at0(X)
    kd = k * d
    if len(seq) != kd + 1:
        raise ValueError(f"sequence must hold kd+1 = {kd + 1} elements")
    failures = []
    for q in range(1, kd + 1):
        Xq = as_tuple_array(seq[q - 1])
        mq = max_at0(Xq)
        c = math.ceil(q / d)
        lo = alpha0 ** (k + 1 - c) * mx
        hi = alpha0 ** (k - c) * mx
        if not (mq > lo * (1.0 - BOUND_RTOL)):
            failures.append((q, f"max_at0 {mq} not above {lo}"))
        if not (mq <= hi * (1.0 + BOUND_RTOL)):
            failures.append((q, f"max_at0 {mq} exceeds {hi}"))
        if not (scale_at0(Xq) > alpha0**3 * (1.0 - BOUND_RTOL)):
            failures.append((q, "element not well-scaled"))
    last = as_tuple_array(seq[-1])
    if not (min_at0(last) > alpha0 * mx * (1.0 - BOUND_RTOL)):
        failures.append((kd + 1, f"min_at0 {min_at0(last)} not above {alpha0 * mx}"))
    if abs(max_at0(last) - mx) > BOUND_RTOL * mx:
        failures.append((kd + 1, f"max_at0 {max_at0(last)} drifted from {mx}"))
    if not (scale_at0(last) > alpha0**3 * (1.0 - BOUND_RTOL)):
        failures.append((kd + 1, "closing element not well-scaled"))
    return failures


def is_in_augmented_set(X, Y, Cp: float) -> bool:
    """Membership in the augmented set: every step of the construction
    satisfies psin(X_tilde_{q-1}) <= Cp (psin(X_q) + psin(X_tilde_q)), i.e.
    y_q lies in U_Cp(X_tilde_{q-1}, 1, bar(q+1))."""
    aux = auxiliary_sequence(X, Y)
    d = _dim(aux[0])
    return all(
        concentration_test(aux[q - 1], 1, bar_index(q + 1, d), Cp)([Y[q - 1]])[0]
        for q in range(1, len(aux))
    )


def multiscale_inequality_check(X, Y, Cp: float):
    """The chained inequality psin^2(X) <= (kd+1) Cp^{2kd} sum_q psin^2(X_q),
    with kd = len(Y).

    Holds whenever is_in_augmented_set does; returns (ok, lhs, rhs).
    """
    lhs = polar_sine(X) ** 2
    pieces = well_scaled_sequence(X, Y)
    rhs = len(pieces) * Cp ** (2 * len(Y)) * sum(polar_sine(p) ** 2 for p in pieces)
    return lhs <= rhs * (1.0 + CHAIN_RTOL), lhs, rhs


# ---------------------------------------------------------------------------
# rake trees


def _rake_children(parent, z, n: int, j: int):
    """The (left, right) children of a level-j rake node: z replaces
    coordinate n-j on the left; on the right it replaces coordinate n-j-1,
    which then swaps places with coordinate n-j."""
    left = replace_coordinate(parent, z, n - j)
    right = list(replace_coordinate(parent, z, n - j - 1))
    right[n - j - 1], right[n - j] = right[n - j], right[n - j - 1]
    return left, tuple(right)


def rake_tree(X, Z) -> list:
    """The depth-(n-1) binary tree splitting an n-handled simplex, as its n
    levels; len(Z) = 2^{n-1} - 1 sets n.  Nodes are breadth first, 1-based:
    node i at level j takes z_i, and its children are nodes 2i and 2i+1.
    The left child has z_i in coordinate n-j; the right child has it in
    coordinate n-j-1, then swaps coordinates n-j-1 and n-j, so surviving
    handles stay in the leading positions.
    """
    X, Z = tuple(X), tuple(Z)
    n = (len(Z) + 1).bit_length()
    if len(Z) != short_scale_size(n):
        raise ValueError(f"piece must hold 2^(n-1)-1 points, got {len(Z)}")
    _check_handles(n, _dim(X))
    nodes = [X]
    for i, z in enumerate(Z, 1):
        nodes += _rake_children(nodes[i - 1], z, n, i.bit_length() - 1)
    return [nodes[2**j - 1 : 2 ** (j + 1) - 1] for j in range(n)]


def rake_sequence(X, Z) -> list:
    """The 2^{n-1} leaves of the rake tree, each a single-handled simplex."""
    return rake_tree(X, Z)[-1]


def is_in_overline_set(X, Z, Cp: float) -> bool:
    """Membership for the rake construction: each tree node has
    psin(parent) <= Cp (psin(left child) + psin(right child))."""
    nodes = [node for level in rake_tree(X, Z) for node in level]  # 1-based: i has children 2i, 2i+1
    return all(
        polar_sine(nodes[i - 1]) <= Cp * (polar_sine(nodes[2 * i - 1]) + polar_sine(nodes[2 * i]))
        for i in range(1, len(Z) + 1)
    )


def rake_inequality_check(X, Z, Cp: float):
    """psin^2(X) <= 2^{n-1} Cp^{2(n-1)} sum_s psin^2(X^s), with
    len(Z) = 2^{n-1} - 1; (ok, lhs, rhs)."""
    lhs = polar_sine(X) ** 2
    tree = rake_tree(X, Z)
    n = len(tree)
    rhs = 2 ** (n - 1) * Cp ** (2 * (n - 1)) * sum(polar_sine(leaf) ** 2 for leaf in tree[-1])
    return lhs <= rhs * (1.0 + CHAIN_RTOL), lhs, rhs


def rake_property_level(Xs, k: int, alpha0: float) -> int | None:
    """Smallest k' in [0, k-1] certifying the leaf as a single-handled
    simplex with tolerance p=2, or None."""
    Xs = as_tuple_array(Xs)
    _, scale, level, _ = scale_classes(Xs[None], alpha0)
    # alpha0^{k'+2} < scale <= alpha0^{k'} holds for k' = level - 1 and
    # k' = level only, and the handle count never falls from k' to k' + 1.
    kp = max(int(level[0]) - 1, 0)
    if scale[0] == 0.0 or kp >= k or len(handle_indices(Xs, kp, alpha0)) != 1:
        return None
    return kp


def check_rake_property(Xs, X, k: int, alpha0: float) -> bool:
    """Leaf lemma: the leaf never outgrows the parent's top edge and sits
    in a single-handled class at some level k' <= k-1."""
    Xs_arr = as_tuple_array(Xs)
    X_arr = as_tuple_array(X)
    if max_at0(Xs_arr) > max_at0(X_arr) * (1.0 + BOUND_RTOL):
        return False
    return rake_property_level(Xs_arr, k, alpha0) is not None


# ---------------------------------------------------------------------------
# annuli and conditional masses


def annulus_indices(cloud: WeightedPointCloud, center, r: float, level: int, alpha0: float) -> np.ndarray:
    """Support indices in A_level(center, r): alpha0^{level+1} r < dist <= alpha0^level r,
    from one scan of the cloud; the inner ball tests only the outer ball's rows."""
    idx = cloud.in_ball(Ball(center, alpha0**level * r))
    return idx[~Ball(center, alpha0 ** (level + 1) * r).contains(cloud.points.take(idx, axis=0))]


def annulus_conditional_mass(
    cloud: WeightedPointCloud, X_tilde_prev, q: int, k: int, Cp: float, alpha0: float
) -> float:
    """Mass of U_Cp(X_tilde_{q-1}, 1, bar(q+1)) inside the step-q annulus.

    The step-q annulus is A_{k-ceil(q/d)}(x_0, max_at0), with
    d = len(X_tilde_prev) - 2 and max_at0 taken from the truncation itself
    (the handle never moves, so it matches the original simplex).  Upper
    bound: the ball mass at the annulus' outer radius.  The claimed lower
    bound is half that ball mass; the harness compares against it.
    """
    Xp = as_tuple_array(X_tilde_prev)
    d = _dim(Xp)
    member = concentration_test(Xp, 1, bar_index(q + 1, d), Cp)
    idx = annulus_indices(cloud, Xp[0], max_at0(Xp), k - math.ceil(q / d), alpha0)
    if len(idx) == 0:
        return 0.0
    return float(cloud.weights[idx][member(cloud.points[idx])].sum())


# ---------------------------------------------------------------------------
# samplers (cloud-driven rejection sampling of augmented elements)


def _draw(rng, idx: np.ndarray, weights: np.ndarray) -> int:
    w = weights[idx]
    return int(rng.choice(idx, p=w / w.sum()))


def sample_well_scaled_piece(
    cloud: WeightedPointCloud,
    X,
    k: int,
    Cp: float,
    alpha0: float,
    rng=None,
) -> np.ndarray:
    """Draw a well-scaled piece Y for X from the cloud, coordinate by
    coordinate: y_q comes from the step-q annulus weighted by mass and is
    accepted iff the q-th two-term inequality holds.  The result satisfies
    is_in_augmented_set by construction.

    Raises PieceSamplingError when an annulus holds no support points or
    PIECE_ATTEMPTS rejections pile up at one step.
    """
    rng = np.random.default_rng(rng)
    cur = np.asarray(X, dtype=float)
    d = _dim(cur)
    x0 = cur[0]
    mx = max_at0(cur)
    out = []
    for q in range(1, k * d + 1):
        level = k - math.ceil(q / d)
        idx = annulus_indices(cloud, x0, mx, level, alpha0)
        if len(idx) == 0:
            raise PieceSamplingError("annulus holds no support points", q)
        member = concentration_test(cur, 1, bar_index(q + 1, d), Cp)
        for _ in range(PIECE_ATTEMPTS):
            y = cloud.points[_draw(rng, idx, cloud.weights)]
            if member(y[None])[0]:
                break
        else:
            raise PieceSamplingError("two-term inequality kept rejecting", q)
        cur = _well_scaled_step(cur, y, q, d)
        out.append(y)
    return np.asarray(out)


def sample_short_scale_piece(
    cloud: WeightedPointCloud,
    X,
    n: int,
    k: int,
    Cp: float,
    alpha0: float,
    rng=None,
) -> np.ndarray:
    """Draw a short-scale piece Z (all from A_k(x_0, max_at0)) so the rake
    tree built from it lies in the overline augmented set: each z is
    accepted iff its node's two-child inequality holds, breadth first."""
    rng = np.random.default_rng(rng)
    X_arr = np.asarray(X, dtype=float)
    _check_handles(n, _dim(X_arr))
    idx = annulus_indices(cloud, X_arr[0], max_at0(X_arr), k, alpha0)
    if len(idx) == 0:
        raise PieceSamplingError("annulus holds no support points")
    nodes = [tuple(X_arr)]  # breadth first: node i has children 2i and 2i+1 (1-based)
    out = []
    for i in range(1, short_scale_size(n) + 1):
        parent = nodes[i - 1]
        j = i.bit_length() - 1
        lhs = polar_sine(parent)
        for _ in range(PIECE_ATTEMPTS):
            z = cloud.points[_draw(rng, idx, cloud.weights)]
            left, right = _rake_children(parent, z, n, j)
            if lhs <= Cp * (polar_sine(left) + polar_sine(right)):
                break
        else:
            raise PieceSamplingError("two-child inequality kept rejecting", i)
        nodes += (left, right)
        out.append(z)
    return np.asarray(out)


# ---------------------------------------------------------------------------
# planting (synthetic configurations with prescribed classification)


def _unit_vectors(rng, count: int, D: int) -> np.ndarray:
    g = rng.normal(size=(count, D))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def plant_scaled_simplex(d: int, D: int, k: int, n: int, alpha0: float, rng) -> np.ndarray:
    """A synthetic element of the n-handled class at level k: base at the
    origin, coordinate 1 at unit distance, extra handles at ratios in
    [1/2, 1], tines strictly inside the level-k annulus."""
    if not 1 <= n <= d:
        raise ValueError("need 1 <= n <= d")
    if k < 3:
        raise ValueError("poorly-scaled classes start at k = 3")
    rng = np.random.default_rng(rng)
    dirs = _unit_vectors(rng, d + 1, D)
    ratios = np.empty(d + 1)
    ratios[0] = 1.0
    ratios[1:n] = rng.uniform(0.5, 1.0, size=n - 1)
    ratios[n:] = alpha0 ** (k + rng.uniform(0.05, 0.95, size=d + 1 - n))
    pts = np.vstack([np.zeros(D), dirs * ratios[:, None]])
    return pts


def plant_well_scaled_piece(X, k: int, alpha0: float, rng) -> np.ndarray:
    """Auxiliary points for the well-scaled sequence, each strictly inside
    its step annulus A_{k-ceil(q/d)}(x_0, max_at0(X))."""
    rng = np.random.default_rng(rng)
    X = np.asarray(X, dtype=float)
    d = _dim(X)
    mx = max_at0(X)
    ys = []
    for q in range(1, k * d + 1):
        level = k - math.ceil(q / d)
        ratio = alpha0 ** (level + rng.uniform(0.05, 0.95))
        ys.append(X[0] + ratio * mx * _unit_vectors(rng, 1, X.shape[1])[0])
    return np.asarray(ys)


def plant_short_scale_piece(X, n: int, k: int, alpha0: float, rng) -> np.ndarray:
    """Auxiliary points for the rake tree, all strictly inside A_k(x_0, max_at0(X))."""
    rng = np.random.default_rng(rng)
    X = np.asarray(X, dtype=float)
    mx = max_at0(X)
    count = short_scale_size(n)
    ratios = alpha0 ** (k + rng.uniform(0.05, 0.95, size=count))
    return X[0] + ratios[:, None] * mx * _unit_vectors(rng, count, X.shape[1])


def sample_scaled_simplex(
    cloud: WeightedPointCloud, d: int, k: int, n: int, alpha0: float, rng
) -> np.ndarray:
    """Draw an n-handled level-k simplex from cloud support points: a mass-
    weighted base, the farthest support point as the leading handle, extra
    handles from the top annulus, tines from the level-k annulus, all by
    measure's squared rule.  Distinct indices; retries a fresh base on failure."""
    rng = np.random.default_rng(rng)
    if not 1 <= n <= d:
        raise ValueError("need 1 <= n <= d")
    w_all = cloud.weights / cloud.total_mass()
    for _ in range(SIMPLEX_ATTEMPTS):
        b = int(rng.choice(len(cloud), p=w_all))
        x0 = cloud.points[b]
        d2 = _sq_dists(cloud.points, x0[None])[:, 0]
        h = int(np.argmax(d2))
        mx = math.sqrt(d2[h])
        if mx == 0.0:
            continue
        top = annulus_indices(cloud, x0, mx, 0, alpha0)
        top = top[top != h]
        tine_idx = annulus_indices(cloud, x0, mx, k, alpha0)
        if len(top) < n - 1 or len(tine_idx) < d + 1 - n:
            continue
        handles = rng.choice(top, size=n - 1, replace=False) if n > 1 else np.empty(0, dtype=int)
        tines = rng.choice(tine_idx, size=d + 1 - n, replace=False)
        rows = [x0, cloud.points[h]]
        rows += [cloud.points[i] for i in handles]
        rows += [cloud.points[i] for i in tines]
        X = np.asarray(rows)
        try:
            cls = classify_scale(X, alpha0)
        except ValueError:
            continue
        if cls.kind == "scaled" and cls.k == k and cls.handle_indices == tuple(range(1, n + 1)):
            return X
    raise PieceSamplingError("no admissible simplex found in the cloud")
