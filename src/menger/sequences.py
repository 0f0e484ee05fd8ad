"""Interpolating sequences for poorly-scaled simplices.

A simplex with one long edge (handle) and short edges (tines) at its base
vertex is bridged to well-scaled simplices through auxiliary points placed
in prescribed annuli: the well-scaled sequence swaps one point per step
(k*d steps plus a closing element), the rake tree splits an n-handled
simplex into 2^{n-1} single-handled leaves.  Membership in the augmented
sets (two-term polar sine inequalities along the construction) forces the
multiscale inequalities, which is what the verification harness checks.

Constructors are generic over coordinate type: rows of an array, or any
opaque labels (symbols), which the golden tests use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import classify_scale, concentration_test, handle_indices, scale_classes
from .geometry import as_tuple_array, max_at0, min_at0, polar_sine, replace_coordinate, scale_at0
from .measure import Ball, WeightedPointCloud


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
    d: int
    Cmu: float
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
        return Constants(1, float(Cmu), 1.0, 1.0 / (4.0 * Cmu * Cmu))
    cp = math.sqrt(5.0) * math.pi**2 / (4.0 * math.asin(2.0 ** -(5.0 * d / 2.0 + 1.0) / Cmu**2))
    return Constants(d, float(Cmu), cp, 1.0 / (2.0 * cp * cp))


def augmented_size(k: int, d: int) -> int:
    """Point count of a simplex plus its well-scaled piece: (k+1)d + 2."""
    return (k + 1) * d + 2


def short_scale_size(n: int) -> int:
    """Auxiliary point count of a rake tree of depth n-1: 2^{n-1} - 1."""
    return 2 ** (n - 1) - 1


def rake_point_count(d: int, n: int) -> int:
    """Distinct points touched by a full rake construction: d+1+2^{n-1}."""
    return d + 1 + 2 ** (n - 1)


def bar_index(a: int, d: int) -> int:
    """The unique element of {2, ..., d+1} congruent to a mod d."""
    return 2 + (a - 2) % d


# ---------------------------------------------------------------------------
# well-scaled sequences


def auxiliary_sequence(X, Y, k: int | None = None, d: int | None = None) -> list:
    """The auxiliary sequence: X_tilde_0 = X, then each step replaces the
    cyclically-chosen coordinate bar(q+1) in {2,...,d+1} with y_q.

    Returns [X_tilde_0, ..., X_tilde_{kd}] as tuples.
    """
    X = tuple(X)
    Y = tuple(Y)
    if d is None:
        d = len(X) - 2
    if len(X) != d + 2:
        raise ValueError(f"simplex needs d+2 = {d + 2} coordinates, got {len(X)}")
    if k is None:
        if len(Y) % d != 0 or len(Y) == 0:
            raise ValueError("piece size must be a positive multiple of d")
        k = len(Y) // d
    if len(Y) != k * d:
        raise ValueError(f"piece must hold k*d = {k * d} points, got {len(Y)}")
    seq = [X]
    for q in range(1, k * d + 1):
        seq.append(_well_scaled_step(seq[-1], Y[q - 1], q, d))
    return seq


def _well_scaled_step(prev, y, q: int, d: int):
    """X_tilde_q from X_tilde_{q-1}: y_q replaces coordinate bar(q+1)."""
    return replace_coordinate(prev, y, bar_index(q + 1, d))


def well_scaled_sequence(X, Y, k: int | None = None, d: int | None = None) -> list:
    """The well-scaled sequence X_1, ..., X_{kd+1}.

    X_q replaces coordinate 1 of the previous auxiliary element by y_q; the
    closing element X_{kd+1} is the last auxiliary element itself.
    """
    aux = auxiliary_sequence(X, Y, k, d)
    kd = len(aux) - 1
    out = [replace_coordinate(aux[q - 1], tuple(Y)[q - 1], 1) for q in range(1, kd + 1)]
    out.append(aux[kd])
    return out


def well_scaled_bound_report(seq, X, k: int, d: int, alpha0: float) -> list:
    """Scale-lemma violations of a well-scaled sequence; empty when clean.

    For q <= kd:  alpha0^{k+1-ceil(q/d)} max_at0(X) < max_at0(X_q)
                  <= alpha0^{k-ceil(q/d)} max_at0(X);
    the closing element keeps max_at0 = max_at0(X) and has
    min_at0 > alpha0 max_at0(X); and every element is well-scaled at x_0.
    """
    X = np.asarray(X, dtype=float)
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
    d = len(aux[0]) - 2
    return all(
        concentration_test(aux[q - 1], 1, bar_index(q + 1, d), Cp)([Y[q - 1]])[0]
        for q in range(1, len(aux))
    )


def multiscale_inequality_check(X, Y, Cp: float, k: int, d: int):
    """The chained inequality psin^2(X) <= (kd+1) Cp^{2kd} sum_q psin^2(X_q).

    Holds whenever is_in_augmented_set does; returns (ok, lhs, rhs).
    """
    kd = k * d
    lhs = polar_sine(X) ** 2
    pieces = well_scaled_sequence(X, Y, k, d)
    rhs = (kd + 1) * Cp ** (2 * kd) * sum(polar_sine(p) ** 2 for p in pieces)
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


def rake_tree(X, Z, n: int, d: int | None = None) -> list:
    """The depth-(n-1) binary tree splitting an n-handled simplex.

    Level j+1 replaces coordinate n-j of each level-j node by the next
    auxiliary point for the left child; the right child replaces
    coordinate n-j-1 instead and then swaps coordinates n-j-1 and n-j, so
    surviving handles stay in the leading positions.
    """
    X = tuple(X)
    Z = tuple(Z)
    if d is None:
        d = len(X) - 2
    if len(X) != d + 2:
        raise ValueError(f"simplex needs d+2 = {d + 2} coordinates")
    if not 1 < n <= d:
        raise ValueError("handle count must satisfy 1 < n <= d")
    if len(Z) != short_scale_size(n):
        raise ValueError(f"piece must hold 2^(n-1)-1 = {short_scale_size(n)} points")
    levels = [[X]]
    for j in range(n - 1):
        nxt = []
        for m, parent in enumerate(levels[j]):
            nxt.extend(_rake_children(parent, Z[2**j - 1 + m], n, j))
        levels.append(nxt)
    return levels


def rake_sequence(X, Z, n: int, d: int | None = None) -> list:
    """The 2^{n-1} leaves of the rake tree, each a single-handled simplex."""
    return rake_tree(X, Z, n, d)[-1]


def is_in_overline_set(X, Z, Cp: float) -> bool:
    """Membership for the rake construction: each tree node has
    psin(parent) <= Cp (psin(left child) + psin(right child))."""
    Z = tuple(Z)
    n = int(math.log2(len(Z) + 1)) + 1
    if short_scale_size(n) != len(Z):
        raise ValueError("piece size must be 2^(n-1)-1")
    nodes = [node for level in rake_tree(X, Z, n) for node in level]  # 1-based: i has children 2i, 2i+1
    return all(
        polar_sine(nodes[i - 1]) <= Cp * (polar_sine(nodes[2 * i - 1]) + polar_sine(nodes[2 * i]))
        for i in range(1, len(Z) + 1)
    )


def rake_inequality_check(X, Z, Cp: float, n: int):
    """psin^2(X) <= 2^{n-1} Cp^{2(n-1)} sum_s psin^2(X^s); (ok, lhs, rhs)."""
    lhs = polar_sine(X) ** 2
    leaves = rake_sequence(X, Z, n)
    rhs = 2 ** (n - 1) * Cp ** (2 * (n - 1)) * sum(polar_sine(leaf) ** 2 for leaf in leaves)
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
    """Support indices in A_level(center, r): alpha0^{level+1} r < dist <= alpha0^level r."""
    P = cloud.points
    outer = Ball(center, alpha0**level * r).contains(P)
    return np.nonzero(outer & ~Ball(center, alpha0 ** (level + 1) * r).contains(P))[0]


def annulus_conditional_mass(
    cloud: WeightedPointCloud, X_tilde_prev, q: int, k: int, d: int, Cp: float, alpha0: float
) -> float:
    """Mass of U_Cp(X_tilde_{q-1}, 1, bar(q+1)) inside the step-q annulus.

    The step-q annulus is A_{k-ceil(q/d)}(x_0, max_at0), with max_at0 taken
    from the truncation itself (the handle never moves, so it matches the
    original simplex).  Upper bound: the ball mass at the annulus' outer
    radius.  The claimed lower bound is half that ball mass; the harness
    compares against it.
    """
    Xp = as_tuple_array(X_tilde_prev)
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
    d = len(cur) - 2
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
    d = len(X_arr) - 2
    if not 1 < n <= d:
        raise ValueError("handle count must satisfy 1 < n <= d")
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
    d = len(X) - 2
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
    handles from the top annulus, tines from the level-k annulus.  Distinct
    indices throughout; retries a fresh base on failure."""
    rng = np.random.default_rng(rng)
    if not 1 <= n <= d:
        raise ValueError("need 1 <= n <= d")
    w_all = cloud.weights / cloud.total_mass()
    for _ in range(SIMPLEX_ATTEMPTS):
        b = int(rng.choice(len(cloud), p=w_all))
        x0 = cloud.points[b]
        dist = np.linalg.norm(cloud.points - x0, axis=1)
        h = int(np.argmax(dist))
        mx = dist[h]
        if mx == 0.0:
            continue
        top = np.nonzero((dist > alpha0 * mx) & (dist <= mx))[0]
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
