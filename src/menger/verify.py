"""Seeded verification suites for every statement the library can test.

Four suites (geometry, multiscale, sequences, inequalities) run moderate
sample counts so `verify all` stays interactive.  The checks that take
their samples as arguments (comparability_violations, deviation_violations,
level_axioms) are the one implementation of their statements: the
acceptance tests call them on their own, heavier samples.  Reports are
plain dicts of Python scalars, deterministic for a fixed seed, safe to
serialise with json.dumps(..., sort_keys=True) and compare byte for byte.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _batch, estimators, geometry, multiscale, sequences
from .measure import (
    Ball,
    gen_four_corner_cantor,
    gen_lipschitz_graph,
    gen_plane_patch,
    gen_sphere,
    regularity_constant,
)
from .planes import AffinePlane

RTOL = 1e-9


def _rng(seed, tag: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag))


def _check(name: str, passed, **detail) -> dict:
    return {"name": name, "passed": bool(passed), "detail": _sanitize(detail)}


def _sanitize(obj):
    """JSON-safe copy: numpy scalars to Python, non-finite floats to strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _suite(name: str, checks: list) -> dict:
    return {"suite": name, "passed": all(c["passed"] for c in checks), "checks": checks}


def random_plane(rng, d: int, D: int) -> AffinePlane:
    """A d-plane in R^D: the QR basis of a normal (D, d) draw, then a
    normal offset, both from rng in that order."""
    q, _ = np.linalg.qr(rng.normal(size=(D, d)))
    return AffinePlane(rng.normal(size=D), q.T[:d])


# ---------------------------------------------------------------------------
# geometry


def comparability_violations(T: np.ndarray) -> tuple:
    """Menger comparability c_M^2/12 <= c_1^2 <= c_M^2/4 on a (B, 3, D)
    stack of triangles, each side with slack RTOL * c_M^2.

    Returns (lower, upper, c1_sq, cm_sq): the number of triangles that
    break each side, a NaN counting as a break, and the two squared
    curvatures per triangle."""
    c1_sq = _batch.curvature_terms(T)["cd_sq"]
    d2, area2 = _batch.pair_and_content_sq(T, 0)  # area2: squared parallelogram content
    cm_sq = 4.0 * area2 / (d2[:, 0] * d2[:, 1] * d2[:, 2])
    slack = RTOL * cm_sq
    lower = int(np.sum(~(cm_sq / 12.0 - slack <= c1_sq)))
    upper = int(np.sum(~(c1_sq <= cm_sq / 4.0 + slack)))
    return lower, upper, c1_sq, cm_sq


def deviation_violations(T: np.ndarray, plane: AffinePlane) -> tuple:
    """Height and plane-deviation bounds on the polar sine at x_0 of a
    (B, d+2, D) stack, each with relative slack RTOL:

        psin_{x_0} <= 2(d+1)/scale_0 * h / diam            (h: least height)
        h <= sqrt(2) ceil((d+1)/2) * dev                   (dev: l2 distance
        psin_{x_0} <= sqrt(2)(d+1)(d+2)/scale_0 * dev / diam   to `plane`)

    Returns (max psin at x_0, chain violations, bound violations): the
    first two lines count as the chain, the last as the bound, and a NaN
    on either side counts as a violation."""
    B, m, D = T.shape
    d = m - 2
    psin0 = np.sqrt(_batch.psin_sq_at(T, 0))
    diam = np.sqrt(_batch.pairwise_sq(T).max(axis=(1, 2)))
    norms = np.linalg.norm(T[:, 1:, :] - T[:, :1, :], axis=2)
    scale0 = norms.min(axis=1) / norms.max(axis=1)
    heights = np.stack(
        [np.sqrt(_batch.affine_span_dist_sq(np.delete(T, i, axis=1), T[:, i, :])) for i in range(m)],
        axis=1,
    ).min(axis=1)
    dist = plane.distance_many(T.reshape(-1, D)).reshape(B, m)
    dev = np.sqrt((dist**2).sum(axis=1))
    slack = 1.0 + RTOL
    chain = int(np.sum(~(psin0 <= slack * 2 * (d + 1) / scale0 * heights / diam)))
    chain += int(np.sum(~(heights <= slack * math.sqrt(2.0) * math.ceil((d + 1) / 2) * dev)))
    bound = int(np.sum(~(psin0 <= slack * math.sqrt(2.0) * (d + 1) * (d + 2) / scale0 * dev / diam)))
    return float(psin0.max()), chain, bound


def suite_geometry(seed: int = 7) -> dict:
    checks = []

    # Menger comparability on random triangles; equilateral attains the cap.
    rng = _rng(seed, 1)
    T = rng.normal(size=(10_000, 3, 2))
    lo_bad, hi_bad, _, _ = comparability_violations(T)
    eq = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    c1_eq = geometry.discrete_curvature(eq)
    cm_eq = geometry.menger_curvature(eq)
    eq_ok = abs(c1_eq**2 - cm_eq**2 / 4.0) <= 1e-12 * cm_eq**2
    checks.append(
        _check(
            "menger_comparability",
            lo_bad == 0 and hi_bad == 0 and eq_ok,
            n=len(T),
            lower_violations=lo_bad,
            upper_violations=hi_bad,
            equilateral_c1=c1_eq,
            equilateral_cM=cm_eq,
        )
    )

    # Product formula over every admissible removal index; psin stays in
    # [0,1].  The strict 1e-9 relative claim only makes sense away from
    # degeneracy: Gram determinants of tuples with polar sine ~ s carry
    # relative error ~ eps/s^2, so tuples with any factor below 1e-3 are
    # held to the error-model tolerance instead.
    worst_rel = 0.0
    worst_psin = 0.0
    n_strict = 0
    n_soft = 0
    soft_bad = 0
    for d in (1, 2, 3):
        rng = _rng(seed, 10 + d)
        T = rng.normal(size=(3000, d + 2, d + 1))
        psin0 = np.sqrt(_batch.psin_sq_at(T, 0))
        worst_psin = max(worst_psin, float(np.sqrt(_batch.curvature_terms(T)["psin2"].max())))
        base_norm = np.linalg.norm(T[:, 1:, :] - T[:, :1, :], axis=2)
        for i in range(1, d + 2):
            red = np.delete(T, i, axis=1)
            dist = np.sqrt(_batch.affine_span_dist_sq(red, T[:, i, :]))
            elev = dist / base_norm[:, i - 1]
            psin_red = np.sqrt(_batch.psin_sq_at(red, 0))
            prod = elev * psin_red
            rel = np.abs(psin0 - prod) / np.maximum(psin0, 1e-300)
            strict = (psin0 >= 1e-3) & (psin_red >= 1e-3) & (elev >= 1e-3)
            n_strict += int(strict.sum())
            if strict.any():
                worst_rel = max(worst_rel, float(rel[strict].max()))
            soft = ~strict
            tol = geometry._error_model_rtol(np.minimum(np.minimum(psin0, psin_red), elev))
            n_soft += int(soft.sum())
            soft_bad += int(np.sum(rel[soft] > tol[soft]))
    checks.append(
        _check(
            "product_formula",
            worst_rel <= RTOL and soft_bad == 0,
            worst_rel=worst_rel,
            strict_tuples=n_strict,
            degenerate_regime_tuples=n_soft,
            degenerate_regime_violations=soft_bad,
        )
    )
    checks.append(_check("psin_range", worst_psin <= 1.0 + 1e-12, max_psin=worst_psin))

    # The two curvature code paths agree: strict 1e-9 away from degeneracy,
    # eps/tau^2 error-model tolerance in the thin regime.
    id_bad = 0
    worst_id = 0.0
    n_thick = 0
    for d in (1, 2):
        rng = _rng(seed, 20 + d)
        T = rng.normal(size=(4000, d + 2, d + 1))
        terms = _batch.curvature_terms(T)
        diam = np.sqrt(terms["diam2"])
        tau = np.sqrt(terms["content0_sq"]) / diam ** (d + 1)
        both = (terms["cd_sq"] > 0) & (terms["cd_sq_vol"] > 0)
        rel = np.abs(terms["cd_sq"] - terms["cd_sq_vol"]) / np.where(
            both, terms["cd_sq"], 1.0
        )
        tol = geometry._error_model_rtol(tau)
        id_bad += int(np.sum(both & (rel > tol)))
        thick = both & (tau >= 1e-3)
        n_thick += int(thick.sum())
        if thick.any():
            worst_id = max(worst_id, float(rel[thick].max()))
    checks.append(
        _check(
            "curvature_identity",
            id_bad == 0 and worst_id <= RTOL,
            worst_rel_nondegenerate=worst_id,
            nondegenerate_tuples=n_thick,
            error_model_violations=id_bad,
        )
    )

    # Height / deviation chain, then the plane-deviation curvature bound.
    chain_bad = 0
    prop_bad = 0
    for d in (1, 2, 3):
        T = _rng(seed, 30 + d).normal(size=(2000, d + 2, d + 1))
        _, chain, bound = deviation_violations(T, random_plane(_rng(seed, 40 + d), d, d + 1))
        chain_bad += chain
        prop_bad += bound
    checks.append(_check("height_deviation_chain", chain_bad == 0, violations=chain_bad))
    checks.append(_check("plane_deviation_bound", prop_bad == 0, violations=prop_bad))

    # Scaling degrees of both curvature notions at lambda = 2.
    rng = _rng(seed, 50)
    homo_bad = 0
    for d in (1, 2):
        T = rng.normal(size=(200, d + 2, d + 1))
        base = _batch.curvature_terms(T)["cd_sq"]
        scaled = _batch.curvature_terms(2.0 * T)["cd_sq"]
        rel = np.abs(scaled - base * 2.0 ** (-d * (d + 1))) / np.maximum(base, 1e-300)
        homo_bad += int(np.sum(rel > 1e-12))
    X3 = rng.normal(size=(3, 2))
    dm = geometry.direct_menger(X3)
    homo_bad += int(abs(geometry.direct_menger(2.0 * X3) - dm * 2.0**-4) > 1e-12 * dm)
    checks.append(_check("scaling_degrees", homo_bad == 0, violations=homo_bad))

    return _suite("geometry", checks)


# ---------------------------------------------------------------------------
# multiscale


def _dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All distances between the rows of a and of b, shape (len(a), len(b))."""
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def level_axioms(cloud, level) -> dict:
    """The axioms of one multiresolution level, each True when it holds
    exactly, with q = level.quarter_radius:

    separation        net points pairwise more than q apart
    covering          every point within q of the net
    quarter_disjoint  kept centres pairwise more than 2q apart
    partition_total   one kept index per point
    sandwich_upper    every point within 3q of its cell's centre
    sandwich_lower    a point within q of a kept centre belongs to its cell

    A partition that is not total leaves both sandwich axioms False."""
    pts = cloud.points
    q = level.quarter_radius
    net = pts[np.asarray(level.net)]
    centers = net[np.asarray(level.kept)]
    gaps = _dist(net, net)
    np.fill_diagonal(gaps, np.inf)
    dk = _dist(centers, centers)
    np.fill_diagonal(dk, np.inf)
    part = np.asarray(level.partition)
    total = len(part) == len(pts) and bool(((part >= 0) & (part < len(centers))).all())
    upper = lower = False
    if total:
        dist_c = _dist(pts, centers)
        upper = bool((dist_c[np.arange(len(pts)), part] <= 3 * q).all())  # cell inside (3/4) B_j
        quarter_pt, quarter_j = np.nonzero(dist_c <= q)  # quarter balls are disjoint
        lower = np.array_equal(part[quarter_pt], quarter_j)
    return {
        "separation": bool(gaps.min(initial=np.inf) > q),
        "covering": bool((_dist(pts, net).min(axis=1) <= q).all()),
        "quarter_disjoint": bool(dk.min(initial=np.inf) > 2 * q),
        "partition_total": total,
        "sandwich_upper": upper,
        "sandwich_lower": lower,
    }


def suite_multiscale(seed: int = 7, corrupt_net: bool = False) -> dict:
    checks = []
    alpha0 = 0.25
    clouds = {
        "circle": gen_sphere(2, 256, seed=(seed, 101)),
        "patch2d": gen_plane_patch(2, 3, 300, seed=(seed, 102)),
        "cantor3": gen_four_corner_cantor(3),
    }

    axiom_fail = []
    n_levels = 0
    for name, cloud in clouds.items():
        fam = multiscale.MultiresolutionFamily(cloud, alpha0, order_seed=seed)
        for n in range(fam.n_top, min(fam.n_top + 3, fam.n_floor + 1)):
            ax = level_axioms(cloud, fam.level(n))
            n_levels += 1
            for key, ok in ax.items():
                if not ok:
                    axiom_fail.append(f"{name}/n={n}/{key}")
    if corrupt_net:
        cloud = clouds["circle"]
        fam = multiscale.MultiresolutionFamily(cloud, alpha0, order_seed=seed)
        level = fam.level(fam.n_top + 1)
        corrupt = dataclasses.replace(level, net=np.append(level.net, level.net[0]))
        if not level_axioms(cloud, corrupt)["separation"]:
            axiom_fail.append("injected/net_separation")
    checks.append(
        _check(
            "net_partition_axioms",
            not axiom_fail,
            levels_checked=n_levels,
            failures=axiom_fail[:10],
            alpha0=alpha0,
        )
    )

    # m(Q) boundaries, including exact-power diameters.
    m_bad = []
    for diam in (0.25**3, 1.0, 0.3, 0.25**5, 2.7, 0.0625):
        m = multiscale.scale_index(diam, alpha0)
        if not (alpha0**m <= diam < alpha0 ** (m - 1)):
            m_bad.append(diam)
    if multiscale.scale_index(Ball(np.zeros(2), 0.25**3 / 2.0).diameter, 0.25) != 3:
        m_bad.append("pinned_ball")
    checks.append(_check("scale_index_sandwich", not m_bad, failures=m_bad))

    # Flat measures vanish: every family beta2, the flatness sum, curvature.
    flat = gen_plane_patch(1, 2, 600, seed=(seed, 103))
    fam = multiscale.MultiresolutionFamily(flat, alpha0, order_seed=seed)
    q = flat.bounding_ball()
    rep = multiscale.jones_flatness_discrete(flat, q, fam, 1)
    max_b2 = max((t["beta2sq"] for t in rep.terms), default=0.0)
    est = estimators.continuous_curvature_sq(flat, q, 1, n_samples=20_000, seed=seed, mode="mc")
    checks.append(
        _check(
            "flat_measure_vanishing",
            rep.total <= 1e-10 and max_b2 <= 1e-10 and est.estimate <= 1e-10,
            flatness=rep.total,
            max_beta2sq=max_b2,
            curvature=est.estimate,
        )
    )

    # Flatness rerun determinism plus per-term re-summation.
    circle = clouds["circle"]
    q = Ball(circle.points[0], 0.8)
    r1 = multiscale.jones_flatness_discrete(
        circle, q, multiscale.MultiresolutionFamily(circle, alpha0, order_seed=seed), 1
    )
    r2 = multiscale.jones_flatness_discrete(
        circle, q, multiscale.MultiresolutionFamily(circle, alpha0, order_seed=seed), 1
    )
    resum = math.fsum(t["beta2sq"] * t["mass"] for t in r1.terms)
    checks.append(
        _check(
            "flatness_reproducible",
            r1.total == r2.total
            and abs(resum - r1.total) <= 1e-12 * max(r1.total, 1e-300),
            total=r1.total,
            terms=len(r1.terms),
        )
    )

    # Continuous functional on the blown ball stays comparable (one-sided).
    rc = multiscale.jones_flatness_continuous(circle, q.blow(6.0), 1, x_cap=64)
    checks.append(
        _check(
            "discrete_vs_continuous_flatness",
            rc.total > 0 or r1.total == 0,
            discrete=r1.total,
            continuous_6Q=rc.total,
            ratio=(r1.total / rc.total) if rc.total > 0 else None,
        )
    )

    return _suite("multiscale", checks)


# ---------------------------------------------------------------------------
# sequences


def suite_sequences(seed: int = 7) -> dict:
    checks = []

    x = tuple(f"x{i}" for i in range(5))
    y = tuple(f"y{q}" for q in range(1, 7))
    aux = sequences.auxiliary_sequence(x, y, k=2, d=3)
    main = sequences.well_scaled_sequence(x, y, k=2, d=3)
    golden_aux = {
        1: ("x0", "x1", "y1", "x3", "x4"),
        3: ("x0", "x1", "y1", "y2", "y3"),
        4: ("x0", "x1", "y4", "y2", "y3"),
        6: ("x0", "x1", "y4", "y5", "y6"),
    }
    golden_main = {
        1: ("x0", "y1", "x2", "x3", "x4"),
        4: ("x0", "y4", "y1", "y2", "y3"),
        6: ("x0", "y6", "y4", "y5", "y3"),
        7: ("x0", "x1", "y4", "y5", "y6"),
    }
    ok7 = all(aux[q] == v for q, v in golden_aux.items()) and all(
        main[q - 1] == v for q, v in golden_main.items()
    )

    aux1 = sequences.auxiliary_sequence(("x0", "x1", "x2"), ("y1", "y2", "y3"), k=3, d=1)
    main1 = sequences.well_scaled_sequence(("x0", "x1", "x2"), ("y1", "y2", "y3"), k=3, d=1)
    ok1 = (
        all(aux1[q] == ("x0", "x1", f"y{q}") for q in (1, 2, 3))
        and main1[0] == ("x0", "y1", "x2")
        and main1[1] == ("x0", "y2", "y1")
        and main1[3] == ("x0", "x1", "y3")
    )

    tree = sequences.rake_tree(x, ("z1", "z2", "z3"), n=3, d=3)
    ok8 = tree[1] == [
        ("x0", "x1", "x2", "z1", "x4"),
        ("x0", "x1", "x3", "z1", "x4"),
    ] and tree[2] == [
        ("x0", "x1", "z2", "z1", "x4"),
        ("x0", "x2", "z2", "z1", "x4"),
        ("x0", "x1", "z3", "z1", "x4"),
        ("x0", "x3", "z3", "z1", "x4"),
    ]
    checks.append(_check("golden_worked_lists", ok7 and ok1 and ok8))

    c1, c2, c3 = sequences.constants(1), sequences.constants(2), sequences.constants(3)
    frozen_ok = (
        c1.Cp == 1.0
        and c1.alpha0 == 0.25
        and math.isclose(c2.Cp, 353.0913327280908, rel_tol=1e-14)
        and math.isclose(c2.alpha0, 4.010475707522776e-06, rel_tol=1e-14)
        and math.isclose(c3.Cp, 1997.464948868175, rel_tol=1e-14)
    )
    checks.append(_check("frozen_constants", frozen_ok, Cp2=c2.Cp, alpha0_2=c2.alpha0, Cp3=c3.Cp))

    size_ok = True
    for d in (1, 2, 3):
        for k in (3, 4, 5):
            size_ok &= sequences.augmented_size(k, d) == (k + 1) * d + 2
            Y = tuple(range(100, 100 + k * d))
            size_ok &= len(sequences.well_scaled_sequence(tuple(range(d + 2)), Y, k, d)) == k * d + 1
        for n in range(2, d + 1):
            Z = tuple(range(100, 100 + sequences.short_scale_size(n)))
            leaves = sequences.rake_sequence(tuple(range(d + 2)), Z, n, d)
            size_ok &= len(leaves) == 2 ** (n - 1)
            size_ok &= sequences.rake_point_count(d, n) == d + 1 + 2 ** (n - 1)
    checks.append(_check("piece_sizes", size_ok))

    # Planted scale lemma at the canonical constants, all d and k.
    lemma_fail = []
    count = 0
    for d in (1, 2, 3):
        a0 = sequences.constants(d).alpha0
        for k in (3, 4, 5):
            rng = _rng(seed, 200 + 10 * d + k)
            for rep in range(18):
                X = sequences.plant_scaled_simplex(d, d + 1, k, 1, a0, rng)
                Y = sequences.plant_well_scaled_piece(X, k, a0, rng)
                seq = sequences.well_scaled_sequence(X, Y, k, d)
                bad = sequences.well_scaled_bound_report(seq, X, k, d, a0)
                count += 1
                if bad:
                    lemma_fail.append([d, k, rep, bad[0][0], bad[0][1]])
    checks.append(
        _check("planted_scale_lemma", not lemma_fail, configs=count, failures=lemma_fail[:5])
    )

    rake_fail = []
    count = 0
    for d in (2, 3):
        a0 = sequences.constants(d).alpha0
        for n in range(2, d + 1):
            for k in (3, 4, 5):
                rng = _rng(seed, 300 + 100 * d + 10 * n + k)
                for rep in range(12):
                    X = sequences.plant_scaled_simplex(d, d + 1, k, n, a0, rng)
                    Z = sequences.plant_short_scale_piece(X, n, k, a0, rng)
                    count += 1
                    for s, leaf in enumerate(sequences.rake_sequence(X, Z, n, d)):
                        if not sequences.check_rake_property(leaf, X, k, a0):
                            rake_fail.append([d, n, k, rep, s])
    checks.append(
        _check("planted_rake_property", not rake_fail, configs=count, failures=rake_fail[:5])
    )

    # Negative controls: a corrupted piece must be caught.
    a0 = 0.25
    rng = _rng(seed, 400)
    X = sequences.plant_scaled_simplex(2, 3, 3, 1, a0, rng)
    Y = sequences.plant_well_scaled_piece(X, 3, a0, rng)
    Y_bad = Y.copy()
    Y_bad[2] = X[0] + (Y[2] - X[0]) / a0**2  # kicked far above its annulus
    seq_bad = sequences.well_scaled_sequence(X, Y_bad, 3, 2)
    caught_y = bool(sequences.well_scaled_bound_report(seq_bad, X, 3, 2, a0))
    Z = sequences.plant_short_scale_piece(X, 2, 3, a0, rng)
    Z_bad = Z.copy()
    Z_bad[0] = X[0] + (Z[0] - X[0]) / a0**2
    caught_z = not all(
        sequences.check_rake_property(lf, X, 3, a0)
        for lf in sequences.rake_sequence(X, Z_bad, 2, 2)
    )
    checks.append(_check("corruption_detected", caught_y and caught_z))

    return _suite("sequences", checks)


# ---------------------------------------------------------------------------
# inequalities


def _membership_run(cloud, d, k, n, alpha0, Cp, n_elements, rng, rake=False):
    violations = 0
    produced = 0
    attempts = 0
    while produced < n_elements and attempts < 20 * n_elements:
        attempts += 1
        try:
            X = sequences.sample_scaled_simplex(cloud, d, k, n, alpha0, rng)
            if rake:
                Z = sequences.sample_short_scale_piece(cloud, X, n, k, Cp, alpha0, rng=rng)
                if not sequences.is_in_overline_set(X, Z, Cp):
                    violations += 1
                    continue
                ok, lhs, rhs = sequences.rake_inequality_check(X, Z, Cp, n)
            else:
                Y = sequences.sample_well_scaled_piece(cloud, X, k, Cp, alpha0, rng=rng)
                if not sequences.is_in_augmented_set(X, Y, Cp):
                    violations += 1
                    continue
                ok, lhs, rhs = sequences.multiscale_inequality_check(X, Y, Cp, k, d)
        except sequences.PieceSamplingError:
            continue
        produced += 1
        if not ok:
            violations += 1
    return produced, violations


def suite_inequalities(seed: int = 7) -> dict:
    checks = []

    circle = gen_sphere(2, 3000, seed=(seed, 501))
    sphere = gen_sphere(3, 5000, seed=(seed, 502))
    cp2 = sequences.constants(2).Cp

    # Membership in the augmented set forces the long-sequence inequality.
    made1, bad1 = _membership_run(circle, 1, 3, 1, 0.25, 1.0, 60, _rng(seed, 510))
    made2, bad2 = _membership_run(sphere, 2, 3, 1, 0.35, cp2, 40, _rng(seed, 511))
    checks.append(
        _check(
            "membership_multiscale_inequality",
            bad1 == 0 and bad2 == 0 and made1 >= 50 and made2 >= 30,
            d1_elements=made1,
            d2_elements=made2,
            violations=bad1 + bad2,
            alpha0_override_d2=0.35,
        )
    )

    made_r, bad_r = _membership_run(sphere, 2, 3, 2, 0.35, cp2, 40, _rng(seed, 512), rake=True)
    checks.append(
        _check(
            "membership_rake_inequality",
            bad_r == 0 and made_r >= 30,
            elements=made_r,
            violations=bad_r,
        )
    )

    # Concentration sets carry most of the mass near each tuple.
    conc_fail = []
    fr_min_1 = 1.0
    for rep in range(6):
        rng = _rng(seed, 520 + rep)
        X = circle.points[rng.choice(len(circle), size=3, replace=False)]
        if geometry.polar_sine(X, 0) == 0.0:
            continue
        res = estimators.concentration_fraction(circle, X, 1, 2, float(rng.uniform(0.3, 1.0)), 1.0)
        fr_min_1 = min(fr_min_1, res["fraction"])
        if res["fraction"] < 0.99:
            conc_fail.append(["d1", rep, res["fraction"]])
    cmu2 = regularity_constant(sphere, 2, n_centers=16, n_radii=8, seed=seed).estimated_Cmu
    cp2_mu = sequences.constants(2, cmu2).Cp
    fr_min_2 = 1.0
    for rep in range(6):
        rng = _rng(seed, 540 + rep)
        X = sphere.points[rng.choice(len(sphere), size=4, replace=False)]
        if geometry.polar_sine(X, 0) == 0.0:
            continue
        i, j = sorted(rng.choice(np.arange(1, 4), size=2, replace=False).tolist())
        res = estimators.concentration_fraction(
            sphere, X, int(i), int(j), float(rng.uniform(0.4, 1.2)), cp2_mu
        )
        fr_min_2 = min(fr_min_2, res["fraction"])
        if res["fraction"] < 0.70:
            conc_fail.append(["d2", rep, res["fraction"]])
    checks.append(
        _check(
            "concentration_mass",
            not conc_fail,
            min_fraction_d1=fr_min_1,
            min_fraction_d2=fr_min_2,
            Cmu_d2=cmu2,
            Cp_d2=cp2_mu,
        )
    )

    # Scale-class decomposition: exact same-stream bookkeeping.
    small_circle = gen_sphere(2, 1500, seed=(seed, 551))
    rep1 = estimators.decomposition_check(small_circle, None, 1, 0.25, n_samples=4000, seed=seed)
    flat = gen_plane_patch(1, 2, 500, seed=(seed, 552))
    rep2 = estimators.decomposition_check(flat, None, 1, 0.25, n_samples=2000, seed=seed)
    flat_zero = all(v["estimate"] <= 1e-10 for v in rep2["classes"].values())
    checks.append(
        _check(
            "decomposition_exact_partition",
            rep1["exact_partition"] and rep2["exact_partition"] and flat_zero,
            circle_total=rep1["total_estimate"],
            circle_classes=sorted(rep1["classes"]),
        )
    )

    # Annulus conditional masses: subset bound exact, half-ball bound holds.
    g_fail = []
    g_count = 0
    rng = _rng(seed, 560)
    for rep in range(6):
        try:
            X = sequences.sample_scaled_simplex(sphere, 2, 3, 1, 0.35, rng)
            Y = sequences.sample_well_scaled_piece(sphere, X, 3, cp2, 0.35, rng=rng)
        except sequences.PieceSamplingError:
            continue
        aux = sequences.auxiliary_sequence(X, Y, 3, 2)
        q = int(rng.integers(1, 7))
        trunc = np.asarray(aux[q - 1])
        g = sequences.annulus_conditional_mass(sphere, trunc, q, 3, 2, cp2, 0.35)
        level = 3 - math.ceil(q / 2)
        bm = sphere.mass_in(Ball(trunc[0], 0.35**level * geometry.max_at0(trunc)))
        g_count += 1
        if g > bm * (1 + 1e-12) or g < 0.5 * bm:
            g_fail.append([rep, q, g, bm])
    checks.append(
        _check("annulus_mass_bounds", g_count >= 4 and not g_fail, configs=g_count, failures=g_fail)
    )

    # Separated-tuple curvature against beta2: bounded spread in lambda.
    c220 = gen_sphere(2, 220, seed=(seed, 571))
    rng = _rng(seed, 572)
    scaled = []
    for b in range(4):
        center = c220.points[int(rng.integers(len(c220)))]
        for lam in (0.2, 0.4, 0.8):
            r = estimators.prop11_ratio(c220, center, 0.5, lam, 1, mode="exact")
            if r["ratio"] is not None and r["ratio"] > 0:
                scaled.append(r["ratio"] * lam**6)
    scaled_ok = bool(scaled) and max(scaled) <= 10.0 * float(np.median(scaled))
    checks.append(
        _check(
            "separated_curvature_trend",
            scaled_ok,
            n_stats=len(scaled),
            max_over_median=(max(scaled) / float(np.median(scaled))) if scaled else None,
        )
    )

    # Curvature against flatness: stable ratio on rectifiable clouds, and
    # strictly growing curvature along the self-similar contrast family.
    rng = _rng(seed, 580)
    graph = gen_lipschitz_graph(1, 2, 0.4, 400, seed=(seed, 581))
    ratios = []
    for cloud in (c220, graph):
        fam = multiscale.MultiresolutionFamily(cloud, 0.25, order_seed=seed)
        for b in range(4):
            center = cloud.points[int(rng.integers(len(cloud)))]
            ball = Ball(center, 0.45)
            est = estimators.continuous_curvature_sq(
                cloud, ball, 1, n_samples=20_000, seed=seed, mode="auto"
            )
            flatness = multiscale.jones_flatness_discrete(cloud, ball, fam, 1).total
            denom = max(flatness, cloud.mass_in(ball))
            if denom > 0:
                ratios.append(est.estimate / denom)
    stable = bool(ratios) and max(ratios) <= 10.0 * float(np.median(ratios))
    cant = [
        estimators.continuous_curvature_sq(
            gen_four_corner_cantor(lvl), Ball(np.zeros(2), 1.0), 1, mode="exact"
        ).estimate
        for lvl in (2, 3)
    ]
    checks.append(
        _check(
            "curvature_flatness_ratio",
            stable and cant[0] < cant[1],
            n_ratios=len(ratios),
            max_over_median=(max(ratios) / float(np.median(ratios))) if ratios else None,
            cantor_curvatures=cant,
        )
    )

    return _suite("inequalities", checks)


# ---------------------------------------------------------------------------
# drivers


SUITES = {
    "geometry": suite_geometry,
    "multiscale": suite_multiscale,
    "sequences": suite_sequences,
    "inequalities": suite_inequalities,
}


def _run(names, seed: int, inject_failure: str | None) -> tuple[list, list]:
    """Run the named suites under the one injection rule: net_separation
    corrupts a real net when the multiscale suite runs; any other request
    becomes a failing check.  Returns (suite reports, injected checks)."""
    corrupts_net = inject_failure == "net_separation" and "multiscale" in names
    suites = [
        suite_multiscale(seed, corrupt_net=corrupts_net) if name == "multiscale" else SUITES[name](seed)
        for name in names
    ]
    return suites, [_check(inject_failure, False, injected=True)] if inject_failure and not corrupts_net else []


def run_suite(name: str, seed: int = 7, inject_failure: str | None = None) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {sorted(SUITES)} or 'all'")
    (report,), injected = _run([name], seed, inject_failure)
    if injected:
        report["checks"] += injected
        report["passed"] = False
    return report


def run_all(seed: int = 7, inject_failure: str | None = None) -> dict:
    suites, injected = _run(list(SUITES), seed, inject_failure)
    if injected:
        suites.append(_suite("injected", injected))
    return {
        "seed": seed,
        "passed": all(s["passed"] for s in suites),
        "suites": suites,
    }
