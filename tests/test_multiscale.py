import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from menger import measure, multiscale
from menger.geometry import InvariantError
from menger.measure import Ball, WeightedPointCloud, gen_four_corner_cantor, gen_plane_patch, gen_sphere
from menger.multiscale import (
    MAX_LEVELS_BELOW_TOP,
    MultiresolutionFamily,
    _first_within,
    build_ball_family,
    build_net,
    build_partition,
    jones_flatness_continuous,
    jones_flatness_discrete,
    local_family,
    scale_index,
)
from menger.planes import beta2


def as_pts(xs):
    return np.asarray(xs, dtype=float)[:, None]


def test_scale_index_known_values():
    assert scale_index(1.0, 0.25) == 0
    assert scale_index(0.3, 0.25) == 1
    assert scale_index(0.25**3, 0.25) == 3  # exact power lands on its own level
    assert scale_index(5.0, 0.25) == -1
    with pytest.raises(ValueError):
        scale_index(0.0, 0.25)
    with pytest.raises(ValueError):
        scale_index(1.0, 1.5)


@given(st.floats(1e-6, 1e6), st.floats(0.05, 0.9), st.integers(-8, 40))
def test_scale_index_sandwich(diam, alpha0, j):
    # An exact power alpha0**j is where m = j and m = j + 1 part ways.
    for x in (diam, alpha0**j):
        m = scale_index(x, alpha0)
        assert alpha0**m <= x < alpha0 ** (m - 1)
    assert scale_index(alpha0**j, alpha0) == j


def test_scale_index_with_an_overflowing_power():
    # 1e-320 ** -1 overflows a float; it counts as +inf, above every diameter
    for alpha0 in (1e-320, 5e-324, 1e-310):
        m = scale_index(2.0, alpha0)
        assert m == 0
        assert alpha0**m <= 2.0
        with pytest.raises(OverflowError):
            alpha0 ** (m - 1)
    assert scale_index(1e300, 1e-200) == -1  # 1e-200 ** -2 overflows
    assert scale_index(0.5, 1e-320) == 1


def test_m_of_q_uses_ball_diameter():
    assert scale_index(Ball(np.zeros(2), 0.5).diameter, 0.25) == 0  # diam 1.0
    assert scale_index(Ball(np.zeros(2), 0.125).diameter, 0.25) == 1  # diam 0.25


def test_build_net_on_a_line():
    pts = as_pts([0.0, 1.0, 2.0, 3.0])
    net = build_net(cKDTree(pts), np.arange(4), 1.5)
    assert net.tolist() == [0, 2]


def test_net_separation_and_covering(circle):
    r = 0.3
    order = np.random.default_rng(1).permutation(len(circle))
    net = build_net(circle.tree, order, r)
    sel = circle.points[net]
    dist = np.linalg.norm(sel[:, None, :] - sel[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > r
    cover = np.linalg.norm(circle.points[:, None, :] - sel[None, :, :], axis=2).min(axis=1)
    assert (cover <= r).all()


def reference_net(points, order, r):
    """The greedy r-net as a plain admission loop that re-stacks the
    admitted points on every admission."""
    selected = []
    sel_pts = np.empty((0, points.shape[1]))
    for idx in order:
        p = points[idx]
        if len(selected):
            d2 = np.einsum("ij,ij->i", sel_pts - p, sel_pts - p)
            if d2.min() <= r * r:
                continue
        selected.append(int(idx))
        sel_pts = np.vstack([sel_pts, p[None, :]])
    return np.asarray(selected, dtype=int)


def reference_ball_family(net_points, quarter_radius):
    """Kept positions by the quarter-ball drop rule, scanned in net order."""
    kept = []
    kept_pts = np.empty((0, net_points.shape[1]))
    thr = (2.0 * quarter_radius) ** 2
    for pos, p in enumerate(net_points):
        if len(kept):
            d2 = np.einsum("ij,ij->i", kept_pts - p, kept_pts - p)
            if d2.min() <= thr:
                continue
        kept.append(pos)
        kept_pts = np.vstack([kept_pts, p[None, :]])
    return np.asarray(kept, dtype=int)


def reference_first_within(points, centers, r2):
    """First centre within squared distance r2 of each point, from the full
    point-to-centre table."""
    first = np.full(len(points), -1, dtype=int)
    diff = points[:, None, :] - centers[None, :, :]
    inside = np.einsum("ijk,ijk->ij", diff, diff) <= r2
    has = inside.any(axis=1)
    if has.any():
        first[has] = np.argmax(inside[has], axis=1)
    return first


def reference_partition(points, net_points, kept, quarter_radius):
    """The partition by full-table lookups: kept quarter balls first, then
    leftover quarter balls routed to the first kept ball they meet."""
    q2 = quarter_radius * quarter_radius
    assignment = reference_first_within(points, net_points[kept], q2)
    unassigned = assignment < 0
    if not unassigned.any():
        return assignment
    leftover = np.ones(len(net_points), dtype=bool)
    leftover[kept] = False
    two_q = 2.0 * quarter_radius
    g = reference_first_within(net_points[leftover], net_points[kept], two_q * two_q)
    if (g < 0).any():
        raise InvariantError("dropped net ball meets no kept quarter ball")
    first = reference_first_within(points[unassigned], net_points[leftover], q2)
    if (first < 0).any():
        raise InvariantError("net covering violated: point outside every quarter ball")
    assignment[unassigned] = g[first]
    return assignment


def outcome(fn, *args):
    """A routine's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except InvariantError as exc:
        return repr(exc)


def same(a, b):
    """The same raised error, or equal integer arrays."""
    if isinstance(a, str) or isinstance(b, str):
        return isinstance(a, str) and isinstance(b, str) and a == b
    return a.dtype.kind == b.dtype.kind == "i" and np.array_equal(a, b)


# Integer grids with radii whose squares are exact, so many center
# distances land exactly on r, q or 2q and the closed comparisons decide.
grid_clouds = st.integers(1, 3).flatmap(
    lambda D: st.lists(st.lists(st.integers(0, 5), min_size=D, max_size=D), min_size=1, max_size=40)
).map(lambda rows: np.asarray(rows, dtype=float))


@given(grid_clouds, st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), st.sampled_from([0.5, 1.0, 1.5]), st.data())
def test_greedy_routines_match_reference_loop(pts, r, q, data):
    order = np.asarray(data.draw(st.permutations(range(len(pts)))), dtype=int)
    tree = cKDTree(pts)
    net = build_net(tree, order, r)
    assert net.dtype.kind == "i"
    assert np.array_equal(net, reference_net(pts, order, r))
    for net_points in (pts, pts[net]):
        kept = build_ball_family(net_points, q)
        assert kept.dtype.kind == "i"
        assert np.array_equal(kept, reference_ball_family(net_points, q))
    # a q-net covers within q, so the partition exists; an r-net with r > q
    # may not cover, and both versions must then raise the same error
    for net_points in (pts[build_net(tree, order, q)], pts[net]):
        kept = build_ball_family(net_points, q)
        args = (net_points, kept, q)
        assert same(outcome(build_partition, tree, *args), outcome(reference_partition, pts, *args))
    centers = pts[data.draw(st.lists(st.integers(0, len(pts) - 1), max_size=12))]
    for r2 in (r * r, q * q, (2.0 * q) * (2.0 * q)):
        assert same(_first_within(tree, centers, r2), reference_first_within(pts, centers, r2))


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 300))
def test_tree_searches_keep_exact_boundary_hits(seed, D, n):
    # r2 is the squared distance of a pair, so points sit on the sphere
    # itself, where a tree search at radius sqrt(r2) can round either way;
    # at 1e-160 the squared distances are subnormal, below the pad's reach
    rng = np.random.default_rng(seed)
    unit = rng.normal(size=(n, D))
    for scale in (10.0 ** rng.integers(-3, 4), 1e-160, 1e-150, 1e150):
        pts = unit * scale
        tree = cKDTree(pts)
        centers = pts[rng.choice(n, size=min(n, 20), replace=False)]
        for i, j in rng.integers(0, n, size=(4, 2)):
            r2 = float(np.einsum("i,i->", pts[i] - pts[j], pts[i] - pts[j]))
            assert same(_first_within(tree, centers, r2), reference_first_within(pts, centers, r2))
            r = float(np.sqrt(r2))
            order = rng.permutation(n)
            assert np.array_equal(build_net(tree, order, r), reference_net(pts, order, r))


def test_ball_family_drop_rule_is_closed():
    # centers exactly 2q apart have touching quarter balls: dropped
    pts = as_pts([0.0, 0.6, 1.3])
    kept = build_ball_family(pts, 0.3)
    assert kept.tolist() == [0, 2]


def test_partition_hand_case_direct_assignment():
    pts = as_pts([0.0, 0.2, 1.0, 1.1, 2.5])
    net = build_net(cKDTree(pts), np.arange(5), 0.3)
    assert net.tolist() == [0, 2, 4]
    kept = build_ball_family(pts[net], 0.3)
    assert kept.tolist() == [0, 1, 2]
    part = build_partition(cKDTree(pts), pts[net], kept, 0.3)
    assert part.tolist() == [0, 0, 1, 1, 2]
    # a point exactly on the quarter sphere is inside (q**2 is one ulp
    # below the rounded q*q for this q)
    q = 2 * 0.35**8
    pts = as_pts([0.0, q])
    assert build_partition(cKDTree(pts), pts[:1], np.array([0]), q).tolist() == [0, 0]


def test_partition_hand_case_leftover_routing():
    # net point at 0.5 is dropped (within 2q of 0); the point it covers is
    # routed to the kept ball its quarter ball meets
    pts = as_pts([0.0, 0.5, 0.9])
    net = build_net(cKDTree(pts), np.arange(3), 0.3)
    assert net.tolist() == [0, 1, 2]
    kept = build_ball_family(pts[net], 0.3)
    assert kept.tolist() == [0, 2]
    part = build_partition(cKDTree(pts), pts[net], kept, 0.3)
    assert part.tolist() == [0, 0, 1]


def test_partition_covering_violation_is_an_invariant_error():
    # the net misses the point at 5: no quarter ball, kept or leftover, holds it
    pts = as_pts([0.0, 5.0])
    with pytest.raises(InvariantError, match="outside every quarter ball"):
        build_partition(cKDTree(pts), pts[:1], np.array([0]), 1.0)


def test_partition_leftover_routing_runs_in_bounded_memory():
    # every point misses the kept quarter ball at 0 and lies in leftover
    # quarter balls, so the last lookup spans a 6000 x 6000 table (288 MB)
    n = 6000
    pts = as_pts(np.linspace(1.1, 2.5, n))
    net_pts = as_pts(np.concatenate([[0.0], np.linspace(1.5, 2.0, n)]))
    tracemalloc.start()
    try:
        part = build_partition(cKDTree(pts), net_pts, np.array([0]), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (part == 0).all()
    assert peak < 200 * 2**20


def test_net_and_ball_family_run_in_bounded_memory():
    # every point is within r of every other: each point's candidate list
    # holds all 6000, so a walk that fetched the lists of many points at
    # once, or a full point-to-point table (288 MB), would exceed the bound
    n = 6000
    pts = as_pts(np.linspace(0.0, 1.0, n))
    order = np.random.default_rng(0).permutation(n)
    tracemalloc.start()
    try:
        net = build_net(cKDTree(pts), order, 1.0)
        kept = build_ball_family(pts, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.tolist() == [order[0]]
    assert kept.tolist() == [0]
    assert peak < 200 * 2**20


def test_a_family_builds_one_tree_over_the_whole_cloud(monkeypatch):
    # the nearest-neighbour scale, every net and every partition's first
    # pass read the cloud's cached tree; only the subsets (net points,
    # leftover centres, unassigned points) get trees of their own
    sizes = []

    class CountingTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            sizes.append(len(data))
            super().__init__(data, *args, **kwargs)

    monkeypatch.setattr(measure, "cKDTree", CountingTree)
    monkeypatch.setattr(multiscale, "cKDTree", CountingTree)
    cloud = gen_sphere(2, 2000)
    fam = MultiresolutionFamily(cloud, 0.25)
    for n in range(fam.n_top, fam.n_floor + 1):
        fam.level(n)
    assert fam.n_floor - fam.n_top >= 3
    assert len(sizes) > 1
    assert sizes.count(len(cloud)) == 1


def test_a_zero_radius_query_has_no_family_balls(circle):
    fam = MultiresolutionFamily(circle, 0.25)
    point = Ball(circle.points[0], 0.0)
    assert fam.levels_for(point) == range(0)
    assert jones_flatness_discrete(circle, point, fam, 1).total == 0.0
    with pytest.raises(ValueError, match="positive finite diameter"):
        fam.levels_for(Ball(circle.points[0], np.inf))


def test_partition_sandwich_on_random_cloud(circle):
    fam = MultiresolutionFamily(circle, 0.25, order_seed=0)
    lvl = fam.level(fam.n_top + 1)
    q = lvl.quarter_radius
    centers = lvl.centers(circle)
    own = np.linalg.norm(circle.points - centers[lvl.partition], axis=1)
    # every point within its cell's 3q ball; quarter-ball points in their own cell
    assert (own <= 3.0 * q * (1.0 + 1e-12)).all()
    d_all = np.linalg.norm(circle.points[:, None, :] - centers[None, :, :], axis=2)
    inside = d_all.min(axis=1) <= q
    assert (lvl.partition[inside] == d_all.argmin(axis=1)[inside]).all()


def test_netlevel_radii():
    cloud = gen_plane_patch(1, 2, 50, seed=0)
    fam = MultiresolutionFamily(cloud, 0.25, order_seed=0)
    lvl = fam.level(2)
    assert lvl.radius == 4.0 * 0.25**2
    assert lvl.quarter_radius == 0.25**2
    assert lvl.n_balls() == len(lvl.kept)
    ball = lvl.ball(cloud, 0)
    assert ball.radius == lvl.radius


def test_family_is_deterministic(circle):
    a = MultiresolutionFamily(circle, 0.25, order_seed=7)
    b = MultiresolutionFamily(circle, 0.25, order_seed=7)
    la, lb = a.level(a.n_top + 2), b.level(b.n_top + 2)
    assert np.array_equal(la.net, lb.net)
    assert np.array_equal(la.kept, lb.kept)
    assert np.array_equal(la.partition, lb.partition)
    assert a.level(a.n_top + 2) is la  # cached


def test_levels_for_starts_at_query_scale(circle):
    fam = MultiresolutionFamily(circle, 0.25, order_seed=0)
    rng = fam.levels_for(Ball(np.zeros(2), 0.125))  # diam 0.25 -> m = 1
    assert rng.start == 1
    assert rng.stop == fam.n_floor + 1


def test_local_family_center_distance_rule(circle):
    fam = MultiresolutionFamily(circle, 0.25, order_seed=0)
    query = Ball(circle.points[0], 0.2)
    fam_balls = local_family(fam, query)
    assert fam_balls
    for n, j, ball in fam_balls:
        assert n >= scale_index(query.diameter, 0.25)
        gap = float(np.linalg.norm(ball.center - query.center))
        assert gap <= ball.radius + query.radius


def test_flatness_guard_rejects_foreign_cloud(circle, patch12):
    fam = MultiresolutionFamily(circle, 0.25, order_seed=0)
    with pytest.raises(ValueError):
        jones_flatness_discrete(patch12, circle.bounding_ball(), fam, 1)


def test_flatness_vanishes_on_flat_cloud(patch12):
    fam = MultiresolutionFamily(patch12, 0.25, order_seed=0)
    rep = jones_flatness_discrete(patch12, patch12.bounding_ball(), fam, 1)
    assert rep.total <= 1e-12
    cont = jones_flatness_continuous(patch12, patch12.bounding_ball(), 1, x_cap=32)
    assert cont.total <= 1e-12


def test_flatness_positive_on_circle(circle):
    fam = MultiresolutionFamily(circle, 0.25, order_seed=0)
    rep = jones_flatness_discrete(circle, circle.bounding_ball(), fam, 1)
    assert rep.total > 1e-4
    assert set(rep.terms[0]) == {"level", "j", "beta2sq", "mass"}


def test_family_floor_sandwich(circle, patch12):
    dup = WeightedPointCloud(np.zeros((10, 2)), np.ones(10))
    for cloud in (circle, patch12, gen_four_corner_cantor(3), dup):
        for alpha0 in (0.1, 0.25, 0.5, 0.7):
            fam = MultiresolutionFamily(cloud, alpha0)
            floor = cloud.median_nn_distance() or 1e-9 * max(cloud.support_diameter(), 1e-300)
            assert alpha0**fam.n_floor >= floor > alpha0 ** (fam.n_floor + 1)
            assert fam.n_top <= fam.n_floor < fam.n_top + MAX_LEVELS_BELOW_TOP
    fam = MultiresolutionFamily(dup, 0.25)  # floor 1e-9 diam, 14 levels down
    assert (fam.n_top, fam.n_floor) == (499, 513)


def test_family_refuses_a_floor_past_the_level_cap():
    cloud = gen_sphere(2, 300, seed=1)
    fam = MultiresolutionFamily(cloud, 0.9)  # 52 levels below n_top
    assert fam.n_floor - fam.n_top == 52
    with pytest.raises(ValueError, match="109 levels below the top level -13.*cap of 64"):
        MultiresolutionFamily(cloud, 0.95)


def test_family_rejects_bad_alpha0(circle):
    with pytest.raises(ValueError):
        MultiresolutionFamily(circle, 1.0)


def test_continuous_flatness_rejects_bad_x_cap(circle):
    for x_cap in (0, -1):
        with pytest.raises(ValueError, match="x_cap"):
            jones_flatness_continuous(circle, circle.bounding_ball(), 1, x_cap=x_cap)


def test_continuous_flatness_rejects_a_ball_wider_than_its_scale_grid():
    # 1e-12 * diam(B) above the median nearest-neighbour distance: the grid
    # would stop far above the support's scales and return almost nothing
    circle = gen_sphere(2, 50, seed=0)
    assert jones_flatness_continuous(circle, Ball(np.zeros(2), 1.5), 1).total > 1e-3
    with pytest.raises(ValueError, match="median nearest-neighbour distance"):
        jones_flatness_continuous(circle, Ball(np.zeros(2), 1e30), 1)
    # at median nearest-neighbour distance 0 only an infinite width is too
    # wide: its scales t = inf never fall below the floor
    dup = WeightedPointCloud(np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), np.ones(4))
    assert dup.median_nn_distance() == 0.0
    assert jones_flatness_continuous(dup, Ball(np.zeros(2), 2.0), 1).total == 0.0
    with pytest.raises(ValueError, match="median nearest-neighbour distance"):
        jones_flatness_continuous(dup, Ball(np.zeros(2), np.inf), 1)


def _continuous_by_ball(cloud, query, d, x_cap):
    """(total, terms) of J^c with one beta2 call per (x, t), in the order the
    functional sums them."""
    idx = cloud.in_ball(query)
    mass_b = float(cloud.weights[idx].sum())
    sub = idx[:: math.ceil(len(idx) / x_cap)] if len(idx) > x_cap else idx
    w_sub = cloud.weights[sub] * (mass_b / cloud.weights[sub].sum())
    floor = max(cloud.median_nn_distance(), 1e-12 * query.diameter)
    total, terms, t = 0.0, [], query.diameter
    while t >= floor:
        layer = 0.0
        for pi, wx in zip(sub, w_sub):
            b2 = beta2(cloud, Ball(cloud.points[pi], t), d).value ** 2
            layer += wx * b2
            terms.append({"t": t, "x": int(pi), "beta2sq": b2, "weight": float(wx)})
        total += math.log(2.0) * layer
        t *= 0.5
    return total, terms


@pytest.mark.parametrize("x_cap", [64, 256])
def test_continuous_flatness_is_the_per_ball_sum_bit_for_bit(circle, graph12, sphere3, x_cap):
    for cloud, d in ((circle, 1), (graph12, 1), (sphere3, 2)):
        # the whole cloud, and a ball narrower than the grid's floor: no scales
        for query in (cloud.bounding_ball(), Ball(cloud.points[0], 1e-6)):
            total, terms = _continuous_by_ball(cloud, query, d, x_cap)
            rep = jones_flatness_continuous(cloud, query, d, x_cap=x_cap)
            assert float(rep.total).hex() == float(total).hex()
            assert rep.terms == terms
            assert [t["beta2sq"].hex() for t in rep.terms] == [t["beta2sq"].hex() for t in terms]


def test_continuous_flatness_runs_in_bounded_memory():
    # every ball of the two coarsest scales holds all 6000 points: one scan
    # table of all 250 centres, or one layer's fits at once, would hold
    # 250 x 6000 rows
    n = 6000
    cloud = WeightedPointCloud(as_pts(np.linspace(0.0, 1.0, n)), np.full(n, 1.0 / n))
    cloud.median_nn_distance()
    tracemalloc.start()
    try:
        rep = jones_flatness_continuous(cloud, Ball(np.array([0.5]), 1.0), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.total == 0.0 and len(rep.terms) == 250 * 14
    assert peak < 40 * 2**20


def test_continuous_flatness_names_an_overflowing_nearest_neighbour_scale():
    base = gen_sphere(2, 40)
    cloud = WeightedPointCloud(base.points * 2.0**520, base.weights)
    assert cloud.median_nn_distance() == np.inf
    with pytest.raises(ValueError, match="median nearest-neighbour distance is not finite"):
        jones_flatness_continuous(cloud, Ball(np.zeros(2), 2.0**521), 1)


def test_beta2_scans_once_and_repeated_query_scans_nothing(circle, monkeypatch):
    scans = []
    contains = Ball.contains

    def counting(self, points):
        scans.append(self.radius)
        return contains(self, points)

    monkeypatch.setattr(Ball, "contains", counting)
    beta2(circle, Ball(circle.points[0], 0.5), 1)
    assert len(scans) == 1

    fam = MultiresolutionFamily(circle, 0.25, order_seed=0)
    query = Ball(circle.points[0], 0.5)
    scans.clear()
    first = jones_flatness_discrete(circle, query, fam, 1)
    assert len(scans) == len(first.terms)  # one restriction per family ball
    scans.clear()
    second = jones_flatness_discrete(circle, query, fam, 1)
    assert scans == []
    assert second.total == first.total and second.terms == first.terms
    monkeypatch.undo()
    for t in first.terms:
        ball = fam.level(t["level"]).ball(circle, t["j"])
        assert t["mass"] == circle.mass_in(ball)
