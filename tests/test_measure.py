import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from menger.measure import (
    Ball,
    WeightedPointCloud,
    gen_four_corner_cantor,
    gen_lipschitz_graph,
    gen_plane_patch,
    gen_sphere,
    regularity_constant,
)


def test_cloud_constructor_validation():
    with pytest.raises(ValueError):
        WeightedPointCloud(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        WeightedPointCloud(np.zeros((2, 2)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        WeightedPointCloud(np.zeros((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        WeightedPointCloud(np.array([[np.inf, 0.0]]), np.ones(1))
    with pytest.raises(ValueError):
        WeightedPointCloud(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        WeightedPointCloud(np.zeros((2, 0)), np.ones(2))


@pytest.mark.parametrize("n", [0, -1])
def test_generators_reject_empty_samples(n):
    for gen in (
        lambda: gen_sphere(2, n),
        lambda: gen_plane_patch(1, 2, n),
        lambda: gen_lipschitz_graph(1, 2, 0.5, n),
    ):
        with pytest.raises(ValueError, match="n >= 1"):
            gen()


def test_ball_membership_is_closed():
    cloud = WeightedPointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), np.ones(3))
    ball = Ball(np.zeros(2), 1.0)
    assert cloud.in_ball(ball).tolist() == [0, 1]  # boundary point counts
    assert cloud.mass_in(ball) == 2.0
    # r**2 (libm pow) rounds one ulp below r*r here, which would drop a
    # point whose squared distance is exactly the rounded r*r
    r = 2 * 0.35**8
    assert Ball(np.zeros(2), r).contains([[r, 0.0]]).tolist() == [True]
    with pytest.raises(ValueError):
        Ball(np.zeros(2), -1.0)


def _contains_oracle(ball, points):
    """Closed-ball membership as the row einsum, the definition that
    Ball.contains must reproduce bit for bit."""
    V = np.asarray(points, dtype=float) - ball.center
    return np.einsum("ij,ij->i", V, V) <= ball.radius * ball.radius


@pytest.mark.parametrize("scale", [1e-160, 1e-150, 1.0, 1e150])
@pytest.mark.parametrize("D", range(1, 7))
def test_contains_matches_the_einsum_on_the_boundary(D, scale):
    # radii whose r*r lands on, or a few ulps from, a row's einsum value:
    # there a column-order sum one ulp off the einsum flips the decision
    rng = np.random.default_rng(D)
    center = rng.normal(size=D) * scale
    points = rng.normal(size=(300, D)) * scale
    points[1] = center
    V = points - center
    e = np.einsum("ij,ij->i", V, V)
    radii = [0.0, math.inf]
    for v in e[:64]:
        r = math.sqrt(v)
        radii += [r, np.nextafter(r, 0.0), np.nextafter(r, math.inf)]
        radii += [math.sqrt(np.nextafter(v, 0.0)), math.sqrt(np.nextafter(v, math.inf))]
    for r in radii:
        ball = Ball(center, r)
        assert np.array_equal(ball.contains(points), _contains_oracle(ball, points)), (D, scale, r)


def test_ball_validates_centre_radius_and_dimension():
    for center in ([np.nan, 0.0], [0.0, np.inf], [[0.0, 0.0]], [], 0.0):
        with pytest.raises(ValueError, match="centre"):
            Ball(center, 1.0)
    with pytest.raises(ValueError, match="radius"):
        Ball(np.zeros(2), np.nan)
    with pytest.raises(ValueError, match="radius"):
        Ball(np.zeros(2), 1.0).blow(np.nan)
    cloud = WeightedPointCloud(np.array([[0.0, 0.0], [1.0, 3.0]]), np.ones(2))
    assert cloud.in_ball(Ball(np.zeros(2), math.inf)).tolist() == [0, 1]  # +inf stays legal
    # a 1-D centre would broadcast over both axes of a 2-D cloud
    with pytest.raises(ValueError, match="match the ball centre"):
        cloud.in_ball(Ball([0.0], 1.5))
    with pytest.raises(ValueError, match="match the ball centre"):
        Ball(np.zeros(2), 1.0).contains(np.zeros(2))


def test_csv_roundtrip_is_exact(tmp_path):
    cloud = gen_four_corner_cantor(2)
    path = tmp_path / "c.csv"
    cloud.to_csv(path)
    back = WeightedPointCloud.from_csv(path)
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.weights, cloud.weights)


def test_csv_roundtrip_random_weights(tmp_path):
    rng = np.random.default_rng(8)
    cloud = WeightedPointCloud(rng.normal(size=(25, 3)), rng.uniform(0.01, 2.0, size=25))
    path = tmp_path / "r.csv"
    cloud.to_csv(path)
    back = WeightedPointCloud.from_csv(path)
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.weights, cloud.weights)


def test_csv_reader_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0,1.0\n")
    with pytest.raises(ValueError):
        WeightedPointCloud.from_csv(p)  # no dim header
    p.write_text("dim=2\n1.0,2.0\n")
    with pytest.raises(ValueError):
        WeightedPointCloud.from_csv(p)  # missing weight field
    p.write_text("dim=2\n1.0,2.0,0.0\n")
    with pytest.raises(ValueError):
        WeightedPointCloud.from_csv(p)  # nonpositive weight
    p.write_text("dim=2\n")
    with pytest.raises(ValueError):
        WeightedPointCloud.from_csv(p)  # no points
    for numeral in ("1_0", "\u0661"):  # float() reads both, a CSV numeral neither
        p.write_text(f"dim=2\n{numeral},2.0,1.0\n")
        with pytest.raises(ValueError):
            WeightedPointCloud.from_csv(p)


# ---------------------------------------------------------------------------
# generators


def test_cantor_counts_and_weights():
    for level in (0, 1, 2, 3):
        cloud = gen_four_corner_cantor(level)
        assert len(cloud) == 4**level
        assert np.all(cloud.weights == 4.0**-level)
        assert math.isclose(cloud.total_mass(), 1.0, rel_tol=1e-12)


def test_cantor_geometry_oracles():
    # siblings of one parent square sit 3*4^-n apart; the construction stays
    # centred with extent (1 - 4^-n)/2
    for level in (1, 2, 3):
        cloud = gen_four_corner_cantor(level)
        diff = cloud.points[:, None, :] - cloud.points[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        assert math.isclose(dist.min(), 3.0 * 4.0**-level, rel_tol=1e-12)
        assert math.isclose(np.abs(cloud.points).max(), (1.0 - 4.0**-level) / 2.0, rel_tol=1e-12)


def test_cantor_quadrant_mass():
    cloud = gen_four_corner_cantor(3)
    # one level-1 cell occupies the square of side 1/4 centred at (3/8, 3/8)
    assert math.isclose(cloud.mass_in(Ball(np.array([0.375, 0.375]), 0.25)), 0.25, rel_tol=1e-12)


def test_plane_patch_is_flat_and_uniform():
    cloud = gen_plane_patch(2, 4, 500, seed=9)
    assert cloud.points.shape == (500, 4)
    assert np.all(cloud.points[:, 2:] == 0.0)
    assert np.all(np.abs(cloud.points[:, :2]) <= 0.5)
    assert math.isclose(cloud.total_mass(), 1.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        gen_plane_patch(3, 2, 10)


def test_sphere_points_have_unit_norm():
    cloud = gen_sphere(3, 200, seed=1)
    assert np.allclose(np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-12)


def test_lipschitz_graph_honours_its_constant():
    lip = 0.5
    cloud = gen_lipschitz_graph(1, 3, lip, 400, seed=2)
    x = cloud.points[:, :1]
    y = cloud.points[:, 1:]
    dx = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    dy = np.linalg.norm(y[:, None, :] - y[None, :, :], axis=2)
    mask = dx > 0
    assert (dy[mask] <= lip * dx[mask] * (1.0 + 1e-9)).all()


def test_generators_are_seeded():
    a = gen_sphere(2, 50, seed=4).points
    b = gen_sphere(2, 50, seed=4).points
    c = gen_sphere(2, 50, seed=5).points
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# queries


def test_support_diameter_pair():
    cloud = WeightedPointCloud(np.array([[0.0, 0.0], [3.0, 4.0]]), np.ones(2))
    assert cloud.support_diameter() == 5.0


def test_support_diameter_is_exact_above_20000_points():
    # a centroid bound would give 2 * (1 - centroid) = 1.9999 here
    x = np.zeros(20001)
    x[1:-1] = np.linspace(1e-6, 1e-3, 19999)
    x[-1] = 1.0
    cloud = WeightedPointCloud(x[:, None], np.ones(len(x)))
    assert cloud.support_diameter() == 1.0


def reference_diameter(points):
    """sqrt of the largest squared distance over all pairs, 100 rows at a time."""
    best = 0.0
    for lo in range(0, len(points), 100):
        diff = points[lo : lo + 100, None, :] - points[None, :, :]
        best = max(best, float(np.einsum("ijk,ijk->ij", diff, diff).max()))
    return float(np.sqrt(best))


def _diameter_cloud(kind, n, rng):
    if kind == "circle":
        t = rng.uniform(0.0, 2.0 * np.pi, n)
        return np.c_[np.cos(t), np.sin(t)]
    if kind == "sphere":
        g = rng.normal(size=(n, 3))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    if kind == "duplicates":
        return rng.normal(size=(5, 2))[rng.integers(0, 5, n)]
    if kind == "collinear":
        return rng.uniform(-1.0, 1.0, (n, 1)) * rng.normal(size=(1, 3)) + rng.normal(size=(1, 3))
    if kind == "tied":
        # a regular polygon: every vertex has an antipode at the same
        # distance, plus interior points
        m = 2 * int(rng.integers(2, 40))
        t = 2.0 * np.pi * np.arange(m) / m
        inner = rng.uniform(-0.5, 0.5, (n - m, 2))
        return np.r_[np.c_[np.cos(t), np.sin(t)], inner][rng.permutation(n)]
    if kind == "blob":
        return rng.normal(size=(n, 3))
    return np.repeat(rng.normal(size=(1, 2)), n, axis=0)  # one point


@given(
    st.sampled_from(["circle", "sphere", "blob", "duplicates", "collinear", "tied", "single"]),
    st.integers(257, 3000),
    st.sampled_from([1e-150, 1.0, 1e150]),
    st.integers(0, 2**32 - 1),
)
def test_support_diameter_matches_all_pairs_max(kind, n, scale, seed):
    pts = scale * _diameter_cloud(kind, n, np.random.default_rng(seed))
    cloud = WeightedPointCloud(pts, np.ones(len(pts)))
    assert cloud.support_diameter() == reference_diameter(pts)
    solo = WeightedPointCloud(pts[:1], np.ones(1))
    assert solo.support_diameter() == 0.0


def test_support_diameter_scans_a_pair_whose_bound_is_tight():
    # Four clusters of 256 equal points, so every leaf is one point-sized
    # box and the P-Q leaf pair's bound is exactly |P - Q|^2.  The sweep
    # from R finds R-S, 1e-10 shorter in square: P-Q must still be scanned.
    p, q = np.array([0.4, 0.49]), np.array([0.6, -0.49])
    pq2 = float(np.einsum("i,i->", p - q, p - q))
    r, s = np.zeros(2), np.array([np.sqrt(pq2 * (1.0 - 1e-10)), 0.0])
    pts = np.repeat(np.array([r, p, q, s]), 256, axis=0)
    cloud = WeightedPointCloud(pts, np.ones(len(pts)))
    assert float(np.einsum("i,i->", r - s, r - s)) < pq2
    assert cloud.support_diameter() == np.sqrt(pq2) == reference_diameter(pts)


@pytest.mark.parametrize("offset", [1e3, 1e8])
@pytest.mark.parametrize("kind", ["circle", "sphere", "tied"])
def test_support_diameter_far_from_the_origin(kind, offset):
    # uncentred, |x|^2 + |y|^2 - 2 x.y would cancel every digit of |x - y|^2
    pts = offset + _diameter_cloud(kind, 3000, np.random.default_rng(11))
    cloud = WeightedPointCloud(pts, np.ones(len(pts)))
    assert cloud.support_diameter() == reference_diameter(pts)


@pytest.mark.parametrize("scale", [1e-160, 1e-146, 1e154])
@pytest.mark.parametrize("kind", ["circle", "sphere", "blob", "tied"])
def test_support_diameter_at_extreme_scales(kind, scale):
    # 1e-160: subnormal squares, so the Gram margin is not a normal float;
    # 1e-146: the smallest decade whose margin is a normal float, so the
    # Gram blocks prune next to the subnormal range; 1e154: the Gram
    # products overflow while coordinates stay finite
    pts = scale * _diameter_cloud(kind, 2000, np.random.default_rng(12))
    cloud = WeightedPointCloud(pts, np.ones(len(pts)))
    assert cloud.support_diameter() == reference_diameter(pts)


@pytest.mark.parametrize("m", [1024, 2048, 4096])
def test_support_diameter_regular_polygon_ties(m):
    # every vertex has an antipode at the diameter up to the last bits, so
    # thousands of pairs sit within rounding of the maximum; without the
    # Gram margin the largest einsum is lost at seed 4 for 2048 and 4096
    for seed in range(6):
        rng = np.random.default_rng(seed)
        t = 2.0 * np.pi * np.arange(m) / m + rng.uniform(0.0, 2.0 * np.pi)
        pts = np.c_[np.cos(t), np.sin(t)][rng.permutation(m)]
        cloud = WeightedPointCloud(pts, np.ones(m))
        assert cloud.support_diameter() == reference_diameter(pts), seed


def test_median_nn_distance_grid():
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    cloud = WeightedPointCloud(pts, np.ones(4))
    assert cloud.median_nn_distance() == 1.0


def test_bounding_ball_contains_everything():
    cloud = gen_sphere(2, 100, seed=6)
    ball = cloud.bounding_ball()
    assert len(cloud.in_ball(ball)) == len(cloud)


def test_regularity_constant_circle_and_degenerate(circle):
    rep = regularity_constant(circle, 1, seed=3)
    assert not rep.degenerate
    assert 1.0 <= rep.estimated_Cmu < 50.0
    solo = WeightedPointCloud(np.zeros((1, 2)), np.ones(1))
    assert regularity_constant(solo, 1).degenerate


def test_subset_preserves_data(circle):
    sub = circle.subset(np.arange(10))
    assert np.array_equal(sub.points, circle.points[:10])
    assert np.array_equal(sub.weights, circle.weights[:10])
