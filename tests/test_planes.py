import math

import numpy as np
import pytest

from menger import planes
from menger.measure import Ball, WeightedPointCloud, gen_lipschitz_graph, gen_sphere
from menger.planes import AffinePlane, _beta2_layers, _beta2_values, beta2


def _fit_oracle(points, weights, d):
    """Weighted PCA plane, one statement per step with a per-row sign loop:
    the reference `beta2` must match bit for bit."""
    P = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    D = P.shape[1]
    centroid = (w[:, None] * P).sum(axis=0) / w.sum()
    V = P - centroid
    scatter = (w[:, None] * V).T @ V
    if not np.any(scatter):
        return centroid, np.eye(D)[:d]
    _, vec = np.linalg.eigh(scatter)
    basis = vec[:, ::-1][:, :d].T.copy()
    for row in basis:
        lead = np.argmax(np.abs(row))
        if row[lead] < 0:
            row *= -1.0
    return centroid, basis


def _beta2_oracle(cloud, idx, ball, d):
    """(value, mass, point, basis) of beta_2(B) over the points idx of B,
    from the oracle fit and a fresh centring of the points."""
    if len(idx) == 0:
        return 0.0, 0.0, ball.center, np.eye(cloud.ambient_dim)[:d]
    points, weights = cloud.points[idx], cloud.weights[idx]
    point, basis = _fit_oracle(points, weights, d)
    value = 0.0
    if ball.radius != 0.0:
        W = (points - point) - (points - point) @ basis.T @ basis
        dist = np.sqrt(np.einsum("ij,ij->i", W, W))
        value = float(np.sqrt(np.sum(weights * (dist / (2.0 * ball.radius)) ** 2) / weights.sum()))
    return value, float(weights.sum()), point, basis


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def line_cloud():
    pts = np.array([[0.0, 0.0], [1.0, 0.1], [2.0, 0.2], [3.0, 0.3]])
    return WeightedPointCloud(pts, np.full(4, 0.25))


def test_affine_plane_validates_basis():
    with pytest.raises(ValueError):
        AffinePlane(np.zeros(2), np.array([[1.0, 1.0]]))  # not unit
    with pytest.raises(ValueError):
        AffinePlane(np.zeros(2), np.array([[1.0, 0.0], [1.0, 0.0]]))  # not orthogonal


def test_projection_and_distance_consistent():
    plane = AffinePlane(np.array([1.0, 1.0, 0.0]), np.array([[1.0, 0.0, 0.0]]))
    x = np.array([4.0, 3.0, 2.0])
    p = np.array([4.0, 1.0, 0.0])  # the foot of x on the line, by hand
    many = plane.distance_many(np.stack([x, p]))
    assert math.isclose(many[0], math.sqrt(8.0), rel_tol=1e-12)
    assert math.isclose(many[0], float(np.linalg.norm(x - p)), rel_tol=1e-12)
    assert many[1] <= 1e-12


def _plane_of_all(pts, w, d):
    """The plane of beta_2 over a ball that holds every point."""
    return beta2(WeightedPointCloud(pts, w), Ball(np.zeros(pts.shape[1]), 1e3), d).plane


def test_beta2_plane_recovers_exact_line():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]])
    plane = _plane_of_all(pts, np.ones(4), 1)
    assert plane.distance_many(pts).max() <= 1e-12


def test_beta2_plane_optimal_against_angle_scan():
    # independent oracle: best line through the weighted centroid, scanned
    # over a fine angle grid; the fitted plane may not do worse
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(20, 2)) * np.array([2.0, 0.5])
    w = rng.uniform(0.5, 2.0, size=20)

    plane = _plane_of_all(pts, w, 1)
    obj = float(np.sum(w * plane.distance_many(pts) ** 2))

    centroid = (w[:, None] * pts).sum(axis=0) / w.sum()
    V = pts - centroid
    best = np.inf
    for theta in np.linspace(0.0, np.pi, 4000, endpoint=False):
        n = np.array([-math.sin(theta), math.cos(theta)])
        best = min(best, float(np.sum(w * (V @ n) ** 2)))
    assert obj <= best * (1.0 + 1e-9)


def test_beta2_rejects_plane_dimension_out_of_range():
    cloud = WeightedPointCloud(np.zeros((3, 2)), np.ones(3))
    for d in (0, 3):
        with pytest.raises(ValueError):
            beta2(cloud, Ball(np.zeros(2), 1.0), d)


def test_fit_is_deterministic():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(30, 3))
    w = rng.uniform(0.1, 1.0, size=30)
    a = _plane_of_all(pts, w, 2)
    b = _plane_of_all(pts, w, 2)
    assert np.array_equal(a.point, b.point)
    assert np.array_equal(a.basis, b.basis)


def test_beta2_square_corners_exact_value():
    # corners of the unit square, d=1: any line through the centroid gives
    # the same objective, beta_2 = 1/4 exactly (sum w dist^2 = 1/4, diam = 2)
    pts = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    cloud = WeightedPointCloud(pts, np.full(4, 0.25))
    res = beta2(cloud, Ball(np.zeros(2), 1.0), 1)
    assert math.isclose(res.value, 0.25, rel_tol=1e-12)
    assert res.mass == 1.0


def test_beta2_vanishes_on_a_line():
    res = beta2(line_cloud(), Ball(np.array([1.5, 0.15]), 5.0), 1)
    assert res.value <= 1e-12
    assert math.isclose(res.mass, 1.0, rel_tol=1e-12)


def test_beta2_fitted_plane_beats_any_other_plane():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 2))
    cloud = WeightedPointCloud(pts, np.full(40, 1.0 / 40))
    ball = Ball(np.zeros(2), 3.0)
    res = beta2(cloud, ball, 1)
    idx = cloud.in_ball(ball)
    for theta in np.linspace(0.0, np.pi, 50, endpoint=False):
        other = AffinePlane(res.plane.point, np.array([[math.cos(theta), math.sin(theta)]]))
        w = cloud.weights[idx]
        value = _beta2_values(other.distance_many(cloud.points[idx]), w, [(0, len(w))], [w.sum()], ball.radius)
        assert res.value <= value[0] * (1.0 + 1e-9)


def test_beta2_empty_ball():
    res = beta2(line_cloud(), Ball(np.array([50.0, 50.0]), 0.5), 1)
    assert res.value == 0.0
    assert res.mass == 0.0


def test_beta2_of_a_point_mass_is_zero():
    # a ball of radius 0 would divide 0 by its diameter 0
    cloud = WeightedPointCloud(np.tile([0.1, 0.2], (3, 1)), np.ones(3))
    ball = Ball(cloud.points[0], 0.0)
    res = beta2(cloud, ball, 1)
    assert res.value == 0.0
    assert res.mass == 3.0
    dist = res.plane.distance_many(cloud.points)
    assert _beta2_values(dist, cloud.weights, [(0, len(dist))], [res.mass], ball.radius)[0] == 0.0


def test_beta2_uses_ball_diameter():
    # doubling the ball radius around the same support halves dist/diam
    pts = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    cloud = WeightedPointCloud(pts, np.full(4, 0.25))
    small = beta2(cloud, Ball(np.zeros(2), 1.0), 1).value
    big = beta2(cloud, Ball(np.zeros(2), 2.0), 1).value
    assert math.isclose(big, small / 2.0, rel_tol=1e-12)


def _clouds():
    graph = gen_lipschitz_graph(2, 4, 0.8, 500, seed=6)
    # dyadic coordinates and weights: the centroid is exact, so the scatter is 0
    equal = WeightedPointCloud(np.tile([0.5, -0.25, 1.0], (4, 1)), np.full(4, 0.25))
    return [(gen_sphere(2, 400, seed=3), 1), (gen_sphere(3, 600, seed=4), 2), (graph, 2),
            (graph, 4), (equal, 2), (equal, 3)]


def _dyadic_grid():
    """The points of a 17 x 17 grid of step 1/8: from a grid point, others
    lie exactly on the spheres of radius 1/2 and 5/8 (3-4-5 triangles), with
    exact squared distances."""
    g = np.arange(-8, 9) / 8.0
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    return WeightedPointCloud(pts, np.random.default_rng(9).uniform(0.5, 2.0, len(pts)))


@pytest.mark.parametrize("case", range(6))
def test_beta2_matches_the_oracle_bit_for_bit(case):
    cloud, d = _clouds()[case]
    D = cloud.ambient_dim
    balls = [Ball(cloud.points[i], r) for i in range(0, len(cloud), 41) for r in (0.0, 0.05, 0.2, 0.5, 3.0)]
    balls.append(Ball(np.full(D, 50.0), 0.5))  # empty
    for ball in balls:
        V = cloud.points - ball.center
        idx = np.nonzero(np.einsum("ij,ij->i", V, V) <= ball.radius * ball.radius)[0]
        res = beta2(cloud, ball, d)
        value, mass, point, basis = _beta2_oracle(cloud, idx, ball, d)
        assert _bits(res.value) == _bits(value) and _bits(res.mass) == _bits(mass)
        assert np.array_equal(_bits(res.plane.point), _bits(point))
        assert np.array_equal(_bits(res.plane.basis), _bits(basis))


@pytest.mark.parametrize("case", range(7))
def test_beta2_layers_match_the_oracle_bit_for_bit(case, monkeypatch):
    cloud, d = [*_clouds(), (_dyadic_grid(), 1)][case]
    D = cloud.ambient_dim
    centers = np.vstack([cloud.points[::41], np.full((1, D), 50.0)])  # the last ball is always empty
    radii = [3.0, 0.625, 0.5, 0.2, 0.05, 1e-9, 0.0]  # all-covering down to tiny and 0
    values, masses = _beta2_layers(cloud, centers, radii, d)
    on_sphere = 0
    for j, r in enumerate(radii):
        for i, c in enumerate(centers):
            V = cloud.points - c
            d2 = np.einsum("ij,ij->i", V, V)
            on_sphere += np.count_nonzero(d2 == r * r)
            value, mass, _, _ = _beta2_oracle(cloud, np.nonzero(d2 <= r * r)[0], Ball(c, r), d)
            assert _bits(values[j, i]) == _bits(value) and _bits(masses[j, i]) == _bits(mass)
    if case == 6:
        assert on_sphere > 50
    # one centre per block: every layer's flat arrays split at other seams
    monkeypatch.setattr(planes, "BATCH_ROWS", 1)
    seams = _beta2_layers(cloud, centers, radii, d)
    assert np.array_equal(_bits(seams[0]), _bits(values)) and np.array_equal(_bits(seams[1]), _bits(masses))


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
def test_an_overflowing_scatter_is_refused_by_name():
    # squared distances of about 2^1040 to the centroid: the scatter is +inf
    base = gen_sphere(2, 40)
    cloud = WeightedPointCloud(base.points * 2.0**520, base.weights)
    with pytest.raises(ValueError, match="scatter matrix of a ball's points is not finite"):
        beta2(cloud, Ball(np.zeros(2), 2.0**521), 1)
    with pytest.raises(ValueError, match="scatter matrix of a ball's points is not finite"):
        _beta2_layers(cloud, cloud.points[:2], [2.0**522, 2.0**521], 1)


@pytest.mark.parametrize(
    "basis, ok",
    [
        ([[1.0, 0.0, 0.0], [9e-9, math.sqrt(1.0 - 9e-9**2), 0.0]], True),
        ([[1.0, 0.0, 0.0], [1.1e-8, math.sqrt(1.0 - 1.1e-8**2), 0.0]], False),
        ([[math.sqrt(1.0 + 1e-5), 0.0, 0.0]], True),
        ([[math.sqrt(1.0 + 2e-5), 0.0, 0.0]], False),
        ([[np.nan, 0.0, 0.0]], False),
    ],
)
def test_affine_plane_orthonormality_tolerance(basis, ok):
    # off-diagonal Gram entries within 1e-8, diagonal ones within 1e-8 + 1e-5
    if ok:
        AffinePlane(np.zeros(3), np.array(basis))
    else:
        with pytest.raises(ValueError, match="orthonormal"):
            AffinePlane(np.zeros(3), np.array(basis))
