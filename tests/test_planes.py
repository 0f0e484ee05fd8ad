import math

import numpy as np
import pytest

from menger.measure import Ball, WeightedPointCloud
from menger.planes import AffinePlane, _beta2_value, beta2, fit_plane_points


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


def test_fit_plane_points_recovers_exact_line():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]])
    plane = fit_plane_points(pts, np.ones(4), 1)
    assert plane.distance_many(pts).max() <= 1e-12


def test_fit_plane_points_optimal_against_angle_scan():
    # independent oracle: best line through the weighted centroid, scanned
    # over a fine angle grid; the fitted plane may not do worse
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(20, 2)) * np.array([2.0, 0.5])
    w = rng.uniform(0.5, 2.0, size=20)

    plane = fit_plane_points(pts, w, 1)
    obj = float(np.sum(w * plane.distance_many(pts) ** 2))

    centroid = (w[:, None] * pts).sum(axis=0) / w.sum()
    V = pts - centroid
    best = np.inf
    for theta in np.linspace(0.0, np.pi, 4000, endpoint=False):
        n = np.array([-math.sin(theta), math.cos(theta)])
        best = min(best, float(np.sum(w * (V @ n) ** 2)))
    assert obj <= best * (1.0 + 1e-9)


def test_fit_plane_points_rejects_bad_weights():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        fit_plane_points(pts, np.array([1.0, -1.0, 1.0]), 1)
    with pytest.raises(ValueError):
        fit_plane_points(pts, np.ones(2), 1)
    with pytest.raises(ValueError):
        fit_plane_points(pts, np.ones(3), 3)


def test_fit_is_deterministic():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(30, 3))
    w = rng.uniform(0.1, 1.0, size=30)
    a = fit_plane_points(pts, w, 2)
    b = fit_plane_points(pts, w, 2)
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
        value = _beta2_value(cloud.points[idx], cloud.weights[idx], other, ball.radius)
        assert res.value <= value * (1.0 + 1e-9)


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
    assert _beta2_value(cloud.points, cloud.weights, res.plane, ball.radius) == 0.0


def test_beta2_uses_ball_diameter():
    # doubling the ball radius around the same support halves dist/diam
    pts = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    cloud = WeightedPointCloud(pts, np.full(4, 0.25))
    small = beta2(cloud, Ball(np.zeros(2), 1.0), 1).value
    big = beta2(cloud, Ball(np.zeros(2), 2.0), 1).value
    assert math.isclose(big, small / 2.0, rel_tol=1e-12)
