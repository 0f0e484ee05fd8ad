import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from menger import geometry
from menger.estimators import (
    MCEstimate,
    classify_scale,
    concentration_fraction,
    concentration_set_member,
    continuous_curvature_sq,
    curvature_over_Ulambda,
    decomposition_check,
    handle_indices,
    prop11_ratio,
)
from menger.measure import Ball, WeightedPointCloud, gen_plane_patch, gen_sphere


def oracle_c1_sq_integral(points, weights):
    """Triple loop over ordered triples with Heron-style trigonometry.

    Deliberately scalar and independent of the vectorised kernels.
    """
    total = 0.0
    n = len(points)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a = math.dist(points[j], points[k])
                b = math.dist(points[i], points[k])
                c = math.dist(points[i], points[j])
                if min(a, b, c) == 0.0:
                    continue
                s = 0.5 * (a + b + c)
                area_sq = max(s * (s - a) * (s - b) * (s - c), 0.0)
                area = math.sqrt(area_sq)
                sins = (2 * area / (b * c)) ** 2 + (2 * area / (a * c)) ** 2 + (2 * area / (a * b)) ** 2
                diam = max(a, b, c)
                total += sins / (3 * diam * diam) * weights[i] * weights[j] * weights[k]
    return total


@pytest.fixture(scope="module")
def small_cloud():
    rng = np.random.default_rng(21)
    return WeightedPointCloud(rng.normal(size=(12, 2)), rng.uniform(0.2, 1.0, size=12))


def test_exact_mode_matches_scalar_oracle(small_cloud, cantor2):
    for cloud in (small_cloud, cantor2):
        est = continuous_curvature_sq(cloud, None, 1, mode="exact")
        want = oracle_c1_sq_integral(cloud.points, cloud.weights)
        assert est.exact
        assert est.std_error == 0.0
        assert abs(est.estimate - want) <= 1e-12 * want


def test_mc_agrees_with_exact_within_three_se(small_cloud):
    exact = continuous_curvature_sq(small_cloud, None, 1, mode="exact").estimate
    mc = continuous_curvature_sq(small_cloud, None, 1, n_samples=60_000, seed=5, mode="mc")
    assert not mc.exact
    se = mc.std_error * mc.mass_factor
    assert abs(mc.estimate - exact) <= 3.0 * se


def test_mc_is_seeded(small_cloud):
    a = continuous_curvature_sq(small_cloud, None, 1, n_samples=5000, seed=9, mode="mc")
    b = continuous_curvature_sq(small_cloud, None, 1, n_samples=5000, seed=9, mode="mc")
    assert a.estimate == b.estimate
    assert a.std_error == b.std_error


def test_estimate_scaling_degree(small_cloud):
    # c_1^2 has degree -2, so the integral of a 2x dilated cloud is 1/4
    big = WeightedPointCloud(2.0 * small_cloud.points, small_cloud.weights)
    a = continuous_curvature_sq(small_cloud, None, 1, mode="exact").estimate
    b = continuous_curvature_sq(big, None, 1, mode="exact").estimate
    assert math.isclose(b, a / 4.0, rel_tol=1e-12)


def test_separation_restriction_monotone(cantor2):
    ball = Ball(np.zeros(2), 1.0)
    vals = [
        curvature_over_Ulambda(cantor2, ball, lam, 1, mode="exact").estimate
        for lam in (0.0, 0.1, 0.5, 1.0)
    ]
    assert vals[0] == continuous_curvature_sq(cantor2, ball, 1, mode="exact").estimate
    assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))
    assert vals[1] > vals[2] > 0.0
    # lambda > 2 empties the separated region of any ball
    assert curvature_over_Ulambda(cantor2, ball, 2.5, 1, mode="exact").estimate == 0.0
    with pytest.raises(ValueError):
        curvature_over_Ulambda(cantor2, ball, -0.1, 1)


def test_query_and_mode_validation(small_cloud):
    with pytest.raises(ValueError):
        continuous_curvature_sq(small_cloud, Ball(np.array([99.0, 0.0]), 0.1), 1)
    with pytest.raises(ValueError):
        continuous_curvature_sq(small_cloud, None, 1, mode="nope")
    with pytest.raises(ValueError):
        continuous_curvature_sq(small_cloud, None, 0)
    with pytest.raises(ValueError):
        continuous_curvature_sq(small_cloud, None, 1, lam=0.5)  # needs a ball
    for n_samples in (0, -3):
        with pytest.raises(ValueError):
            continuous_curvature_sq(small_cloud, None, 1, n_samples=n_samples)
        with pytest.raises(ValueError):
            decomposition_check(small_cloud, None, 1, 0.25, n_samples=n_samples)


def test_mc_estimate_dataclass():
    est = MCEstimate(mean=0.5, std_error=0.1, n_samples=10, mass_factor=8.0, exact=False)
    assert est.estimate == 4.0
    d = est.to_dict()
    assert d["estimate"] == 4.0
    assert d["std_error"] == 0.1 * 8.0
    assert not d["exact"]


# ---------------------------------------------------------------------------
# scale classification


def test_classify_well_scaled():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.9]])
    cls = classify_scale(X, 0.25)
    assert cls.kind == "well_scaled"
    assert cls.handle_indices == ()
    assert cls.n_handles == 0


def test_classify_scaled_cell_and_handles():
    a0 = 0.25
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, a0**4 * 2.0]])
    cls = classify_scale(X, a0)
    assert cls.kind == "scaled"
    assert a0 ** (cls.k + 1) < cls.scale <= a0**cls.k
    assert cls.handle_indices == (1,)
    # p=2 backs off one level and keeps the handle set of that level
    cls2 = classify_scale(X, a0, p=2)
    assert cls2.k == cls.k - 1
    assert cls2.p == 2


def test_classify_degenerate_rejected():
    with pytest.raises(ValueError):
        classify_scale(np.zeros((3, 2)), 0.25)
    with pytest.raises(ValueError):
        classify_scale(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), 0.25)
    with pytest.raises(ValueError):
        classify_scale(np.array([[0.0, 0.0], [1.0, 0.0], [0.1, 0.0]]), 0.25, p=3)


def test_handle_indices_k0_takes_the_argmax():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.4], [0.3, 0.0]])
    assert handle_indices(X, 0, 0.25) == (1,)
    assert handle_indices(X, 1, 0.25) == (1, 2, 3)


@given(
    st.lists(st.floats(-4.0, 4.0), min_size=6, max_size=6).map(
        lambda v: np.asarray(v).reshape(3, 2)
    )
)
def test_classification_partitions_valid_simplices(X):
    norms = np.linalg.norm(X[1:] - X[0], axis=1)
    if norms.max() == 0.0 or norms.min() == 0.0:
        return
    cls = classify_scale(X, 0.25)
    s = norms.min() / norms.max()
    if s > 0.25**3:
        assert cls.kind == "well_scaled"
    else:
        assert cls.kind == "scaled"
        assert 0.25 ** (cls.k + 1) < s <= 0.25**cls.k
        assert cls.handle_indices  # the longest edge is always a handle


# ---------------------------------------------------------------------------
# concentration sets and the decomposition


def test_concentration_membership_basics():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # replacing either index by the base point kills both polar sines
    assert not concentration_set_member(X, 1, 2, np.array([0.0, 0.0]), C=100.0)
    assert concentration_set_member(X, 1, 2, np.array([0.5, 0.8]), C=1.0)


def test_concentration_fraction_exact_scan(circle):
    rng = np.random.default_rng(3)
    X = circle.points[rng.choice(len(circle), size=3, replace=False)]
    res = concentration_fraction(circle, X, 1, 2, 0.8, 1.0)
    assert set(res) == {"fraction", "ball_mass", "n_candidates"}
    assert 0.0 <= res["fraction"] <= 1.0
    assert res["n_candidates"] > 0
    empty = concentration_fraction(circle, X + 50.0, 1, 2, 0.1, 1.0)
    assert empty == {"fraction": 0.0, "ball_mass": 0.0, "n_candidates": 0}


def test_decomposition_bookkeeping_is_exact(circle):
    rep = decomposition_check(circle, None, 1, 0.25, n_samples=3000, seed=2)
    assert rep["exact_partition"]
    assert rep["n_samples"] == 3000
    total_from_classes = sum(v["estimate"] for v in rep["classes"].values())
    assert math.isclose(total_from_classes, rep["total_estimate"], rel_tol=1e-12)
    for label, cell in rep["classes"].items():
        if label.startswith("k="):
            n = int(label.split("n=")[1])
            assert cell["binomial_weight"] == math.comb(2, n)
            assert math.isclose(
                cell["canonical_cell_estimate"], cell["estimate"] / math.comb(2, n), rel_tol=1e-12
            )


def test_decomposition_flat_cloud_all_zero(patch12):
    rep = decomposition_check(patch12, None, 1, 0.25, n_samples=2000, seed=0)
    assert rep["exact_partition"]
    for cell in rep["classes"].values():
        assert cell["estimate"] <= 1e-10


# ---------------------------------------------------------------------------
# ratio diagnostics


def test_prop11_ratio_on_curved_cloud(circle):
    out = prop11_ratio(circle, circle.points[0], 0.5, 0.2, 1, mode="exact")
    assert out["exact"]
    assert out["flag"] is None
    assert out["ratio"] > 0.0
    assert math.isclose(out["ratio"], out["lhs"] / out["rhs"], rel_tol=1e-12)


def test_prop11_ratio_zero_over_zero(patch12):
    center = patch12.points[np.argmin(np.abs(patch12.points[:, 0]))]
    out = prop11_ratio(patch12, center, 0.3, 0.2, 1, mode="exact")
    assert out["flag"] == "zero_over_zero"
    assert out["ratio"] == 0.0
