import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menger import _batch, estimators, geometry
from menger.estimators import (
    K_MAX,
    MCEstimate,
    classify_scale,
    concentration_fraction,
    concentration_test,
    continuous_curvature_sq,
    decomposition_check,
    handle_indices,
    prop11_ratio,
)
from menger.measure import Ball, WeightedPointCloud, gen_sphere
from menger.sequences import annulus_conditional_mass, constants


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
        continuous_curvature_sq(cantor2, ball, 1, mode="exact", lam=lam).estimate
        for lam in (0.0, 0.1, 0.5, 1.0)
    ]
    assert vals[0] == continuous_curvature_sq(cantor2, ball, 1, mode="exact").estimate
    assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))
    assert vals[1] > vals[2] > 0.0
    # lambda > 2 empties the separated region of any ball
    assert continuous_curvature_sq(cantor2, ball, 1, mode="exact", lam=2.5).estimate == 0.0
    with pytest.raises(ValueError):
        continuous_curvature_sq(cantor2, ball, 1, lam=-0.1)


def test_separation_parameter_is_validated_where_it_enters(cantor2):
    # -0.4 used to give the 0.4 value (only lam**2 entered) and NaN an
    # estimate of 0; +inf is a legal, empty region, and so is 1e200, whose
    # squared floor overflows a float
    ball = Ball(np.zeros(2), 1.0)
    for lam in (-0.4, -math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda"):
            continuous_curvature_sq(cantor2, ball, 1, mode="exact", lam=lam)
    for lam in (math.inf, 1e200):
        for mode in ("exact", "mc"):
            est = continuous_curvature_sq(cantor2, ball, 1, n_samples=1000, mode=mode, lam=lam)
            assert est.estimate == 0.0


def sampler_weights(rng, m):
    """Equal, uniform-random, log-normal (sigma 6) and one-heavy weights:
    guide buckets from one entry each to thousands."""
    heavy = np.ones(m)
    heavy[m // 3] = 1e6
    return {
        "equal": np.full(m, 1.0 / m),
        "uniform": rng.uniform(0.0, 1.0, size=m) + 1e-3,
        "lognormal": rng.lognormal(0.0, 6.0, size=m),
        "one-heavy": heavy,
    }


@pytest.mark.parametrize("m", [1, 2, 3, 1024, 1025])
def test_tuple_stream_is_generator_choice_chunk_by_chunk(monkeypatch, m):
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1])
    chunk, rows = estimators._CHUNK, estimators._DRAW_ROWS
    for kind, w in sampler_weights(default_rng(m), m).items():
        p = w / w.sum()
        for n, arity in ((1, 3), (rows + 1, 4), (chunk, 3), (chunk + 1, 3)):
            ref = default_rng(n + m)
            got = list(estimators._tuple_stream(w, arity, n, n + m))
            assert [len(ti) for ti in got] == [min(chunk, n - lo) for lo in range(0, n, chunk)]
            for ti in got:
                assert np.array_equal(ti, ref.choice(m, size=ti.shape, p=p)), (kind, n)
            assert made[-1].bit_generator.state == ref.bit_generator.state, (kind, n)


def test_coinciding_points_give_0_at_any_scale():
    # every tuple of one repeated point has curvature 0, so no scale is
    # refused; two distinct points 2^-600 apart are
    for x in (2.0**-600, 1.0, 2.0**600):
        cloud = WeightedPointCloud(np.full((6, 2), x), np.ones(6))
        for d in (1, 2):
            for mode in ("exact", "mc"):
                assert continuous_curvature_sq(cloud, None, d, n_samples=100, mode=mode).estimate == 0.0
    pair = WeightedPointCloud(np.array([[0.0, 0.0], [2.0**-600, 0.0]]), np.ones(2))
    with pytest.raises(ValueError, match="squared extent"):
        continuous_curvature_sq(pair, None, 1)


def ref_exact_mean(cloud, query, d, lam=None):
    """The exact sum as the per-tuple kernel gives it: curvature_terms on
    every ordered tuple, _CHUNK tuples at a time, the separation floor
    applied to its output."""
    idx = cloud.in_ball(query)
    pts, w = cloud.points[idx], cloud.weights[idx]
    m, arity = len(idx), d + 2
    total, chunk = m**arity, estimators._CHUNK
    acc = 0.0
    for lo in range(0, total, chunk):
        ti = np.stack(np.unravel_index(np.arange(lo, min(lo + chunk, total)), (m,) * arity), axis=1)
        terms = _batch.curvature_terms(pts[ti])
        vals = terms["cd_sq"]
        if lam is not None:
            vals = np.where(terms["min_sep2"] >= (lam * query.radius) ** 2, vals, 0.0)
        acc += float(np.sum(vals * np.prod(w[ti], axis=1)))
    return acc / float(w.sum()) ** arity


def ref_mc(cloud, query, d, n_samples, seed, lam):
    """(mean, std_error) of the Monte Carlo path with the full kernel run on
    every sampled tuple and the separation floor applied to its output."""
    idx = cloud.in_ball(query)
    pts, w = cloud.points[idx], cloud.weights[idx]
    s = s2 = 0.0
    for ti in estimators._tuple_stream(w, d + 2, n_samples, seed):
        terms = _batch.curvature_terms(pts[ti])
        vals = np.where(terms["min_sep2"] >= (lam * query.radius) ** 2, terms["cd_sq"], 0.0)
        s += float(vals.sum())
        s2 += float((vals * vals).sum())
    mean = s / n_samples
    return mean, math.sqrt(max(s2 / n_samples - mean * mean, 0.0) / n_samples)


def awkward_clouds(rng, m, D):
    """Clouds of m points in R^D whose tuples reach every branch of the
    content: Gaussian at scales 1e-6..1e6, repeated points, nearly
    collinear points, and integer points, whose Gram determinants cancel
    exactly and go to the eigenvalue fallback."""
    out = [rng.normal(size=(m, D)) * s for s in (1e-6, 1.0, 1e6)]
    dup = rng.normal(size=(m, D))
    dup[m // 2 :] = dup[: m - m // 2]
    out.append(dup)
    line = np.outer(rng.normal(size=m), rng.normal(size=D)) + 1e-9 * rng.normal(size=(m, D))
    out.append(line)
    out.append(rng.integers(-2, 3, size=(m, D)).astype(float))
    return [WeightedPointCloud(p, rng.uniform(0.1, 1.0, size=m)) for p in out]


def enclosing_ball(cloud):
    c = cloud.points.mean(axis=0)
    return Ball(c, 1.001 * float(np.linalg.norm(cloud.points - c, axis=1).max()))


def grid_on_the_floor(rng, D):
    """Integer points in [-1, 1]^D with a ball and a lambda whose separation
    floor is exactly 1 (0.4 * 2.5 rounds to 1.0): many tuples sit on it."""
    return WeightedPointCloud(rng.integers(-1, 2, size=(9, D)).astype(float), rng.uniform(0.1, 1.0, size=9)), Ball(
        np.zeros(D), 2.5
    )


def assert_same_bits(got, want):
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), (got, want)


@pytest.mark.parametrize("d, m", [(1, 11), (2, 6), (3, 4)])
def test_exact_sums_match_the_per_tuple_kernel_bitwise(d, m):
    rng = np.random.default_rng(d)
    for D in (1, 2, 3, 4):
        for cloud in awkward_clouds(rng, m, D):
            ball = enclosing_ball(cloud)
            for lam in (None, 0.0, 0.3, math.inf):
                got = continuous_curvature_sq(cloud, ball, d, mode="exact", lam=lam)
                assert_same_bits(got.mean, ref_exact_mean(cloud, ball, d, lam))
    for D in (1, 2, 3):
        cloud, ball = grid_on_the_floor(rng, D)
        got = continuous_curvature_sq(cloud, ball, d, mode="exact", lam=0.4)
        assert_same_bits(got.mean, ref_exact_mean(cloud, ball, d, 0.4))
    # a ball holding one point: a pair table without pairs
    one = WeightedPointCloud(np.array([[0.0, 0.0], [5.0, 5.0]]), np.ones(2))
    for lam in (None, 0.3):
        got = continuous_curvature_sq(one, Ball([5.0, 5.0], 0.5), d, mode="exact", lam=lam)
        assert got.n_samples == 1 and got.mean == 0.0


@pytest.mark.parametrize("d, m", [(1, 11), (2, 6)])
def test_exact_sums_keep_their_bits_in_high_dimension(d, m):
    # each base's dot table is one einsum over all D coordinates, whose inner
    # loop depends on the length; the test above stops at D = 4
    rng = np.random.default_rng(20 + d)
    for D in (8, 17, 64):
        for cloud in awkward_clouds(rng, m, D):
            ball = enclosing_ball(cloud)
            for lam in (None, 0.3):
                got = continuous_curvature_sq(cloud, ball, d, mode="exact", lam=lam)
                assert_same_bits(got.mean, ref_exact_mean(cloud, ball, d, lam))


def test_exact_sums_keep_their_bits_across_chunk_and_block_seams(monkeypatch):
    # 70^3 ordered tuples fill one _CHUNK and part of a second; then chunks
    # and row blocks of a few rows, whose seams fall inside tuples' runs
    rng = np.random.default_rng(70)
    cloud = WeightedPointCloud(rng.normal(size=(70, 2)), rng.uniform(0.1, 1.0, size=70))
    ball = enclosing_ball(cloud)
    assert 70**3 % estimators._CHUNK != 0 and 70**3 > estimators._CHUNK
    for lam in (None, 0.3):
        got = continuous_curvature_sq(cloud, ball, 1, mode="exact", lam=lam)
        assert_same_bits(got.mean, ref_exact_mean(cloud, ball, 1, lam))
    monkeypatch.setattr(estimators, "_CHUNK", 1000)
    monkeypatch.setattr(_batch, "BLOCK_ENTRIES", 2**9)
    _batch._plan.cache_clear()
    try:
        for d, m in ((1, 13), (2, 6), (3, 4)):
            for cloud in awkward_clouds(rng, m, d + 1)[3:]:
                ball = enclosing_ball(cloud)
                for lam in (None, 0.3):
                    got = continuous_curvature_sq(cloud, ball, d, mode="exact", lam=lam)
                    assert_same_bits(got.mean, ref_exact_mean(cloud, ball, d, lam))
    finally:
        _batch._plan.cache_clear()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_exact_floor_costs_no_determinant(content_rows, d):
    # the exact-path twin of test_cd_sq_floor_drops_tuples_before_any_determinant:
    # only the ordered tuples that reach the floor reach _content, once each
    rng = np.random.default_rng(40 + d)
    counts = []
    for D in (1, 2, 3):
        cloud, ball = grid_on_the_floor(rng, D)
        pts = cloud.points[cloud.in_ball(ball)]
        m = len(pts)
        ti = np.stack(np.unravel_index(np.arange(m ** (d + 2)), (m,) * (d + 2)), axis=1)
        passing = int((_batch.curvature_terms(pts[ti])["min_sep2"] >= 1.0).sum())
        assert passing < m ** (d + 2)
        content_rows.clear()
        continuous_curvature_sq(cloud, ball, d, mode="exact", lam=0.4)
        assert sum(content_rows) == passing, D
        counts.append(passing)
    assert max(counts) > 0


@pytest.mark.parametrize("d, m", [(1, 14), (2, 30), (3, 14)])
def test_exact_path_takes_one_determinant_per_ordered_tuple(content_rows, d, m):
    # without a floor every ordered tuple reaches _content once; at d = 2
    # and 3 one base's tuples span several slabs
    rng = np.random.default_rng(50 + d)
    cloud = WeightedPointCloud(rng.normal(size=(m, d + 1)), rng.uniform(0.1, 1.0, size=m))
    continuous_curvature_sq(cloud, None, d, mode="exact")
    assert sum(content_rows) == m ** (d + 2)
    if d == 1:
        assert content_rows == [m**3]  # all 14 bases in one slab


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mc_separation_filter_keeps_every_bit(d):
    rng = np.random.default_rng(10 + d)
    for D in (1, 2, 3, 4):
        for cloud in awkward_clouds(rng, 9, D)[1::2]:
            ball = enclosing_ball(cloud)
            for lam in (0.0, 0.3, math.inf):
                got = continuous_curvature_sq(cloud, ball, d, n_samples=3000, seed=D, mode="mc", lam=lam)
                mean, se = ref_mc(cloud, ball, d, 3000, D, lam)
                assert_same_bits(got.mean, mean)
                assert_same_bits(got.std_error, se)
        cloud, ball = grid_on_the_floor(rng, D)
        got = continuous_curvature_sq(cloud, ball, d, n_samples=3000, seed=D, mode="mc", lam=0.4)
        mean, se = ref_mc(cloud, ball, d, 3000, D, 0.4)
        assert_same_bits(got.mean, mean)
        assert_same_bits(got.std_error, se)


@pytest.mark.parametrize("d, m", [(1, 100), (3, 16)])
def test_exact_path_memory_is_the_table_plus_a_few_blocks(d, m):
    # 8 B per ordered tuple for the content table; every other array is
    # bounded by row blocks and chunks, not by the tuple count
    rng = np.random.default_rng(m)
    cloud = WeightedPointCloud(rng.normal(size=(m, d + 1)), rng.uniform(0.1, 1.0, size=m))
    tracemalloc.start()
    try:
        continuous_curvature_sq(cloud, None, d, mode="exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * m ** (d + 2) + 6 * 8 * _batch.BLOCK_ENTRIES


def test_monte_carlo_path_builds_no_coordinate_stack():
    # the cap of one bench mc-sphere query: about 3.2k points, so the auto
    # path samples; a (n_samples, d + 2, D) stack of the drawn tuples alone
    # would take 9.6 MB
    cloud = gen_sphere(3, 20_000)
    d, n_samples = 2, 100_000
    ball = Ball(cloud.points[0], 0.8)
    tracemalloc.start()
    try:
        est = continuous_curvature_sq(cloud, ball, d, n_samples=n_samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not est.exact
    assert peak < n_samples * (d + 2) * cloud.points.shape[1] * 8


def test_forced_exact_refuses_a_table_over_the_bound(monkeypatch):
    # the auto path never builds a table over the bound
    assert 8 * estimators.EXACT_TUPLE_LIMIT <= estimators.EXACT_TABLE_BYTES
    rng = np.random.default_rng(11)
    cloud = WeightedPointCloud(rng.normal(size=(11, 2)), np.ones(11))
    monkeypatch.setattr(estimators, "EXACT_TABLE_BYTES", 8 * 11**3)
    assert continuous_curvature_sq(cloud, None, 1, mode="exact").exact
    monkeypatch.setattr(estimators, "EXACT_TABLE_BYTES", 8 * 11**3 - 1)
    with pytest.raises(ValueError, match="mode='mc'"):
        continuous_curvature_sq(cloud, None, 1, mode="exact")
    assert not continuous_curvature_sq(cloud, None, 1, n_samples=100, mode="mc").exact


def test_decomposition_check_refuses_what_continuous_curvature_sq_refuses():
    # scaled by 2^-400 it returned 0.0 with an exact partition, by 2^400 NaN,
    # and at d = 0 it returned 1.0
    circle = gen_sphere(2, 40, seed=0)
    for scale in (2.0**-400, 2.0**400):
        cloud = WeightedPointCloud(scale * circle.points, circle.weights)
        with pytest.raises(ValueError, match="squared extent"):
            continuous_curvature_sq(cloud, None, 1, n_samples=2000)
        with pytest.raises(ValueError, match="squared extent"):
            decomposition_check(cloud, None, 1, 0.25, n_samples=2000)
    with pytest.raises(ValueError, match="d must be >= 1"):
        decomposition_check(circle, None, 0, 0.25, n_samples=2000)


def test_query_and_mode_validation(small_cloud):
    with pytest.raises(ValueError):
        continuous_curvature_sq(small_cloud, Ball(np.array([99.0, 0.0]), 0.1), 1)
    with pytest.raises(ValueError):
        continuous_curvature_sq(small_cloud, None, 1, mode="nope")
    # the mode is checked before the cloud: it used to surface as the empty ball's error
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        continuous_curvature_sq(small_cloud, Ball(np.array([99.0, 0.0]), 0.1), 1, mode="bogus")
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


def test_classify_scaled_cell_and_handles():
    a0 = 0.25
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, a0**4 * 2.0]])
    cls = classify_scale(X, a0)
    assert cls.kind == "scaled"
    assert a0 ** (cls.k + 1) < geometry.scale_at0(X) <= a0**cls.k
    assert cls.handle_indices == (1,)


def test_classify_degenerate_rejected():
    with pytest.raises(ValueError):
        classify_scale(np.zeros((3, 2)), 0.25)
    with pytest.raises(ValueError):
        classify_scale(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), 0.25)
    for alpha0 in (0.0, 1.0, 1.5):  # the levels need 0 < alpha0 < 1
        with pytest.raises(ValueError):
            classify_scale(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.1]]), alpha0)


def test_scale_classes_at_an_alpha0_whose_inverse_overflows():
    # 1e-320 ** -1 overflows a float; the level -1 of a tuple with a
    # coinciding point then has no handles, as at alpha0 = 0.25
    T = np.array([[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]])
    for alpha0 in (1e-320, 0.25):
        _, scale, level, handles = estimators.scale_classes(T, alpha0)
        assert scale.tolist() == [0.0] and level.tolist() == [-1]
        assert not handles.any()
    assert handle_indices(T[0], -1, 1e-320) == ()
    with pytest.raises(ValueError, match="coincides"):
        classify_scale(T[0], 1e-320)
    cloud = WeightedPointCloud(T[0][[0, 2]], np.ones(2))
    assert decomposition_check(cloud, None, 1, 1e-320, n_samples=200)["exact_partition"]


def test_a_mass_factor_that_overflows_is_refused():
    cloud = WeightedPointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.full(3, 1e200))
    for mode in ("exact", "mc"):
        with pytest.raises(ValueError, match="mass factor"):
            continuous_curvature_sq(cloud, None, 1, n_samples=100, mode=mode)
    with pytest.raises(ValueError, match="mass factor"):
        decomposition_check(cloud, None, 1, 0.25, n_samples=100)


def test_a_mass_factor_that_underflows_is_refused():
    # mu(Q)^3 = (3e-120)^3 underflows to 0: the exact path divided by it,
    # the Monte Carlo path returned 0 silently
    cloud = WeightedPointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.full(3, 1e-120))
    for mode in ("exact", "mc"):
        with pytest.raises(ValueError, match="mass factor"):
            continuous_curvature_sq(cloud, None, 1, n_samples=100, mode=mode)
    with pytest.raises(ValueError, match="mass factor"):
        decomposition_check(cloud, None, 1, 0.25, n_samples=100)


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


ALPHAS = (0.25, 0.35, constants(2).alpha0)


def oracle_level(s, alpha0):
    """The scalar definition, one tuple at a time: a log estimate patched
    until alpha0^{k+1} < s <= alpha0^k holds for Python float powers."""
    k = int(math.floor(math.log(s) / math.log(alpha0)))
    while alpha0**k < s:
        k -= 1
    while alpha0 ** (k + 1) >= s:
        k += 1
    return k


def oracle_handles(X, k, alpha0):
    norms = np.linalg.norm(X[1:] - X[0], axis=1)
    ratios = norms / norms.max()
    return tuple(
        i + 1 for i, r in enumerate(ratios.tolist()) if (r >= 1.0 if k == 0 else r > alpha0**k)
    )


def oracle_classify(X, alpha0):
    norms = np.linalg.norm(X[1:] - X[0], axis=1)
    s = float(norms.min() / norms.max())
    if s > alpha0**3:
        return ("well_scaled", 0, ())
    k = oracle_level(s, alpha0)
    return ("scaled", k, oracle_handles(X, k, alpha0))


def oracle_label(T, min_sep2, alpha0):
    norms = np.linalg.norm(T[1:] - T[0], axis=1)
    if norms.min() == 0.0 or min_sep2 == 0.0:
        return "degenerate"
    s = float(norms.min() / norms.max())
    if s > alpha0**3:
        return "well_scaled"
    k = oracle_level(s, alpha0)
    if k > K_MAX:
        return "tail"
    return f"k={k},n={len(oracle_handles(T, k, alpha0))}"


def planted_tuple(alpha0, levels, nudges, signs):
    """Base at the origin, edge i along axis i with length alpha0**levels[i]
    moved by nudges[i] ulps, so scales land exactly on (or next to) powers."""
    X = np.zeros((len(levels) + 1, len(levels)))
    for i, (k, nudge, sign) in enumerate(zip(levels, nudges, signs)):
        r = alpha0**k
        for _ in range(abs(nudge)):
            r = np.nextafter(r, np.inf if nudge > 0 else 0.0)
        X[i + 1, i] = sign * r
    return X


@settings(max_examples=200)
@given(
    st.sampled_from(ALPHAS),
    st.integers(2, 4).flatmap(
        lambda e: st.tuples(
            st.lists(st.integers(0, 30), min_size=e, max_size=e),
            st.lists(st.sampled_from([-1, 0, 0, 0, 1]), min_size=e, max_size=e),
            st.lists(st.sampled_from([-1.0, 1.0]), min_size=e, max_size=e),
        )
    ),
    st.integers(0, 2**32 - 1),
)
def test_scale_classes_match_scalar_oracle(alpha0, planted, seed):
    rng = np.random.default_rng(seed)
    scattered = rng.normal(size=(len(planted[0]) + 1, 3))
    shrink = alpha0 ** rng.uniform(0, 8, size=(len(scattered) - 1, 1))
    scattered[1:] = scattered[0] + (scattered[1:] - scattered[0]) * shrink
    for X in (planted_tuple(alpha0, *planted), scattered):
        norms = np.linalg.norm(X[1:] - X[0], axis=1)
        if norms.min() == 0.0:  # a deep level's squared edge underflowed
            with pytest.raises(ValueError):
                classify_scale(X, alpha0)
            continue
        cls = classify_scale(X, alpha0)
        assert (cls.kind, cls.k, cls.handle_indices) == oracle_classify(X, alpha0)
        k = oracle_level(float(norms.min() / norms.max()), alpha0)
        for kk in {0, max(k - 1, 0), k, k + 1}:
            assert handle_indices(X, kk, alpha0) == oracle_handles(X, kk, alpha0)


def planted_cloud(alpha0, D, levels):
    """The origin, carrying most of the mass, plus points at exact powers of
    alpha0 along every axis, so sampled tuples based at the origin have
    scales exactly at powers of alpha0."""
    pts = [np.zeros(D)]
    for axis in range(D):
        for k in range(levels):
            for sign in (1.0, -1.0):
                pt = np.zeros(D)
                pt[axis] = sign * alpha0**k
                pts.append(pt)
    w = np.ones(len(pts))
    w[0] = len(pts)
    return WeightedPointCloud(np.asarray(pts), w)


@settings(max_examples=24)
@given(
    st.sampled_from(ALPHAS),
    st.sampled_from(["planted2", "planted3", "sphere"]),
    st.integers(1, 2),
    st.integers(0, 2**16),
)
def test_decomposition_labels_match_scalar_oracle(alpha0, kind, d, seed):
    if kind == "sphere":
        cloud = gen_sphere(3, 200, seed=seed)
    else:
        cloud = planted_cloud(alpha0, int(kind[-1]), 8 if alpha0 < 1e-3 else 26)
    n_samples = 1500
    rep = decomposition_check(cloud, None, d, alpha0, n_samples=n_samples, seed=seed)

    # The same stream, labelled one tuple at a time.
    rng = np.random.default_rng(seed)
    ti = rng.choice(len(cloud), size=(n_samples, d + 2), p=cloud.weights / cloud.weights.sum())
    T = cloud.points[ti]
    terms = _batch.curvature_terms(T)
    labels = [oracle_label(t, sep, alpha0) for t, sep in zip(T, terms["min_sep2"].tolist())]
    sums = {}
    for label, v in zip(labels, terms["psin0_nrm"].tolist()):
        sums.setdefault(label, []).append(v)
    assert rep["exact_partition"]
    assert {label: cell["sum"] for label, cell in rep["classes"].items()} == {
        label: math.fsum(vals) for label, vals in sums.items()
    }
    factor = cloud.total_mass() ** (d + 2) / n_samples
    assert rep["total_estimate"] == math.fsum(terms["psin0_nrm"].tolist()) * factor


# ---------------------------------------------------------------------------
# concentration sets and the decomposition


def test_concentration_membership_basics():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # replacing either index by the base point kills both polar sines
    assert not concentration_test(X, 1, 2, C=100.0)([[0.0, 0.0]])[0]
    assert concentration_test(X, 1, 2, C=1.0)([[0.5, 0.8]])[0]


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


@pytest.mark.parametrize("mode", ["mc", "exact"])
def test_prop11_std_error_is_the_estimate_s(circle, mode):
    ball = Ball(circle.points[0], 0.5)
    est = continuous_curvature_sq(circle, ball, 1, n_samples=2000, mode=mode, lam=0.2)
    out = prop11_ratio(circle, circle.points[0], 0.5, 0.2, 1, n_samples=2000, mode=mode)
    assert out["exact"] == est.exact == (mode == "exact")
    assert (out["std_error"] > 0.0) == (mode == "mc")
    assert out["std_error"] == est.to_dict()["std_error"]


def test_prop11_ratio_zero_over_zero(patch12):
    center = patch12.points[np.argmin(np.abs(patch12.points[:, 0]))]
    out = prop11_ratio(patch12, center, 0.3, 0.2, 1, mode="exact")
    assert out["flag"] == "zero_over_zero"
    assert out["ratio"] == 0.0


def test_concentration_paths_agree_bitwise():
    """The three public U_C paths share one membership test: on one annulus
    cloud they select the same points, bit for bit."""
    rng = np.random.default_rng(8)
    a0, k, d, q = 0.3, 3, 2, 1
    X = np.zeros((4, 3))
    X[1] = [1.0, 0.0, 0.0]
    X[2] = [0.0, a0**3.5, 0.0]
    X[3] = [0.0, 0.0, a0**3.2]
    level = k - math.ceil(q / d)
    dirs = rng.normal(size=(400, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ys = dirs * a0 ** (level + rng.uniform(0.05, 0.95, size=(400, 1)))
    cloud = WeightedPointCloud(ys, rng.uniform(0.1, 1.0, size=400))
    lhs = geometry.polar_sine(X, 0)
    ratios = [
        lhs / (geometry.polar_sine(geometry.replace_coordinate(X, y, 1), 0)
               + geometry.polar_sine(geometry.replace_coordinate(X, y, 2), 0))
        for y in ys
    ]
    C = float(np.median(ratios))
    mask = np.array([concentration_test(X, 1, 2, C)([y])[0] for y in ys])
    assert 0 < mask.sum() < len(ys)
    assert (concentration_test(X, 1, 2, C)(ys) == mask).all()
    w = cloud.weights
    res = concentration_fraction(cloud, X, 1, 2, a0**level, C)
    assert res["n_candidates"] == len(ys)
    assert res["fraction"] == float(w[mask].sum() / w.sum())
    assert annulus_conditional_mass(cloud, X, q, k, C, a0) == float(w[mask].sum())

    # The base vertex is never replaced; i = 0 (or j past the end) raises.
    with pytest.raises(IndexError):
        concentration_test(X, 0, 2, C)
    with pytest.raises(IndexError):
        concentration_test(X, 1, 4, C)
    with pytest.raises(IndexError):
        concentration_fraction(cloud, X, 0, 2, a0**level, C)


def test_concentration_fraction_rejects_base_replacement():
    circle = gen_sphere(2, 500, seed=1)
    X = circle.points[:3]
    with pytest.raises(IndexError):
        concentration_fraction(circle, X, 0, 2, 0.8, 1.0)
