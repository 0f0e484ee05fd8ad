import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from menger import _batch, geometry
from menger.geometry import InvariantError

RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


def coords(n, lo=-5.0, hi=5.0):
    return st.lists(
        st.lists(st.floats(lo, hi), min_size=2, max_size=2),
        min_size=n,
        max_size=n,
    ).map(np.asarray)


# ---------------------------------------------------------------------------
# hand oracles


def test_menger_curvature_right_triangle():
    # circumradius of the unit right triangle is sqrt(2)/2
    assert math.isclose(geometry.menger_curvature(RIGHT), math.sqrt(2.0), rel_tol=1e-12)


def test_menger_curvature_equilateral():
    assert math.isclose(geometry.menger_curvature(EQUILATERAL), math.sqrt(3.0), rel_tol=1e-12)


def test_menger_curvature_outside_the_squared_range():
    # d01^2 d02^2 d12^2 overflows at 1e52 and underflows at 1e-60; the
    # curvature itself is representable at both scales
    for scale in (1e52, 1e-60):
        got = geometry.menger_curvature(scale * EQUILATERAL)
        assert math.isclose(got, math.sqrt(3.0) / scale, rel_tol=1e-12)


def test_menger_curvature_collinear_is_zero():
    T = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert geometry.menger_curvature(T) == 0.0


def test_discrete_curvature_right_triangle():
    # angles 90/45/45: psin^2 = 1, 1/2, 1/2; diam^2 = 2; c_1^2 = 2/(3*2)
    assert math.isclose(geometry.discrete_curvature_sq(RIGHT), 1.0 / 3.0, rel_tol=1e-12)


def test_polar_sine_is_the_angle_sine_for_triangles():
    assert math.isclose(geometry.polar_sine(RIGHT, 0), 1.0, rel_tol=1e-12)
    assert math.isclose(geometry.polar_sine(RIGHT, 1), math.sin(math.pi / 4), rel_tol=1e-12)
    assert math.isclose(geometry.polar_sine(RIGHT, 2), math.sin(math.pi / 4), rel_tol=1e-12)


def test_polar_sine_orthogonal_edges_is_one():
    X = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 0.5]])
    assert math.isclose(geometry.polar_sine(X, 0), 1.0, rel_tol=1e-12)


def test_polar_sine_planar_tuple_is_exactly_zero():
    # four points inside a 2-plane: three edge vectors are dependent
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7], [-0.4, 0.2]])
    assert geometry.polar_sine(X, 0) == 0.0
    assert geometry.gram_content(X, 0) == 0.0


def test_height_and_elevation_right_triangle():
    assert math.isclose(geometry.height(RIGHT, 0), math.sqrt(2.0) / 2.0, rel_tol=1e-12)
    assert math.isclose(geometry.elevation_sine(RIGHT, 1), 1.0, rel_tol=1e-12)


def test_gram_content_unit_cube_corner():
    X = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert math.isclose(geometry.gram_content(X, 0), 1.0, rel_tol=1e-12)
    assert geometry.gram_content(X, -1) == geometry.gram_content(X, 3)


# ---------------------------------------------------------------------------
# high-precision content oracle (independent of the float kernels)


def mp_gram_content(X, base):
    """sqrt(det G) at base, G the Gram matrix of the edges, at 50 digits."""
    with mpmath.workdps(50):
        P = [[mpmath.mpf(float(v)) for v in row] for row in X]
        E = [[a - b for a, b in zip(row, P[base])] for j, row in enumerate(P) if j != base]
        G = mpmath.matrix([[mpmath.fsum(a * b for a, b in zip(u, v)) for v in E] for u in E])
        return float(mpmath.sqrt(max(mpmath.det(G), 0)))


def assert_content_matches_oracle(X):
    """gram_content at every base against the oracle: 1e-9 relative away
    from degeneracy (tau >= 1e-3, tau = content / diam^{d+1}), else the
    eps / tau^2 error model of Gram determinants of thin simplices."""
    n = len(X) - 1
    diam = math.sqrt(_batch.pair_and_content_sq(X[None], 0)[0].max())
    tau = mp_gram_content(X, 0) / diam**n
    tol = 1e-9 if tau >= 1e-3 else 200.0 * float(np.finfo(float).eps) / tau**2
    for base in range(len(X)):
        want = mp_gram_content(X, base)
        assert abs(geometry.gram_content(X, base) - want) <= tol * want
    return tau >= 1e-3


def test_gram_content_matches_mpmath_on_random_tuples(rng):
    strict = 0
    for d in (1, 2, 3):
        for _ in range(40):
            strict += assert_content_matches_oracle(rng.normal(size=(d + 2, d + 1)))
    assert strict > 100


def test_gram_content_matches_mpmath_on_thin_tuples(rng):
    # flat in the first d coordinates, lifted by h out of that plane
    for d in (1, 2, 3):
        for h in (1e-2, 1e-3, 1e-4, 1e-5):
            for _ in range(10):
                X = rng.normal(size=(d + 2, d + 1))
                X[:, d] *= h
                assert_content_matches_oracle(X)


def test_heights_match_mpmath_on_thin_tuples(rng):
    # x_{d+1} at height h above the d-plane of the others; every height is
    # content(X) / content(X without x_i), held to 1e-10 down to h = 1e-8
    for d in (1, 2, 3):
        for h in (1e-4, 1e-6, 1e-8):
            for _ in range(10):
                X = rng.normal(size=(d + 2, d + 1))
                X[:, d] = 0.0
                X[d + 1, d] = h
                full = mp_gram_content(X, 0)
                for i in range(d + 2):
                    want = full / mp_gram_content(geometry.remove_coordinate(X, i), 0)
                    assert abs(geometry.height(X, i) - want) <= 1e-10 * want
                top = full / mp_gram_content(X[: d + 1], 0)
                sine = top / float(np.linalg.norm(X[d + 1] - X[0]))
                assert abs(geometry.elevation_sine(X, d + 1) - sine) <= 1e-10 * sine


# ---------------------------------------------------------------------------
# tuple surgery


def test_remove_and_replace_coordinate():
    X = np.arange(8.0).reshape(4, 2)
    Y = geometry.remove_coordinate(X, 2)
    assert Y.shape == (3, 2)
    assert np.array_equal(Y, X[[0, 1, 3]])
    Z = geometry.replace_coordinate(X, np.array([9.0, 9.0]), 1)
    assert np.array_equal(Z[1], [9.0, 9.0])
    assert np.array_equal(X[1], [2.0, 3.0])  # original untouched


def test_replace_base_coordinate_rejected():
    X = np.zeros((3, 2))
    with pytest.raises(IndexError):
        geometry.replace_coordinate(X, np.ones(2), 0)
    with pytest.raises(IndexError):
        geometry.remove_coordinate(X, 3)


def test_tuple_surgery_on_symbolic_tuples():
    t = ("a", "b", "c")
    assert geometry.remove_coordinate(t, 1) == ("a", "c")
    assert geometry.replace_coordinate(t, "z", 2) == ("a", "b", "z")


def test_scale_and_extremes_at_base():
    X = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 1.0]])
    assert geometry.max_at0(X) == 4.0
    assert geometry.min_at0(X) == 1.0
    assert geometry.scale_at0(X) == 0.25
    with pytest.raises(ValueError):
        geometry.max_at0(np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# identities and bounds


def test_product_formula_random_tuples(rng):
    # psin_0(X) = elevation_i * psin_0(X(i)) for every i >= 1; strict
    # tolerance only claimed away from degeneracy (all factors >= 1e-3).
    checked = 0
    for d in (1, 2, 3):
        for _ in range(150):
            X = rng.normal(size=(d + 2, d + 1))
            p0 = geometry.polar_sine(X, 0)
            for i in range(1, d + 2):
                pr = geometry.polar_sine(geometry.remove_coordinate(X, i), 0)
                el = geometry.elevation_sine(X, i)
                if min(p0, pr, el) < 1e-3:
                    continue
                checked += 1
                assert abs(p0 - el * pr) <= 1e-9 * p0
    assert checked > 1000


def test_curvature_identity_cross_check_runs(rng, monkeypatch):
    # the volume-form cross check is live: valid tuples pass through it
    for _ in range(50):
        X = rng.normal(size=(3, 2))
        v = geometry.discrete_curvature_sq(X)
        assert v == _batch.curvature_terms(X[None])["cd_sq"][0]
    # and a volume form off by 1e-6 relative trips it
    real = _batch.curvature_terms

    def skewed(T):
        terms = real(T)
        terms["cd_sq_vol"] = terms["cd_sq_vol"] * (1.0 + 1e-6)
        return terms

    monkeypatch.setattr(_batch, "curvature_terms", skewed)
    with pytest.raises(InvariantError):
        geometry.discrete_curvature_sq(RIGHT)


def test_curvature_scaling_degrees():
    rng = np.random.default_rng(7)
    for d in (1, 2):
        X = rng.normal(size=(d + 2, d + 1))
        base = geometry.discrete_curvature_sq(X)
        scaled = geometry.discrete_curvature_sq(3.0 * X)
        assert math.isclose(scaled, base * 3.0 ** (-d * (d + 1)), rel_tol=1e-9)
    T = rng.normal(size=(3, 2))
    # the direct generalization scales with degree (d+1)^2 = 4 for d = 1
    assert math.isclose(
        geometry.direct_menger(2.0 * T), geometry.direct_menger(T) * 2.0**-4, rel_tol=1e-9
    )


def test_direct_menger_squares_each_unordered_pair():
    T = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    sides_sq = (2.0 * 2.0 * (2.0 * math.sqrt(2.0))) ** 2
    assert math.isclose(geometry.direct_menger(T), geometry.gram_content(T, 0) / sides_sq, rel_tol=1e-12)


@given(coords(3))
def test_psin_range_property(X):
    for i in range(3):
        v = geometry.polar_sine(X, i)
        assert 0.0 <= v <= 1.0 + 1e-12


@given(coords(3), st.floats(0.1, 10.0), st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_psin_scale_and_translation_invariant(X, lam, shift):
    p = geometry.polar_sine(X, 0)
    q = geometry.polar_sine(lam * X + np.asarray(shift), 0)
    assert abs(p - q) <= 1e-9 * max(p, q, 1e-12)


@given(coords(3))
def test_menger_comparability_property(X):
    cm_sq = geometry.menger_curvature(X) ** 2
    c1_sq = geometry.discrete_curvature_sq(X)
    assert cm_sq / 12.0 - 1e-9 * cm_sq <= c1_sq <= cm_sq / 4.0 + 1e-9 * cm_sq
