import math

import mpmath
import numpy as np
import pytest

from menger import sequences as sq
from menger.estimators import classify_scale
from menger.measure import Ball, WeightedPointCloud, gen_sphere


def test_constants_d1():
    c = sq.constants(1)
    assert c.Cp == 1.0
    assert c.alpha0 == 0.25
    assert sq.constants(1, Cmu=2.0).alpha0 == 1.0 / 16.0


def test_constants_match_high_precision_recompute():
    # same closed forms, evaluated at 50 digits
    mpmath.mp.dps = 50
    for d, want_cp, want_a0 in (
        (2, 353.0913327280908, 4.010475707522776e-06),
        (3, 1997.464948868175, None),
    ):
        arg = mpmath.mpf(2) ** -(mpmath.mpf(5 * d) / 2 + 1)
        cp = mpmath.sqrt(5) * mpmath.pi**2 / (4 * mpmath.asin(arg))
        got = sq.constants(d)
        assert math.isclose(got.Cp, float(cp), rel_tol=1e-13)
        assert math.isclose(got.Cp, want_cp, rel_tol=1e-14)
        if want_a0 is not None:
            a0 = 1 / (2 * cp * cp)
            assert math.isclose(got.alpha0, float(a0), rel_tol=1e-13)
            assert math.isclose(got.alpha0, want_a0, rel_tol=1e-14)


def test_constants_validation_and_Cmu_dependence():
    with pytest.raises(ValueError):
        sq.constants(0)
    with pytest.raises(ValueError):
        sq.constants(2, Cmu=0.5)
    assert sq.constants(2, Cmu=1.5).Cp > sq.constants(2).Cp


def test_bar_index_cycles_through_middle_slots():
    assert [sq.bar_index(a, 3) for a in range(2, 8)] == [2, 3, 4, 2, 3, 4]
    assert all(sq.bar_index(a, 1) == 2 for a in range(2, 9))
    assert [sq.bar_index(a, 2) for a in (2, 3, 4, 5)] == [2, 3, 2, 3]


def test_sizes():
    assert sq.short_scale_size(2) == 1
    assert sq.short_scale_size(3) == 3


# ---------------------------------------------------------------------------
# worked symbolic sequences


X5 = tuple(f"x{i}" for i in range(5))
Y6 = tuple(f"y{q}" for q in range(1, 7))


def test_sequences_match_independent_recurrence():
    # re-derive both sequences from the one-line recurrence and diff
    def brute(X, Y, k, d):
        def rep(t, v, i):
            t = list(t)
            t[i] = v
            return tuple(t)

        aux = [tuple(X)]
        main = []
        for q in range(1, k * d + 1):
            main.append(rep(aux[-1], Y[q - 1], 1))
            aux.append(rep(aux[-1], Y[q - 1], sq.bar_index(q + 1, d)))
        main.append(aux[-1])
        return aux, main

    for d in (1, 2, 3, 4):
        for k in (1, 2, 5):
            X = tuple(f"x{i}" for i in range(d + 2))
            Y = tuple(f"y{q}" for q in range(1, k * d + 1))
            aux_b, main_b = brute(X, Y, k, d)
            assert sq.auxiliary_sequence(X, Y) == aux_b
            assert sq.well_scaled_sequence(X, Y) == main_b


def test_sequence_size_validation():
    # d = len(X) - 2 = 3, so Y must hold a positive multiple of 3 points.
    for Y in (Y6[:5], Y6[:1], ()):
        with pytest.raises(ValueError):
            sq.well_scaled_sequence(X5, Y)
        with pytest.raises(ValueError):
            sq.auxiliary_sequence(X5, Y)
    with pytest.raises(ValueError):
        sq.auxiliary_sequence(X5[:4], Y6[:5])  # d = 2 does not divide 5
    with pytest.raises(ValueError):
        sq.multiscale_inequality_check(np.eye(5, 4), np.ones((5, 4)), 1.0)


def test_two_coordinate_simplex_is_refused():
    # d = len(X) - 2 = 0 would divide by zero when it sizes Y.
    for build in (sq.auxiliary_sequence, sq.well_scaled_sequence):
        with pytest.raises(ValueError):
            build(("x0", "x1"), ("y1",))
    with pytest.raises(ValueError):
        sq.rake_tree(("x0", "x1"), ("z1",))


def test_rake_tree_worked_example_n2():
    tree = sq.rake_tree(("x0", "x1", "x2", "x3"), ("z1",))
    assert tree[0] == [("x0", "x1", "x2", "x3")]
    assert tree[1] == [("x0", "x1", "z1", "x3"), ("x0", "x2", "z1", "x3")]
    assert sq.rake_sequence(("x0", "x1", "x2", "x3"), ("z1",)) == tree[1]


def test_rake_tree_validation():
    # len(Z) = 2^{n-1} - 1 sets n, which must satisfy 1 < n <= d = len(X) - 2.
    Z7 = tuple(f"z{i}" for i in range(1, 8))
    for X, Z in (
        (("x0", "x1", "x2"), ("z1",)),  # n = 2 > d = 1
        (X5, ()),  # n = 1
        (X5, Z7),  # n = 4 > d = 3
        (X5, Z7[:2]),  # 2 is no 2^{n-1} - 1
        (X5, Z7[:4]),
    ):
        for build in (sq.rake_tree, sq.rake_sequence):
            with pytest.raises(ValueError):
                build(X, Z)
        with pytest.raises(ValueError):
            sq.is_in_overline_set(X, Z, 1.0)
    assert len(sq.rake_sequence(X5, Z7[:3])) == 4


# ---------------------------------------------------------------------------
# planted pieces: the bounds hold by construction and corruption is caught


def test_planted_well_scaled_piece_passes_bounds(rng):
    for d, k in ((1, 3), (2, 4), (3, 3)):
        a0 = sq.constants(d).alpha0
        X = sq.plant_scaled_simplex(d, d + 1, k, 1, a0, rng)
        cls = classify_scale(X, a0)
        assert cls.kind == "scaled" and cls.k == k
        Y = sq.plant_well_scaled_piece(X, k, a0, rng)
        seq = sq.well_scaled_sequence(X, Y)
        assert sq.well_scaled_bound_report(seq, X, k, a0) == []


def test_corrupted_well_scaled_piece_is_caught(rng):
    a0 = 0.25
    X = sq.plant_scaled_simplex(2, 3, 3, 1, a0, rng)
    Y = sq.plant_well_scaled_piece(X, 3, a0, rng)
    Y_bad = Y.copy()
    Y_bad[2] = X[0] + (Y[2] - X[0]) / a0**2
    report = sq.well_scaled_bound_report(sq.well_scaled_sequence(X, Y_bad), X, 3, a0)
    assert report


def test_planted_rake_leaves_pass(rng):
    for d, n in ((2, 2), (3, 2), (3, 3)):
        a0 = sq.constants(d).alpha0
        X = sq.plant_scaled_simplex(d, d + 1, 4, n, a0, rng)
        Z = sq.plant_short_scale_piece(X, n, 4, a0, rng)
        leaves = sq.rake_sequence(X, Z)
        assert len(leaves) == 2 ** (n - 1)
        for leaf in leaves:
            assert sq.check_rake_property(leaf, X, 4, a0)
            assert sq.rake_property_level(np.asarray(leaf), 4, a0) is not None


def test_corrupted_rake_piece_is_caught(rng):
    a0 = 0.25
    X = sq.plant_scaled_simplex(2, 3, 3, 2, a0, rng)
    Z = sq.plant_short_scale_piece(X, 2, 3, a0, rng)
    Z_bad = Z.copy()
    Z_bad[0] = X[0] + (Z[0] - X[0]) / a0**2
    assert not all(
        sq.check_rake_property(leaf, X, 3, a0) for leaf in sq.rake_sequence(X, Z_bad)
    )


def test_membership_forces_inequality_on_sampled_cloud():
    cloud = gen_sphere(2, 2500, seed=(41, 1))
    rng = np.random.default_rng((41, 2))
    produced = 0
    while produced < 12:
        try:
            X = sq.sample_scaled_simplex(cloud, 1, 3, 1, 0.25, rng)
            Y = sq.sample_well_scaled_piece(cloud, X, 3, 1.0, 0.25, rng=rng)
        except sq.PieceSamplingError:
            continue
        assert sq.is_in_augmented_set(X, Y, 1.0)
        ok, lhs, rhs = sq.multiscale_inequality_check(X, Y, 1.0)
        assert ok
        assert lhs <= rhs * (1 + 1e-12)
        produced += 1


def test_membership_can_fail_for_tiny_Cp():
    cloud = gen_sphere(2, 2500, seed=(42, 1))
    rng = np.random.default_rng((42, 2))
    seen_reject = False
    for _ in range(60):
        try:
            X = sq.sample_scaled_simplex(cloud, 1, 3, 1, 0.25, rng)
            Y = sq.sample_well_scaled_piece(cloud, X, 3, 1.0, 0.25, rng=rng)
        except sq.PieceSamplingError:
            continue
        if not sq.is_in_augmented_set(X, Y, 1e-9):
            seen_reject = True
            break
    assert seen_reject


def test_piece_sampling_error_carries_context():
    # two far singletons: every annulus between them is empty
    cloud = WeightedPointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.ones(3))
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(sq.PieceSamplingError) as exc:
        sq.sample_well_scaled_piece(cloud, X, 5, 1.0, 0.25, rng=np.random.default_rng(0))
    assert exc.value.reason == "annulus holds no support points"
    assert exc.value.q == 1
    assert "q=1" in str(exc.value)


def test_annulus_indices_brackets():
    pts = np.array([[0.0, 0.0], [0.3, 0.0], [0.2, 0.0], [0.05, 0.0], [1.0, 0.0]])
    cloud = WeightedPointCloud(pts, np.ones(5))
    a0 = 0.25
    # level m catches a0^{m+1} r < dist <= a0^m r, closed above and open below
    assert list(sq.annulus_indices(cloud, [0.0, 0.0], 1.0, 0, a0)) == [1, 4]
    assert list(sq.annulus_indices(cloud, [0.0, 0.0], 1.0, 1, a0)) == [2]
    assert list(sq.annulus_indices(cloud, [0.0, 0.0], 1.0, 2, a0)) == [3]
    assert list(sq.annulus_indices(cloud, [0.0, 0.0], 1.0, 3, a0)) == []
    edge = WeightedPointCloud(np.array([[0.25, 0.0]]), np.ones(1))
    assert list(sq.annulus_indices(edge, [0.0, 0.0], 1.0, 1, a0)) == [0]
    assert list(sq.annulus_indices(edge, [0.0, 0.0], 1.0, 0, a0)) == []


def test_annulus_indices_is_the_two_ball_mask_on_both_spheres():
    # dyadic grids, radii and alpha0: the centre's offsets v and alpha0 v lie
    # on the outer and the inner sphere, where the closed and open ends decide
    rng = np.random.default_rng(0)
    for _ in range(300):
        D = int(rng.integers(1, 4))
        a0 = float(rng.choice([0.5, 0.25]))
        level = int(rng.integers(0, 3))
        v = 2.0 * rng.integers(-2, 3, size=D)
        c = rng.integers(-4, 5, size=D) * 2.0 ** -int(rng.integers(0, 4))
        rows = [c, c + v, c + a0 * v, c - v, *(c + rng.integers(-8, 9, size=(30, D)) / 4.0)]
        cloud = WeightedPointCloud(np.asarray(rows), np.ones(len(rows)))
        r = float(np.linalg.norm(v)) / a0**level or 1.0
        P = cloud.points
        outer = Ball(c, a0**level * r).contains(P)
        want = np.nonzero(outer & ~Ball(c, a0 ** (level + 1) * r).contains(P))[0]
        assert np.array_equal(sq.annulus_indices(cloud, c, r, level, a0), want)
