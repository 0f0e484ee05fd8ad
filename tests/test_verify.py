"""The shared checks of `menger verify` can fail: each reports a violation
on a corrupted kernel or level.  The acceptance tests rely on these
checks, so a check that could never fail would pass them vacuously."""

import dataclasses

import numpy as np

from menger import _batch, multiscale, verify
from menger.measure import gen_sphere


def test_comparability_counts_a_scaled_curvature(monkeypatch):
    T = np.random.default_rng(1).normal(size=(500, 3, 2))
    assert verify.comparability_violations(T)[:2] == (0, 0)
    terms = _batch.curvature_terms

    def scaled(T):
        out = terms(T)
        out["cd_sq"] = 4.0 * out["cd_sq"]
        return out

    monkeypatch.setattr(_batch, "curvature_terms", scaled)
    lower, upper, _, _ = verify.comparability_violations(T)
    assert lower == 0
    assert upper == len(T)


def test_deviation_counts_a_scaled_polar_sine(monkeypatch):
    rng = np.random.default_rng(2)
    T = rng.normal(size=(200, 4, 3))
    plane = verify.random_plane(rng, 2, 3)
    assert verify.deviation_violations(T, plane)[1:] == (0, 0)
    psin_sq_at = _batch.psin_sq_at
    monkeypatch.setattr(_batch, "psin_sq_at", lambda T, i: 1e4 * psin_sq_at(T, i))
    max_psin, chain, bound = verify.deviation_violations(T, plane)
    assert max_psin > 1.0
    assert chain > 0
    assert bound > 0


def test_level_axioms_mark_each_corrupted_level():
    cloud = gen_sphere(2, 256, seed=3)
    fam = multiscale.MultiresolutionFamily(cloud, 0.25, order_seed=3)
    level = fam.level(fam.n_top + 1)
    assert all(verify.level_axioms(cloud, level).values())

    part = level.partition.copy()
    part[0] = np.argmax(np.linalg.norm(level.centers(cloud) - cloud.points[0], axis=1))
    corrupted = {
        "separation": dataclasses.replace(level, net=np.append(level.net, level.net[0])),
        "sandwich_upper": dataclasses.replace(level, partition=part),
        "partition_total": dataclasses.replace(level, kept=level.kept[:-1]),
    }
    for key, bad in corrupted.items():
        assert not verify.level_axioms(cloud, bad)[key], key
