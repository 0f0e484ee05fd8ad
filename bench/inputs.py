"""Seeded inputs for the benchmark workloads, generated with numpy alone.

The generators do not call the library, so a change to the library cannot
change what it is measured on.  Each data workload is one fixed base cloud
moved by a seeded congruence (row shuffle and pair choice for the Cantor
cloud, a rotation for the sphere and the circle).  Distances, ball
membership and the work done are then the same for every seed, so one set of
recorded reference outputs in references.json gates every seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WORKLOADS = ("exact-cantor", "mc-sphere", "flatness-circle", "verify-all")

# verify-all always runs the seed that tests/test_acceptance.py pins for the
# byte-determinism contract.  Its cost depends strongly on the seed
# (5.8 s to 72.6 s over seeds 0-7), so a seeded verify seed would swamp
# every bound.
VERIFY_SEED = 7

_SPHERE_BASE_SEED = 20_000
_CIRCLE_BASE_SEED = 8_000


def _write_cloud(path: Path, points: np.ndarray, weights: np.ndarray) -> None:
    """Write the library's CSV format: a `dim=D` header, then `c_1,...,c_D,w` rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={points.shape[1]}\n")
        for p, w in zip(points.tolist(), weights.tolist()):
            fh.write(",".join(repr(c) for c in p) + f",{w!r}\n")


def cantor_points(level: int) -> np.ndarray:
    """Cell centres of the level-n four-corner Cantor construction (contraction 1/4)."""
    centers = np.zeros((1, 2))
    side = 1.0
    offsets = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    for _ in range(level):
        centers = (centers[:, None, :] + (3.0 / 8.0) * side * offsets[None, :, :]).reshape(-1, 2)
        side /= 4.0
    return centers


def _unit_sample(n: int, dim: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).normal(size=(n, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation: QR of a Gaussian matrix with the sign fixed."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def make_input(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's cloud CSV and return the parameters the worker
    needs, with the CSV path under "csv" (verify-all has no input file)."""
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = out_dir / f"{workload}-seed{seed}.csv"
    if workload == "exact-cantor":
        # 256 points; a ball around the midpoint of two adjacent level-1
        # corners holds exactly their 128 points (inside 0.514, next point
        # at 0.676).  Which of the four pairs is seeded, as is the row order.
        pts = cantor_points(4)[rng.permutation(256)]
        mid = [(0.0, 0.375), (0.0, -0.375), (0.375, 0.0), (-0.375, 0.0)][seed % 4]
        spec = {"center": list(mid), "radius": 0.595, "d": 1, "lam": 0.4}
        _write_cloud(csv, pts, np.full(len(pts), 1.0 / len(pts)))
    elif workload == "mc-sphere":
        # Caps of chordal radius 0.8 hold about 16% of the sphere, 3.2k
        # points, so auto mode takes the Monte Carlo path.  Each cap has its
        # own fixed sampling seed: with the rotation preserving the index
        # order, every workload seed then draws the same tuples.
        pts = _unit_sample(20_000, 3, _SPHERE_BASE_SEED) @ _rotation(3, rng).T
        spec = {"centers": [0, 1, 2, 3], "radius": 0.8, "d": 2, "n_samples": 100_000,
                "mc_seeds": [0, 1, 2, 3]}
        _write_cloud(csv, pts, np.full(len(pts), 1.0 / len(pts)))
    elif workload == "flatness-circle":
        pts = _unit_sample(8_000, 2, _CIRCLE_BASE_SEED) @ _rotation(2, rng).T
        spec = {"centers": list(range(8)), "radius": 0.5, "d": 1, "alpha0": 0.25}
        _write_cloud(csv, pts, np.full(len(pts), 1.0 / len(pts)))
    elif workload == "verify-all":
        return {"verify_seed": VERIFY_SEED}
    else:
        raise ValueError(f"unknown workload {workload!r}; pick from {', '.join(WORKLOADS)}")
    spec["csv"] = str(csv)
    return spec
