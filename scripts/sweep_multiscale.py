"""Scaling sweep of the multiscale layer: support diameter, level builds,
flatness queries and single beta_2 evaluations on a circle and a 2-sphere at
N = 2k, 8k and 20k, and on 4,000 uniform points of the unit square plus one
point at (1e7, 0), whose extent/resolution ratio is past the cell cap of
measure._Grid.

    python3 scripts/sweep_multiscale.py [--src DIR]

Imports `menger` from --src (default: this checkout's `src`), so the same
script measures any checkout whose build_net takes the points themselves.
Each cell is timed REPEATS times, on a fresh cloud each time, so the cached
diameter and nearest-neighbour scale do not carry over; the median is
reported.  Per cloud it times:

  diameter_s    WeightedPointCloud.support_diameter
  levels_s      MultiresolutionFamily init (which reads the cached diameter
                and computes the median nearest-neighbour distance) plus
                every level from n_top to n_floor
  level_s       the build time of each level n alone, keyed by n
  discrete_s    8 jones_flatness_discrete queries (radius 0.5, centres 0-7)
  continuous_s  1 jones_flatness_continuous query (the first of those balls)
  beta2_us      microseconds per planes.beta2 call, one timer per call: the
                median over 64 balls of radius 0.05 centred on points 0-63,
                on each of the REPEATS clouds
  beta2_batch_us  microseconds per ball inside one scale-layer batch: the
                same 64 balls as one planes._beta2_layers call (one layer,
                radius 0.05), its time over 64, the median over the REPEATS
                clouds
  routed_share  the share of (point, level) cells, over every level built,
                whose point lies outside its own cell's kept quarter ball:
                the points the partition routes through the net walk's and
                the ball-family walk's cover maps, read from NetLevel
  hit_pairs_per_point  the largest, over the levels built, of the net
                walk's hit pairs (point, net point within the level's q),
                which the partition's first pass reads, divided by N

with alpha0 = 0.25 and d = 1 on the circle and the square, d = 2 on the
sphere.  Prints one JSON object, and exits 1 when a cell lacks one of
KEYS.  BLAS is held to one thread.
"""

import json
import statistics
import sys
from time import perf_counter

import _sweep

REPEATS = 3
SIZES = (2000, 8000, 20000)
KEYS = ("diameter_s", "levels_s", "level_s", "beta2_us", "beta2_batch_us", "routed_share", "hit_pairs_per_point")


def check(doc: dict) -> list[str]:
    """The document has cells, and each cell every one of KEYS."""
    cells = doc["cells"]
    problems = [] if cells else ["no cells"]
    return problems + [f"{name} lacks {key}" for name, c in cells.items() for key in KEYS if key not in c]


def _cell(menger, base, d: int) -> dict:
    ms = menger.multiscale
    times: dict[str, list[float]] = {"diameter_s": [], "levels_s": [], "discrete_s": [], "continuous_s": []}
    beta2_us, batch_us = [], []
    level_s: dict[int, list[float]] = {}
    for _ in range(REPEATS):
        cloud = menger.measure.WeightedPointCloud(base.points, base.weights)
        t0 = perf_counter()
        cloud.support_diameter()
        t1 = perf_counter()
        fam = ms.MultiresolutionFamily(cloud, 0.25)
        for level in range(fam.n_top, fam.n_floor + 1):
            tl = perf_counter()
            fam.level(level)
            level_s.setdefault(level, []).append(perf_counter() - tl)
        t2 = perf_counter()
        balls = [menger.measure.Ball(cloud.points[c], 0.5) for c in range(8)]
        for ball in balls:
            ms.jones_flatness_discrete(cloud, ball, fam, d)
        t3 = perf_counter()
        ms.jones_flatness_continuous(cloud, balls[0], d)
        t4 = perf_counter()
        for key, dt in zip(times, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            times[key].append(dt)
        for c in range(64):
            ball = menger.measure.Ball(cloud.points[c], 0.05)
            t0 = perf_counter()
            menger.planes.beta2(cloud, ball, d)
            beta2_us.append(1e6 * (perf_counter() - t0))
        t0 = perf_counter()
        menger.planes._beta2_layers(cloud, cloud.points[:64], [0.05], d)
        batch_us.append(1e6 * (perf_counter() - t0) / 64)
    out = {key: statistics.median(v) for key, v in times.items()}
    out["beta2_us"] = statistics.median(beta2_us)
    out["beta2_batch_us"] = statistics.median(batch_us)
    out["level_s"] = {str(n): statistics.median(v) for n, v in level_s.items()}
    out["levels"] = fam.n_floor - fam.n_top + 1
    out["net_points"] = int(sum(len(fam.level(k).net) for k in range(fam.n_top, fam.n_floor + 1)))
    out["routed_share"] = _routed_share(menger, cloud, fam)
    out["hit_pairs_per_point"] = _hit_pairs_per_point(menger, cloud, fam)
    return out


def _routed_share(menger, cloud, fam) -> float:
    routed = 0
    for n in range(fam.n_top, fam.n_floor + 1):
        level = fam.level(n)
        q = level.quarter_radius
        # the net walk compares these same squared norms for the partition
        d2 = menger.measure._sq_norms(cloud.points - level.centers(cloud)[level.partition])
        routed += int((d2 > q * q).sum())
    return routed / (len(cloud) * (fam.n_floor - fam.n_top + 1))


def _hit_pairs_per_point(menger, cloud, fam) -> float:
    # the level keeps no hits, so each net walk runs again, untimed
    walks = (menger.multiscale.build_net(cloud.points, fam.order, fam.level(n).quarter_radius)
             for n in range(fam.n_top, fam.n_floor + 1))
    return max(len(points) for _, _, (points, _) in walks) / len(cloud)


def main(argv=None) -> int:
    _sweep.use(_sweep.parser(__doc__).parse_args(argv).src)
    import menger.measure
    import menger.multiscale
    import menger.planes
    import numpy

    clouds = {f"{shape}-{n}": (menger.measure.gen_sphere(D, n, seed=n + D), d)
              for shape, D, d in (("circle", 2, 1), ("sphere2", 3, 2)) for n in SIZES}
    square = numpy.vstack([numpy.random.default_rng(0).uniform(size=(4000, 2)), [[1e7, 0.0]]])
    clouds["square-4000-outlier"] = menger.measure.WeightedPointCloud(square, numpy.ones(len(square))), 1
    cells = {}
    for name, (base, d) in clouds.items():
        cells[name] = _cell(menger, base, d)
        print(f"{name}: {json.dumps(cells[name])}", file=sys.stderr, flush=True)
    doc = {"env": _sweep.env(repeats=REPEATS), "cells": cells}
    return _sweep.emit(doc, check(doc))


if __name__ == "__main__":
    sys.exit(main())
