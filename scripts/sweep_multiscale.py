"""Scaling sweep of the multiscale layer: support diameter, level builds,
flatness queries and single beta_2 evaluations on a circle and a 2-sphere at
N = 2k, 8k and 20k.

    python3 scripts/sweep_multiscale.py [--src DIR]

Imports `menger` from --src (default: this checkout's `src`), so the same
script measures any checkout.  Each cell is timed REPEATS times, on a
fresh cloud each time, so the cached diameter and nearest-neighbour scale
do not carry over; the median is reported.  Per cloud it times:

  diameter_s    WeightedPointCloud.support_diameter
  levels_s      MultiresolutionFamily init (which reads the cached diameter)
                plus every level from n_top to n_floor
  discrete_s    8 jones_flatness_discrete queries (radius 0.5, centres 0-7)
  continuous_s  1 jones_flatness_continuous query (the first of those balls)
  beta2_us      microseconds per planes.beta2 call, one timer per call: the
                median over 64 balls of radius 0.05 centred on points 0-63,
                on each of the REPEATS clouds

with alpha0 = 0.25 and d = 1 on the circle, d = 2 on the sphere.  Prints
one JSON object.  BLAS is held to one thread, as in bench/run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
SIZES = (2000, 8000, 20000)


def _cell(menger, D: int, n: int, d: int) -> dict:
    base = menger.measure.gen_sphere(D, n, seed=n + D)
    ms = menger.multiscale
    times: dict[str, list[float]] = {"diameter_s": [], "levels_s": [], "discrete_s": [], "continuous_s": []}
    beta2_us = []
    for _ in range(REPEATS):
        cloud = menger.measure.WeightedPointCloud(base.points, base.weights)
        t0 = perf_counter()
        cloud.support_diameter()
        t1 = perf_counter()
        fam = ms.MultiresolutionFamily(cloud, 0.25)
        for level in range(fam.n_top, fam.n_floor + 1):
            fam.level(level)
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
    out = {key: statistics.median(v) for key, v in times.items()}
    out["beta2_us"] = statistics.median(beta2_us)
    out["levels"] = fam.n_floor - fam.n_top + 1
    out["net_points"] = int(sum(len(fam.level(k).net) for k in range(fam.n_top, fam.n_floor + 1)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the menger package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import menger.measure
    import menger.multiscale
    import menger.planes
    import numpy
    import scipy

    cells = {}
    for shape, D, d in (("circle", 2, 1), ("sphere2", 3, 2)):
        for n in SIZES:
            cells[f"{shape}-{n}"] = _cell(menger, D, n, d)
            print(f"{shape}-{n}: {json.dumps(cells[f'{shape}-{n}'])}", file=sys.stderr, flush=True)
    env = {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "machine": platform.machine(), "repeats": REPEATS}
    print(json.dumps({"env": env, "cells": cells}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
