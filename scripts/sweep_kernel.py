"""Throughput of the batch curvature kernel: tuples per second of
_batch.curvature_terms for d = 1, 2, 3 at stack sizes B = 1, 2^10, 2^18.

    python3 scripts/sweep_kernel.py [--src DIR]

Imports `menger` from --src (default: this checkout's `src`), so the same
script measures any checkout.  A cell stacks B tuples of d + 2 Gaussian
points in R^{d+1} (seeded) and times enough kernel calls to cover about
MIN_CELL_S seconds, REPEATS times; it reports the median tuples per second.
Prints one JSON object.  BLAS is held to one thread, as in bench/run.py;
give the number of CPUs of the machine next to any number it prints.
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
REPEATS = 5
MIN_CELL_S = 0.2
SIZES = (1, 2**10, 2**18)
DIMS = (1, 2, 3)


def _cell(kernel, T) -> float:
    calls = 1
    while True:
        t0 = perf_counter()
        for _ in range(calls):
            kernel(T)
        dt = perf_counter() - t0
        if dt >= MIN_CELL_S or calls >= 1 << 20:
            break
        calls *= 2
    rates = [calls * len(T) / dt]
    for _ in range(REPEATS - 1):
        t0 = perf_counter()
        for _ in range(calls):
            kernel(T)
        rates.append(calls * len(T) / (perf_counter() - t0))
    return statistics.median(rates)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the menger package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy

    from menger import _batch

    rng = numpy.random.default_rng(0)
    cells = {}
    for d in DIMS:
        for B in SIZES:
            T = rng.normal(size=(B, d + 2, d + 1))
            cells[f"d{d}-B{B}"] = round(_cell(_batch.curvature_terms, T))
            print(f"d{d}-B{B}: {cells[f'd{d}-B{B}']} tuples/s", file=sys.stderr, flush=True)
    env = {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
           "machine": platform.machine(), "repeats": REPEATS}
    print(json.dumps({"env": env, "tuples_per_s": cells}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
