"""Seed sweep of the verification harness: which checks fail at which seed,
and how long each suite takes.

    python3 scripts/sweep_seeds.py [--seeds 0 1 ...] [--src DIR]

Imports `menger` from --src (default: this checkout's `src`).  For each
seed (default 0 to 15) it runs the suites of `verify.run_all` one at a
time through `verify.run_suite`, which without an injected failure gives
the same checks, and prints one JSON line per seed: whether it passed,
the failed checks as "suite/check", and the wall time of each suite in
seconds.  Exits 1 when any seed fails.  Seeds 5 and 12 fail
inequalities/curvature_flatness_ratio, so this is not run in CI.  BLAS is
held to one thread, as in bench/run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(16)))
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the menger package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from menger import verify

    all_passed = True
    for seed in args.seeds:
        failed, suite_s = [], {}
        for name in verify.SUITES:
            t0 = perf_counter()
            report = verify.run_suite(name, seed)
            suite_s[name] = round(perf_counter() - t0, 2)
            failed += [f"{name}/{c['name']}" for c in report["checks"] if not c["passed"]]
        all_passed &= not failed
        print(json.dumps({"seed": seed, "passed": not failed, "failed": failed, "suite_s": suite_s}), flush=True)
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
