"""Seed sweep of the verification harness: which checks fail at which seed,
and how long each suite takes.

    python3 scripts/sweep_seeds.py [--seeds 0 1 ...] [--src DIR]

Imports `menger` from --src (default: this checkout's `src`).  For each
seed (default 0 to 15) it runs the suites of `verify.run_all` one at a
time through `verify.run_suite`, which without an injected failure gives
the same checks, and prints one JSON line per seed: whether it passed,
the failed checks as "suite/check", the wall time of each suite in
seconds, and `sha256`, the hash of the seed's report as
`menger verify all --seed S` prints it, so that

    menger verify all --seed S | sha256sum

gives the same digest.  Running the sweep in two trees compares their
reports bit for bit at every seed.  Exits 1 when any seed fails.  Seeds 5
and 12 fail inequalities/curvature_flatness_ratio, so this is not run in
CI.  BLAS is held to one thread, as in bench/run.py.
"""

import hashlib
import json
import sys
from time import perf_counter

import _sweep


def main(argv=None) -> int:
    ap = _sweep.parser(__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(16)))
    args = ap.parse_args(argv)
    _sweep.use(args.src)
    from menger import verify

    all_passed = True
    for seed in args.seeds:
        failed, suite_s, suites = [], {}, []
        for name in verify.SUITES:
            t0 = perf_counter()
            report = verify.run_suite(name, seed)
            suite_s[name] = round(perf_counter() - t0, 2)
            suites.append(report)
            failed += [f"{name}/{c['name']}" for c in report["checks"] if not c["passed"]]
        all_passed &= not failed
        # the report of verify.run_all, serialised as cli.cmd_verify writes it
        text = json.dumps({"seed": seed, "passed": not failed, "suites": suites}, sort_keys=True, indent=2) + "\n"
        sha = hashlib.sha256(text.encode()).hexdigest()
        row = {"seed": seed, "passed": not failed, "failed": failed, "suite_s": suite_s, "sha256": sha}
        print(json.dumps(row), flush=True)
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
