"""One benchmark client in one process: import, load, then timed repetitions.

Started by run.py.  The worker imports the library from the checkout's
`src`, loads the generated CSV and prints `ready`; the time from process
start to that line is one set-up sample.  It then reads one command from
stdin: `exit`, or `run <seconds>`, which repeats the workload until the next
repetition would end past <seconds> (at least once) and prints one JSON line.
With --trace 1 every untraced repetition is followed by a traced one, and the
JSON line also carries the per-layer metrics; the spans go to --spans.
After the JSON line the worker keeps running untimed repetitions, as load
for the clients still measuring, until its stdin reaches end of file or it
is killed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import select
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class _OpFailed(Exception):
    """Raised after a failed operation is recorded; ends the repetition."""


def _rep(workload: str, spec: dict, base, lib) -> dict:
    """Run the workload's public calls once and record each call's wall time
    and output."""
    ops: list[dict] = []

    def call(op, fn, summarize):
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failing call is counted, the benchmark goes on
            ops.append({"op": op, "s": perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}"})
            raise _OpFailed from exc
        ops.append({"op": op, "s": perf_counter() - t0})
        ops[-1]["out"] = summarize(result)
        return result

    def estimate(est):
        return {"estimate": est.estimate, "mean": est.mean, "std_error": est.std_error,
                "n_samples": est.n_samples, "exact": est.exact}

    def flatness(rep):
        return {"total": rep.total, "terms": len(rep.terms)}

    Ball = lib.measure.Ball
    # A fresh cloud per repetition, so nothing cached on it (diameter,
    # nearest-neighbour scale) carries over from the previous one.
    cloud = None if base is None else lib.measure.WeightedPointCloud(base.points, base.weights)
    try:
        if workload == "exact-cantor":
            ball = Ball(spec["center"], spec["radius"])
            curv = lib.estimators.continuous_curvature_sq
            call("exact", lambda: curv(cloud, ball, spec["d"], mode="auto"), estimate)
            call("exact_lam", lambda: curv(cloud, ball, spec["d"], mode="auto", lam=spec["lam"]), estimate)
        elif workload == "mc-sphere":
            for q, (c, s) in enumerate(zip(spec["centers"], spec["mc_seeds"])):
                ball = Ball(cloud.points[c], spec["radius"])
                call(f"cap{q}", lambda: lib.estimators.continuous_curvature_sq(
                    cloud, ball, spec["d"], n_samples=spec["n_samples"], seed=s), estimate)
        elif workload == "flatness-circle":
            ms = lib.multiscale
            fam = call("family", lambda: ms.MultiresolutionFamily(cloud, alpha0=spec["alpha0"]),
                       lambda f: {"n_top": f.n_top, "n_floor": f.n_floor})
            balls = [Ball(cloud.points[c], spec["radius"]) for c in spec["centers"]]
            for q, ball in enumerate(balls):
                call(f"discrete{q}", lambda: ms.jones_flatness_discrete(cloud, ball, fam, spec["d"]), flatness)
            call("continuous", lambda: ms.jones_flatness_continuous(cloud, balls[0], spec["d"]), flatness)
        elif workload == "verify-all":
            call("run_all", lambda: lib.verify.run_all(spec["verify_seed"]), lambda report: {
                "passed": report["passed"],
                "sha256": hashlib.sha256(
                    (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()).hexdigest(),
            })
        else:
            raise ValueError(f"unknown workload {workload!r}")
    except _OpFailed:
        pass
    return {"run_s": sum(o["s"] for o in ops), "ops": ops}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--spec", required=True, help="workload parameters as JSON")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where the traced run writes its spans (.npz)")
    args = ap.parse_args(argv)
    spec = json.loads(args.spec)
    src = ROOT / "src"
    sys.path.insert(0, str(src))

    import menger
    import menger.estimators
    import menger.measure
    import menger.multiscale
    import menger.verify

    if src not in Path(menger.__file__).resolve().parents:
        print(f"worker: imported menger from {menger.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    base = menger.measure.WeightedPointCloud.from_csv(spec["csv"]) if "csv" in spec else None
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)

    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return 0
    seconds = float(command[1])

    untraced, traced = [], []
    t0 = perf_counter()
    while True:
        untraced.append(_rep(args.workload, spec, base, menger))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(_rep(args.workload, spec, base, menger))
            finally:
                tracer.uninstall()
        spent = perf_counter() - t0
        if spent + spent / len(untraced) > seconds:
            break

    result = {
        "reps": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        spans = tracer.arrays()
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            np.savez_compressed(args.spans, **spans)
        layers = layer_metrics(spans, len(traced))
        layers["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - statistics.median(
            r["run_s"] for r in untraced
        )
        result["traced_reps"] = traced
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    while not select.select([sys.stdin], [], [], 0)[0]:
        _rep(args.workload, spec, base, menger)
    return 0


if __name__ == "__main__":
    sys.exit(main())
