"""Benchmark of the menger library: end-to-end and per-layer metrics.

    python3 bench/run.py --workload exact-cantor --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the library is imported from its
`src`.  It generates the workload's input from --seed (bench/inputs.py),
times set-up in fresh worker processes (interpreter start, `import menger`,
`WeightedPointCloud.from_csv`), then runs the workload as a closed loop of
one client process per CPU for --seconds and gates every output against
bench/references.json.  Each client uses one CPU (BLAS threads capped at 1)
and keeps running after its measurement until every client is done, so no
measured repetition runs beside an idle CPU: on a 2-CPU virtual machine
whose CPUs share a core, a kernel that takes 65-78 ms beside a busy CPU
takes 40 ms beside an idle one, and which of the two a lone process gets
varies from second to second.  This process starts no threads.

`run_s` is the median wall time of a repetition's measured calls;
`setup_s` the median wall time from a worker's start to its `ready` line.

The last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1.  The line before it, and
.bench_out/report-<workload>-seed<seed>-trace<t>.json, hold the full report:
environment, every timing sample with its median and high percentile, the
gate results and the error rate.  Exits 2 without a result when the
directory holds no library to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import select
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from inputs import WORKLOADS, make_input  # noqa: E402

SETUP_ROUNDS = 3  # rounds of nproc concurrent set-up processes, after one untimed warm-up
WORKER_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 60.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run: no result is printed."""


def child_env() -> dict:
    """Environment for workers: one BLAS thread each, one worker per CPU."""
    return {**os.environ, **{var: "1" for var in BLAS_THREAD_VARS}}


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int, env: dict) -> dict:
    return {
        "nproc": nproc,
        "clients": nproc,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def summary(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples above it
    (null below eleven samples), with the sample count."""
    s = sorted(samples)
    out = {"n": len(s), "median": statistics.median(s) if s else None, "high": None, "samples": samples}
    if len(s) >= 11:
        i = len(s) - 11
        out["high"] = {"percentile": math.floor(100 * (i + 1) / len(s)), "value": s[i]}
    return out


class Worker:
    """One worker process, started at construction; see ready()."""

    def __init__(self, argv: list[str], env: dict):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        self.setup_s = None

    @staticmethod
    def ready(workers: list["Worker"]) -> list[float]:
        """Wait for every worker's `ready` line; each set-up time runs from
        its process start to the moment its line arrives."""
        pending = {w.proc.stdout: w for w in workers}
        deadline = time.monotonic() + SETUP_TIMEOUT_S
        while pending:
            readable = select.select(list(pending), [], [], max(0.0, deadline - time.monotonic()))[0]
            if not readable:
                raise BenchError(f"worker not ready within {SETUP_TIMEOUT_S} s")
            for stream in readable:
                w = pending.pop(stream)
                if stream.readline().strip() != "ready":
                    raise BenchError(f"worker failed during set-up (exit code {w.proc.wait()})")
                w.setup_s = time.perf_counter() - w.t0
        return [w.setup_s for w in workers]

    def exit(self) -> None:
        try:
            self.proc.communicate("exit\n", timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker did not exit within {SETUP_TIMEOUT_S} s") from exc
        finally:
            self.stop()

    def start(self, seconds: float) -> None:
        self.proc.stdin.write(f"run {seconds}\n")
        self.proc.stdin.flush()

    def result(self, deadline: float) -> dict:
        """The worker's JSON line, read by the monotonic-clock deadline."""
        if not select.select([self.proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
            raise BenchError("worker did not report in time")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker ended without a result (exit code {self.proc.wait()})")
        return json.loads(line)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def check(workload: str, op: str, out: dict, refs: dict) -> str | None:
    """Why an operation's output fails the workload's gate, or None."""
    ref = refs[workload]
    if workload == "exact-cantor":
        want = ref[op]["estimate"]
        if not out["exact"]:
            return "took the Monte Carlo path"
        if abs(out["estimate"] - want) > ref["rtol"] * abs(want):
            return f"estimate {out['estimate']!r} differs from {want!r} beyond rtol {ref['rtol']}"
    elif workload == "mc-sphere":
        cap = ref["caps"][int(op[3:])]
        if out["exact"] or out["n_samples"] != ref["n_samples"]:
            return f"expected {ref['n_samples']} Monte Carlo samples, got exact={out['exact']} n={out['n_samples']}"
        if abs(out["mean"] - cap["mean"]) > ref["z"] * cap["std_error"]:
            return f"mean {out['mean']!r} is more than {ref['z']} reference standard errors from {cap['mean']!r}"
    elif workload == "flatness-circle":
        want = ref[op.rstrip("0123456789")]
        if isinstance(want, list):
            want = want[int(op[8:])]
        for key, value in want.items():
            got = out[key]
            ok = got == value if isinstance(value, int) else abs(got - value) <= ref["rtol"] * abs(value)
            if not ok:
                return f"{key} {got!r} differs from {value!r}"
    elif workload == "verify-all":
        if not out["passed"]:
            return "verification report did not pass"
        if out["sha256"] != ref["sha256"]:
            return f"report sha256 {out['sha256']} differs from {ref['sha256']}"
    return None


def gate(workload: str, result: dict, refs: dict) -> tuple[list[dict], int, int]:
    """Check every operation; a traced operation must also reproduce the
    untraced output exactly.  Returns (failures, attempted, failed)."""
    failures = []
    attempted = 0
    untraced_out = {o["op"]: o.get("out") for o in result["reps"][0]["ops"]}
    for kind in ("reps", "traced_reps"):
        for r, rep in enumerate(result.get(kind, [])):
            for o in rep["ops"]:
                attempted += 1
                why = o.get("error") or check(workload, o["op"], o["out"], refs)
                if why is None and kind == "traced_reps" and o["out"] != untraced_out.get(o["op"]):
                    why = f"traced output {o['out']} differs from untraced {untraced_out.get(o['op'])}"
                if why:
                    failures.append({"run": kind, "rep": r, "op": o["op"], "why": why})
    return failures, attempted, len(failures)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "menger" / "__init__.py").is_file():
        print(f"run.py: no library at {ROOT / 'src' / 'menger'}; run from a checkout", file=sys.stderr)
        return 2
    refs = json.loads((BENCH / "references.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    spec = make_input(args.workload, args.seed, OUT / "inputs")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_argv = ["--workload", args.workload, "--spec", json.dumps(spec),
                   "--trace", str(args.trace)]

    setup, clients = [], []
    try:
        for i in range(0 if args.trace else SETUP_ROUNDS + 1):
            # Round 0 is one untimed process, which also writes the bytecode caches.
            clients = [Worker(worker_argv, env) for _ in range(nproc if i else 1)]
            times = Worker.ready(clients)
            setup += times if i else []
            for w in clients:
                w.exit()
        clients = [Worker([*worker_argv, "--spans", str(OUT / "spans" / f"{tag}-client{i}.npz")], env)
                   for i in range(nproc)]
        Worker.ready(clients)
        for w in clients:
            w.start(args.seconds)
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        results = [w.result(deadline) for w in clients]
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        for w in clients:
            w.stop()
    result = {
        "reps": [rep for r in results for rep in r["reps"]],
        "traced_reps": [rep for r in results for rep in r.get("traced_reps", [])],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    if args.trace:
        result["layers"] = {k: statistics.fmean(r["layers"][k] for r in results) for k in results[0]["layers"]}

    failures, attempted, failed = gate(args.workload, result, refs)
    ops: dict[str, list[float]] = {}
    for rep in result["reps"]:
        for o in rep["ops"]:
            ops.setdefault(o["op"].rstrip("0123456789"), []).append(o["s"])
    caps = [o for rep in result["reps"] for o in rep["ops"] if o["op"].startswith("cap") and "out" in o]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(nproc, env),
        "spec": spec,
        "run_s": summary([rep["run_s"] for rep in result["reps"]]),
        "op_wall_s": {name: summary(samples) for name, samples in ops.items()},
        "setup_s": summary(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": failures,
    }
    if caps:
        report["mc_rel_se"] = statistics.median(o["out"]["std_error"] / o["out"]["mean"] for o in caps)
        # Each cap's worst deviation from its reference, in reference standard
        # errors and relative to the reference mean, so a drift inside the gate shows.
        report["mc_deviation"] = deviation = {}
        for o in caps:
            ref = refs["mc-sphere"]["caps"][int(o["op"][3:])]
            dev = {"se": (o["out"]["mean"] - ref["mean"]) / ref["std_error"], "rel": o["out"]["mean"] / ref["mean"] - 1.0}
            if abs(dev["se"]) >= abs(deviation.get(o["op"], {"se": 0.0})["se"]):
                deviation[o["op"]] = dev
    if args.trace:
        report["layers"] = values = result["layers"]
        report["traced_run_s"] = summary([rep["run_s"] for rep in result["traced_reps"]])
    else:
        values = {"run_s": report["run_s"]["median"], "setup_s": report["setup_s"]["median"],
                  "peak_rss_mb": result["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
