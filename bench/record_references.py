"""Record the reference outputs that run.py gates against.

    python3 bench/record_references.py

Runs one repetition of every workload at seed 0 on the library in this
checkout and writes bench/references.json.  Run it only when a change is
meant to alter the outputs, and say so with the change: the references are
the library's own outputs at the commit that recorded them.
"""

from __future__ import annotations

import json
import sys
import time

from run import BENCH, OUT, Worker, child_env
from inputs import WORKLOADS, make_input

RTOL = 1e-9  # summation order may change; the values may not
MC_Z = 4.0  # reference standard errors a Monte Carlo mean may move


def outputs(workload: str) -> dict:
    spec = make_input(workload, 0, OUT / "inputs")
    w = Worker(["--workload", workload, "--spec", json.dumps(spec)], child_env())
    try:
        Worker.ready([w])
        w.start(0)
        rep = w.result(time.monotonic() + 600.0)["reps"][0]
    finally:
        w.stop()
    return {o["op"]: o["out"] for o in rep["ops"]}


def main() -> int:
    refs = {}
    out = outputs("exact-cantor")
    refs["exact-cantor"] = {"rtol": RTOL, **{op: {"estimate": v["estimate"]} for op, v in out.items()}}
    out = outputs("mc-sphere")
    refs["mc-sphere"] = {
        "z": MC_Z,
        "n_samples": out["cap0"]["n_samples"],
        "caps": [{"mean": out[f"cap{q}"]["mean"], "std_error": out[f"cap{q}"]["std_error"]} for q in range(4)],
    }
    out = outputs("flatness-circle")
    refs["flatness-circle"] = {
        "rtol": RTOL,
        "family": out["family"],
        "discrete": [out[f"discrete{q}"] for q in range(8)],
        "continuous": out["continuous"],
    }
    out = outputs("verify-all")
    if not out["run_all"]["passed"]:
        print("verify-all did not pass; not recording its report", file=sys.stderr)
        return 1
    refs["verify-all"] = {"sha256": out["run_all"]["sha256"]}
    assert set(refs) == set(WORKLOADS)
    (BENCH / "references.json").write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
