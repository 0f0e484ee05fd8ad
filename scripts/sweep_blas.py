"""OpenBLAS core-type sweep of the verification report: which BLAS kernel
each forced core type runs, and which report leaves it moves.

    python3 scripts/sweep_blas.py [--seed 7]

For each core type of CORE_TYPES it runs `menger verify all --seed S` in
its own subprocess, with OPENBLAS_CORETYPE set to the type,
OPENBLAS_VERBOSE=2 so that OpenBLAS names the kernel it loads, BLAS held
to one thread as in bench/run.py, and `menger` imported from this
checkout's `src`.  It prints one JSON line per core type:

    coretype  the type asked for
    status    "ran"; "skipped" when the process died of a signal (an
              illegal instruction: a kernel this CPU cannot run); "error"
              when the CLI exited with a code other than 0 or 1, with the
              tail of its stderr
    kernel    the "Core: ..." names OpenBLAS printed, one per library
              loaded; a type this OpenBLAS lacks runs under another name
    exit      the CLI's exit code (0 passed, 1 a failed check)
    sha256    the digest of the report, as `... | sha256sum` gives it
    differs   every report leaf whose value differs from the first row
              that ran, as path: [first value, this value]; a path names
              suites and checks by name, other list entries by position

It only reports: it exits 0 whatever the digests are, and 1 only when
check finds the rows out of CORE_TYPES order, or one that neither ran nor
died of a signal (the CLI refused its input or crashed).
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

import _sweep

CORE_TYPES = ("SkylakeX", "Cooperlake", "Zen", "Haswell", "Sandybridge", "Nehalem", "Prescott", "Core2")


def check(rows: list[dict]) -> list[str]:
    """One row per core type, in CORE_TYPES order, each skipped or ran with
    a digest."""
    problems = [] if [r["coretype"] for r in rows] == list(CORE_TYPES) else ["rows are not one per core type"]
    return problems + [f"{r['coretype']} {r['status']} without a digest" for r in rows
                       if not (r["status"] == "skipped" or (r["status"] == "ran" and "sha256" in r))]


def _leaves(node, path: str = "") -> dict:
    """The scalar leaves of a JSON document keyed by their path."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = ((e.get("suite", e.get("name", i)) if isinstance(e, dict) else i, e) for i, e in enumerate(node))
    else:
        return {path: node}
    out = {}
    for key, value in items:
        out.update(_leaves(value, f"{path}/{key}" if path else str(key)))
    return out


def run(coretype: str, seed: int) -> tuple[dict, dict | None]:
    """(row, report leaves or None) of one core type."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_VERBOSE="2")
    cmd = [sys.executable, "-m", "menger.cli", "verify", "all", "--seed", str(seed)]
    proc = subprocess.run(cmd, env=env, capture_output=True)
    kernel = re.findall(r"^Core: (\S+)", proc.stderr.decode(errors="replace"), re.M)
    row = {"coretype": coretype, "status": "ran", "kernel": kernel, "exit": proc.returncode}
    if proc.returncode < 0:
        row["status"] = "skipped"
        return row, None
    if proc.returncode not in (0, 1):
        row["status"] = "error"
        row["stderr"] = proc.stderr.decode(errors="replace")[-2000:]
        return row, None
    row["sha256"] = hashlib.sha256(proc.stdout).hexdigest()
    return row, _leaves(json.loads(proc.stdout))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    _sweep.use()

    first = None
    rows = []
    for coretype in CORE_TYPES:
        row, leaves = run(coretype, args.seed)
        if leaves is not None:
            first = leaves if first is None else first
            row["differs"] = {
                path: [first.get(path), leaves.get(path)]
                for path in sorted(first.keys() | leaves.keys())
                if repr(first.get(path)) != repr(leaves.get(path))
            }
        print(json.dumps(row), flush=True)
        rows.append(row)
    return _sweep.verdict(check(rows))


if __name__ == "__main__":
    sys.exit(main())
