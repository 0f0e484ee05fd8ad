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

It only reports: the exit code is 0 whatever the digests are, and 2 only
when a core type neither ran nor died of a signal (the CLI refused its
input or crashed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CORE_TYPES = ("SkylakeX", "Cooperlake", "Zen", "Haswell", "Sandybridge", "Nehalem", "Prescott", "Core2")


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
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
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

    first = None
    errors = 0
    for coretype in CORE_TYPES:
        row, leaves = run(coretype, args.seed)
        errors += row["status"] == "error"
        if leaves is not None:
            first = leaves if first is None else first
            row["differs"] = {
                path: [first.get(path), leaves.get(path)]
                for path in sorted(first.keys() | leaves.keys())
                if repr(first.get(path)) != repr(leaves.get(path))
            }
        print(json.dumps(row), flush=True)
    return 2 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
