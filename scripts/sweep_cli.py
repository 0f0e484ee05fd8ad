"""Cold-start sweep of the command line: `generate`, `beta`, `curvature` and
`flatness`, each as a fresh process, on generated circles of N = 2k, 8k and
20k points and on the level-3 four-corner Cantor set (64 points).

    python3 scripts/sweep_cli.py [--src DIR] [--repeats R]

Each run is a new interpreter that imports `menger.cli` from --src (default:
this checkout's `src`) and calls its `main`, as the `menger` console script
does, so the same script measures any checkout.  Per cell (input, command)
it reports, over REPEATS runs:

  wall_s        median wall time from process start to exit
  peak_rss_mb   median peak resident set of the child, from os.wait4
  scipy_loaded  whether the child had imported scipy when main returned
                (the script fails if the runs disagree)

The commands, with d = 1:

  generate         generate sphere --D 2 --n N (Cantor: generate cantor --level 3)
  beta             beta on the ball of radius 0.5 around the first point
  curvature_exact  curvature --lambda 0.4 on a ball that holds about 64 points
                   (circle: around (1, 0), radius 64 pi / N; Cantor: 0,0:1)
  curvature_mc     curvature --mode mc --samples 200000 --seed 3 on the
                   bounding ball

A curvature cell also reports `exact`, the path the command took:
curvature_exact is exact everywhere, as its balls' tuple counts allow an
exact sum, and curvature_mc is Monte Carlo everywhere, the Cantor set's 64
points included.

The input clouds are written once, untimed, to a temporary directory.  The
script fails when a command exits non-zero.  Prints one JSON object.  BLAS
is held to one thread, as in bench/run.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
SIZES = (2000, 8000, 20000)
MARK = "sweep_cli scipy_loaded="
# The `menger` console script, plus one stderr line that says whether scipy
# was imported.
CHILD = f"""import sys
from menger.cli import main
try:
    code = main(sys.argv[1:])
finally:
    sys.stderr.write("\\n{MARK}" + str(int("scipy" in sys.modules)) + "\\n")
sys.exit(code)
"""


def _run(argv: list[str], env: dict, tmp: Path) -> tuple[float, float, bool, str]:
    """(wall_s, peak_rss_mb, scipy_loaded, stdout) of one child process."""
    with open(tmp / "stdout", "w+") as out, open(tmp / "stderr", "w+") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {stderr.strip()}")
    marks = [line for line in stderr.splitlines() if line.startswith(MARK)]
    return wall, usage.ru_maxrss / 1024.0, marks[-1] == MARK + "1", stdout


def _commands(name: str, path: Path, first_point: list[float], tmp: Path) -> dict[str, list[str]]:
    if name == "cantor":
        generate = ["generate", "cantor", "--level", "3"]
        exact_ball = "0,0:1"
    else:
        n = int(name.removeprefix("circle-"))
        generate = ["generate", "sphere", "--D", "2", "--n", str(n), "--seed", "0"]
        exact_ball = f"1,0:{64 * math.pi / n!r}"
    io = ["--input", str(path), "--d", "1"]
    return {
        "generate": [*generate, "--out", str(tmp / "generated.csv")],
        # `--ball=` keeps a leading minus sign from reading as an option
        "beta": ["beta", *io, "--ball=" + ",".join(map(repr, first_point)) + ":0.5"],
        "curvature_exact": ["curvature", *io, "--ball=" + exact_ball, "--lambda", "0.4"],
        "curvature_mc": ["curvature", *io, "--mode", "mc", "--samples", "200000", "--seed", "3"],
        "flatness": ["flatness", *io],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the menger package")
    ap.add_argument("--repeats", type=int, default=REPEATS)
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())
    env = {**os.environ, "PYTHONPATH": src, **{var: "1" for var in BLAS_THREAD_VARS}}
    sys.path.insert(0, src)
    import numpy

    from menger.measure import gen_four_corner_cantor, gen_sphere

    clouds = {f"circle-{n}": gen_sphere(2, n, seed=0) for n in SIZES}
    clouds["cantor"] = gen_four_corner_cantor(3)
    cells = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        for name, cloud in clouds.items():
            path = tmp / f"{name}.csv"
            cloud.to_csv(path)
            for command, cmd in _commands(name, path, cloud.points[0].tolist(), tmp).items():
                runs = [_run(cmd, env, tmp) for _ in range(args.repeats)]
                loaded = {r[2] for r in runs}
                if len(loaded) != 1:
                    raise RuntimeError(f"{name} {command}: scipy loaded in some runs only")
                cells[f"{name}/{command}"] = cell = {
                    "wall_s": statistics.median(r[0] for r in runs),
                    "peak_rss_mb": statistics.median(r[1] for r in runs),
                    "scipy_loaded": loaded.pop(),
                }
                if command.startswith("curvature"):
                    cell["exact"] = json.loads(runs[0][3])["exact"]
                print(f"{name}/{command}: {json.dumps(cell)}", file=sys.stderr, flush=True)
    env_info = {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": metadata.version("scipy"), "machine": platform.machine(), "repeats": args.repeats}
    print(json.dumps({"env": env_info, "cells": cells}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
