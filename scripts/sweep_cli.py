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
  scipy_loaded  whether any of the cell's runs had imported scipy when main
                returned

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

The input clouds are written once, untimed, to a temporary directory.  BLAS
is held to one thread, as in bench/run.py.  The script fails when a command
exits non-zero.  Prints one JSON object, and exits 1 unless it holds CELLS
cells, each with every one of KEYS and none with scipy loaded, as the
library runs on numpy alone.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import _sweep

REPEATS = 3
SIZES = (2000, 8000, 20000)
CELLS = 20  # the three circles and the Cantor set, five commands each
KEYS = ("wall_s", "peak_rss_mb", "scipy_loaded")
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


def check(doc: dict) -> list[str]:
    """CELLS cells, each with every one of KEYS and scipy_loaded false."""
    cells = doc["cells"]
    problems = [] if len(cells) == CELLS else [f"{len(cells)} cells, not {CELLS}"]
    problems += [f"{name} lacks {key}" for name, c in cells.items() for key in KEYS if key not in c]
    return problems + [f"{name} loaded scipy" for name, c in cells.items() if c.get("scipy_loaded")]


def _run(argv: list[str], tmp: Path) -> tuple[float, float, bool, str]:
    """(wall_s, peak_rss_mb, scipy_loaded, stdout) of one child process."""
    with open(tmp / "stdout", "w+") as out, open(tmp / "stderr", "w+") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], stdout=out, stderr=err)
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
    ap = _sweep.parser(__doc__)
    ap.add_argument("--repeats", type=int, default=REPEATS)
    args = ap.parse_args(argv)
    _sweep.use(args.src)
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
                runs = [_run(cmd, tmp) for _ in range(args.repeats)]
                cells[f"{name}/{command}"] = cell = {
                    "wall_s": statistics.median(r[0] for r in runs),
                    "peak_rss_mb": statistics.median(r[1] for r in runs),
                    "scipy_loaded": any(r[2] for r in runs),
                }
                if command.startswith("curvature"):
                    cell["exact"] = json.loads(runs[0][3])["exact"]
                print(f"{name}/{command}: {json.dumps(cell)}", file=sys.stderr, flush=True)
    doc = {"env": _sweep.env(repeats=args.repeats), "cells": cells}
    return _sweep.emit(doc, check(doc))


if __name__ == "__main__":
    sys.exit(main())
