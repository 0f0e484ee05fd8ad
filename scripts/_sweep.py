"""What the sweep scripts share.  A sweep calls `use(src)` before it imports
numpy or `menger`.  One that checks its output returns `emit(doc,
check(doc))` from main, or `verdict(check(rows))` once it has printed its
rows, so that its exit status is its own check.
"""

import argparse
import json
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parser(doc: str) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=doc, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=SRC, help="directory holding the menger package")
    return ap


def use(src: str = SRC) -> None:
    """Hold BLAS to one thread, as bench/run.py does, and import `menger`
    from src, in this process and in those it starts."""
    src = str(Path(src).resolve())
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, src)


def env(**extra) -> dict:
    """The document's `env` header; scipy is None where it is not installed."""
    import numpy

    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy, "machine": platform.machine(), **extra}


def verdict(problems: list[str]) -> int:
    """1 after naming each problem on stderr, 0 when there is none."""
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


def emit(doc: dict, problems: list[str]) -> int:
    """Print the document as JSON; the exit status is verdict(problems)."""
    print(json.dumps(doc, indent=1))
    return verdict(problems)
