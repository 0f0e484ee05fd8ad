"""Throughput of the batch curvature kernel, the exact path and the Monte
Carlo layer, and the Monte Carlo path's memory per sample.

    python3 scripts/sweep_kernel.py [--src DIR]

Three tables and one peak, of the `menger` in --src (default: this
checkout's `src`):

- kernel: _batch.curvature_terms on B tuples of d + 2 Gaussian points in
  R^{d+1} (seeded), for d = 1, 2, 3 and B = 1, 2^10, 2^18.  A cell times
  enough calls to cover about MIN_CELL_S seconds, REPEATS times.
- exact: ordered tuples per second of continuous_curvature_sq(mode="exact")
  on m Gaussian points in R^{d+1} with m^{d+2} about 2^12 (a small ball),
  2^18 and 2^21, for d = 1, 2, 3, in a ball that holds every point, with
  lambda None and 0.4.  A cell times one call, EXACT_REPEATS times, and
  reports determinants_per_tuple: the Gram matrices that _batch._content
  receives in one more call, counted through a wrapper, per ordered tuple
  (1 without a floor, at most 1 with one), and peak_bytes_per_tuple: the
  tracemalloc peak of one more call, per ordered tuple.
- mc: the two layers of the Monte Carlo path.  draws: index draws per
  second of estimators._tuple_stream, MC_TUPLES 4-tuples at m = MC_POINTS,
  for equal, uniform-random, log-normal (sigma 6) and one-heavy weights,
  beside Generator.choice drawing the same indices.  cd_sq: tuples per
  second of _batch.cd_sq on 2^18 uniform index tuples into a table of
  MC_POINTS Gaussian points in R^{d+1}, the way the Monte Carlo path calls
  it, d = 1, 2, 3, without a floor and with the squared floor 0.4^2
  (lambda 0.4 in a ball of radius 1).  A cell times one call, REPEATS
  times.
- mc_peak_bytes_per_sample: the tracemalloc peak of one
  continuous_curvature_sq(mode="mc") call, MC_TUPLES samples at d = MC_D
  over MC_POINTS Gaussian points in R^{d+1}, per sample.

check holds an exact cell of at least PEAK_TUPLES ordered tuples (one
sized at 2^21) below EXACT_PEAK_BYTES per tuple: 8 B of polar-sine table,
about 1 B of estimators._CHUNK buffer, and the slab arrays.

Each cell reports the median.  Prints one JSON object, and exits 1 when
check finds a problem.  BLAS is held to one thread, as in bench/run.py;
give the number of CPUs of the machine next to any number it prints.
"""

import statistics
import sys
import tracemalloc
from time import perf_counter

import _sweep

REPEATS = 5
EXACT_REPEATS = 3
MIN_CELL_S = 0.2
SIZES = (1, 2**10, 2**18)
EXACT_LOG2_TUPLES = (12, 18, 21)
DIMS = (1, 2, 3)
MC_POINTS = 3244  # the points of one bench mc-sphere cap
MC_TUPLES = 100_000
MC_KERNEL_TUPLES = 2**18
MC_D = 2
PEAK_TUPLES = 2**20
EXACT_PEAK_BYTES = 10.5


def check(doc: dict) -> list[str]:
    """Every table has cells and positive rates, the exact path takes one
    determinant per ordered tuple without a separation floor, at most one with
    lambda 0.4, and below EXACT_PEAK_BYTES per tuple on a cell of at least
    PEAK_TUPLES tuples, and the Monte Carlo path holds less per sample than a
    coordinate stack of its tuples, (d + 2) D floats."""
    exact, mc = doc["exact"], doc["mc"]
    draws = {f"{w}/{k}": r for w, c in mc["draws"].items() for k, r in c.items()}
    tables = {"tuples_per_s": doc["tuples_per_s"], "exact": {k: c["tuples_per_s"] for k, c in exact.items()},
              "mc": {**draws, **mc["cd_sq_tuples_per_s"]}}
    problems = [f"{t} has no cells" for t, ks in tables.items() if not ks]
    problems += [f"{t}/{k} rate {r} is not positive" for t, ks in tables.items() for k, r in ks.items() if not r > 0]
    dets = {k: c["determinants_per_tuple"] for k, c in exact.items()}
    problems += [f"exact/{k} takes {r} determinants per tuple" for k, r in dets.items()
                 if not (r == 1 if k.endswith("lamNone") else r <= 1)]
    problems += [f"exact/{k} peaks at {c['peak_bytes_per_tuple']} B per tuple, not below {EXACT_PEAK_BYTES} B"
                 for k, c in exact.items() if c["tuples"] >= PEAK_TUPLES and not c["peak_bytes_per_tuple"] < EXACT_PEAK_BYTES]
    stack = (MC_D + 2) * (MC_D + 1) * 8
    if not doc["mc_peak_bytes_per_sample"] < stack:
        problems.append(f"the Monte Carlo path peaks at {doc['mc_peak_bytes_per_sample']} B per sample, "
                        f"not below the {stack} B of a coordinate stack")
    return problems


def _timed(call) -> float:
    t0 = perf_counter()
    call()
    return perf_counter() - t0


def _cell(kernel, T) -> float:
    calls = 1

    def batch():
        for _ in range(calls):
            kernel(T)

    while (dt := _timed(batch)) < MIN_CELL_S and calls < 1 << 20:
        calls *= 2
    return statistics.median([calls * len(T) / dt, *(calls * len(T) / _timed(batch) for _ in range(REPEATS - 1))])


def _median_rate(count: int, call, repeats: int) -> float:
    return statistics.median(count / _timed(call) for _ in range(repeats))


def _content_rows(_batch, call) -> int:
    """How many Gram matrices _batch._content receives while call() runs."""
    real = _batch._content
    rows = []
    _batch._content = lambda G: rows.append(len(G)) or real(G)
    try:
        call()
    finally:
        _batch._content = real
    return sum(rows)


def _mc_table(numpy, estimators, _batch, rng) -> dict:
    heavy = numpy.ones(MC_POINTS)
    heavy[0] = 1e6
    weights = {
        "equal": numpy.full(MC_POINTS, 1.0 / MC_POINTS),
        "uniform": rng.uniform(size=MC_POINTS),
        "lognormal": rng.lognormal(0.0, 6.0, size=MC_POINTS),
        "one-heavy": heavy,
    }
    draws = {}
    for name, w in weights.items():
        p = w / w.sum()

        def guide():
            for _ in estimators._tuple_stream(w, 4, MC_TUPLES, 0):
                pass

        def choice():
            gen = numpy.random.default_rng(0)
            for lo in range(0, MC_TUPLES, estimators._CHUNK):
                gen.choice(MC_POINTS, size=(min(estimators._CHUNK, MC_TUPLES - lo), 4), p=p)

        draws[name] = {"draws_per_s": round(_median_rate(4 * MC_TUPLES, guide, REPEATS)),
                       "choice_draws_per_s": round(_median_rate(4 * MC_TUPLES, choice, REPEATS))}
        print(f"mc draws {name}: {draws[name]}", file=sys.stderr, flush=True)
    kernel = {}
    for d in DIMS:
        points = rng.normal(size=(MC_POINTS, d + 1))
        tuples = rng.integers(0, MC_POINTS, size=(MC_KERNEL_TUPLES, d + 2))
        for lam in (None, 0.4):
            floor2 = None if lam is None else lam * lam
            name = f"d{d}-lam{lam}"
            kernel[name] = round(_median_rate(len(tuples), lambda: _batch.cd_sq(points, tuples, floor2), REPEATS))
            print(f"mc cd_sq {name}: {kernel[name]} tuples/s", file=sys.stderr, flush=True)
    return {"draws": draws, "cd_sq_tuples_per_s": kernel}


def _peak_bytes(call) -> int:
    """The tracemalloc peak while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _mc_peak_bytes_per_sample(continuous_curvature_sq, WeightedPointCloud, rng) -> float:
    cloud = WeightedPointCloud(rng.normal(size=(MC_POINTS, MC_D + 1)), rng.uniform(0.5, 1.0, size=MC_POINTS))
    return _peak_bytes(lambda: continuous_curvature_sq(cloud, None, MC_D, n_samples=MC_TUPLES, mode="mc")) / MC_TUPLES


def main(argv=None) -> int:
    _sweep.use(_sweep.parser(__doc__).parse_args(argv).src)
    import numpy

    from menger import _batch, estimators
    from menger.estimators import continuous_curvature_sq
    from menger.measure import Ball, WeightedPointCloud

    rng = numpy.random.default_rng(0)
    cells = {}
    for d in DIMS:
        for B in SIZES:
            T = rng.normal(size=(B, d + 2, d + 1))
            cells[f"d{d}-B{B}"] = round(_cell(_batch.curvature_terms, T))
            print(f"d{d}-B{B}: {cells[f'd{d}-B{B}']} tuples/s", file=sys.stderr, flush=True)
    exact = {}
    for d in DIMS:
        for log2 in EXACT_LOG2_TUPLES:
            m = round(2 ** (log2 / (d + 2)))
            cloud = WeightedPointCloud(rng.normal(size=(m, d + 1)), rng.uniform(0.5, 1.0, size=m))
            ball = Ball(numpy.zeros(d + 1), 1.001 * float(numpy.linalg.norm(cloud.points, axis=1).max()))
            for lam in (None, 0.4):
                name = f"d{d}-m{m}-lam{lam}"

                def call():
                    continuous_curvature_sq(cloud, ball, d, mode="exact", lam=lam)

                rate = _median_rate(m ** (d + 2), call, EXACT_REPEATS)
                exact[name] = {"tuples": m ** (d + 2), "tuples_per_s": round(rate),
                               "determinants_per_tuple": _content_rows(_batch, call) / m ** (d + 2),
                               "peak_bytes_per_tuple": round(_peak_bytes(call) / m ** (d + 2), 2)}
                print(f"exact {name}: {exact[name]}", file=sys.stderr, flush=True)
    mc = _mc_table(numpy, estimators, _batch, rng)
    peak = round(_mc_peak_bytes_per_sample(continuous_curvature_sq, WeightedPointCloud, rng), 1)
    print(f"mc peak: {peak} B per sample", file=sys.stderr, flush=True)
    doc = {"env": _sweep.env(repeats=REPEATS, exact_repeats=EXACT_REPEATS),
           "tuples_per_s": cells, "exact": exact, "mc": mc, "mc_peak_bytes_per_sample": peak}
    return _sweep.emit(doc, check(doc))


if __name__ == "__main__":
    sys.exit(main())
