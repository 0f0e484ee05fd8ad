"""Span tracing of the library's layers, installed from outside the library.

Tracer.install() replaces every public function of the traced modules, plus
a few methods and one private sampler helper, with a wrapper that records a
span (name, start, end, parent) and a small per-call payload.  It patches
every binding a caller looks up: the defining module, every other loaded
`menger` module that imported the name (`multiscale.beta2`,
`sequences.polar_sine`, ...), and module-level dicts that hold the function
(`verify.SUITES`).  Spans stay in memory in flat arrays; uninstall() puts
every original back.  layer_metrics() turns the spans into the per-layer
metrics that BENCHMARK.json declares.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("measure", "_batch", "estimators", "planes", "multiscale", "geometry", "sequences", "verify")

# Methods traced besides each module's public functions.
_METHODS = {
    "measure": {
        "WeightedPointCloud": ("from_csv", "support_diameter", "median_nn_distance", "in_ball", "mass_in"),
        "Ball": ("contains",),
    },
    "multiscale": {"MultiresolutionFamily": ("__init__", "level", "levels_for", "beta2_sq")},
}
# Private functions traced for their counts: one _draw is one sampling attempt.
_PRIVATE = {"sequences": ("_draw",)}


def _rows(out):
    return len(out), 0, 0.0


def _zero_rows(out):
    return len(out), int(np.count_nonzero(out == 0.0)), 0.0


def _estimate(out):
    rel_se = out.std_error / out.mean if out.mean else 0.0
    return out.n_samples, int(out.exact), rel_se


# Payload per span name: (n, k, x) computed from the return value.
_PAYLOAD = {
    "_batch.pairwise_sq": _rows,
    "_batch.content_sq": _rows,
    "_batch.edge_prod_sq": _rows,
    "_batch.affine_span_dist_sq": _rows,
    "_batch.curvature_terms": lambda out: _zero_rows(out["cd_sq"]),
    "_batch.psin_sq_at": _zero_rows,
    "_batch.psin_with_replacement": _zero_rows,
    "measure.Ball.contains": _rows,
    "estimators.continuous_curvature_sq": _estimate,
    "multiscale.build_level": lambda out: (len(out.net), 0, 0.0),
    "sequences.sample_well_scaled_piece": _rows,
    "sequences.sample_short_scale_piece": _rows,
}


class Tracer:
    """Records spans while installed; collects across several install cycles."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.n = array("q")
        self.k = array("q")
        self.x = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, span: str, fn):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        sid = self._ids[span]
        payload = _PAYLOAD.get(span)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        n, k, x, stack = self.n, self.k, self.x, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            n.append(0)
            k.append(0)
            x.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if payload is not None:
                n[i], k[i], x[i] = payload(out)
            return out

        return traced

    def _targets(self):
        """(span name, owner, attribute, original descriptor, function)."""
        for layer in LAYERS:
            mod = importlib.import_module(f"menger.{layer}")
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and (
                    not attr.startswith("_") or attr in _PRIVATE.get(layer, ())
                ):
                    yield f"{layer}.{attr}", mod, attr, fn, fn
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    desc = cls.__dict__[meth]
                    fn = desc.__func__ if isinstance(desc, classmethod) else desc
                    yield f"{layer}.{cls_name}.{meth}", cls, meth, desc, fn

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [m for name, m in list(sys.modules.items()) if name == "menger" or name.startswith("menger.")]
        for span, owner, attr, desc, fn in list(self._targets()):
            wrapper = self._wrap(span, fn)
            if inspect.isclass(owner):
                new = classmethod(wrapper) if isinstance(desc, classmethod) else wrapper
                self._patches.append((setattr, owner, attr, desc))
                setattr(owner, attr, new)
                continue
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((setattr, mod, key, fn))
                        setattr(mod, key, wrapper)
                    elif isinstance(val, dict):
                        for dkey, dval in val.items():
                            if dval is fn:
                                self._patches.append((dict.__setitem__, val, dkey, fn))
                                val[dkey] = wrapper

    def uninstall(self) -> None:
        while self._patches:
            put, owner, key, original = self._patches.pop()
            put(owner, key, original)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "n": np.array(self.n, dtype=np.int64),
            "k": np.array(self.k, dtype=np.int64),
            "x": np.array(self.x),
        }


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def layer_metrics(spans: dict, reps: int) -> dict[str, float]:
    """Per-layer metrics from span arrays, averaged over `reps` traced
    repetitions (measure.load_s is the single load before them).

    Self time is a span's duration minus the time its direct children
    cover; children of a span run inside it on the same thread, so that
    coverage is the sum of their durations.  trace.overhead_s is left to the
    caller, which holds the untraced timings.
    """
    names = list(spans["names"])
    sid, parent = spans["name"], spans["parent"]
    n, k, x = spans["n"], spans["k"], spans["x"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    layer_of = np.array([s.split(".")[0] for s in names] or [""], dtype=object)
    layer = layer_of[sid] if len(sid) else np.zeros(0, dtype=object)

    def named(*span_names):
        ids = [names.index(s) for s in span_names if s in names]
        return np.isin(sid, ids)

    def under(mask):
        """Spans whose direct parent is in `mask`."""
        out = np.zeros(len(sid), dtype=bool)
        out[has_parent] = mask[parent[has_parent]]
        return out

    def per_rep(value) -> float:
        return float(value) / reps

    scan = named("measure.WeightedPointCloud.in_ball", "measure.WeightedPointCloud.mass_in", "measure.Ball.contains")
    top_scan = scan & ~under(scan)
    batch = layer == "_batch"
    top_batch = batch & ~under(batch)
    tuples = n[top_batch].sum()
    ccs = named("estimators.continuous_curvature_sq")
    lookups = named("multiscale.MultiresolutionFamily.beta2_sq")
    beta2 = named("planes.beta2")
    misses = beta2 & under(lookups)
    geometry = layer == "geometry"
    piece = named("sequences.sample_well_scaled_piece", "sequences.sample_short_scale_piece")
    draws = named("sequences._draw") & under(piece)
    mc_rel_se = x[ccs & (k == 0)]

    m = {
        "measure.load_s": float(dur[named("measure.WeightedPointCloud.from_csv")].sum()),
        "measure.diameter_s": per_rep(dur[named("measure.WeightedPointCloud.support_diameter")].sum()),
        "measure.nn_s": per_rep(dur[named("measure.WeightedPointCloud.median_nn_distance")].sum()),
        "measure.ball_scans": per_rep(top_scan.sum()),
        "measure.points_scanned": per_rep(n[named("measure.Ball.contains")].sum()),
        "measure.ball_scan_s": per_rep(dur[top_scan].sum()),
        "batch.kernel_s": per_rep(self_t[batch].sum()),
        "batch.tuples": per_rep(tuples),
        "batch.tuples_per_s": _ratio(tuples, self_t[batch].sum()),
        "batch.content_calls": per_rep(named("_batch.content_sq").sum()),
        "batch.degenerate_frac": _ratio(k[top_batch].sum(), tuples),
        "estimators.self_s": per_rep(self_t[layer == "estimators"].sum()),
        "estimators.exact_tuples": per_rep(n[ccs & (k == 1)].sum()),
        "estimators.mc_samples": per_rep(n[ccs & (k == 0)].sum()),
        "estimators.mc_rel_se": float(np.median(mc_rel_se)) if len(mc_rel_se) else 0.0,
        "planes.beta2_calls": per_rep(beta2.sum()),
        "planes.beta2_s": per_rep(dur[beta2].sum()),
        "multiscale.family_init_s": per_rep(dur[named("multiscale.MultiresolutionFamily.__init__")].sum()),
        "multiscale.build_net_s": per_rep(dur[named("multiscale.build_net")].sum()),
        "multiscale.build_ball_family_s": per_rep(dur[named("multiscale.build_ball_family")].sum()),
        "multiscale.build_partition_s": per_rep(dur[named("multiscale.build_partition")].sum()),
        "multiscale.levels_built": per_rep(named("multiscale.build_level").sum()),
        "multiscale.net_points": per_rep(n[named("multiscale.build_level")].sum()),
        "multiscale.query_s": per_rep(dur[named("multiscale.jones_flatness_discrete")].sum()),
        "multiscale.continuous_s": per_rep(dur[named("multiscale.jones_flatness_continuous")].sum()),
        "multiscale.beta_cache_hit_ratio": _ratio(lookups.sum() - misses.sum(), lookups.sum()),
        "multiscale.beta_cache_lookups": per_rep(lookups.sum()),
        "geometry.scalar_calls": per_rep((geometry & ~under(geometry)).sum()),
        "geometry.scalar_s": per_rep(self_t[geometry].sum()),
        "sequences.piece_calls": per_rep(piece.sum()),
        "sequences.piece_s": per_rep(dur[piece].sum()),
        "sequences.piece_accept_ratio": _ratio(n[piece].sum(), draws.sum()),
        "sequences.piece_draws": per_rep(draws.sum()),
    }
    for suite in ("geometry", "sequences", "multiscale", "inequalities"):
        m[f"verify.suite_s.{suite}"] = per_rep(dur[named(f"verify.suite_{suite}")].sum())
    return m
