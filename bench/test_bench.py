"""Tests of the benchmark itself:  python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from inputs import WORKLOADS, make_input  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Names the benchmark was specified with; `_batch.*` is reported as `batch.*`
# because a metric name must start with a letter or a digit.
NAMED_WORKLOADS = {"exact-cantor", "mc-sphere", "flatness-circle", "verify-all"}
NAMED_END_TO_END = {"run_s", "setup_s", "peak_rss_mb"}
NAMED_REPORT_ONLY = {"error_rate", "mc_rel_se"}
NAMED_PER_LAYER = {
    "measure.load_s", "measure.diameter_s", "measure.nn_s", "measure.ball_scans",
    "measure.points_scanned", "measure.ball_scan_s",
    "batch.kernel_s", "batch.tuples", "batch.tuples_per_s", "batch.content_calls", "batch.degenerate_frac",
    "estimators.self_s", "estimators.exact_tuples", "estimators.mc_samples",
    "planes.beta2_calls", "planes.beta2_s",
    "multiscale.family_init_s", "multiscale.build_net_s", "multiscale.build_ball_family_s",
    "multiscale.build_partition_s", "multiscale.levels_built", "multiscale.net_points",
    "multiscale.query_s", "multiscale.continuous_s", "multiscale.beta_cache_hit_ratio",
    "geometry.scalar_calls", "geometry.scalar_s",
    "sequences.piece_calls", "sequences.piece_s", "sequences.piece_accept_ratio",
    "verify.suite_s.geometry", "verify.suite_s.sequences", "verify.suite_s.multiscale",
    "verify.suite_s.inequalities", "trace.overhead_s",
}


def _bindings():
    """Every value a caller can look up in the loaded menger modules, their
    module-level dicts and the traced classes."""
    import menger.measure
    import menger.multiscale

    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "menger" or name.startswith("menger."):
            for key, val in vars(mod).items():
                seen[(name, key)] = val
                if isinstance(val, dict):
                    for dkey, dval in val.items():
                        seen[(name, key, dkey)] = dval
    for cls in (menger.measure.WeightedPointCloud, menger.measure.Ball, menger.multiscale.MultiresolutionFamily):
        for key, val in vars(cls).items():
            seen[(cls.__qualname__, key)] = val
    return seen


def test_tracer_patches_every_binding_and_restores_them():
    from menger import _batch, geometry, measure, multiscale, planes, sequences, verify

    before = _bindings()
    originals = (planes.beta2, geometry.polar_sine, _batch.content_sq, verify.SUITES["geometry"],
                 measure.Ball.contains)
    tracer = Tracer()
    tracer.install()
    try:
        assert multiscale.beta2 is planes.beta2 is not originals[0]
        assert sequences.polar_sine is geometry.polar_sine is not originals[1]
        assert _batch.content_sq is not originals[2]
        assert verify.SUITES["geometry"] is not originals[3]
        assert measure.Ball.contains is not originals[4]
        cloud = measure.gen_sphere(2, 300, seed=1)
        fam = multiscale.MultiresolutionFamily(cloud, 0.25)
        ball = measure.Ball(cloud.points[0], 0.5)
        multiscale.jones_flatness_discrete(cloud, ball, fam, 1)
        multiscale.jones_flatness_discrete(cloud, ball, fam, 1)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    m = layer_metrics(tracer.arrays(), reps=1)
    assert m["multiscale.beta_cache_lookups"] > 0
    assert 0.0 < m["multiscale.beta_cache_hit_ratio"] < 1.0  # the second query hits the cache
    assert m["planes.beta2_calls"] > 0
    assert m["measure.points_scanned"] == 300 * m["measure.ball_scans"]


def test_self_time_is_duration_minus_child_coverage():
    names = ["estimators.continuous_curvature_sq", "_batch.curvature_terms", "_batch.content_sq"]
    spans = {
        "names": np.array(names),
        "name": np.array([0, 1, 2, 2, 1]),
        "parent": np.array([-1, 0, 1, 1, 0]),
        "start": np.array([0.0, 1.0, 2.0, 4.0, 8.0]),
        "end": np.array([10.0, 7.0, 3.0, 5.0, 9.0]),
        "n": np.array([5, 4, 4, 4, 1]),
        "k": np.array([1, 2, 0, 0, 0]),
        "x": np.zeros(5),
    }
    m = layer_metrics(spans, reps=1)
    assert set(m) | {"trace.overhead_s"} == {metric["name"] for metric in SPEC["per_layer"]}
    assert m["estimators.self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert m["batch.kernel_s"] == pytest.approx(7.0)
    assert m["batch.tuples"] == 5  # top-level kernel calls only
    assert m["batch.content_calls"] == 2
    assert m["batch.degenerate_frac"] == pytest.approx(2 / 5)
    assert m["estimators.exact_tuples"] == 5


def test_seed_changes_inputs(tmp_path):
    for workload in WORKLOADS:
        spec1 = make_input(workload, 1, tmp_path)
        spec2 = make_input(workload, 2, tmp_path)
        again = make_input(workload, 1, tmp_path / "again")
        if "csv" not in spec1:
            assert spec1 == spec2 == again  # verify-all runs the fixed contract seed
            continue
        first = Path(spec1["csv"]).read_bytes()
        assert first != Path(spec2["csv"]).read_bytes()
        assert first == Path(again["csv"]).read_bytes()


def _run(tmp_root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(tmp_root / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=tmp_root)


def test_outputs_name_every_metric_and_keep_names_across_seeds():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS) == NAMED_WORKLOADS
    assert {m["name"] for m in SPEC["end_to_end"]} == NAMED_END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} >= NAMED_PER_LAYER

    names = []
    for seed, trace in ((1, 0), (2, 0), (1, 1)):
        proc = _run(ROOT, "--workload", "mc-sphere", "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        *_, report_line, last = proc.stdout.strip().splitlines()
        report, result = json.loads(report_line), json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert NAMED_REPORT_ONLY <= set(report)
        names.append(set(result["metrics"]))
    assert names[0] == names[1] == NAMED_END_TO_END
    assert names[2] == {m["name"] for m in SPEC["per_layer"]}


def test_interaction_map_covers_every_per_layer_metric():
    interactions = json.loads((BENCH / "interactions.json").read_text())["per_layer"]
    assert set(interactions) == {m["name"] for m in SPEC["per_layer"]}
    moves = {m["name"] for m in SPEC["end_to_end"]} | {None}
    for row in interactions.values():
        assert row["moves"] in moves
        assert set(row["on"]) | set(row["not_on"]) <= set(WORKLOADS)
        assert not set(row["on"]) & set(row["not_on"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "exact-cantor", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
