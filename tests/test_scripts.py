"""The sweep scripts' own checks and their shared harness, on hand-built
documents: no sweep runs here.  pytest puts scripts/ on the import path
(pyproject.toml), as running a script does."""

import copy
import json
from importlib import metadata

import pytest

import _sweep
import sweep_blas
import sweep_cli
import sweep_kernel
import sweep_multiscale

MULTISCALE_CELL = {
    "diameter_s": 0.01, "levels_s": 0.05, "level_s": {"-1": 0.01, "0": 0.02}, "discrete_s": 0.1,
    "continuous_s": 0.2, "beta2_us": 90.0, "beta2_batch_us": 30.0, "levels": 2, "net_points": 40,
    "routed_share": 0.01, "hit_pairs_per_point": 1.5,
}
KERNEL_DOC = {
    "env": {},
    "tuples_per_s": {"d1-B1": 5e4, "d1-B1024": 2e6},
    "exact": {
        "d1-m8-lamNone": {"tuples": 512, "tuples_per_s": 1e6, "determinants_per_tuple": 1.0,
                          "peak_bytes_per_tuple": 60.0},
        "d1-m8-lam0.4": {"tuples": 512, "tuples_per_s": 2e6, "determinants_per_tuple": 0.25,
                         "peak_bytes_per_tuple": 60.0},
        "d1-m128-lam0.4": {"tuples": 2**21, "tuples_per_s": 2e6, "determinants_per_tuple": 0.5,
                           "peak_bytes_per_tuple": 9.9},
    },
    "mc": {
        "draws": {"equal": {"draws_per_s": 3e7, "choice_draws_per_s": 1e7}},
        "cd_sq_tuples_per_s": {"d1-lamNone": 4e6, "d1-lam0.4": 5e6},
    },
    "mc_peak_bytes_per_sample": 69.0,
}
CLI_CELL = {"wall_s": 0.3, "peak_rss_mb": 40.0, "scipy_loaded": False}


def multiscale_doc():
    return {"env": {}, "cells": {"circle-2000": dict(MULTISCALE_CELL), "square-4000-outlier": dict(MULTISCALE_CELL)}}


def cli_doc(cells=sweep_cli.CELLS):
    return {"env": {}, "cells": {f"cloud-{i // 5}/command-{i % 5}": dict(CLI_CELL) for i in range(cells)}}


def blas_rows():
    rows = [{"coretype": t, "status": "ran", "kernel": [t], "exit": 0, "sha256": "0" * 64} for t in sweep_blas.CORE_TYPES]
    rows[1] = {"coretype": rows[1]["coretype"], "status": "skipped", "kernel": [], "exit": -4}
    return rows


def test_each_check_accepts_the_shape_its_sweep_builds():
    assert sweep_multiscale.check(multiscale_doc()) == []
    assert sweep_kernel.check(KERNEL_DOC) == []
    assert sweep_cli.check(cli_doc()) == []
    assert sweep_blas.check(blas_rows()) == []


@pytest.mark.parametrize("key", sweep_multiscale.KEYS)
def test_the_multiscale_check_wants_every_key_in_every_cell(key):
    doc = multiscale_doc()
    del doc["cells"]["square-4000-outlier"][key]
    assert sweep_multiscale.check(doc) == [f"square-4000-outlier lacks {key}"]
    assert sweep_multiscale.check({"env": {}, "cells": {}}) == ["no cells"]


def test_the_kernel_check_holds_the_determinant_rule_and_every_rate():
    def broken(edit):
        doc = copy.deepcopy(KERNEL_DOC)
        edit(doc)
        return sweep_kernel.check(doc)

    def dets(name, r):
        return lambda doc: doc["exact"][name].update(determinants_per_tuple=r)

    assert broken(dets("d1-m8-lamNone", 2.0)) == ["exact/d1-m8-lamNone takes 2.0 determinants per tuple"]
    assert len(broken(dets("d1-m8-lamNone", 0.5))) == 1  # no floor: exactly one
    assert len(broken(dets("d1-m8-lam0.4", 1.5))) == 1
    assert broken(dets("d1-m8-lam0.4", 1.0)) == []
    assert broken(lambda doc: doc["tuples_per_s"].update({"d1-B1": 0})) == ["tuples_per_s/d1-B1 rate 0 is not positive"]
    assert len(broken(lambda doc: doc["exact"]["d1-m8-lam0.4"].update(tuples_per_s=float("nan")))) == 1
    assert len(broken(lambda doc: doc["mc"]["draws"]["equal"].update(choice_draws_per_s=-1))) == 1
    assert len(broken(lambda doc: doc["mc"]["cd_sq_tuples_per_s"].update({"d1-lam0.4": 0.0}))) == 1
    assert broken(lambda doc: doc["tuples_per_s"].clear()) == ["tuples_per_s has no cells"]
    assert broken(lambda doc: doc["exact"].clear()) == ["exact has no cells"]
    # the Monte Carlo table needs a rate in one of its two layers
    assert broken(lambda doc: doc["mc"]["draws"].clear()) == []
    assert broken(lambda doc: (doc["mc"]["draws"].clear(), doc["mc"]["cd_sq_tuples_per_s"].clear())) == [
        "mc has no cells"]


def test_the_kernel_check_holds_a_large_exact_cell_below_its_peak_bound():
    # 8 B of table, about 1 B of chunk buffer and the slab arrays; a small
    # cell's fixed arrays may take more per tuple
    doc = copy.deepcopy(KERNEL_DOC)
    cell = doc["exact"]["d1-m128-lam0.4"]
    cell["peak_bytes_per_tuple"] = sweep_kernel.EXACT_PEAK_BYTES - 0.01
    assert sweep_kernel.check(doc) == []
    for peak in (sweep_kernel.EXACT_PEAK_BYTES, 11.02, float("nan")):
        cell["peak_bytes_per_tuple"] = peak
        assert sweep_kernel.check(doc) == [f"exact/d1-m128-lam0.4 peaks at {peak} B per tuple, not below 10.5 B"]
    cell["tuples"] = sweep_kernel.PEAK_TUPLES - 1
    assert sweep_kernel.check(doc) == []


def test_the_kernel_check_wants_the_monte_carlo_path_below_a_coordinate_stack():
    stack = (sweep_kernel.MC_D + 2) * (sweep_kernel.MC_D + 1) * 8
    doc = copy.deepcopy(KERNEL_DOC)
    doc["mc_peak_bytes_per_sample"] = stack - 0.1
    assert sweep_kernel.check(doc) == []
    for peak in (stack, 166.0, float("nan")):
        doc["mc_peak_bytes_per_sample"] = peak
        assert sweep_kernel.check(doc) == [
            f"the Monte Carlo path peaks at {peak} B per sample, not below the {stack} B of a coordinate stack"]


def test_the_cli_check_wants_twenty_cells_without_scipy():
    assert sweep_cli.check(cli_doc(19)) == [f"19 cells, not {sweep_cli.CELLS}"]
    doc = cli_doc()
    doc["cells"]["cloud-3/command-4"]["scipy_loaded"] = True
    assert sweep_cli.check(doc) == ["cloud-3/command-4 loaded scipy"]
    for key in sweep_cli.KEYS:
        doc = cli_doc()
        del doc["cells"]["cloud-0/command-0"][key]
        assert sweep_cli.check(doc) == [f"cloud-0/command-0 lacks {key}"]


def test_the_blas_check_wants_one_row_per_core_type_in_order():
    rows = blas_rows()
    rows[0], rows[2] = rows[2], rows[0]
    assert sweep_blas.check(rows) == ["rows are not one per core type"]
    assert sweep_blas.check(blas_rows()[:-1]) == ["rows are not one per core type"]
    rows = blas_rows()
    rows[3].update(status="error", stderr="Traceback ...")
    del rows[3]["sha256"]
    assert sweep_blas.check(rows) == [f"{sweep_blas.CORE_TYPES[3]} error without a digest"]
    rows = blas_rows()
    del rows[0]["sha256"]
    assert sweep_blas.check(rows) == [f"{sweep_blas.CORE_TYPES[0]} ran without a digest"]


def test_emit_prints_the_document_and_exits_1_on_a_problem(capsys):
    assert _sweep.emit({"cells": {}}, []) == 0
    assert json.loads(capsys.readouterr().out) == {"cells": {}}
    assert _sweep.emit({"cells": {}}, ["no cells"]) == 1
    out = capsys.readouterr()
    assert (json.loads(out.out), out.err) == ({"cells": {}}, "check failed: no cells\n")


def test_the_env_header_reports_no_scipy_on_a_numpy_only_install(monkeypatch):
    assert _sweep.env()["scipy"] == metadata.version("scipy")
    real = metadata.version

    def version(name):
        if name == "scipy":
            raise metadata.PackageNotFoundError(name)
        return real(name)

    monkeypatch.setattr(metadata, "version", version)
    env = _sweep.env(repeats=3)
    assert list(env) == ["cpus", "python", "numpy", "scipy", "machine", "repeats"]
    assert (env["scipy"], env["repeats"]) == (None, 3)
