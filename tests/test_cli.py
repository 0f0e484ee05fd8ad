import csv
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menger import verify
from menger.cli import main
from menger.estimators import EXACT_TUPLE_LIMIT
from menger.geometry import InvariantError
from menger.measure import WeightedPointCloud, gen_four_corner_cantor, gen_plane_patch, gen_sphere


@pytest.fixture()
def plane_csv(tmp_path):
    path = tmp_path / "plane.csv"
    gen_plane_patch(1, 2, 200, seed=7).to_csv(path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_cantor(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, stdout, _ = run(capsys, ["generate", "cantor", "--level", "2", "--out", str(out)])
    assert code == 0
    assert "wrote 16 points to" in stdout
    cloud = WeightedPointCloud.from_csv(out)
    assert len(cloud) == 16
    assert np.all(cloud.weights == 0.0625)
    want = gen_four_corner_cantor(2)
    assert np.array_equal(cloud.points, want.points)


def test_generate_plane_row_count(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code, stdout, _ = run(
        capsys, ["generate", "plane", "--d", "1", "--D", "3", "--n", "100", "--out", str(out)]
    )
    assert code == 0
    assert len(WeightedPointCloud.from_csv(out)) == 100


@pytest.mark.parametrize(
    "argv",
    [
        ["sphere", "--n", "0"],
        ["plane", "--n", "0"],
        ["graph", "--n", "0"],
        ["sphere", "--D", "0"],
    ],
)
def test_generate_rejects_empty_and_zero_dimensional_clouds(tmp_path, capsys, argv):
    out = tmp_path / "g.csv"
    code, _, err = run(capsys, ["generate", *argv, "--out", str(out)])
    assert code == 2
    assert "error" in err
    assert not out.exists()


@pytest.mark.parametrize("lip", ["-1", "nan", "inf"])
def test_generate_graph_refuses_a_bad_lipschitz_constant(tmp_path, capsys, lip):
    out = tmp_path / "g.csv"
    code, _, err = run(capsys, ["generate", "graph", "--lip", lip, "--out", str(out)])
    assert code == 2
    assert "lip must be a finite number >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["sphere", "--n", "1000000000000000"], ["plane", "--d", "1", "--D", "100000000000", "--n", "100000"]]
)
def test_generate_past_the_memory_exits_2(tmp_path, capsys, argv):
    # numpy refuses each array (petabytes) before touching any memory
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, ["generate", *argv, "--out", str(out)])
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err.startswith("error: ") and err.count("\n") == 1 and "allocate" in err


def test_generate_requires_out(capsys):
    code, _, err = run(capsys, ["generate", "cantor", "--level", "1"])
    assert code == 2
    assert "error" in err


def test_beta_json_on_planar_cloud(plane_csv, capsys):
    code, stdout, _ = run(capsys, ["beta", "--input", plane_csv, "--d", "1"])
    assert code == 0
    doc = json.loads(stdout)
    assert doc["beta2"] <= 1e-10
    assert doc["mass"] > 0
    assert len(doc["plane_basis"]) == 1


def test_beta_csv_format(plane_csv, capsys):
    code, stdout, _ = run(
        capsys, ["beta", "--input", plane_csv, "--d", "1", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.reader(stdout.splitlines()))
    assert rows[0] == ["key", "value"]
    keys = {r[0] for r in rows[1:]}
    assert {"beta2", "beta2_sq", "mass"} <= keys


def test_beta_with_explicit_ball(plane_csv, capsys):
    code, stdout, _ = run(
        capsys, ["beta", "--input", plane_csv, "--d", "1", "--ball", "0,0:0.3"]
    )
    assert code == 0
    assert json.loads(stdout)["beta2"] <= 1e-10


def test_flatness_vanishes_on_planar_cloud(plane_csv, capsys):
    code, stdout, _ = run(capsys, ["flatness", "--input", plane_csv, "--d", "1"])
    assert code == 0
    doc = json.loads(stdout)
    assert doc["total"] <= 1e-10
    assert doc["n_terms"] >= 0


def test_curvature_exact_on_small_cloud(tmp_path, capsys):
    path = tmp_path / "cantor.csv"
    gen_four_corner_cantor(2).to_csv(path)
    code, stdout, _ = run(capsys, ["curvature", "--input", str(path), "--d", "1"])
    assert code == 0
    doc = json.loads(stdout)
    assert doc["exact"]
    assert doc["estimate"] > 0

    code, stdout, _ = run(
        capsys,
        ["curvature", "--input", str(path), "--d", "1", "--ball", "0,0:1", "--lambda", "2.5"],
    )
    assert code == 0
    assert json.loads(stdout)["estimate"] == 0.0


def test_curvature_mode_chooses_the_path_and_reports_unused_samples(tmp_path, capsys):
    # 64 points: 64^3 ordered tuples are within the exact limit, so auto sums
    path = tmp_path / "cantor.csv"
    gen_four_corner_cantor(3).to_csv(path)
    base = ["curvature", "--input", str(path), "--d", "1", "--seed", "3"]
    code, stdout, _ = run(capsys, [*base, "--mode", "mc", "--samples", "1000"])
    doc = json.loads(stdout)
    assert code == 0
    assert (doc["mode"], doc["exact"], doc["n_samples"]) == ("mc", False, 1000)
    assert (doc["tuples"], doc["exact_tuple_limit"]) == (64**3, EXACT_TUPLE_LIMIT)
    assert "unused_samples" not in doc
    # the tuple count is the query ball's: one of the four copies holds 16 points
    code, stdout, _ = run(capsys, [*base, "--mode", "mc", "--ball", "0.375,0.375:0.2"])
    assert (code, json.loads(stdout)["tuples"]) == (0, 16**3)
    code, stdout, _ = run(capsys, [*base, "--mode", "mc"])
    assert (code, json.loads(stdout)["n_samples"]) == (0, 100_000)
    exact = {}
    for extra in ([], ["--mode", "exact"], ["--samples", "1000"]):
        code, stdout, _ = run(capsys, [*base, *extra])
        doc = json.loads(stdout)
        assert code == 0
        assert (doc["exact"], doc["n_samples"], doc["tuples"]) == (True, 64**3, 64**3)
        assert doc.get("unused_samples") == (1000 if extra == ["--samples", "1000"] else None)
        exact[tuple(extra)] = doc["estimate"]
    assert len(set(exact.values())) == 1
    code, stdout, _ = run(capsys, [*base, "--mode", "exact", "--samples", "0"])
    assert (code, stdout) == (2, "")


def test_curvature_rejects_a_bad_separation_parameter(tmp_path, capsys):
    path = tmp_path / "cantor.csv"
    gen_four_corner_cantor(2).to_csv(path)
    args = ["curvature", "--input", str(path), "--d", "1", "--ball", "0,0:1", "--lambda"]
    for lam in ("nan", "-0.4"):
        code, stdout, _ = run(capsys, args + [lam])
        assert code == 2 and stdout == ""
    for lam in ("inf", "1e200"):  # (1e200)**2 overflows a float
        code, stdout, _ = run(capsys, args + [lam])
        assert code == 0
        assert json.loads(stdout)["estimate"] == 0.0


def test_input_error_exit_codes(plane_csv, tmp_path, capsys):
    assert run(capsys, ["beta", "--input", str(tmp_path / "nope.csv"), "--d", "1"])[0] == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1\n1,2\n")
    assert run(capsys, ["beta", "--input", str(bad), "--d", "1"])[0] == 2
    # malformed ball spec, wrong dimension, negative radius
    assert run(capsys, ["beta", "--input", plane_csv, "--d", "1", "--ball", "0,0"])[0] == 2
    assert run(capsys, ["beta", "--input", plane_csv, "--d", "1", "--ball", "0,0,0:1"])[0] == 2
    assert run(capsys, ["beta", "--input", plane_csv, "--d", "1", "--ball", "0,0:-1"])[0] == 2


@pytest.mark.parametrize("command", ["beta", "flatness", "curvature"])
def test_non_finite_ball_exits_2(plane_csv, capsys, command):
    for ball in ("0,0:inf", "0,0:nan", "nan,0:1"):
        code, stdout, err = run(capsys, [command, "--input", plane_csv, "--ball", ball])
        assert code == 2
        assert stdout == ""
        assert "--ball" in err


def test_continuous_flatness_on_a_too_wide_ball_exits_2(tmp_path, capsys):
    path = tmp_path / "circle.csv"
    gen_sphere(2, 50, seed=0).to_csv(path)
    argv = ["flatness", "--input", str(path), "--d", "1", "--mode", "continuous", "--ball"]
    code, stdout, _ = run(capsys, [*argv, "0,0:1.5"])
    assert code == 0 and json.loads(stdout)["total"] > 1e-3
    code, stdout, err = run(capsys, [*argv, "0,0:1e30"])
    assert code == 2
    assert stdout == ""
    assert "median nearest-neighbour distance" in err


@pytest.mark.parametrize(
    "argv", [["beta"], ["flatness", "--mode", "discrete"], ["flatness", "--mode", "continuous"]]
)
def test_plane_dimension_out_of_range_on_an_empty_ball_exits_2(plane_csv, capsys, argv):
    for d in ("0", "3"):  # D = 2
        code, stdout, err = run(capsys, [*argv, "--input", plane_csv, "--d", d, "--ball", "50,50:0.1"])
        assert code == 2
        assert stdout == ""
        assert "plane dimension" in err


def test_flatness_with_a_floor_past_the_level_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "c.csv"
    gen_sphere(2, 300, seed=1).to_csv(path)
    code, stdout, err = run(capsys, ["flatness", "--input", str(path), "--d", "1", "--alpha0", "0.95"])
    assert code == 2
    assert stdout == ""
    assert "cap of 64" in err


def test_flatness_with_an_alpha0_whose_powers_overflow(tmp_path, capsys):
    # 1e-320 ** -1 overflows a float inside the scale index
    path = tmp_path / "c.csv"
    gen_sphere(2, 50, seed=0).to_csv(path)
    code, stdout, err = run(capsys, ["flatness", "--input", str(path), "--d", "1", "--alpha0", "1e-320"])
    assert code == 0
    assert "Traceback" not in err
    assert json.loads(stdout)["alpha0"] == 1e-320


def test_a_mass_factor_that_overflows_exits_2(tmp_path, capsys):
    # mu(Q)^3 = (4e200)^3 overflows a float
    path = tmp_path / "heavy.csv"
    WeightedPointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.full(4, 1e200)).to_csv(path)
    for argv in (["curvature"], ["ratio", "thm12"], ["ratio", "thm13"], ["ratio", "prop11"]):
        code, stdout, err = run(capsys, [*argv, "--input", str(path), "--d", "1", "--samples", "200"])
        assert (code, stdout) == (2, ""), argv
        assert "mass factor" in err and "Traceback" not in err


def test_a_mass_factor_that_underflows_exits_2(tmp_path, capsys):
    # mu(Q)^3 = (4e-120)^3 underflows to 0; 4^3 tuples take the exact path
    path = tmp_path / "light.csv"
    WeightedPointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.full(4, 1e-120)).to_csv(path)
    code, stdout, err = run(capsys, ["curvature", "--input", str(path), "--d", "1"])
    assert (code, stdout) == (2, "")
    assert "mass factor" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "points",
    [[[0.0, 0.0], [1e200, 0.0]], [[0.0, 0.0], [1e-200, 0.0], [0.0, 1e-200]]],
    ids=["overflow", "underflow"],
)
def test_a_cloud_whose_squared_distances_leave_the_float_range_exits_2(tmp_path, capsys, points):
    # at 1e200 beta read radius inf and beta_2 NaN; at 1e-200 the squared
    # distances underflow to 0, so beta_2 and c_1^2 read 0
    path = tmp_path / "scaled.csv"
    WeightedPointCloud(np.array(points), np.ones(len(points))).to_csv(path)
    for argv in (["beta"], ["curvature"], ["flatness"], ["flatness", "--mode", "continuous"], ["ratio", "thm13"]):
        code, stdout, err = run(capsys, [*argv, "--input", str(path), "--d", "1"])
        assert (code, stdout) == (2, ""), argv
        assert str(path) in err and "rescale" in err and "Traceback" not in err


def scaled_circle_csv(tmp_path, j):
    """40 evenly spaced points of the unit circle, scaled by 2^j, each of
    weight 1/40 (64,000 ordered triples: the exact path)."""
    a = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    path = tmp_path / f"circle{j}.csv"
    WeightedPointCloud(np.c_[np.cos(a), np.sin(a)] * 2.0**j, np.full(40, 1 / 40)).to_csv(path)
    return str(path)


@pytest.mark.parametrize("j", [-400, -300, 300, 400])
def test_a_circle_whose_curvature_leaves_the_float_range_exits_2(tmp_path, capsys, j):
    # its squared diameter is a normal float, but the kernel's squared edge
    # products are not: the estimate read 0.0 at 2^-300 and 2^-400 and NaN
    # at 2^300 and 2^400, with exit 0
    code, stdout, err = run(capsys, ["curvature", "--input", scaled_circle_csv(tmp_path, j)])
    assert (code, stdout) == (2, "")
    assert "squared extent" in err and "rescale" in err and "Traceback" not in err


def test_a_circle_inside_the_float_range_keeps_its_bits(tmp_path, capsys):
    # c_1^2 is homogeneous of degree -2: about 0.148 * 2^(-2j)
    for j, want in ((-200, 3.805772564499995e119), (200, 5.70750498939201e-122)):
        code, stdout, _ = run(capsys, ["curvature", "--input", scaled_circle_csv(tmp_path, j)])
        assert code == 0
        assert json.loads(stdout)["estimate"] == want, j


@pytest.mark.parametrize("rows", [1, 3])
def test_flatness_of_a_cloud_of_one_repeated_point_is_0(tmp_path, capsys, rows):
    # its bounding ball has radius 0, so m(Q) = +inf and D(Q) is empty
    path = tmp_path / "point.csv"
    WeightedPointCloud(np.full((rows, 2), 0.5), np.ones(rows)).to_csv(path)
    for mode in ("discrete", "continuous"):
        code, stdout, _ = run(capsys, ["flatness", "--input", str(path), "--d", "1", "--mode", mode])
        assert code == 0, mode
        out = json.loads(stdout)
        assert (out["ball"]["radius"], out["total"], out["n_terms"]) == (0.0, 0.0, 0), mode
    code, stdout, _ = run(capsys, ["beta", "--input", str(path), "--d", "1"])
    assert (code, json.loads(stdout)["beta2"]) == (0, 0.0)


def test_bad_sample_counts_exit_2(tmp_path, capsys):
    path = tmp_path / "circle.csv"
    gen_sphere(2, 500, seed=1).to_csv(path)
    for samples in ("-3", "0"):
        code, stdout, err = run(capsys, ["curvature", "--input", str(path), "--d", "1", "--samples", samples])
        assert code == 2
        assert stdout == ""
        assert "n_samples" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_geometry_suite(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, err = run(capsys, ["verify", "geometry", "--seed", "7", "--out", str(out)])
    assert code == 0
    doc = json.loads(stdout)
    assert doc["passed"]
    assert json.loads(out.read_text()) == doc


def test_corrupt_net_fails_the_multiscale_suite():
    report = verify.suite_multiscale(7, corrupt_net=True)
    assert not report["passed"]
    axioms = next(c for c in report["checks"] if c["name"] == "net_partition_axioms")
    assert "injected/net_separation" in axioms["detail"]["failures"]


def test_verify_inject_failure(capsys):
    code, stdout, err = run(
        capsys, ["verify", "geometry", "--inject-failure", "harness_probe"]
    )
    assert code == 1
    assert not json.loads(stdout)["passed"]
    assert "failed checks:" in err
    assert "harness_probe" in err


def test_an_empty_injection_name_fails_the_report(capsys):
    code, stdout, _ = run(capsys, ["verify", "sequences", "--inject-failure", ""])
    assert code == 1
    report = json.loads(stdout)
    assert not report["passed"]
    assert report["checks"][-1] == {"name": "", "passed": False, "detail": {"injected": True}}


@pytest.mark.parametrize(
    "suite, injected",
    [("geometry", "net_separation"), ("sequences", "net_separation"), ("multiscale", "foo")],
)
def test_every_injected_failure_fails_the_report(capsys, suite, injected):
    # net_separation corrupts a real net only where the multiscale suite
    # runs; elsewhere, like any other name, it is added as a failing check.
    code, stdout, err = run(capsys, ["verify", suite, "--inject-failure", injected])
    assert code == 1
    report = json.loads(stdout)
    assert not report["passed"]
    assert injected in err


def test_only_invariant_errors_exit_1(monkeypatch, capsys):
    def fail(exc):
        def run_suite(*args, **kwargs):
            raise exc
        return run_suite

    monkeypatch.setattr(verify, "run_suite", fail(InvariantError("forms disagree")))
    code, _, err = run(capsys, ["verify", "geometry"])
    assert code == 1
    assert "invariant failure: forms disagree" in err
    # any other arithmetic fault is a bug and must surface as one
    monkeypatch.setattr(verify, "run_suite", fail(ZeroDivisionError("float division by zero")))
    with pytest.raises(ZeroDivisionError):
        main(["verify", "geometry"])
    assert "invariant failure" not in capsys.readouterr().err


def test_ratio_thm13_table(tmp_path, capsys):
    path = tmp_path / "cantor.csv"
    gen_four_corner_cantor(2).to_csv(path)
    code, stdout, _ = run(
        capsys, ["ratio", "thm13", "--input", str(path), "--d", "1", "--samples", "2000"]
    )
    assert code == 0
    rows = list(csv.reader(stdout.splitlines()))
    assert rows[0] == ["ball", "radius", "lhs_curvature", "rhs_mass", "ratio", "exact", "std_error"]
    assert len(rows) == 21
    # 16 points: every ball's at most 16^3 ordered tuples are summed exactly
    assert {(row[-2], row[-1]) for row in rows[1:]} == {("True", "0.0")}


@pytest.mark.parametrize(
    "experiment, header",
    [
        ("thm12", ["ball", "radius", "lhs_curvature", "rhs_flatness", "ratio", "exact", "std_error"]),
        ("prop11", ["ball", "t", "lambda", "lhs", "rhs", "ratio", "ratio_scaled", "exact", "std_error"]),
        ("prop43", ["ball", "radius", "lhs_discrete", "rhs_continuous_6Q", "ratio"]),
    ],
)
def test_ratio_tables_name_the_curvature_path(tmp_path, capsys, experiment, header):
    path = tmp_path / "cantor.csv"
    gen_four_corner_cantor(2).to_csv(path)
    code, stdout, _ = run(capsys, ["ratio", experiment, "--input", str(path), "--samples", "200"])
    rows = list(csv.reader(stdout.splitlines()))
    assert (code, rows[0]) == (0, header)
    if "exact" in header:
        assert {(row[-2], row[-1]) for row in rows[1:]} == {("True", "0.0")}


def test_ratio_rows_on_the_monte_carlo_path_carry_their_std_error(tmp_path, capsys):
    # on a 4k circle every ball of radius >= 0.2 diam holds over 400 points,
    # whose cubed count is past the exact limit
    path = tmp_path / "circle.csv"
    gen_sphere(2, 4000, seed=0).to_csv(path)
    code, stdout, _ = run(capsys, ["ratio", "thm13", "--input", str(path), "--samples", "200"])
    rows = list(csv.reader(stdout.splitlines()))
    assert code == 0
    assert {row[-2] for row in rows[1:]} == {"False"}
    assert all(float(row[-1]) > 0 for row in rows[1:])


def test_ratio_on_zero_diameter_cloud_exits_2(tmp_path, capsys):
    # every ball drawn from a cloud of diameter 0 has radius 0
    path = tmp_path / "dup.csv"
    WeightedPointCloud(np.array([[0.1, 0.2], [0.1, 0.2]]), np.ones(2)).to_csv(path)
    for experiment in ("thm12", "thm13", "prop11", "prop43"):
        code, stdout, err = run(capsys, ["ratio", experiment, "--input", str(path), "--samples", "200"])
        assert (code, stdout) == (2, ""), experiment
        assert "error" in err


def test_verify_subprocess_determinism(tmp_path):
    cmd = [sys.executable, "-m", "menger.cli", "verify", "sequences", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["passed"]


def test_seed_sweep_hash_is_the_verify_all_hash(capsys):
    # a bit-for-bit claim compares scripts/sweep_seeds.py's sha256 column
    # across trees, so it must be the digest of `menger verify all --seed S`
    path = Path(__file__).resolve().parents[1] / "scripts" / "sweep_seeds.py"
    spec = importlib.util.spec_from_file_location("sweep_seeds", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.main(["--seeds", "7"]) == 0
    row = json.loads(capsys.readouterr().out)
    code, stdout, _ = run(capsys, ["verify", "all", "--seed", "7"])
    assert code == 0
    assert row["sha256"] == hashlib.sha256(stdout.encode()).hexdigest()


# ---------------------------------------------------------------------------
# exit codes under argument and CSV mutations

_BAD_NUMBERS = ("0", "-1", "-0.5", "nan", "inf", "-inf", "1e200")
_GOOD_FLAGS = {
    "generate": {"--d": "1", "--D": "2", "--n": "20", "--level": "2", "--lip": "0.5", "--seed": "3"},
    "beta": {"--d": "1", "--ball": "0,0:0.5"},
    "flatness": {"--d": "1", "--ball": "0,0:0.5", "--alpha0": "0.25", "--seed": "3"},
    "curvature": {"--d": "1", "--ball": "0,0:0.5", "--samples": "200", "--seed": "3", "--lambda": "0.2"},
    "ratio": {"--d": "1", "--samples": "200", "--seed": "3", "--alpha0": "0.25"},
}
_CHOICES = {
    "generate": ["plane", "sphere", "graph", "cantor"],
    "flatness": ["--mode=discrete", "--mode=continuous"],
    "ratio": ["thm12", "thm13", "prop11", "prop43"],
}
_CLOUDS = {
    "cantor": gen_four_corner_cantor(2),
    "circle": gen_sphere(2, 20, seed=1),
    "sphere": gen_sphere(3, 12, seed=2),
    "single": WeightedPointCloud(np.array([[0.1, 0.2]]), np.ones(1)),
    "duplicates": WeightedPointCloud(np.tile([0.1, 0.2], (10, 1)), np.ones(10)),
}
_CSV_MUTATIONS = ("dim=0", "dim=-1", "dim=x", "empty", "header_only", "missing_field", "weight", "coordinate")


@st.composite
def _cloud_text(draw, mutation) -> str:
    """The CSV text of a small valid cloud, or of one mutation of it."""
    cloud = _CLOUDS[draw(st.sampled_from(sorted(_CLOUDS)))]
    lines = [f"dim={cloud.ambient_dim}"]
    lines += [",".join(repr(float(v)) for v in [*p, w]) for p, w in zip(cloud.points, cloud.weights)]
    row = draw(st.integers(1, len(lines) - 1))
    fields = lines[row].split(",")
    if mutation.startswith("dim="):
        lines[0] = mutation
    elif mutation == "empty":
        return ""
    elif mutation == "header_only":
        lines = lines[:1]
    elif mutation == "missing_field":
        lines[row] = ",".join(fields[:-1])
    elif mutation == "weight":
        lines[row] = ",".join(fields[:-1] + [draw(st.sampled_from(_BAD_NUMBERS))])
    elif mutation == "coordinate":
        lines[row] = ",".join([draw(st.sampled_from(("nan", "inf", "-inf")))] + fields[1:])
    return "\n".join(lines) + "\n"


@settings(max_examples=200)
@given(data=st.data())
def test_cli_exit_code_is_always_0_1_or_2(tmp_path_factory, data):
    # Each example takes one command with valid flags on a valid cloud of at
    # most 20 points and mutates at most one of them.
    command = data.draw(st.sampled_from(sorted(_GOOD_FLAGS)))
    flags = dict(_GOOD_FLAGS[command])
    target = data.draw(st.sampled_from(["none", "csv", *flags]))
    if target in flags:
        bad = data.draw(st.sampled_from(_BAD_NUMBERS))
        flags[target] = data.draw(st.sampled_from([f"0,0:{bad}", f"{bad},0:0.5"])) if target == "--ball" else bad
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    mutation = data.draw(st.sampled_from(_CSV_MUTATIONS)) if target == "csv" else "none"
    path.write_text(data.draw(_cloud_text(mutation)))
    argv = [command]
    if command in _CHOICES:
        argv.append(data.draw(st.sampled_from(_CHOICES[command])))
    for flag, value in flags.items():
        argv += [flag, value]
    argv += ["--out" if command == "generate" else "--input", str(path)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects e.g. "--n nan" with exit 2
        code = exc.code
    assert code in (0, 1, 2), argv
