import csv
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menger import verify
from menger.cli import main
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
    assert rows[0] == ["ball", "radius", "lhs_curvature", "rhs_mass", "ratio"]
    assert len(rows) == 21


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
