import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import menger


def test_all_names_exactly_the_public_exports():
    assert len(set(menger.__all__)) == len(menger.__all__)
    for name in menger.__all__:
        assert hasattr(menger, name), name
    namespace = {}
    exec("from menger import *", namespace)
    assert set(menger.__all__) <= set(namespace)
    # every name __init__ imports is exported, so none is left behind stale
    public = {n for n, v in vars(menger).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == set(menger.__all__)


def _fresh_python(code: str) -> dict:
    # a new interpreter, since this one has imported scipy already; it prints
    # one JSON object
    src = str(Path(menger.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_curvature_and_beta2_run_without_scipy(tmp_path):
    seen = _fresh_python(f"""
        import json, sys
        import numpy as np
        seen = {{}}
        def mark(step):
            seen[step] = "scipy" in sys.modules
        import menger, menger.cli
        mark("import")
        from menger import _batch, estimators, measure, planes
        cloud = measure.gen_sphere(2, 300, seed=1)
        mark("gen_sphere")
        cloud.to_csv({str(tmp_path / "circle.csv")!r})
        cloud = measure.WeightedPointCloud.from_csv({str(tmp_path / "circle.csv")!r})
        mark("from_csv")
        ball = measure.Ball(cloud.points[0], 0.3)
        planes.beta2(cloud, ball, 1)
        mark("beta2")
        assert estimators.continuous_curvature_sq(cloud, ball, 1, mode="exact").exact
        mark("exact")
        assert not estimators.continuous_curvature_sq(cloud, ball, 1, n_samples=2000, mode="mc").exact
        mark("mc")
        _batch.curvature_terms(cloud.points[np.arange(30).reshape(10, 3)])
        mark("curvature_terms")
        from menger import multiscale, verify
        family = multiscale.MultiresolutionFamily(cloud, 0.25)
        family.level(1)
        mark("level")
        cloud.median_nn_distance()
        mark("median_nn_distance")
        multiscale.jones_flatness_discrete(cloud, ball, family, 1)
        mark("discrete_flatness")
        multiscale.jones_flatness_continuous(cloud, ball, 1)
        mark("continuous_flatness")
        verify.run_suite("multiscale", 7)
        mark("verify_multiscale")
        print(json.dumps(seen))
    """)
    steps = ["import", "gen_sphere", "from_csv", "beta2", "exact", "mc", "curvature_terms", "level",
             "median_nn_distance", "discrete_flatness", "continuous_flatness", "verify_multiscale"]
    assert seen == dict.fromkeys(steps, False)
