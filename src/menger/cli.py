"""Command line driver: data generation, curvature/flatness computation,
verification suites, and ratio experiment tables.

Exit codes: 0 success, 1 invariant failure, 2 input error (a request too
large to allocate included).  Every command is deterministic given (seed,
flags, input file).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import estimators, multiscale, verify
from .geometry import InvariantError
from .measure import (
    Ball,
    WeightedPointCloud,
    gen_four_corner_cantor,
    gen_lipschitz_graph,
    gen_plane_patch,
    gen_sphere,
)
from .planes import beta2

# Monte Carlo samples of `curvature` when --samples is not given.
MC_SAMPLES = 100_000


def _parse_ball(text: str, ambient: int) -> Ball:
    """Parse 'cx,cy,...:r' into a Ball, validating the dimension."""
    try:
        coords, radius = text.rsplit(":", 1)
        center = np.array([float(c) for c in coords.split(",")], dtype=float)
        r = float(radius)
    except ValueError as exc:
        raise ValueError(f"bad --ball {text!r}, expected 'cx,cy,...:r'") from exc
    if len(center) != ambient:
        raise ValueError(f"--ball center has {len(center)} coordinates, cloud is {ambient}-dim")
    if not (np.isfinite(center).all() and 0 < r < np.inf):
        raise ValueError("--ball needs a finite center and a positive finite radius")
    return Ball(center, r)


def _load_cloud(path: str) -> WeightedPointCloud:
    """Read a cloud, refusing one whose squared support diameter overflows,
    or underflows below the smallest normal float while its points are not
    all equal: the library forms squared distances, so such a cloud would
    give an infinite, NaN or zero answer.  The diameter stays cached on the
    cloud for the command that runs next."""
    if not path:
        raise ValueError("--input is required for this command")
    try:
        cloud = WeightedPointCloud.from_csv(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"bad cloud file {path}: {exc}") from exc
    diam = cloud.support_diameter()
    sq, fin = diam * diam, np.finfo(float)
    if sq == math.inf or (sq < fin.tiny and (cloud.points != cloud.points[0]).any()):
        raise ValueError(
            f"bad cloud file {path}: squared distances between its points leave the normal float "
            f"range (the diameter computes as {diam!r}); rescale the coordinates so that it lies in "
            f"[{math.sqrt(fin.tiny):.3g}, {math.sqrt(fin.max):.3g}]"
        )
    return cloud


def _query(args, cloud: WeightedPointCloud) -> Ball:
    if args.ball:
        return _parse_ball(args.ball, cloud.ambient_dim)
    return cloud.bounding_ball()


def _emit(payload: dict, args) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["key", "value"])
        for k, v in sorted(_flatten(payload).items()):
            w.writerow([k, v])
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _flatten(obj, prefix: str = "") -> dict:
    flat = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            flat.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        flat[prefix.rstrip(".")] = ";".join(str(x) for x in obj)
    else:
        flat[prefix.rstrip(".")] = obj
    return flat


def _write_table(rows: list, header: list, out: str | None) -> None:
    target = open(out, "w", newline="") if out else sys.stdout
    try:
        w = csv.writer(target)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if out:
            target.close()


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    if args.kind == "plane":
        cloud = gen_plane_patch(args.d, args.D, args.n, seed=args.seed)
    elif args.kind == "sphere":
        cloud = gen_sphere(args.D, args.n, seed=args.seed)
    elif args.kind == "graph":
        cloud = gen_lipschitz_graph(args.d, args.D, args.lip, args.n, seed=args.seed)
    else:  # "cantor"; argparse restricts the choices
        cloud = gen_four_corner_cantor(args.level)
    if not args.out:
        raise ValueError("generate needs --out")
    cloud.to_csv(args.out)
    sys.stdout.write(f"wrote {len(cloud)} points to {args.out}\n")
    return 0


def cmd_beta(args) -> int:
    cloud = _load_cloud(args.input)
    ball = _query(args, cloud)
    res = beta2(cloud, ball, args.d)
    _emit(
        {
            "command": "beta",
            "input": args.input,
            "d": args.d,
            "ball": {"center": ball.center.tolist(), "radius": ball.radius},
            "beta2": res.value,
            "beta2_sq": res.value**2,
            "mass": res.mass,
            "plane_point": res.point.tolist(),
            "plane_basis": res.basis.tolist(),
        },
        args,
    )
    return 0


def cmd_flatness(args) -> int:
    cloud = _load_cloud(args.input)
    ball = _query(args, cloud)
    if args.mode == "discrete":
        fam = multiscale.MultiresolutionFamily(cloud, args.alpha0, order_seed=args.seed)
        rep = multiscale.jones_flatness_discrete(cloud, ball, fam, args.d)
    else:
        rep = multiscale.jones_flatness_continuous(cloud, ball, args.d)
    _emit(
        {
            "command": "flatness",
            "input": args.input,
            "d": args.d,
            "mode": args.mode,
            "alpha0": args.alpha0,
            "seed": args.seed,
            "ball": {"center": ball.center.tolist(), "radius": ball.radius},
            "total": rep.total,
            "n_terms": len(rep.terms),
        },
        args,
    )
    return 0


def cmd_curvature(args) -> int:
    cloud = _load_cloud(args.input)
    ball = _query(args, cloud)
    samples = MC_SAMPLES if args.samples is None else args.samples
    est = estimators.continuous_curvature_sq(
        cloud, ball, args.d, n_samples=samples, seed=args.seed, mode=args.mode, lam=args.lam
    )
    payload = {
        "command": "curvature",
        "input": args.input,
        "d": args.d,
        "mode": args.mode,
        "seed": args.seed,
        "ball": {"center": ball.center.tolist(), "radius": ball.radius},
    }
    if args.lam is not None:
        payload["lambda"] = args.lam
    payload.update(est.to_dict())
    # why the path was taken: auto sums exactly when the ball's ordered
    # tuples are within the limit
    payload["tuples"] = len(cloud.in_ball(ball)) ** (args.d + 2)
    payload["exact_tuple_limit"] = estimators.EXACT_TUPLE_LIMIT
    if est.exact and args.samples is not None:
        payload["unused_samples"] = args.samples
    _emit(payload, args)
    return 0


def cmd_verify(args) -> int:
    if args.suite == "all":
        report = verify.run_all(seed=args.seed, inject_failure=args.inject_failure)
    else:
        report = verify.run_suite(args.suite, seed=args.seed, inject_failure=args.inject_failure)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    sys.stdout.write(text)
    if not report["passed"]:
        failed = []
        stack = report.get("suites", [report])
        for s in stack:
            failed += [c["name"] for c in s.get("checks", []) if not c["passed"]]
        sys.stderr.write("failed checks: " + ", ".join(failed) + "\n")
        return 1
    return 0


def _ratio_balls(cloud, rng, count: int, lo: float = 0.2, hi: float = 0.5):
    diam = cloud.support_diameter()
    if diam == 0.0:
        raise ValueError("ratio experiments need a cloud of positive diameter")
    w = cloud.weights / cloud.total_mass()
    for b in range(count):
        ci = int(rng.choice(len(cloud), p=w))
        r = float(rng.uniform(lo, hi) * diam)
        yield b, Ball(cloud.points[ci], r)


def _ratio_cells(lhs: estimators.MCEstimate, rhs: float) -> list:
    """The lhs, rhs, ratio (empty where rhs is 0), exact and std_error
    cells of a thm12 or thm13 row."""
    est = lhs.to_dict()
    return [est["estimate"], rhs, est["estimate"] / rhs if rhs > 0 else "", est["exact"], est["std_error"]]


def cmd_ratio(args) -> int:
    cloud = _load_cloud(args.input)
    rng = np.random.default_rng((args.seed, 900))
    d = args.d
    rows = []
    if args.experiment == "thm12":
        fam = multiscale.MultiresolutionFamily(cloud, args.alpha0, order_seed=args.seed)
        header = ["ball", "radius", "lhs_curvature", "rhs_flatness", "ratio", "exact", "std_error"]
        for b, ball in _ratio_balls(cloud, rng, 10):
            lhs = estimators.continuous_curvature_sq(cloud, ball, d, n_samples=args.samples, seed=(args.seed, b))
            rhs = multiscale.jones_flatness_discrete(cloud, ball, fam, d).total
            rows.append([b, ball.radius, *_ratio_cells(lhs, rhs)])
    elif args.experiment == "thm13":
        header = ["ball", "radius", "lhs_curvature", "rhs_mass", "ratio", "exact", "std_error"]
        for b, ball in _ratio_balls(cloud, rng, 20):
            lhs = estimators.continuous_curvature_sq(cloud, ball, d, n_samples=args.samples, seed=(args.seed, b))
            rows.append([b, ball.radius, *_ratio_cells(lhs, cloud.mass_in(ball))])
    elif args.experiment == "prop11":
        header = ["ball", "t", "lambda", "lhs", "rhs", "ratio", "ratio_scaled", "exact", "std_error"]
        power = d * (d + 1) + 4
        for b, ball in _ratio_balls(cloud, rng, 10):
            for lam in (0.2, 0.4, 0.8):
                r = estimators.prop11_ratio(
                    cloud,
                    ball.center,
                    ball.radius,
                    lam,
                    d,
                    n_samples=args.samples,
                    seed=(args.seed, b),
                )
                ratio = r["ratio"]
                rows.append(
                    [
                        b,
                        ball.radius,
                        lam,
                        r["lhs"],
                        r["rhs"],
                        ratio if ratio is not None else "",
                        ratio * lam**power if ratio is not None else "",
                        r["exact"],
                        r["std_error"],
                    ]
                )
    else:  # "prop43"; argparse restricts the choices
        fam = multiscale.MultiresolutionFamily(cloud, args.alpha0, order_seed=args.seed)
        header = ["ball", "radius", "lhs_discrete", "rhs_continuous_6Q", "ratio"]
        for b, ball in _ratio_balls(cloud, rng, 10, lo=0.1, hi=0.15):
            lhs = multiscale.jones_flatness_discrete(cloud, ball, fam, d).total
            rhs = multiscale.jones_flatness_continuous(cloud, ball.blow(6.0), d, x_cap=64).total
            rows.append([b, ball.radius, lhs, rhs, lhs / rhs if rhs > 0 else ""])
    _write_table(rows, header, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="menger", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic cloud to CSV")
    g.add_argument("kind", choices=["plane", "sphere", "graph", "cantor"])
    g.add_argument("--d", type=int, default=1)
    g.add_argument("--D", type=int, default=2)
    g.add_argument("--n", "--samples", dest="n", type=int, default=256)
    g.add_argument("--level", type=int, default=3, help="cantor construction depth")
    g.add_argument("--lip", type=float, default=0.5, help="graph Lipschitz constant")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=False)
    g.set_defaults(func=cmd_generate)

    def io_flags(sp):
        sp.add_argument("--input", required=True)
        sp.add_argument("--d", type=int, default=1)
        sp.add_argument("--ball", help="cx,cy,...:r (default: bounding ball)")
        sp.add_argument("--out")
        sp.add_argument("--format", choices=["json", "csv"], default="json")

    b = sub.add_parser("beta", help="least-squares d-plane approximation error")
    io_flags(b)
    b.set_defaults(func=cmd_beta)

    f = sub.add_parser("flatness", help="Jones-type flatness over a query ball")
    io_flags(f)
    f.add_argument("--mode", choices=["discrete", "continuous"], default="discrete")
    f.add_argument("--alpha0", type=float, default=0.25)
    f.add_argument("--seed", type=int, default=0)
    f.set_defaults(func=cmd_flatness)

    c = sub.add_parser("curvature", help="curvature integral over a query ball")
    io_flags(c)
    c.add_argument("--mode", choices=["auto", "exact", "mc"], default="auto",
                   help="auto sums exactly when the ball's tuple count allows, else samples")
    c.add_argument("--samples", type=int, default=None,
                   help=f"Monte Carlo samples (default {MC_SAMPLES}); unused on an exact sum")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--lambda", dest="lam", type=float, default=None)
    c.set_defaults(func=cmd_curvature)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=["geometry", "sequences", "multiscale", "inequalities", "all"])
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--inject-failure", default=None, metavar="CHECK",
                   help="plant a violation (e.g. net_separation) to prove the harness can fail")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("ratio", help="inequality experiment tables (CSV)")
    r.add_argument("experiment", choices=["thm12", "thm13", "prop11", "prop43"])
    r.add_argument("--input", required=True)
    r.add_argument("--d", type=int, default=1)
    r.add_argument("--samples", type=int, default=20_000)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--alpha0", type=float, default=0.25)
    r.add_argument("--out")
    r.set_defaults(func=cmd_ratio)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InvariantError as exc:
        sys.stderr.write(f"invariant failure: {exc}\n")
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
