"""Command-line entry points: forward, reconstruct, verify, sweep.

Exit codes: 0 success, 2 validation / configuration error, 3 numerical
failure, 4 verification failure.
"""

import argparse
import csv
import json
import sys as _sys
from pathlib import Path

import numpy as np

from .config import load_config, make_shape
from .errors import ConfigError, DomainError, SolveError
from .forward import disk_series, ring_sources, simulate
from .metrics import curve_hausdorff
from .newton import StarCurve, reconstruct
from .records import ScatterRecord
from .svgout import overlay_svg
from .sweep import load_sweep, run_sweep, write_sweep_csv
from .verify import run_battery

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_forward(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.__class__({**cfg.raw, "seed": args.seed})
    curve = make_shape(cfg)
    srcs = ring_sources(cfg["n_sources"], cfg["rho"], cfg.polarization)
    n_col, n_chg, shrink = cfg.mfs_params()
    residuals: list = []
    rec = simulate(
        curve, srcs, cfg.sys, cfg["rho"], cfg["n_receivers"],
        aperture=cfg.aperture, n_collocation=n_col, n_charges=n_chg,
        shrink=shrink, warn_above=None, residual_log=residuals,
    )
    out = _out_dir(args)
    path = out / "record.json"
    rec.save(path)
    if residuals:
        print(
            f"MFS residuals over {len(residuals)} sources: "
            f"max {max(residuals):.3e}, median {np.median(residuals):.3e}"
        )
    print(f"wrote {path} ({rec.n_sources} sources x {rec.n_receivers} receivers)")

    if args.verify_oracle:
        if cfg["shape"] != "disk":
            print("--verify-oracle requires shape = disk", file=_sys.stderr)
            return EXIT_VALIDATION
        fld_pts = rec.rho * np.stack(
            [np.cos(rec.receivers), np.sin(rec.receivers)], axis=-1
        )
        oracle = disk_series(cfg["shape.radius"], rec.sources, cfg.sys, 40).eval(fld_pts)
        num = np.sqrt(np.sum(np.abs(rec.values - oracle) ** 2, axis=(1, 2)))
        den = np.sqrt(np.sum(np.abs(oracle) ** 2, axis=(1, 2)))
        worst = float(np.max(num / den))
        print(f"oracle check: max relative L2 discrepancy {worst:.3e}")
        if worst > 1e-6:
            return EXIT_NUMERICAL
    return EXIT_OK


def _physics_diff(rec: ScatterRecord, cfg) -> list:
    diffs = []
    pairs = [
        ("rho", rec.rho, cfg["rho"]),
        ("lame.lambda", rec.sys.lam, cfg["lame.lambda"]),
        ("lame.mu", rec.sys.mu, cfg["lame.mu"]),
        ("lame.omega", rec.sys.omega, cfg["lame.omega"]),
    ]
    pol = rec.polarization()
    pairs += [
        ("polarization.x", float(pol[0]), cfg["polarization.x"]),
        ("polarization.y", float(pol[1]), cfg["polarization.y"]),
    ]
    for name, got, want in pairs:
        if abs(got - want) > 1e-12:
            diffs.append(f"{name}: record {got!r} vs config {want!r}")
    return diffs


def cmd_reconstruct(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.__class__({**cfg.raw, "seed": args.seed})
    rec = ScatterRecord.load(args.record)
    diffs = _physics_diff(rec, cfg)
    if diffs:
        print("record/config physics mismatch:", file=_sys.stderr)
        for d in diffs:
            print("  " + d, file=_sys.stderr)
        return EXIT_VALIDATION

    run = reconstruct(rec, cfg)
    out = _out_dir(args)
    run.save(out / "run.json")

    t = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    with open(out / "boundary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y"])
        for ti, (x, y) in zip(t, run.final.point(t)):
            writer.writerow([repr(float(ti)), repr(float(x)), repr(float(y))])
    with open(out / "convergence.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "relative_update"])
        for i, e in enumerate(run.e_history, start=1):
            writer.writerow([i, repr(float(e))])

    exact_pts = make_shape(cfg).sample(512)
    svg = overlay_svg(
        rho=rec.rho,
        aperture=rec.aperture,
        sources_xy=np.array([s.location for s in rec.sources]),
        final_pts=run.final.point(t),
        initial_pts=StarCurve.circle(cfg["guess.radius"], cfg["np"]).point(t),
        exact_pts=exact_pts,
        title=f"termination: {run.termination} ({run.iterations} iterations)",
    )
    (out / "overlay.svg").write_text(svg)

    if not rec.is_full_aperture:
        lo, hi = rec.aperture
        print(f"partial aperture [{lo:.4f}, {hi:.4f}) with {rec.n_receivers} receivers")
    err = curve_hausdorff(run.final.as_curve(), make_shape(cfg))
    print(
        f"termination: {run.termination} after {run.iterations} iterations; "
        f"hausdorff vs configured truth {err:.4f}"
    )
    print(f"wrote run.json, boundary.csv, convergence.csv, overlay.svg in {out}")
    if run.termination in ("diverged", "modal_failure"):
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_battery()
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(
            f"{r.name:<{width}}  {mark}  measured={r.measured: .6e}  "
            f"bound={r.bound: .6e}  ({r.seconds:.2f}s)  {r.detail}"
        )
    if args.out_dir is not None:
        out = _out_dir(args)
        with open(out / "verify.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "passed", "measured", "bound", "seconds", "detail"])
            for r in results:
                writer.writerow(
                    [r.name, int(r.passed), repr(r.measured), repr(r.bound),
                     f"{r.seconds:.3f}", r.detail]
                )
        print(f"wrote {out / 'verify.csv'}")
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def cmd_sweep(args) -> int:
    spec = load_sweep(args.config)
    rows = run_sweep(spec, workers=args.workers)
    out = _out_dir(args)
    path = out / "sweep.csv"
    write_sweep_csv(rows, path)
    failures = [r for r in rows if r[-1] != "ok"]
    print(f"wrote {path}: {len(rows)} cells, {len(failures)} failed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elshape",
        description="Rigid-obstacle boundary reconstruction from elastic near-field data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fwd = sub.add_parser("forward", help="simulate scattered-field data")
    p_fwd.add_argument("--config", required=True)
    p_fwd.add_argument("--out-dir", default=".")
    p_fwd.add_argument("--seed", type=int, default=None)
    p_fwd.add_argument("--verify-oracle", action="store_true",
                       help="check disk records against the analytic series")
    p_fwd.set_defaults(func=cmd_forward)

    p_rec = sub.add_parser("reconstruct", help="run the Newton iteration on a record")
    p_rec.add_argument("--config", required=True)
    p_rec.add_argument("--record", required=True)
    p_rec.add_argument("--out-dir", default=".")
    p_rec.add_argument("--seed", type=int, default=None)
    p_rec.set_defaults(func=cmd_reconstruct)

    p_ver = sub.add_parser("verify", help="run the numerical verification battery")
    p_ver.add_argument("--out-dir", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_swp = sub.add_parser("sweep", help="aperture x noise sweep to CSV")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--out-dir", default=".")
    p_swp.add_argument("--workers", type=int, default=1)
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    except (SolveError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
