"""Command-line entry points: forward, reconstruct, verify, sweep.

Exit codes: 0 success, 2 validation / configuration error (an unreadable
or non-UTF-8 input, an output directory that is a file), 3 numerical
failure, 4 verification failure.
"""

import argparse
import csv
import json
import sys as _sys
from pathlib import Path

import numpy as np

from .config import load_config, make_record, make_shape, solve_truth
from .errors import ConfigError, DomainError, SingularityError, SolveError
from .forward import ORACLE_TOL, disk_series, oracle_gap, reciprocity_gap
from .metrics import curve_hausdorff
from .newton import reconstruct
from .records import ScatterRecord
from .svgout import overlay_svg
from .sweep import load_sweep, run_sweep, write_sweep_csv
from .verify import run_battery

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4


def _out_dir(args) -> Path:
    """Create --out-dir; each command calls this once its inputs have
    loaded and before its solve, so an unusable directory costs no work."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_forward(args) -> int:
    cfg = load_config(args.config)
    if args.verify_oracle and cfg["shape"] != "disk":
        raise ConfigError("--verify-oracle requires shape = disk")
    out = _out_dir(args)
    sol = solve_truth(cfg)
    rec = make_record(cfg, sol)
    path = out / "record.json"
    rec.save(path)
    print(
        f"MFS residuals over {len(sol.residuals)} sources: "
        f"max {sol.residual:.3e}, median {np.median(sol.residuals):.3e}; "
        f"reciprocity gap {reciprocity_gap(sol):.3e}"
    )
    print(f"wrote {path} ({rec.n_sources} sources x {rec.n_receivers} receivers)")

    if args.verify_oracle:
        oracle = make_record(cfg, disk_series(cfg["shape.radius"], sol.sources, cfg.sys))
        worst = oracle_gap(rec.values, oracle.values)
        print(f"oracle check: max relative L2 discrepancy {worst:.3e}")
        if worst > ORACLE_TOL:
            return EXIT_NUMERICAL
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    cfg = load_config(args.config)
    rec = ScatterRecord.load(args.record)
    # reconstruct refuses a different rho or medium; the sources' polarization
    # is the record's own, so only here is the config held to it
    pol = rec.polarization()
    diffs = cfg.mismatches([("polarization.x", float(pol[0])), ("polarization.y", float(pol[1]))])
    if diffs:
        raise ConfigError("record/config physics mismatch: " + "; ".join(diffs))

    out = _out_dir(args)
    run = reconstruct(rec, cfg)
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

    truth = make_shape(cfg)
    title = f"termination: {run.termination} ({run.iterations} iterations)"
    (out / "overlay.svg").write_text(overlay_svg(rec, run, truth, title))

    if not rec.is_full_aperture:
        lo, hi = rec.aperture
        print(f"partial aperture [{lo:.4f}, {hi:.4f}) with {rec.n_receivers} receivers")
    err = curve_hausdorff(run.final.as_curve(), truth)
    print(
        f"termination: {run.termination} after {run.iterations} iterations; "
        f"hausdorff vs configured truth {err:.4f}"
    )
    print(f"wrote run.json, boundary.csv, convergence.csv, overlay.svg in {out}")
    if run.termination in ("diverged", "modal_failure"):
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_verify(args) -> int:
    out = None if args.out_dir is None else _out_dir(args)
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
    if out is not None:
        with open(out / "verify.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            # no timings: the file is a deterministic artifact
            writer.writerow(["check", "passed", "measured", "bound", "detail"])
            for r in results:
                writer.writerow([r.name, int(r.passed), repr(r.measured), repr(r.bound), r.detail])
        print(f"wrote {out / 'verify.csv'}")
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def cmd_sweep(args) -> int:
    spec = load_sweep(args.config)
    out = _out_dir(args)
    rows = run_sweep(spec, workers=args.workers)
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
    p_fwd.add_argument("--verify-oracle", action="store_true",
                       help="check disk records against the analytic series")
    p_fwd.set_defaults(func=cmd_forward)

    p_rec = sub.add_parser("reconstruct", help="run the Newton iteration on a record")
    p_rec.add_argument("--config", required=True)
    p_rec.add_argument("--record", required=True)
    p_rec.add_argument("--out-dir", default=".")
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
    except (ConfigError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    except (SolveError, DomainError, SingularityError) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
