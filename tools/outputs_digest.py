"""Compare two checkouts' outputs bit for bit, by SHA-256 digest.

A change that is meant to move no output (a refactor, a simplification)
is checked by running both checkouts on the same inputs and comparing
digests of what they compute.  Each checkout runs in a fresh interpreter
that imports its own `src/` and `perfbench/workloads.py`; no bytecode is
written into either tree.  Per checkout the digests cover:

* per seed, every `forward-mfs` record's values and every `reconstruct`
  run's `ReconRun.to_json_dict()` JSON (the benchmark's workloads), and
  from the same `reconstruct` run the Newton layer itself:
  `assemble_system`'s (A, rhs) at the run's first three iterates, the
  initial circle (where all radii coincide) first;
* the `verify-battery` checks' `measured` values, by repr (the battery
  fixes its own seeds, so it runs once);
* `green_tensor` (on 23 x 5 pairs, and on 300 x 64 pairs: two full row
  blocks and a partial one), `incident_field` with and without a
  direction, `grad_incident_field`, `DiskField.eval`, `eval_field`,
  `eval_radial`, `eval_gradient`, an arc fit (`limited_aperture_fit`),
  `record_from_disk_series` on the full receiver ring and on an arc,
  `solve_mfs` strengths and residuals on each shipped shape's layout (the
  kite at 512/256/0.92, the disk at 128/64/0.6 with omega = 1, the
  starfish at 384/192/0.85), on the battery's one-source disk (128/64/0.8,
  omega = 5) and on a turned kite (512/256/0.92, the one-block solve), the
  record of the g = 2 disk (66/32/0.8, omega = 5) on 128 receivers (one orbit
  of 64 receivers measured, `forward._orbit_ring`), the
  `disk_series` coefficients of 20
  ring sources, and `hankel1_table` and `cylinder_tables` of orders 0..120
  on 23 arguments, two of which overflow the top orders, on fixed inputs.

An output that raises is digested as its exception's repr, so an error on
one side only is a difference too.  The script prints every output that
differs and exits 1 if any does, else 0.  Both checkouts run at the same
time, each with one BLAS thread.  Run from anywhere:

    python tools/outputs_digest.py ../parent . --seeds 1 81
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path


def _digest(value) -> str:
    """SHA-256 of an output: text as UTF-8, arrays by dtype, shape and
    bytes, tuples item by item."""
    import numpy as np

    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, str):
            h.update(b"s" + v.encode())
        elif isinstance(v, tuple):
            h.update(b"t%d" % len(v))
            for item in v:
                feed(item)
        else:
            a = np.ascontiguousarray(v)
            h.update(f"a{a.dtype.str}{a.shape}".encode() + a.tobytes())

    feed(value)
    return h.hexdigest()


def _fixed_outputs(records) -> dict:
    """name -> thunk of each point-source field and modal evaluator on fixed inputs."""
    import numpy as np

    from elshape import elastic, forward, geometry, modal, specfun
    from elshape.elastic import LameSystem, PointSource

    sys5 = LameSystem(1.0, 1.0, 5.0)
    srcs = (PointSource((3.0, 0.0), (0.6, 0.8)), PointSource((-1.5, 2.6), (1.0, 0.0)),
            PointSource((0.3, -2.9), (0.0, 1.0)))
    angle = np.linspace(0.0, 2.0 * np.pi, 23)
    radius = np.linspace(1.05, 2.5, angle.size)
    x = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    e = np.stack([np.cos(3.0 * angle), np.sin(3.0 * angle)], axis=-1)
    full = modal.extract_field(records["starfish"], 9, 1.0)

    def arc_fit():
        fit = modal.limited_aperture_fit(records["starfish_arc"], 7, 1e-8, 1.0)
        return fit.phat_p, fit.phat_s

    def mfs(curve, sys, *layout, sources=srcs):
        sol = forward.solve_mfs(curve, sources, sys, *layout, warn_above=None)
        return sol.strengths, sol.residuals

    # the kite turned by 0.3 rad: no mirror and no turn maps it onto itself (g = 1)
    turn = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    turned_kite = geometry.ParametricCurve(geometry.kite().cos @ turn.T,
                                           geometry.kite().sin @ turn.T)

    def ring_series():
        fld = forward.disk_series(1.0, forward.ring_sources(20, 3.0, srcs[0].polarization), sys5)
        return fld.b_p, fld.b_s

    # 300 x 64 pairs: two full row blocks of green_tensor and a partial one
    turns = np.linspace(0.0, 6.0 * np.pi, 300)
    spiral = (1.2 + 0.1 * turns)[:, None] * np.stack([np.cos(turns), np.sin(turns)], axis=-1)
    inner = 0.8 * np.stack([np.cos(0.1 * np.arange(64)), np.sin(0.1 * np.arange(64))], axis=-1)
    # H_n overflows from order 66 at t = 1e-3 and from order 107 at t = 0.1
    t_tab = np.concatenate([[1e-3, 0.1], np.geomspace(0.05, 60.0, 21)])

    return {
        "green_tensor": lambda: elastic.green_tensor(x[:, None], 0.4 * x[None, :5], sys5),
        "green_tensor/blocks": lambda: elastic.green_tensor(spiral[:, None], inner[None], sys5),
        "incident_field": lambda: elastic.incident_field(x, srcs, sys5),
        "incident_field_e": lambda: elastic.incident_field(x, srcs, sys5, e),
        "grad_incident_field": lambda: elastic.grad_incident_field(x, srcs, sys5),
        "DiskField.eval": lambda: forward.disk_series(1.0, srcs, sys5, 30).eval(x),
        "eval_field": lambda: modal.eval_field(full, x),
        "eval_radial": lambda: modal.eval_radial(full, x),
        "eval_gradient": lambda: modal.eval_gradient(full, x),
        "arc_fit": arc_fit,
        "disk_series_record/full": lambda: forward.record_from_disk_series(
            1.0, srcs, sys5, 3.0, 64, n_modes=30).values,
        "disk_series_record/arc": lambda: forward.record_from_disk_series(
            1.0, srcs, sys5, 3.0, 64, (0.5, 4.0), n_modes=30).values,
        "solve_mfs/kite": lambda: mfs(geometry.kite(), sys5, 512, 256, 0.92),
        "solve_mfs/disk": lambda: mfs(geometry.disk(1.0), LameSystem(1.0, 1.0, 1.0), 128, 64, 0.6),
        "solve_mfs/starfish": lambda: mfs(geometry.starfish(), sys5, 384, 192, 0.85),
        "solve_mfs/disk-battery": lambda: mfs(geometry.disk(1.0), sys5, 128, 64, 0.8, sources=(
            PointSource((3.0, 0.0), elastic.POLARIZATION),)),
        "solve_mfs/turned-kite": lambda: mfs(turned_kite, sys5, 512, 256, 0.92),
        "measure/disk-66-32": lambda: forward.measure(forward.solve_mfs(
            geometry.disk(1.0), srcs, sys5, 66, 32, 0.8, warn_above=None), 3.0, 128).values,
        "disk_series/ring20": ring_series,
        "hankel1_table": lambda: specfun.hankel1_table(120, t_tab),
        "cylinder_tables": lambda: tuple(specfun.cylinder_tables(specfun.hankel1_table, 120,
                                                                 t_tab)),
    }


def _reconstruct_outputs(call, newton, count=3) -> dict:
    """"run" -> the `ReconRun` JSON of the reconstruct run `call`, and "iterate<i>"
    -> `newton.assemble_system`'s (A, rhs) at each of its first `count` iterates,
    recorded as the run makes them."""
    systems = {}
    assemble = newton.assemble_system

    def recording(*args):
        out = assemble(*args)
        if len(systems) < count:
            systems[f"iterate{len(systems)}"] = out
        return out

    newton.assemble_system = recording
    try:
        run = call()
    finally:
        newton.assemble_system = assemble
    return {"run": json.dumps(run.to_json_dict(), sort_keys=True), **systems}


def digests(root: Path, seeds) -> dict:
    """name -> digest of every output of the checkout at `root`, computed in
    this interpreter, which must not have imported elshape yet."""
    sys.dont_write_bytecode = True
    warnings.simplefilter("ignore")
    for path in (root / "perfbench", root / "src"):
        sys.path.insert(0, str(path))
    import elshape
    import workloads
    from elshape import newton

    if Path(elshape.__file__).resolve().parent != (root / "src" / "elshape").resolve():
        raise SystemExit(f"imported elshape from {elshape.__file__}, not from {root}")
    records = workloads.load_records()
    thunks = {}
    for seed in seeds:
        for case in workloads.forward_mfs(seed, records).cases:
            thunks[f"forward-mfs/seed{seed}/{case.name}"] = lambda c=case: c.call().values
        for case in workloads.reconstruct(seed, records).cases:
            thunks[f"reconstruct/seed{seed}/{case.name}"] = partial(_reconstruct_outputs,
                                                                    case.call, newton)
    battery = workloads.verify_battery(seeds[0], records).cases[0]
    thunks["verify-battery"] = lambda: {r.name: repr(r.measured) for r in battery.call()}
    thunks.update(_fixed_outputs(records))

    out = {}
    for name, thunk in thunks.items():
        try:
            value = thunk()
        except Exception as exc:  # an error is an output to compare, too
            out[name] = "error: " + repr(exc)
            continue
        if isinstance(value, dict):
            out.update({f"{name}/{key}": _digest(v) for key, v in value.items()})
        else:
            out[name] = _digest(value)
    return out


def differences(a: dict, b: dict) -> list:
    """The outputs, in order, whose digests differ or that one side lacks."""
    return [name for name in {**a, **b} if a.get(name) != b.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the checkout before the change")
    parser.add_argument("change", type=Path, help="the checkout with the change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 81],
                        help="benchmark seeds of the forward-mfs and reconstruct outputs")
    args = parser.parse_args(argv)

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    worker = ("import json, sys; from pathlib import Path; from outputs_digest import digests; "
              "print(json.dumps(digests(Path(sys.argv[1]), [int(s) for s in sys.argv[2:]])))")
    procs = [subprocess.Popen([sys.executable, "-c", worker, str(root.resolve()),
                               *map(str, args.seeds)], cwd=Path(__file__).resolve().parent,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
             for root in (args.parent, args.change)]
    sides = []
    for root, proc in zip((args.parent, args.change), procs):
        stdout, stderr = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"digest run in {root} failed (exit {proc.returncode}):\n{stderr}")
        sides.append(json.loads(stdout.strip().splitlines()[-1]))
    differ = differences(*sides)
    for name in differ:
        print(f"differs: {name}  ({sides[0].get(name, 'absent')[:16]} -> "
              f"{sides[1].get(name, 'absent')[:16]})")
    print(f"{len(differ)} of {len({**sides[0], **sides[1]})} outputs differ "
          f"(seeds {' '.join(map(str, args.seeds))})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
