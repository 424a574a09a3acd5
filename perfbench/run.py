"""Pipeline benchmark for elshape: MFS forward solve, Newton reconstruction
and the verification battery.

Run from the repository root:

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller calls the workload's cases in turn (a closed loop: each call
starts when the previous one returns) until `--seconds` have passed and
every case has run at least once.  Every output is checked.  A table with
the metrics under their per-workload names goes to stderr; the last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, and with `--trace 1`
the per-layer metrics of a traced pass, which follows an untraced pass;
each takes half of `--seconds`, and their difference is the tracing
overhead.  Times are rescaled to a reference host (see `HostSpeed`).

The benchmark builds nothing: it imports elshape from `src/` of the
checkout it sits in and exits with code 2, printing no result, if that is
missing.  Artifacts go to `perfbench/out/<workload>/`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("forward-mfs", "reconstruct", "verify-battery")
#: fresh processes whose set-up is timed; setup_s is their median
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120
#: seconds of HostSpeed kernel timing before a loop starts and in a set-up probe
REF_START_S = 0.5

#: median HostSpeed kernel time on the host the benchmark was defined on
#: (2-vCPU Intel Xeon, numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31, 2 threads)
REF_S = 0.077
#: share of each call's duration spent timing the HostSpeed kernel after it
REF_SHARE = 0.04

#: name -> (unit, better); the end-to-end metrics (--trace 0)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "call_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "steps": ("count", "lower"),
    "ok_frac": ("fraction", "higher"),
}

#: per-workload names of call_s, steps_per_s and steps
ALIASES = {
    "forward-mfs": ("forward_s", "mfs_solves_per_s", "mfs_solves"),
    "reconstruct": ("reconstruct_s", "newton_iters_per_s", "newton_iters"),
    "verify-battery": ("verify_s", "checks_per_s", "checks"),
}

#: span name -> reported fields (s = inclusive, self_s = exclusive, calls)
LAYER_FIELDS = {
    "specfun.hankel1": ("s", "calls"),
    "elastic.green_tensor": ("s", "self_s", "calls"),
    "elastic.incident_field": ("s",),
    "elastic.grad_incident_field": ("s",),
    "forward.simulate": ("s", "calls"),
    "forward.solve_mfs": ("s", "self_s", "calls"),
    "forward.lstsq": ("s", "calls"),
    "forward.disk_series": ("s", "calls"),
    "modal.eval_field": ("s", "self_s", "calls"),
    "modal.eval_gradient": ("s", "self_s", "calls"),
    "modal.extract_field": ("s", "calls"),
    "modal.modal_rhs": ("s",),
    "modal.solve_modal": ("s",),
    "modal.limited_aperture_fit": ("s", "calls"),
    "newton.assemble_system": ("s", "self_s", "calls"),
    "newton.newton_step": ("s", "calls"),
    "verify.noise_scaling_linear": ("s",),
    "verify.forward_oracle_equivalence": ("s",),
    "verify.truncation_decay_slope": ("s",),
}
RECON_CASES = ("starfish", "starfish_arc", "kite")


def _per_layer_spec():
    spec = {}
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            spec[f"{name}.{f}"] = ("s/round", "lower") if f != "calls" else ("calls/round", "lower")
    spec.update({
        "specfun.hankel1.values": ("values/round", "lower"),
        "specfun.hankel1.calls_per_iter": ("calls/iter", "lower"),
        "elastic.green_tensor.pairs": ("pairs/round", "lower"),
        "elastic.green_tensor.pairs_per_record": ("pairs/record", "lower"),
        "forward.lstsq_per_record": ("calls/record", "lower"),
        "forward.mfs_residual_max": ("1", "lower"),
        "records.load.s": ("s", "lower"),
        "trace.overhead_s": ("s/round", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
    })
    for case in RECON_CASES:
        spec[f"newton.bc_residual_last.{case}"] = ("1", "lower")
        spec[f"hausdorff.{case}"] = ("1", "lower")
    return spec


PER_LAYER = _per_layer_spec()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap OpenBLAS at nproc threads; must run before numpy is imported."""
    cap = nproc()
    try:
        current = int(os.environ.get("OPENBLAS_NUM_THREADS", ""))
    except ValueError:
        current = 0
    if not 0 < current <= cap:
        os.environ["OPENBLAS_NUM_THREADS"] = str(cap)


class MissingProgram(Exception):
    pass


def import_program():
    """Import elshape from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "elshape" / "__init__.py").is_file():
        raise MissingProgram(f"no elshape sources under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import elshape

    if Path(elshape.__file__).resolve().parent != (SRC / "elshape").resolve():
        raise MissingProgram(f"imported elshape from {elshape.__file__}, not {SRC}")


def setup(workload_name: str, seed: int):
    """Import, load the stored records, build the inputs, one warm-up call."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    t_load = time.perf_counter()
    records = workloads.load_records()
    load_s = time.perf_counter() - t_load
    workload = workloads.WORKLOADS[workload_name](seed, records)
    workload.warmup()
    return workload, time.perf_counter() - t0, load_s


def probe_setup(workload_name: str, seed: int) -> dict:
    """Set-up seconds, raw and rescaled to the reference host, of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


class HostSpeed:
    """A fixed reference kernel that tracks how fast the host runs right now.

    On a shared host the speed of every process drifts by tens of percent
    over tens of seconds.  The kernel does no elshape work: scipy Hankel
    values, a complex least-squares solve of the size the MFS uses, and a
    loop of small-array numpy calls like the modal and Newton layers make.
    `closed_loop` times it around every call and rescales the call's
    seconds to a host on which the kernel takes REF_S.  That removes the
    host's drift but no change to elshape.
    """

    def __init__(self):
        import numpy as np
        from scipy import special

        rng = np.random.default_rng(0)
        self._np = np
        self._hankel1 = special.hankel1
        self._orders = np.arange(20)[:, None]
        self._t = np.linspace(0.5, 30.0, 2000)
        self._a = rng.standard_normal((512, 256)) + 1j * rng.standard_normal((512, 256))
        self._b = rng.standard_normal(512) + 0j
        self._small = rng.standard_normal((8, 64))
        self.sample(0.0)  # the first solve starts the BLAS threads

    def _once(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        self._hankel1(self._orders, self._t)
        np.linalg.lstsq(self._a, self._b, rcond=None)
        for i in range(2000):
            x = self._small[i % 8]
            np.sum(np.abs(np.exp(1j * x) * x))
        return time.perf_counter() - t0

    def sample(self, seconds: float) -> list:
        """Kernel times, repeated for at least `seconds` (at least once)."""
        times = [self._once()]
        while sum(times) < seconds:
            times.append(self._once())
        return times


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def call_once(case, tracer=None, run_id=None) -> dict:
    if tracer is not None:
        tracer.run_id = run_id
    t0 = time.perf_counter()
    try:
        out = case.call()
        failures = []
    except Exception:
        out, failures = None, [f"{case.name}: raised\n{traceback.format_exc()}"]
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.paused = True
    try:
        if out is not None:
            failures = case.check(out)
        steps = case.steps(out) if out is not None else 0
    except Exception:
        steps, failures = 0, [f"{case.name}: output check raised\n{traceback.format_exc()}"]
    finally:
        if tracer is not None:
            tracer.paused = False
    return {"case": case.name, "seconds": seconds, "steps": steps, "failures": failures}


def closed_loop(workload, seconds: float, speed: HostSpeed, tracer=None) -> list:
    """Call the cases in turn until `seconds` passed and each case ran once.

    The HostSpeed kernel is timed before the first call and, for REF_SHARE
    of each call's duration, after every call.  A call's `scaled_s` is its
    seconds times REF_S over the mean of the median kernel times right
    before and right after it.
    """
    calls = []
    before = statistics.median(speed.sample(REF_START_S))
    deadline = time.perf_counter() + seconds
    cases = workload.cases

    def step(case):
        nonlocal before
        call = call_once(case, tracer, len(calls))
        after = statistics.median(speed.sample(REF_SHARE * call["seconds"]))
        call["ref_s"] = 0.5 * (before + after)
        call["scaled_s"] = call["seconds"] * REF_S / call["ref_s"]
        calls.append(call)
        before = after

    while len(calls) < len(cases) or time.perf_counter() < deadline:
        step(cases[len(calls) % len(cases)])
    for case in cases:
        if case.repeat and sum(c["case"] == case.name for c in calls) < 2:
            step(case)
    return calls


def per_case(calls, key) -> dict:
    """case -> median of `key` over its calls."""
    by_case = {}
    for c in calls:
        by_case.setdefault(c["case"], []).append(c[key])
    return {name: statistics.median(v) for name, v in by_case.items()}


def round_seconds(calls) -> float:
    """Rescaled seconds of one call of every case (sum of per-case medians)."""
    return sum(per_case(calls, "scaled_s").values())


def end_to_end(calls, setup_s: float) -> dict:
    times = per_case(calls, "scaled_s")
    steps = per_case(calls, "steps")
    failed = sum(bool(c["failures"]) for c in calls)
    return {
        "setup_s": setup_s,
        "call_s": statistics.fmean(times.values()),
        "steps_per_s": sum(steps.values()) / sum(times.values()),
        "steps": float(sum(steps.values())),
        "ok_frac": 1.0 - failed / len(calls),
    }


def per_layer(calls, tracer, untraced_round_s: float, load_s: float, outputs: dict) -> dict:
    """Per-layer figures per round (one call of every case) of the traced pass."""
    n_calls = {}
    for c in calls:
        n_calls[c["case"]] = n_calls.get(c["case"], 0) + 1
    case_of = [c["case"] for c in calls]

    totals = {}
    for run, layers in tracer.layer_times().items():
        weight = 1.0 / n_calls[case_of[run]]
        for name, (incl, self_s, count) in layers.items():
            for field, value in (("s", incl), ("self_s", self_s), ("calls", count)):
                key = f"{name}.{field}"
                totals[key] = totals.get(key, 0.0) + weight * value
    for run, counts in tracer.counts.items():
        weight = 1.0 / n_calls[case_of[run]]
        for key, value in counts.items():
            totals[key] = totals.get(key, 0.0) + weight * value

    m = {name: totals.get(name, 0.0) for name in PER_LAYER}
    iters = m["newton.newton_step.calls"]  # one Newton step per iteration
    records = m["forward.simulate.calls"]
    m["specfun.hankel1.calls_per_iter"] = m["specfun.hankel1.calls"] / iters if iters else 0.0
    m["elastic.green_tensor.pairs_per_record"] = (
        m["elastic.green_tensor.pairs"] / records if records else 0.0
    )
    m["forward.lstsq_per_record"] = m["forward.lstsq.calls"] / records if records else 0.0
    m["forward.mfs_residual_max"] = max(
        (last.get("forward.mfs_residual_max", 0.0) for last in tracer.values.values()), default=0.0
    )
    for case in RECON_CASES:
        runs = [r for r, name in enumerate(case_of) if name == case and r in tracer.values]
        m[f"newton.bc_residual_last.{case}"] = (
            tracer.values[runs[-1]].get("newton.bc_residual_last", 0.0) if runs else 0.0
        )
        m[f"hausdorff.{case}"] = outputs.get(case, {}).get("hausdorff", 0.0)
    m["records.load.s"] = load_s
    traced_round_s = round_seconds(calls)
    m["trace.overhead_s"] = traced_round_s - untraced_round_s
    m["trace.overhead_frac"] = (traced_round_s - untraced_round_s) / untraced_round_s
    return m


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def print_table(name, args, metrics, calls, env, setups) -> None:
    err = sys.stderr
    print(f"{name}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}  "
          f"calls={len(calls)}", file=err)
    if args.trace:
        for key, value in metrics.items():
            print(f"  {key:44s} {value:14.6g} {PER_LAYER[key][0]}", file=err)
    else:
        alias = dict(zip(("call_s", "steps_per_s", "steps"), ALIASES[name]))
        for key, value in metrics.items():
            label = f"{alias[key]} ({key})" if key in alias else key
            print(f"  {label:44s} {value:14.6g} {END_TO_END[key][0]}", file=err)
        failed = sum(bool(c["failures"]) for c in calls)
        print(f"  {'failed_frac':44s} {failed / len(calls):14.6g} fraction", file=err)
    print("  seconds on this host (not rescaled):", file=err)
    raw_setup = statistics.median(p["raw_s"] for p in setups)
    print(f"    setup{'':21s} median {raw_setup:10.4f} s", file=err)
    for case, secs in per_case(calls, "seconds").items():
        print(f"    case {case:20s} median {secs:10.4f} s", file=err)
    for c in calls:
        for f in c["failures"]:
            print(f"  FAILED {f}", file=err)
    print("  env " + json.dumps(env), file=err)


def write_artifacts(name, args, timings: dict, workload, tracer, traced_calls) -> None:
    out = OUT / name
    out.mkdir(parents=True, exist_ok=True)
    stem = f"seed{args.seed}-trace{args.trace}"
    with open(out / f"result-{stem}.json", "w") as fh:
        json.dump(timings, fh, indent=1)
    # deterministic: the same seed and code give the same bytes
    with open(out / f"outputs-{stem}.json", "w") as fh:
        json.dump(workload.outputs, fh, indent=1, sort_keys=True)
    if tracer is not None:
        # counts of each case's first traced call: repeats of a call count the same
        counts = {}
        for run_id, call in enumerate(traced_calls):
            counts.setdefault(call["case"], dict(tracer.counts.get(run_id, {})))
        with open(out / f"counts-{stem}.json", "w") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
        with open(out / "spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


def run_workload(name: str, args) -> dict:
    workload, _, load_s = setup(name, args.seed)
    import spans

    env = environment()
    setups = [probe_setup(name, args.seed) for _ in range(SETUP_SAMPLES)]
    speed = HostSpeed()
    tracer = None
    if not args.trace:
        calls = closed_loop(workload, args.seconds, speed)
        metrics = end_to_end(calls, statistics.median(p["setup_s"] for p in setups))
        all_calls = calls
    else:
        untraced = closed_loop(workload, args.seconds / 2.0, speed)
        with spans.install(spans.Tracer()) as tracer:
            calls = closed_loop(workload, args.seconds / 2.0, speed, tracer)
        metrics = per_layer(calls, tracer, round_seconds(untraced), load_s, workload.outputs)
        all_calls = untraced + calls
    failed = sum(bool(c["failures"]) for c in all_calls)
    result = {
        "correct": failed == 0,
        "attempted": len(all_calls),
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": (PER_LAYER if args.trace else END_TO_END)[k][0]}
            for k, v in metrics.items()
        },
    }
    print_table(name, args, metrics, all_calls, env, setups)
    timings = {"env": env, "result": result, "ref_s": REF_S, "setups": setups,
               "calls": all_calls}
    write_artifacts(name, args, timings, workload, tracer, calls)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cap_blas_threads()
    try:
        if args.setup_probe:
            _, raw_s, _ = setup(args.workload, args.seed)
            ref = statistics.median(HostSpeed().sample(REF_START_S))
            print(json.dumps({"setup_s": raw_s * REF_S / ref, "raw_s": raw_s, "ref_s": ref}))
            return 0
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args) for name in names}
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
