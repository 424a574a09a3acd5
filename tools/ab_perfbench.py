"""Alternating A/B runs of the benchmark in two checkouts.

Runs `perfbench/run.py` (end-to-end metrics, `--trace 0`) in checkout A
(the parent) and checkout B (the change) for N pairs.  Pair i uses seed
`--seed + i` on both sides, and the side that runs first alternates, so
slow drift of the host falls on both sides alike.  Only the last line of
each run's stdout (its JSON result) is read.  For every end-to-end metric
the script prints each side's median and quartiles, the pairs B wins
(ties count for neither side) and whether B's gain clears the bar: a win
in at least nine tenths of the pairs, medians further apart than the
distance between A's quartiles, and no more failed operations than A.
It also prints a no-regression verdict against the metric's relative
`bound`: `worse` when B's median is worse than A's by more than
bound x |A median|, else `unresolved` when A's quartile spread is wider
than that (unless every B run beats every A run), else `ok`.
The workload names, each run's length (`run_seconds`) and each metric's
direction and bound come from `BENCHMARK.json` in checkout B; a metric
it does not name is an error, and one without a bound gets no verdict.
Run from anywhere:

    python tools/ab_perfbench.py ../parent . --workload forward-mfs --pairs 10
    python tools/ab_perfbench.py ../parent . --workload all --pairs 10

`--workload all` runs the same pairs and seeds for every workload of
`BENCHMARK.json` in turn (all pairs of one workload, then the next) and
prints one table per workload.

`--json PATH` also writes one JSON document for the invocation: both
checkouts' labels (`git describe --always --dirty`, a dirty checkout's
followed by `-` and the first 12 hex digits of the SHA-256 of its
`git diff HEAD`, or the directory name of a root that is not a git
checkout), `run_seconds`, and per workload
each pair's seed, order, load, both sides' metrics, failed counts and
`env` (read from the run's
`perfbench/out/<workload>/result-seed<seed>-trace0.json`, null when that
file is absent), then per metric the quartiles, wins, losses, gain and
verdict that the table prints (verdict null where the metric has no bound):

    python tools/ab_perfbench.py ../parent . --workload all --json BENCH_tag.json

A warning goes to stderr when the 1-minute load average is above 0.5
before the first run: the benchmark's host-speed rescaling does not absorb
concurrent load, so a run on a busy host can read far too fast or too
slow.  Later runs are not checked, since the average then still holds the
load of the run before; each pair's line shows the average it started at.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: 1-minute load average above which the host counts as busy
LOAD_WARN = 0.5
#: share of pairs the change must win to claim a gain
WIN_SHARE = 0.9
#: keys of each side's quartiles in the `--json` document
QUARTILES = ("q1", "median", "q3")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One benchmark run in `root`: (metrics as name -> value, failed count)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run in {root} failed (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result["failed"]


def run_env(root: Path, workload: str, seed: int):
    """The `env` block of the untraced run's result file in `root`, or None."""
    path = root / "perfbench" / "out" / workload / f"result-seed{seed}-trace0.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh).get("env")


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, better: dict, failed: tuple) -> list:
    """One row per metric: medians, quartiles, wins and whether B gained.

    `better` maps each metric to "lower" or "higher"; `failed` holds the
    failed operations of all of A's runs and all of B's.  B gains on no
    metric when it failed more often than A, in count or in median ok_frac.
    """
    fails_more = failed[1] > failed[0]
    if "ok_frac" in pairs[0][0]:
        fails_more |= (statistics.median(p[1]["ok_frac"] for p in pairs)
                       < statistics.median(p[0]["ok_frac"] for p in pairs))
    rows = []
    for name in pairs[0][0]:
        a = [p[0][name] for p in pairs]
        b = [p[1][name] for p in pairs]
        sign = {"lower": -1.0, "higher": 1.0}[better[name]]
        wins = sum(sign * (vb - va) > 0.0 for va, vb in zip(a, b))
        losses = sum(sign * (vb - va) < 0.0 for va, vb in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        gain = (not fails_more and wins >= WIN_SHARE * len(pairs)
                and sign * (qb[1] - qa[1]) > qa[2] - qa[0])
        rows.append((name, qa, qb, wins, losses, gain))
    return rows


def verdict(a, b, better: str, bound: float) -> str:
    """"worse", "unresolved" or "ok" for B's runs `b` against A's runs `a`."""
    sign = {"lower": -1.0, "higher": 1.0}[better]
    qa, qb = quartiles(a), quartiles(b)
    tol = bound * abs(qa[1])
    if sign * (qb[1] - qa[1]) < -tol:
        return "worse"
    if qa[2] - qa[0] > tol and not min(sign * x for x in b) > max(sign * x for x in a):
        return "unresolved"
    return "ok"


def compare(roots, workload: str, pairs: int, first_seed: int, seconds: float,
            better: dict, bounds: dict) -> dict:
    """Run `pairs` alternating pairs of `workload`, print their table and
    return it as the workload's part of the `--json` document."""
    runs, failed, records = [], [0, 0], []
    for i in range(pairs):
        seed = first_seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        load = os.getloadavg()[0]
        got, n_failed, env = {}, {}, {}
        for side in order:
            got[side], n_failed[side] = run_once(roots[side], workload, seed, seconds)
            env[side] = run_env(roots[side], workload, seed)
            failed[side] += n_failed[side]
        runs.append((got[0], got[1]))
        order_name = "AB" if order == (0, 1) else "BA"
        records.append({"seed": seed, "order": order_name, "load": load, **{
            side: {"metrics": got[k], "failed": n_failed[k], "env": env[k]}
            for k, side in enumerate("AB")}})
        print(f"{workload} pair {i + 1} seed {seed} ({order_name}, "
              f"load {load:.2f}): call_s A {got[0]['call_s']:.5f}  B {got[1]['call_s']:.5f}",
              flush=True)

    print(f"\n{workload}: {pairs} pairs of {seconds:g}-s runs; "
          f"failed operations A {failed[0]}, B {failed[1]}")
    print(f"{'metric':12s} {'A q1':>10s} {'A median':>10s} {'A q3':>10s} "
          f"{'B q1':>10s} {'B median':>10s} {'B q3':>10s}  B wins  B loses  gain  verdict")
    metrics = {}
    for name, qa, qb, wins, losses, gain in summarize(runs, better, tuple(failed)):
        sides = ([p[0][name] for p in runs], [p[1][name] for p in runs])
        judged = None if bounds[name] is None else verdict(*sides, better[name], bounds[name])
        metrics[name] = {"A": dict(zip(QUARTILES, qa)), "B": dict(zip(QUARTILES, qb)),
                         "wins": wins, "losses": losses, "gain": gain, "verdict": judged}
        print(f"{name:12s} {qa[0]:10.5g} {qa[1]:10.5g} {qa[2]:10.5g} "
              f"{qb[0]:10.5g} {qb[1]:10.5g} {qb[2]:10.5g}  {wins:6d}  {losses:7d}  "
              f"{'yes' if gain else 'no':4s}  {judged or '-'}", flush=True)
    return {"pairs": records, "failed": {"A": failed[0], "B": failed[1]}, "metrics": metrics}


def label(root: Path) -> str:
    """`git describe --always --dirty` of the checkout at `root`, a dirty one
    followed by the first 12 hex digits of the SHA-256 of its `git diff HEAD`
    so that the label names the measured tree, or the directory name when
    `root` is not a git checkout."""
    if (root / ".git").exists():
        git = ["git", "-C", str(root)]
        proc = subprocess.run(git + ["describe", "--always", "--dirty"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            name = proc.stdout.strip()
            if name.endswith("-dirty"):
                diff = subprocess.run(git + ["diff", "--binary", "HEAD"], capture_output=True,
                                      check=True).stdout
                name += "-" + hashlib.sha256(diff).hexdigest()[:12]
            return name
    return root.name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout A, the parent")
    parser.add_argument("change", type=Path, help="checkout B, the change")
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or all of them in turn")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--json", type=Path, help="also write the pairs and tables here")
    args = parser.parse_args(argv)
    roots = (args.parent.resolve(), args.change.resolve())
    with open(roots[1] / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be all or one of {', '.join(names)}")
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    load = os.getloadavg()[0]
    if load > LOAD_WARN:
        print(f"warning: load average {load:.2f} > {LOAD_WARN}: the host is busy, "
              "so the runs may not be comparable", file=sys.stderr)
    labels = [label(root) for root in roots]
    print(f"A = {labels[0]}, B = {labels[1]}")
    tables = {}
    for i, workload in enumerate(names if args.workload == "all" else [args.workload]):
        if i:
            print()
        tables[workload] = compare(roots, workload, args.pairs, args.seed, bench["run_seconds"],
                                   better, bounds)
    if args.json is not None:
        doc = {"A": labels[0], "B": labels[1], "run_seconds": bench["run_seconds"],
               "workloads": tables}
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
