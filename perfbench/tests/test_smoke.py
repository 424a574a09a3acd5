"""Reduced benchmark runs: every metric of BENCHMARK.json is emitted with
its unit, a wrong disk record counts as failed, and a tree without the
program is refused.

Run from the repository root (about two minutes):

    python3 -m pytest perfbench/tests
"""

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from elshape import forward

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize(
    "workload, trace",
    [("forward-mfs", 0), ("reconstruct", 0), ("verify-battery", 0), ("reconstruct", 1)],
)
def test_reduced_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_perturbed_disk_record_is_counted_as_failed(monkeypatch):
    simulate = forward.simulate

    def perturbed(*args, **kwargs):
        rec = simulate(*args, **kwargs)
        return dataclasses.replace(rec, values=rec.values * (1.0 + 1e-4))

    monkeypatch.setattr(forward, "simulate", perturbed)
    monkeypatch.setattr(workloads, "FORWARD_SHAPES", {"disk": workloads.FORWARD_SHAPES["disk"]})
    args = argparse.Namespace(seed=99, seconds=0.0, trace=0)
    result = run.run_workload("forward-mfs", args)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_tree_without_the_program_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "reconstruct", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
