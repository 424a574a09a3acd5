"""The A/B summary of tools/ab_perfbench.py (no benchmark is run)."""

import importlib.util
import json
import re
import subprocess
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_perfbench.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_perfbench", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wins_follow_each_metrics_direction(ab):
    # call_s: lower is better; steps_per_s: higher is better; steps ties
    a = [0.060, 0.061, 0.062, 0.063, 0.064, 0.065, 0.066, 0.067, 0.068, 0.069]
    b = [x - 0.003 for x in a[:9]] + [0.070]
    pairs = [({"call_s": x, "steps_per_s": 1 / x, "steps": 60.0},
              {"call_s": y, "steps_per_s": 1 / y, "steps": 60.0}) for x, y in zip(a, b)]
    better = {"call_s": "lower", "steps_per_s": "higher", "steps": "lower"}
    rows = {row[0]: row[1:] for row in ab.summarize(pairs, better, (0, 0))}
    for name in ("call_s", "steps_per_s"):
        qa, qb, wins, losses, _ = rows[name]
        assert (wins, losses) == (9, 1)
    assert rows["steps"][2:4] == (0, 0)
    # 9 of 10 wins, but the medians lie closer than the parent's quartiles
    assert rows["call_s"][0] == pytest.approx((0.06225, 0.0645, 0.06675))
    assert not rows["call_s"][4]


def test_gain_needs_nine_tenths_and_the_spread(ab):
    a = [0.0630, 0.0632, 0.0628, 0.0631, 0.0629, 0.0630, 0.0633, 0.0627, 0.0630, 0.0631]
    pairs = [({"call_s": x}, {"call_s": x - 0.004}) for x in a]
    assert ab.summarize(pairs, {"call_s": "lower"}, (0, 0))[0][5]
    pairs[0] = ({"call_s": 0.0630}, {"call_s": 0.0640})
    pairs[1] = ({"call_s": 0.0632}, {"call_s": 0.0640})
    assert not ab.summarize(pairs, {"call_s": "lower"}, (0, 0))[0][5]


def test_no_gain_when_the_change_fails_more(ab):
    a = [0.0630, 0.0632, 0.0628, 0.0631, 0.0629, 0.0630, 0.0633, 0.0627, 0.0630, 0.0631]
    pairs = [({"call_s": x, "ok_frac": 1.0}, {"call_s": x - 0.004, "ok_frac": 1.0}) for x in a]
    better = {"call_s": "lower", "ok_frac": "higher"}
    assert ab.summarize(pairs, better, (0, 0))[0][5]
    assert ab.summarize(pairs, better, (1, 1))[0][5]
    assert not ab.summarize(pairs, better, (0, 1))[0][5]
    for i in range(6):
        pairs[i][1]["ok_frac"] = 0.99
    assert not ab.summarize(pairs, better, (0, 0))[0][5]


def test_metric_without_a_direction_is_an_error(ab):
    # what perfbench prints for --workload all: names prefixed by workload
    pairs = [({"call_s": 0.06, "forward-mfs.call_s": 0.06},
              {"call_s": 0.05, "forward-mfs.call_s": 0.05})]
    with pytest.raises(KeyError):
        ab.summarize(pairs, {"call_s": "lower"}, (0, 0))


def test_workload_and_run_length_come_from_the_benchmark(ab, tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "call_s", "better": "lower"}]}))
    runs = []
    monkeypatch.setattr(ab, "run_once", lambda root, workload, seed, seconds:
                        runs.append((workload, seconds)) or ({"call_s": 0.05}, 0))
    with pytest.raises(SystemExit) as exc:
        ab.main([str(tmp_path), str(tmp_path), "--workload", "nope"])
    assert exc.value.code == 2 and "all or one of w" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        ab.main([str(tmp_path), str(tmp_path), "--workload", "w", "--seconds", "20"])
    assert ab.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "2"]) == 0
    assert runs == [("w", 7)] * 4


def test_all_runs_every_workload_with_the_same_pairs(ab, tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    b.mkdir()
    (b / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7, "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "call_s", "better": "lower", "bound": 0.25}]}))
    runs = []

    def run_once(root, workload, seed, seconds):
        runs.append((root.name, workload, seed, seconds))
        return {"call_s": 0.05 if root.name == "a" else 0.04}, 0

    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main([str(a), str(b), "--workload", "all", "--pairs", "2", "--seed", "5"]) == 0
    # all pairs of one workload, then the next; each pair alternates the side that runs first
    assert runs == [(side, w, seed, 7) for w in ("w1", "w2")
                    for seed, order in ((5, "ab"), (6, "ba")) for side in order]
    out = capsys.readouterr().out
    tables = [line for line in out.splitlines() if line.startswith(("w1:", "w2:"))]
    assert [t.split(":")[0] for t in tables] == ["w1", "w2"]
    rows = [line.split() for line in out.splitlines() if line.startswith("call_s")]
    assert len(rows) == 2 and all(row[-2:] == ["yes", "ok"] for row in rows)


A_RUNS = [0.0630, 0.0632, 0.0628, 0.0631, 0.0629, 0.0630, 0.0633, 0.0627, 0.0630, 0.0631]


def test_verdict_worse_only_beyond_the_bound(ab):
    # median 0.0630: a 25% bound allows B up to 0.07875 for a lower-is-better metric
    assert ab.verdict(A_RUNS, [x * 1.2 for x in A_RUNS], "lower", 0.25) == "ok"
    assert ab.verdict(A_RUNS, [x * 1.3 for x in A_RUNS], "lower", 0.25) == "worse"
    assert ab.verdict(A_RUNS, [x * 0.7 for x in A_RUNS], "higher", 0.25) == "worse"
    assert ab.verdict(A_RUNS, [x * 0.8 for x in A_RUNS], "higher", 0.25) == "ok"
    # ok_frac: a 1% bound, and every run complete on both sides
    assert ab.verdict([1.0] * 10, [1.0] * 10, "higher", 0.01) == "ok"
    assert ab.verdict([1.0] * 10, [0.98] * 10, "higher", 0.01) == "worse"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound(ab):
    a = [0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12, 0.13, 0.14]
    # quartiles 0.0725 and 0.1175 are 47% of the median 0.095 apart
    assert ab.verdict(a, a, "lower", 0.25) == "unresolved"
    assert ab.verdict(a, a, "lower", 0.5) == "ok"
    # unless every B run beats every A run
    assert ab.verdict(a, [0.04] * 10, "lower", 0.25) == "ok"
    assert ab.verdict(a, [0.04] * 9 + [0.05], "lower", 0.25) == "unresolved"
    assert ab.verdict(a, [0.2] * 10, "higher", 0.25) == "ok"
    # a worse median is reported as worse even then
    assert ab.verdict(a, [0.2] * 10, "lower", 0.25) == "worse"


def test_verdict_column_uses_each_metrics_bound(ab, tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "call_s", "better": "lower", "bound": 0.25},
                       {"name": "steps", "better": "lower", "bound": 0.1},
                       {"name": "ok_frac", "better": "higher"}]}))
    runs = iter(range(8))

    def run_once(root, workload, seed, seconds):
        i = next(runs)  # pairs alternate AB, BA: runs 0, 3, 4, 7 are A's
        b_side = i in (1, 2, 5, 6)
        return {"call_s": 0.05, "steps": 12.0 if b_side else 10.0, "ok_frac": 1.0}, 0

    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "4"]) == 0
    rows = {line.split()[0]: line.split()[-1] for line in capsys.readouterr().out.splitlines()
            if line.split() and line.split()[0] in ("call_s", "steps", "ok_frac")}
    assert rows == {"call_s": "ok", "steps": "worse", "ok_frac": "-"}


def test_json_document_holds_pairs_tables_and_env(ab, tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    (b / "perfbench" / "out" / "w").mkdir(parents=True)
    (b / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "call_s", "better": "lower", "bound": 0.25},
                       {"name": "steps", "better": "lower"}]}))
    # only B's seed-3 run left a result file
    (b / "perfbench" / "out" / "w" / "result-seed3-trace0.json").write_text(
        json.dumps({"env": {"cpu": "x"}, "result": {}}))

    def run_once(root, workload, seed, seconds):
        return {"call_s": 0.05 if root.name == "a" else 0.04, "steps": 10.0}, int(seed == 4)

    monkeypatch.setattr(ab, "run_once", run_once)
    path = tmp_path / "bench.json"
    assert ab.main([str(a), str(b), "--workload", "w", "--pairs", "2", "--seed", "3",
                    "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    # neither root is a git checkout: each side is labelled by its directory name
    assert (doc["A"], doc["B"], doc["run_seconds"]) == ("a", "b", 7)
    assert str(tmp_path) not in path.read_text()
    w = doc["workloads"]["w"]
    assert [(p["seed"], p["order"]) for p in w["pairs"]] == [(3, "AB"), (4, "BA")]
    first = w["pairs"][0]
    assert first["A"] == {"metrics": {"call_s": 0.05, "steps": 10.0}, "failed": 0, "env": None}
    assert first["B"]["env"] == {"cpu": "x"} and w["pairs"][1]["B"]["env"] is None
    assert w["failed"] == {"A": 1, "B": 1}
    assert w["metrics"]["call_s"] == {
        "A": {"q1": 0.05, "median": 0.05, "q3": 0.05},
        "B": {"q1": 0.04, "median": 0.04, "q3": 0.04},
        "wins": 2, "losses": 0, "gain": True, "verdict": "ok"}
    assert w["metrics"]["steps"]["verdict"] is None
    # the table prints the same figures
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] in (["call_s"], ["steps"])}
    assert rows["call_s"][-4:] == ["2", "0", "yes", "ok"] and rows["steps"][-1] == "-"


def test_dirty_label_names_the_diff(ab, tmp_path):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    (tmp_path / "f.py").write_text("x = 1\n")
    subprocess.run(git + ["add", "f.py"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], check=True)
    head = subprocess.run(git + ["describe", "--always"], capture_output=True, text=True,
                          check=True).stdout.strip()
    assert ab.label(tmp_path) == head
    labels = []
    for edit in ("x = 2\n", "x = 3\n"):
        (tmp_path / "f.py").write_text(edit)
        labels.append(ab.label(tmp_path))
    assert labels[0] != labels[1]
    assert all(re.fullmatch(re.escape(head) + r"-dirty-[0-9a-f]{12}", name) for name in labels)
    # the same edit gives the same label; undoing it gives the plain describe
    (tmp_path / "f.py").write_text("x = 2\n")
    assert ab.label(tmp_path) == labels[0]
    (tmp_path / "f.py").write_text("x = 1\n")
    assert ab.label(tmp_path) == head
