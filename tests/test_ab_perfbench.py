"""The A/B summary of tools/ab_perfbench.py (no benchmark is run)."""

import importlib.util
import json
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
        ab.main([str(tmp_path), str(tmp_path), "--workload", "all"])
    assert exc.value.code == 2 and "one of w" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        ab.main([str(tmp_path), str(tmp_path), "--workload", "w", "--seconds", "20"])
    assert ab.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "2"]) == 0
    assert runs == [("w", 7)] * 4
