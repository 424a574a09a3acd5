"""A seeded fuzz of the command line: a malformed record or config ends in a
documented exit code (0, 2, 3 or 4), never in a traceback or a warning; and of
the sweep parser: a malformed sweep file is a ``SweepSpec`` or a ``ConfigError``."""

import json
import random
import time
import warnings

import pytest

from elshape.cli import main
from elshape.errors import ConfigError
from elshape.sweep import SweepSpec, parse_sweep_text

#: a small disk run: two sources, 16 receivers, five modes, one Newton iterate
CFG = """shape = disk
shape.radius = 1.0
lame.omega = 1.0
delta = 0.0
guess.radius = 2.0
truncation.mode = fixed
truncation.n = 5
max_iter = 1
n_sources = 2
n_receivers = 16
"""
#: what a record leaf becomes: non-finite, huge finite (1e160 and up overflow
#: the Newton system's squares), tiny, and mistyped JSON values
BAD_VALUES = [float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 1e300, 1e200, 1e160,
              1e-320, 0.0, -1.0, "x", True, None, [], {}]
#: what a config value becomes
BAD_TOKENS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1", "0.5", "", "x",
              "true", "[1]", "1e200", "disk", "kite"]
EXIT_CODES = {0, 2, 3, 4}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The config file and the JSON of its forward record."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "clean.cfg"
    cfg.write_text(CFG)
    assert main(["forward", "--config", str(cfg), "--out-dir", str(root)]) == 0
    return cfg, json.loads((root / "record.json").read_text())


def _slots(node):
    """Every (container, key) of a JSON document, leaves and inner nodes alike."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


def _mutated_record(rng, doc):
    """doc with one slot replaced by a bad value, deleted, or (in a dict) renamed,
    and what was done."""
    doc = json.loads(json.dumps(doc))
    node, key = rng.choice(list(_slots(doc)))
    how = rng.random()
    if how < 0.8:
        node[key] = rng.choice(BAD_VALUES)
        return doc, f"{key!r} = {node[key]!r}"
    if how < 0.9 or not isinstance(node, dict):
        del node[key]
        return doc, f"del {key!r}"
    node[key + "_"] = node.pop(key)
    return doc, f"rename {key!r}"


def _mutated_config(rng):
    """CFG with one or two values set to a bad token, a line dropped, or a key added."""
    lines = CFG.splitlines()
    for _ in range(rng.choice([1, 2])):
        i = rng.randrange(len(lines))
        how = rng.random()
        if how < 0.8:
            lines[i] = lines[i].split("=")[0] + "= " + rng.choice(BAD_TOKENS)
        elif how < 0.9:
            del lines[i]
        else:
            lines.append("unknown.key = 1")
    return "\n".join(lines) + "\n"


def _run(argv, failures, case):
    """main(argv) with every warning an error; an escape or a bad code is a failure."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        if code not in EXIT_CODES:
            failures.append((case, f"exit {code!r}"))
    except Exception as exc:  # any escape is the finding
        failures.append((case, repr(exc)))


def test_malformed_inputs_end_in_an_exit_code(clean, tmp_path, capsys):
    cfg, doc = clean
    rng, failures, cases = random.Random(20261020), [], 0
    out, rec, bad_cfg = tmp_path / "out", tmp_path / "rec.json", tmp_path / "bad.cfg"
    start = time.perf_counter()
    for case in range(210):
        bad, what = _mutated_record(rng, doc)
        rec.write_text(json.dumps(bad))
        _run(["reconstruct", "--config", str(cfg), "--record", str(rec), "--out-dir", str(out)],
             failures, ("record", case, what))
        cases += 1
    rec.write_text(json.dumps(doc))
    for case in range(90):
        text = _mutated_config(rng)
        bad_cfg.write_text(text)
        command = rng.choice(["forward", "reconstruct"])
        argv = [command, "--config", str(bad_cfg), "--out-dir", str(out)]
        _run(argv + (["--record", str(rec)] if command == "reconstruct" else []), failures,
             ("config", case, command, text))
        cases += 1
    seconds = time.perf_counter() - start
    capsys.readouterr()
    assert not failures, failures[:5]
    assert cases >= 300
    print(f"{cases} fuzz cases in {seconds:.2f} s")


#: a sweep file: CFG under the practical truncation rule, plus the three lists
SWEEP = CFG.replace("truncation.mode = fixed\ntruncation.n = 5\n", "truncation.mode = practical\n") + (
    "sweep.apertures = 0:6.283185307179586; 0.785398:5.497787\n"
    "sweep.deltas = 0.01, 0.05, 0.1\n"
    "sweep.seeds = 1, 2, 3\n"
)
#: what a sweep list entry becomes
BAD_ENTRIES = BAD_TOKENS + ["1:2:3", ":", "0:", ":1", "nan:1", "1e308:1e309", "6:1", "0:7",
                            "-0.5", "1.5", "3, 3", ";", ",", ",,", "1;2", "0:1, 2:3", "1e-320",
                            "0x10", "1_000", "+1", " "]


def _mutated_sweep(rng):
    """SWEEP with one to three edits: a list entry set to a bad one, an entry
    repeated, a separator swapped, a line dropped or repeated, or a value set to a
    bad token."""
    lines = SWEEP.splitlines()
    for _ in range(rng.choice([1, 2, 3])):
        i = rng.randrange(len(lines))
        key, _, value = lines[i].partition("=")
        how = rng.random()
        if how < 0.4 and key.startswith("sweep."):
            sep = ";" if "apertures" in key else ","
            entries = value.split(sep)
            entries[rng.randrange(len(entries))] = " " + rng.choice(BAD_ENTRIES)
            lines[i] = key + "=" + sep.join(entries)
        elif how < 0.5 and key.startswith("sweep."):
            lines[i] += (";" if "apertures" in key else ",") + value.split(";")[0].split(",")[-1]
        elif how < 0.6:
            swap = rng.choice([(",", ";"), (";", ","), (":", ","), (",", ":")])
            lines[i] = key + "=" + value.replace(*swap)
        elif how < 0.7:
            del lines[i]
        elif how < 0.8:
            lines.append(lines[i])
        else:
            lines[i] = key + "= " + rng.choice(BAD_TOKENS)
    return "\n".join(lines) + "\n"


def test_malformed_sweep_text_is_a_spec_or_a_config_error():
    rng, failures, outcomes = random.Random(20261021), [], {"spec": 0, "refused": 0}
    start = time.perf_counter()
    for case in range(200):
        text = _mutated_sweep(rng)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                spec = parse_sweep_text(text)
            assert isinstance(spec, SweepSpec)
            outcomes["spec"] += 1
        except ConfigError:
            outcomes["refused"] += 1
        except Exception as exc:  # any other escape is the finding
            failures.append((case, text, repr(exc)))
    seconds = time.perf_counter() - start
    assert not failures, failures[:5]
    assert outcomes["spec"] > 0 and outcomes["refused"] > 0
    print(f"200 sweep-text cases in {seconds:.2f} s: {outcomes}")
