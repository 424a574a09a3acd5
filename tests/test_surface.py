"""Guards on the package surface that other code looks up by name.

The demos and the README import from ``elshape`` and its modules, and the
benchmark tracer (``perfbench/spans.py``) swaps module attributes where
the pipeline looks them up.  Deleting any of those names breaks them
outside this suite; these tests make it break here too.  Each demo also
runs end to end, so that a changed signature breaks here and not only in
the demo.
"""

import ast
import importlib
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from elshape.config import _MFS_BY_SHAPE

ROOT = Path(__file__).resolve().parent.parent


def _python_sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md block {i}", block


def _elshape_imports(text):
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "elshape" or node.module.startswith("elshape.")
        ):
            for alias in node.names:
                yield node.module, alias.name


SOURCES = list(_python_sources())


def test_readme_has_a_python_example():
    assert any(name.startswith("README") for name, _ in SOURCES)


@pytest.mark.parametrize("name,text", SOURCES, ids=[name for name, _ in SOURCES])
def test_imported_names_resolve(name, text):
    imports = list(_elshape_imports(text))
    assert imports, f"{name} imports nothing from elshape"
    missing = [
        f"{module}.{attr}" for module, attr in imports
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, f"{name} imports names that do not exist: {missing}"


def _load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_lookup_sites_exist():
    """install wraps the names the traced benchmark run looks up, including
    newton's tracer-only imports that nothing in the package calls, and
    close puts every one back."""
    spans = _load_by_path("perfbench_spans", ROOT / "perfbench" / "spans.py")

    from elshape import elastic, forward, modal, newton, specfun, verify

    modules = (elastic, forward, modal, newton, specfun, verify)
    before = {m: dict(vars(m)) for m in modules}
    checks = list(verify.ALL_CHECKS)
    tracer = spans.install(spans.Tracer())
    try:
        for owner, name in [
            (newton, "eval_gradient"), (newton, "eval_field"), (newton, "grad_incident_field"),
            (newton, "incident_field"), (newton, "assemble_system"), (newton, "newton_step"),
            (newton, "extract_field"), (verify, "solve_mfs"), (verify, "eval_gradient"),
        ]:
            assert getattr(owner, name).__wrapped__ is before[owner][name], f"{owner.__name__}.{name}"
    finally:
        tracer.close()
    assert {m: dict(vars(m)) for m in modules} == before
    assert verify.ALL_CHECKS == checks


def test_benchmark_mfs_triples_are_config_defaults(monkeypatch):
    """The benchmark simulates each shape with the MFS (n_collocation,
    n_charges, shrink) that a config of that shape uses."""
    make_records = _load_by_path("make_records", ROOT / "perfbench" / "make_records.py")
    # workloads imports make_records by module name
    monkeypatch.setitem(sys.modules, "make_records", make_records)
    workloads = _load_by_path("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    triples = [(shape, mfs) for shape, _, mfs, _ in make_records.RECORD_SPECS.values()]
    triples += [(shape, mfs) for shape, (_, _, mfs) in workloads.FORWARD_SHAPES.items()]
    assert {shape for shape, _ in triples} == {"disk", "starfish", "kite"}
    for shape, mfs in triples:
        assert mfs == _MFS_BY_SHAPE[shape], shape


DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a copy, so the demo writes its out_* files into tmp_path
    script = shutil.copy(demo, tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


SCIPY_FREE_RUN = """
import sys

import elshape, elshape.cli
from elshape import ReconstructionConfig, make_record, reconstruct, solve_truth
from elshape.elastic import LameSystem
from elshape.forward import ring_sources, simulate
from elshape.geometry import disk

sys_ = LameSystem(1.0, 1.0, 1.0)
rec = simulate(disk(1.0), ring_sources(4, 3.0, (1.0, 0.0)), sys_, 3.0, 32, warn_above=None)
cfg = ReconstructionConfig({"shape": "starfish", "n_sources": 4, "max_iter": 3})
run = reconstruct(make_record(cfg, solve_truth(cfg)), cfg)
print(run.iterations, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_solver_path_imports_no_scipy():
    """Importing elshape and its CLI, a disk simulate and a starfish
    reconstruct run on numpy alone; scipy serves only the oracle and the
    battery."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    iterations, scipy_modules = proc.stdout.split(" ", 1)
    assert int(iterations) >= 1
    assert scipy_modules.strip() == "[]"


def test_readme_key_table_is_the_schema():
    """The README's config table lists every CONFIG_SCHEMA key in order,
    each default written as a config file would spell it."""
    from elshape.config import CONFIG_SCHEMA, parse_config_text

    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]*)` \|", readme, re.M)
    assert [key for key, _ in rows] == list(CONFIG_SCHEMA)
    for key, text in rows:
        assert parse_config_text(f"{key} = {text}") == {key: CONFIG_SCHEMA[key][1]}, key
