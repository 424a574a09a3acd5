"""Guards on the package surface that other code looks up by name.

The demos and the README import from ``elshape`` and its modules, and the
benchmark tracer (``perfbench/spans.py``) swaps module attributes where
the pipeline looks them up.  Deleting any of those names breaks them
outside this suite; these tests make it break here too.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

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


def test_tracer_lookup_sites_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    from elshape import forward, newton

    original = forward.simulate, newton.reconstruct
    spans.install(spans.Tracer()).close()
    assert (forward.simulate, newton.reconstruct) == original
