"""tools/outputs_digest.py: two checkouts' outputs compared bit for bit."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PATH = ROOT / "tools" / "outputs_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("outputs_digest", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_this_checkout_matches_itself():
    proc = subprocess.run([sys.executable, str(PATH), str(ROOT), str(ROOT), "--seeds", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("0 of ") and lines[0].endswith("(seeds 1)")


def test_differences_name_changed_and_one_sided_outputs(digest):
    a = {"same": "1", "moved": "2", "only_a": "3"}
    b = {"same": "1", "moved": "4", "only_b": "5"}
    assert digest.differences(a, b) == ["moved", "only_a", "only_b"]


def test_arrays_digest_by_dtype_shape_and_bits(digest):
    import numpy as np

    x = np.array([1.0, 2.0])
    assert digest._digest(x) == digest._digest(x.copy())
    assert digest._digest(x) != digest._digest(x.astype(complex))
    assert digest._digest(x) != digest._digest(x.reshape(2, 1))
    assert digest._digest(x) != digest._digest(np.nextafter(x, 3.0))
    assert digest._digest((x, "a")) != digest._digest((x, "b"))
