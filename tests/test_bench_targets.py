"""The traced benchmark run rebinds functions by name.

perfbench/spans.py lists them as (module, function) pairs in TARGETS; a
rename in the package would break the traced run, so every pair must
resolve here.  The spans module is read by path and not modified.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TARGETS = runpy.run_path(str(SPANS))["TARGETS"]


@pytest.mark.parametrize("module, function", TARGETS,
                         ids=[f"{m}.{f}" for m, f in TARGETS])
def test_traced_function_resolves(module, function):
    mod = importlib.import_module(f"unstablefb.{module}")
    assert callable(getattr(mod, function))
