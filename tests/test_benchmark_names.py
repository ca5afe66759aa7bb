"""The benchmark's traced run looks tlbraid's functions up by name.

`perfbench/tracing.py` is loaded by path, as it stands, and every function
it wraps in spans and every method it counts must still resolve.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attrs in tracing.SPANNED.items()
    for attr in attrs])
def test_spanned_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"tlbraid.{module}"), attr))


@pytest.mark.parametrize("module, cls_name, attr", tracing.COUNTED)
def test_counted_method_resolves(module, cls_name, attr):
    cls = getattr(importlib.import_module(f"tlbraid.{module}"), cls_name)
    assert callable(getattr(cls, attr))
