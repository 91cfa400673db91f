"""The benchmark's tracer (perfbench/spans.py) wraps dpsched functions by
(module, attribute) name; a refactor that renames or drops one of them
would silently stop the tracer from seeing that layer."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, attr) for mod, attr, _ in
            spans.FUNCTIONS + spans.GENERATORS + spans.CONSTRUCTORS]


@pytest.mark.parametrize("module, attr", _bindings())
def test_traced_binding_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
