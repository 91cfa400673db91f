"""The benchmark (perfbench/) calls dpsched by (module, attribute) name: its
tracer (perfbench/spans.py) wraps functions by name, and its workloads
(perfbench/workloads.py) call module attributes.  A refactor that renames
or drops one of them would silently stop the tracer from seeing that layer,
or break the benchmark instead of a test."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, attr) for mod, attr, _ in
            spans.FUNCTIONS + spans.GENERATORS + spans.CONSTRUCTORS]


def _workload_calls():
    """(module, attribute) of every call `workloads.py` makes through a
    module it imports from dpsched."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name: f"dpsched.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "dpsched"
        for alias in node.names
    }
    return sorted({
        (modules[node.func.value.id], node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
    })


@pytest.mark.parametrize("module, attr", _bindings())
def test_traced_binding_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, attr", _workload_calls())
def test_workload_call_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
