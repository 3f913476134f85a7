"""The public surface: what each module exports exists, the package
re-exports only exported names, and every function the perfbench tracer
wraps exists."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import winmix

MODULES = sorted(m.name for m in pkgutil.iter_modules(winmix.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    mod = importlib.import_module(f"winmix.{name}")
    assert hasattr(mod, "__all__"), f"winmix.{name} has no __all__"
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"winmix.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_are_exported():
    tree = ast.parse(Path(winmix.__file__).read_text())
    unexported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"winmix.{node.module}")
            unexported += [f"{node.module}.{a.name}" for a in node.names
                           if a.name not in mod.__all__]
    assert not unexported, f"winmix/__init__.py imports unexported names: {unexported}"


def test_perfbench_wrapped_functions_exist():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{attr}" for mod, attr, _ in spans.WRAPPED
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, f"perfbench/spans.py wraps missing functions: {missing}"


def test_aggregate_takes_kind_first():
    # perfbench/spans.py names the aggregate span from the first positional argument
    from winmix.aggregators import aggregate

    assert next(iter(inspect.signature(aggregate).parameters)) == "kind"
