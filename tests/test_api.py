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


def _perfbench_calls():
    """(module, name, call node) of each call in perfbench/workloads.py into
    a winmix callable. ``wm`` is the package; each ``self.<alias> =
    importlib.import_module("winmix.<module>")`` names a module that
    ``self.<alias>.f(...)``, or a local of the same name, calls into."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text())
    aliases = {"wm": "winmix"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "import_module"):
            aliases[node.targets[0].attr] = node.value.args[0].value
    calls = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name) \
                and owner.value.id == "self":
            owner = owner.attr
        elif isinstance(owner, ast.Name):
            owner = owner.id
        if owner in aliases:
            calls.append((aliases[owner], node.func.attr, node))
    return calls


def test_perfbench_calls_bind_to_winmix_signatures():
    # the benchmark runs the committed perfbench against each side's src/, so
    # a retired field or keyword it passes would fail there, not here
    calls = _perfbench_calls()
    unbound = []
    for module, name, node in calls:
        assert not any(isinstance(a, ast.Starred) for a in node.args), (name, node.lineno)
        assert all(k.arg is not None for k in node.keywords), (name, node.lineno)
        fn = getattr(importlib.import_module(module), name, None)
        try:
            inspect.signature(fn).bind_partial(*node.args, **{k.arg: k for k in node.keywords})
        except (TypeError, ValueError) as exc:
            unbound.append(f"line {node.lineno}: {module}.{name}: {exc}")
    assert not unbound, "perfbench/workloads.py calls do not bind:\n" + "\n".join(unbound)
    # the parse must reach the calls the benchmark depends on
    assert {"Hyperparams", "Model", "block_forward", "FeatureMap", "train", "load_state",
            "save_state", "evaluate", "flops_oracle", "connectivity", "count_params",
            "count_flops", "build_model", "forward", "gen_dataset", "DatasetSpec",
            "ModelConfig"} <= {name for _, name, _ in calls}
