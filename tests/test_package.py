"""Every exported name resolves: no stale entry in a module's `__all__`, in
the package's own imports, or in the functions the benchmark traces."""

import ast
import importlib
from pathlib import Path

import pytest

import jepq

MODULES = ("qcomb", "jep", "rook", "oracle", "mc", "verify", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"jepq.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(jepq.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"jepq.{node.module}")
        for alias in node.names:
            assert hasattr(jepq, alias.name)
            assert alias.name in module.__all__, (node.module, alias.name)


def test_bench_traced_functions_resolve():
    # bench/worker.py wraps each TRACED function by name; a missing one
    # makes every traced benchmark job fail
    worker = Path(__file__).resolve().parents[1] / "bench" / "worker.py"
    tree = ast.parse(worker.read_text())
    (traced,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
    ]
    traced = ast.literal_eval(traced)
    assert traced
    missing = [
        f"{name}.{fn}"
        for name, functions in traced.items()
        for fn in functions
        if not callable(getattr(importlib.import_module(f"jepq.{name}"), fn, None))
    ]
    assert missing == []
