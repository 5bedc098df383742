"""Every exported name resolves: no stale entry in a module's `__all__` or
in the package's own imports."""

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
