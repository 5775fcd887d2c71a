"""The layer tracer in perfbench/tracer.py replaces ftcsim functions by
module and name, and skips a name that no longer exists, so its metrics
would silently read 0 after a rename. Every name it replaces must exist."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def replaced_names():
    """(module, attr) of every replace("<module>", "<attr>", ...) call."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "replace" and len(node.args) >= 2
                and all(isinstance(a, ast.Constant) and isinstance(a.value, str)
                        for a in node.args[:2])):
            names.append((node.args[0].value, node.args[1].value))
    return names


def test_scan_finds_the_hot_hooks():
    names = replaced_names()
    assert ("exprlang", "compile_expr") in names
    assert ("numerics", "rk4_step") in names


@pytest.mark.parametrize("module,attr", replaced_names())
def test_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"ftcsim.{module}"), attr, None))
