"""The demos use only names the package still has.

Each demo is parsed, not run: running them rewrites demos/out/*.svg.
"""

import ast
import importlib
from pathlib import Path

import pytest


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def package_names(tree: ast.Module):
    """(module, name) for every `F.<name>` with `import ftcsim as F` and
    every `from ftcsim[.mod] import name`."""
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for a in node.names if a.name == "ftcsim"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "ftcsim" or node.module.startswith("ftcsim.")):
            for a in node.names:
                yield node.module, a.name
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            yield "ftcsim", node.attr


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_names_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    missing = []
    for module, name in package_names(tree):
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{module}.{name}")
    assert not missing, f"{path.name} uses names ftcsim no longer has: {missing}"
