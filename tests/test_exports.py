import ast
import importlib
import pkgutil
from functools import cache
from pathlib import Path

import pytest

import vexp

MODULES = ["vexp"] + [f"vexp.{m.name}" for m in pkgutil.iter_modules(vexp.__path__)]
REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


@cache
def names_read_outside_tests() -> frozenset[str]:
    """Names loaded, attributes loaded and names imported in src/vexp and perfbench."""
    files = sorted((REPO / "src" / "vexp").glob("*.py")) + sorted(
        p for p in (REPO / "perfbench").glob("*.py") if not p.name.startswith("test_"))
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return frozenset(read)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_read_outside_tests(name):
    # an export only tests read belongs in the tests
    exports = getattr(importlib.import_module(name), "__all__", ())
    assert [n for n in exports if n not in names_read_outside_tests()] == []
