import ast
import importlib
import pkgutil
from functools import cache
from pathlib import Path

import pytest

import vexp

MODULES = ["vexp"] + [f"vexp.{m.name}" for m in pkgutil.iter_modules(vexp.__path__)]
REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src" / "vexp").glob("*.py"))


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



@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    # an import nothing reads is left over from code that moved or went;
    # a name listed in __all__ is read by the importers of the module
    nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
    imported = {(alias.asname or alias.name).split(".")[0] for node in nodes
                if isinstance(node, ast.Import)
                or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
                for alias in node.names}
    read = {node.id for node in nodes
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {elt.value for node in nodes if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    assert sorted(imported - read - exported) == []


# The line count is tracked next to speed: raise it only by a deliberate edit,
# recorded in CHANGES.md with the reason, as for the pinned audit.csv hash.
SOURCE_LINE_BUDGET = 3634


def test_source_line_budget():
    lines = sum(len(path.read_bytes().splitlines()) for path in SOURCES)
    assert lines <= SOURCE_LINE_BUDGET
