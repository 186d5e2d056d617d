"""Import layering of the package: `isometry` sits above `constructions`, so
constructions never imports from isometry, and no module defers an import
into a function body to get round a cycle."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "topolinear"
MODULES = sorted(PACKAGE.glob("*.py"))


def relative_imports(node):
    """(module, names) of every `from .x import ...` below node."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.ImportFrom) and inner.level > 0:
            yield inner.module, [alias.name for alias in inner.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_relative_import(path):
    tree = ast.parse(path.read_text())
    deferred = [
        (fn.name, module)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for module, _names in relative_imports(fn)
    ]
    assert deferred == []


def test_constructions_imports_nothing_from_isometry():
    tree = ast.parse((PACKAGE / "constructions.py").read_text())
    for module, names in relative_imports(tree):
        assert module != "isometry" and not (module is None and "isometry" in names)
