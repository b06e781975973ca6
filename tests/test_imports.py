"""Every package module except ``__init__`` uses each name it imports,
and imports the package's own modules at module level only."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hvalgebra"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def function_level_imports(source: str) -> list:
    """Package modules imported inside a function body, as written."""
    imports = {
        node
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    names = []
    for node in imports:
        if isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
        else:
            names.extend(alias.name for alias in node.names)
    return sorted(n for n in names if n.startswith(".") or n.split(".")[0] == "hvalgebra")


def test_the_check_finds_an_unused_import():
    source = "from .core import C1, L\nimport os.path\n\nx = L(1)\n"
    assert unused_imports(source) == ["C1", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_function_level_import():
    source = (
        "import os\n\n"
        "def f():\n    from .core import L\n    import hvalgebra.linalg\n"
        "    import json\n\n    def g():\n        from . import render\n\n"
        "    return L, hvalgebra, json, os, g\n"
    )
    assert function_level_imports(source) == [".", ".core", "hvalgebra.linalg"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_package_imports(path):
    assert function_level_imports(path.read_text(encoding="utf-8")) == []
