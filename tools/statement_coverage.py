"""List the statements of ``src/hvalgebra/`` that neither tier-1 nor the
demos run, and fail when one sits outside an ``if __name__ == "__main__":``
block.

Run from anywhere, with no arguments:

    python tools/statement_coverage.py

It runs the tier-1 tests in this process (pytest) and then the four demos
through ``runpy``, all under a ``sys.settrace`` line tracer, with
``PYTHONPATH=src`` so that the tests which start ``hval`` in a subprocess
find the package (lines run in a subprocess are not traced).  A statement
is every ``ast`` statement of the package except docstrings, ``def``,
``class`` and imports; it ran when a line of its header did (for a
compound statement, the lines before its body).  Standard library and
pytest only.  Exit status: 0 when every unexecuted statement is in a
``__main__`` block, 1 otherwise or when a test fails.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "hvalgebra"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
_NESTED = ("body", "orelse", "finalbody", "handlers", "cases")


def _is_docstring(node, parent) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        and isinstance(parent, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and parent.body[0] is node
    )


def _is_main_guard(node) -> bool:
    test = node.test if isinstance(node, ast.If) else None
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == "__main__"
    )


def _header_lines(node) -> range:
    """The lines a statement runs on before any statement nested in it."""
    nested = [
        child.pattern.lineno if isinstance(child, ast.match_case) else child.lineno
        for field in _NESTED
        for child in getattr(node, field, ())
    ]
    end = min(nested) - 1 if nested else node.end_lineno
    return range(node.lineno, max(end, node.lineno) + 1)


def statements(path: Path):
    """``(lineno, header lines, in a __main__ block)`` for each statement."""
    out = []

    def visit(parent, in_main):
        for field in _NESTED:
            for node in getattr(parent, field, ()):
                main = in_main or _is_main_guard(node)
                if isinstance(node, ast.stmt) and not (
                    isinstance(node, _SKIPPED) or _is_docstring(node, parent)
                ):
                    out.append((node.lineno, _header_lines(node), main))
                visit(node, main)

    visit(ast.parse(path.read_text(), str(path)), False)
    return out


def traced_run() -> tuple[dict, int]:
    """Run tier-1 and the demos under a line tracer; return the lines run
    in each package file and pytest's exit code."""
    import pytest

    package = str(PACKAGE) + os.sep
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package):
            return None
        ran.setdefault(filename, set())
        return local

    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    sys.settrace(global_)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
        for demo in DEMOS:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.settrace(None)
    return ran, int(code)


def main() -> int:
    ran, code = traced_run()
    if code:
        print(f"tier-1 failed under the tracer (pytest exit {code})")
        return 1
    missed = []
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        for lineno, header, in_main in statements(path):
            total += 1
            if lines.isdisjoint(header):
                missed.append((path.relative_to(ROOT), lineno, in_main))
    outside = [m for m in missed if not m[2]]
    print(f"{total} statements, {len(missed)} never run, {len(outside)} outside __main__ blocks")
    for path, lineno, in_main in missed:
        print(f"{path}:{lineno}{'  (__main__ block)' if in_main else ''}")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
