"""Unused top-level imports, checked with the standard library.

CI's ``lint`` job runs ``ruff check src tests benchmarks``; this is its
F401 subset (an import bound at module level and never used), run with
:mod:`ast` so the tier-1 suite catches it wherever ruff is not installed.
A name counts as used when the module loads it anywhere, names it inside
a string annotation, or lists it in ``__all__``.  Package ``__init__.py``
files are skipped: their imports are re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks")


def _top_level_imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by module-level imports (also under ``if``/``try``)."""
    bound: dict[str, int] = {}
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body)
            stack.extend(node.orelse)
            for handler in getattr(node, "handlers", ()):
                stack.extend(handler.body)
            stack.extend(getattr(node, "finalbody", ()))
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            arguments = node.args
            for arg in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
                arguments.vararg,
                arguments.kwarg,
            ):
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            }
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each top-level import the module never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted(
        (line, name)
        for name, line in _top_level_imports(tree).items()
        if name not in used
    )


@pytest.mark.parametrize("directory", SCANNED)
def test_no_unused_imports(directory):
    found = []
    for path in sorted((ROOT / directory).rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


class TestScanner:
    def test_flags_an_unused_import(self):
        source = "import os\nfrom pathlib import Path as P\nimport numpy.linalg\n"
        assert unused_imports(source) == [(1, "os"), (2, "P"), (3, "numpy")]

    def test_counts_loads_annotations_and_all(self):
        source = (
            "from __future__ import annotations\n"
            "import os\nimport numpy.linalg\n"
            "from typing import Any\nfrom x import Y\nfrom z import w\n"
            "try:\n    from q import fast\nexcept ImportError:\n    fast = None\n"
            "__all__ = ['w']\n"
            "def f(a: 'Y') -> Any:\n    return os.sep, numpy.linalg, fast\n"
        )
        assert unused_imports(source) == []

    def test_flags_an_unused_import_under_try(self):
        source = "try:\n    import json\nexcept ImportError:\n    pass\n"
        assert unused_imports(source) == [(2, "json")]
