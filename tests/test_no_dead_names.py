"""Every module-level private name in src/cuspeig is used somewhere in it.

A private name is one with a single leading underscore (not a dunder)
bound at module level by ``def``, ``class`` or an assignment.  A use is a
``Name`` or ``Attribute`` node of the syntax tree outside the statement
that defines the name, so mentions in docstrings and comments, and a
function's calls to itself, do not count.

The package's ``__all__`` lists exactly what it exports: a stale entry
breaks ``from cuspeig import *``.
"""

import ast
import inspect
from pathlib import Path

import cuspeig

SRC = Path(__file__).resolve().parents[1] / "src" / "cuspeig"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [
        node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)
    ]


def _used_names(stmt: ast.stmt) -> set[str]:
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private module-level name nothing uses."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            own = _defined_names(stmt)
            defined += [(module, name) for name in own if _is_private(name)]
            used |= _used_names(stmt) - set(own)
    return sorted(f"{module}:{name}" for module, name in defined if name not in used)


def test_no_dead_private_names_in_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sources
    assert dead_private_names(sources) == []


def test_finder_ignores_docstrings_and_self_calls():
    sources = {
        "a.py": (
            '"""Mentions _dead and _recursive in prose only."""\n'
            "_LIMIT = 3\n"
            "def _dead():\n"
            "    return 1\n"
            "def _recursive(k):\n"
            "    return _recursive(k - 1) if k else 0\n"
            "def _used():\n"
            "    return _LIMIT\n"
        ),
        "b.py": "from a import _used\nimport a\nvalue = _used() + a._other\n",
    }
    assert dead_private_names(sources) == ["a.py:_dead", "a.py:_recursive"]


def test_package_all_matches_its_imports():
    unresolved = [name for name in cuspeig.__all__ if not hasattr(cuspeig, name)]
    assert unresolved == []
    imported = {
        name
        for name, obj in vars(cuspeig).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__.startswith("cuspeig.")
    }
    assert sorted(imported - set(cuspeig.__all__)) == []
