"""Public API: every module-level function or class is used, or exported when public."""

from __future__ import annotations

import ast
from pathlib import Path

import linforms

SRC = Path(linforms.__file__).parent


def _mentions(node: ast.AST, name: str, own: ast.AST) -> bool:
    """True when node, outside the definition own, reads name as a variable or attribute."""
    if node is own:
        return False
    if isinstance(node, ast.Name) and node.id == name:
        return True
    if isinstance(node, ast.Attribute) and node.attr == name:
        return True
    return any(_mentions(child, name, own) for child in ast.iter_child_nodes(node))


def _unread_definitions(private: bool) -> list[str]:
    """Module-level functions and classes, public or private, that no module reads or exports."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    return [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
        and node.name not in linforms.__all__
        and not any(_mentions(other, node.name, node) for other in trees.values())
    ]


def test_every_public_definition_is_exported_or_used():
    assert _unread_definitions(private=False) == []


def test_every_private_definition_is_used():
    # Tests do not count: a helper that only tests call is dead code.
    assert _unread_definitions(private=True) == []
