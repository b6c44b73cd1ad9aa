"""Public API: every module-level function or class is used, or exported when public."""

from __future__ import annotations

import ast
import importlib
import importlib.util
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


def test_benchmark_hooks_resolve():
    # The benchmark traces these functions and reads these bindings and
    # fields; bench/test_smoke.py is not in the tier-1 test paths.
    # bench/tracer.py is loaded from its file, without touching sys.path.
    spec = importlib.util.spec_from_file_location(
        "_bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for home, attr, _ in tracer.TRACED:
        assert callable(getattr(importlib.import_module(f"linforms.{home}"), attr)), (home, attr)
    for binding in (
        "cli.compute_nf",
        "theory.compute_nf",
        "explorer.compute_nf",
        "explorer.image_mask",
        "engine.composition_vectors",
    ):
        module, attr = binding.split(".")
        assert callable(getattr(importlib.import_module(f"linforms.{module}"), attr)), binding
    f = linforms.LinearForm((1, 3))
    assert linforms.engine.search_min(f, 3, 6).nodes > 0
    assert linforms.compute_nf(f, 3).nodes_explored > 0
