"""Import hygiene: every name a module imports at top level is used in it, and every
``__all__`` names only bound names and every public function and class of its module."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "multiecho"
# __init__.py imports only to re-export.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# Imported and never called: the benchmark's tracer wraps these module
# attributes by name.
KEPT = {("dict_recon.py", "conjugate_gradient"), ("transform_recon.py", "conjugate_gradient")}


def _imported(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports, ``__future__`` aside."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported(tree)
              if name not in used and (path.name, name) not in KEPT]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_is_bound_and_lists_every_public_definition(path):
    # Every __all__ entry is bound in its module (no stale export of a deleted
    # name), and every public function or class the module defines is listed.
    module = importlib.import_module(f"multiecho.{path.stem}")
    tree = ast.parse(path.read_text())
    exported = getattr(module, "__all__", [])
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    assert [name for name in exported if not hasattr(module, name)] == []
    assert [name for name in defined if name not in exported] == []
