"""Every package name the benchmark uses resolves in this checkout.

``perfbench/*.py`` is read with ``ast``, not imported.  Each name of a
``from multiecho... import ...`` statement and each ``me.<attr>`` chain
(``me`` is how the benchmark holds the imported package) is resolved against
the package here, so that a moved or renamed name fails this test instead of
surfacing only as a failed benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

import multiecho as me

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _chain(node: ast.Attribute) -> str | None:
    """``a.b`` of an ``me.a.b`` attribute chain, ``None`` for any other root."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join(reversed(parts)) if isinstance(node, ast.Name) and node.id == "me" else None


def used_names() -> list[str]:
    """``file: dotted name`` of every package name the benchmark uses, relative to ``me``."""
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == me.__name__):
                module = node.module.partition(".")[2]
                used.update(f"{path.name}: {'.'.join(filter(None, (module, alias.name)))}"
                            for alias in node.names)
            elif isinstance(node, ast.Attribute) and (name := _chain(node)) is not None:
                used.add(f"{path.name}: {name}")
    return sorted(used)


def test_the_benchmark_names_are_found():
    names = {used.split(": ")[1] for used in used_names()}
    assert {"defaults.CS_ENGINE", "defaults.tuned_params", "defaults.EXPERIMENT",
            "methods.run_method", "snr_db"} <= names


@pytest.mark.parametrize("used", used_names())
def test_benchmark_name_resolves(used):
    obj, path = me, me.__name__
    for part in used.split(": ")[1].split("."):
        path = f"{path}.{part}"
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)
