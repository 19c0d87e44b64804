"""The benchmark's per-layer tracer wraps attributes of this checkout's package.

``perfbench/tracer.py`` installs its wrappers by attribute path (for example
``dict_recon.conjugate_gradient``).  An attribute that the package no longer
has would only surface as an ``AttributeError`` in a traced benchmark run, so
every path is resolved here.  The span list is read from the file's source,
not imported, so the benchmark's own imports play no part.
"""

import ast
import importlib
from pathlib import Path

import pytest

import multiecho as me

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def span_paths() -> list[str]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_SPANS" for t in node.targets
        ):
            return [path for path, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no _SPANS list in {TRACER}")


@pytest.mark.parametrize("path", span_paths())
def test_span_path_resolves(path):
    module_path, attr = path.rsplit(".", 1)
    if not module_path.startswith("numpy"):
        module_path = f"{me.__name__}.{module_path}"
    assert callable(getattr(importlib.import_module(module_path), attr))
