"""The benchmark's contract with this checkout's package.

``perfbench/tracer.py`` installs its wrappers by attribute path (for example
``dict_recon.conjugate_gradient``).  An attribute that the package no longer
has would only surface as an ``AttributeError`` in a traced benchmark run, so
every path is resolved here.  ``perfbench/problem.py`` checks cost histories
against its own copy of the engines' descent slack, and ``perfbench/run.py``
derives the dictionary engine's retries from the objective's call count; both
premises are checked here too.  The benchmark's files are read from their
source, not imported, so the benchmark's own imports play no part.
"""

import ast
import importlib
from pathlib import Path

import pytest

import multiecho as me
from multiecho import ReconParams, dict_recon, solvers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def module_constant(path: Path, name: str):
    """The literal assigned to ``name`` at the top level of ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {path}")


def span_paths() -> list[str]:
    return [path for path, _ in module_constant(TRACER, "_SPANS")]


@pytest.mark.parametrize("path", span_paths())
def test_span_path_resolves(path):
    module_path, attr = path.rsplit(".", 1)
    if not module_path.startswith("numpy"):
        module_path = f"{me.__name__}.{module_path}"
    assert callable(getattr(importlib.import_module(module_path), attr))


def test_problem_descent_slack_is_the_engines():
    assert module_constant(PERFBENCH / "problem.py", "DESCENT_SLACK") == solvers.DESCENT_SLACK


def test_dl_objective_runs_once_per_cycle(small_kspace, monkeypatch):
    # perfbench counts dictionary retries as objective calls - 1 - outer
    # iterations: one call for the start, one per ordinary cycle and one per
    # guarded cycle.  These settings retry on most iterations.
    calls = {"objective": 0, "guarded": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dict_recon, "_objective_with",
                        counted(dict_recon._objective_with, "objective"))
    monkeypatch.setattr(dict_recon, "update_dictionary_atoms",
                        counted(dict_recon.update_dictionary_atoms, "guarded"))
    params = ReconParams(mu=0.06, lam=0.25, patch_size=12, patch_stride=6,
                         max_outer_iters=4, inner_iters=15)
    _, state = me.reconstruct_dl(small_kspace, params, coef_prox="entry")
    outer = len(state.cost_history) - 1
    assert outer == 4 and calls["guarded"] > 0
    assert calls["objective"] == 1 + outer + calls["guarded"]
