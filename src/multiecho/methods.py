"""Uniform dispatch over the reconstruction methods, by their rows in :mod:`multiecho.defaults`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import KSpaceData, MultiEchoImage, ReconParams, _refuse
from .defaults import method_row

__all__ = ["RunOutput", "run_method"]


@dataclass
class RunOutput:
    """Reconstruction plus whatever per-method state the engine produced."""

    image: MultiEchoImage
    cost_history: list[float]
    state: Any  # DlState | TlState | CsState | None


def run_method(method: str, y: KSpaceData, params: ReconParams, **kwargs) -> RunOutput:
    """Run one reconstruction method on measured k-space.

    ``kwargs`` are forwarded to the engine (e.g. ``max_iters`` for the CS
    baseline).  Raises ``InvalidArgumentError`` for an unknown method and,
    listing them, for keywords its engine does not take.
    """
    row = method_row(method)
    _refuse(row.keyword_problems(kwargs))
    image, state = row.engine(y, params, **kwargs)
    return RunOutput(image, [] if state is None else state.cost_history, state)
