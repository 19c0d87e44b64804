"""Uniform dispatch over the reconstruction methods."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .baselines import (
    reconstruct_cs_analysis,
    reconstruct_dl_sparse,
    reconstruct_zero_filled,
)
from .core import InvalidArgumentError, KSpaceData, MultiEchoImage, ReconParams
from .dict_recon import reconstruct_dl
from .transform_recon import reconstruct_tl

__all__ = ["METHOD_NAMES", "RunOutput", "run_method"]

# Each iterative method's engine, called as ``engine(y, params, **kwargs) -> (image, state)``.
_ENGINES = {"cs_analysis": reconstruct_cs_analysis, "dl_sparse": reconstruct_dl_sparse,
            "dl_rowsparse": reconstruct_dl, "tl_rowsparse": reconstruct_tl}
METHOD_NAMES = ("zero_filled", *_ENGINES)


@dataclass
class RunOutput:
    """Reconstruction plus whatever per-method state the engine produced."""

    method: str
    image: MultiEchoImage
    cost_history: list[float]
    state: Any  # DlState | TlState | CsState | None


def run_method(method: str, y: KSpaceData, params: ReconParams, **kwargs) -> RunOutput:
    """Run one reconstruction method on measured k-space.

    ``kwargs`` are forwarded to the engine (e.g. ``max_iters`` for the CS
    baseline).  Unknown method names are rejected.
    """
    if method == "zero_filled":
        return RunOutput(method, reconstruct_zero_filled(y), [], None)
    if method not in _ENGINES:
        raise InvalidArgumentError(
            f"unknown method {method!r}; expected one of {', '.join(METHOD_NAMES)}"
        )
    image, state = _ENGINES[method](y, params, **kwargs)
    return RunOutput(method, image, state.cost_history, state)
