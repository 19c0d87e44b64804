"""Greedy L-curve parameter selection from the measured data alone.

Regularization weights are tuned one at a time in the fixed order ``mu``,
``lam``, ``gamma`` (where the method has them): parameters later in the order
are held at zero, earlier ones at their already-chosen values.  For every grid
value the engine runs to completion and contributes one point
``(log residual, log penalty)``, the penalty being the block the parameter
weighs in the engine's final state (its ``penalties()``); the chosen value
sits at the point of maximum discrete curvature (the corner of the L).  No
reference image is read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import InvalidArgumentError, KSpaceData, ReconParams
from .methods import run_method
from .operators import ForwardModel

__all__ = ["TUNABLE_PARAMS", "GAMMA_FLOOR", "lcurve_corner", "lcurve_greedy", "SweepPoint"]

TUNABLE_PARAMS = {
    "cs_analysis": ("lam",),
    "dl_sparse": ("mu", "lam"),
    "dl_rowsparse": ("mu", "lam"),
    "tl_rowsparse": ("mu", "lam", "gamma"),
}

# The transform update is undefined at gamma = 0, so "held at zero" is realized
# as this negligible positive floor while earlier parameters are being tuned.
GAMMA_FLOOR = 1e-8


@dataclass(frozen=True)
class SweepPoint:
    """One grid evaluation of one tuning stage."""

    param: str
    value: float
    residual_norm: float
    penalty: float


def lcurve_corner(points: Sequence[tuple[float, float]]) -> int:
    """Index of maximum discrete curvature of a polyline (endpoints excluded).

    Uses the three-point (Menger) curvature with the sign oriented so that the
    corner of a decreasing L-shaped curve is positive.  For a straight line
    all interior curvatures tie at ~0 and the first interior index is
    returned.
    """
    if len(points) < 3:
        raise InvalidArgumentError(f"need at least 3 points, got {len(points)}")
    pts = np.asarray(points, dtype=np.float64)
    best_idx, best_kappa = 1, -np.inf
    for k in range(1, len(pts) - 1):
        a = pts[k] - pts[k - 1]
        b = pts[k + 1] - pts[k]
        c = pts[k + 1] - pts[k - 1]
        denom = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
        if denom == 0.0:
            continue
        kappa = 2.0 * (a[0] * b[1] - a[1] * b[0]) / denom
        if kappa > best_kappa:
            best_idx, best_kappa = k, kappa
    return best_idx


def _grid_problems(name: str, grid: Sequence[float]) -> list[str]:
    """Violations of one stage's grid: at least 4 ascending finite values >= 0.

    The corner is an interior point (:func:`lcurve_corner` never returns an
    end), so a grid of 3 values could only pick its middle one.
    """
    values = np.asarray(grid, dtype=np.float64)
    if (values.size >= 4 and np.all(np.isfinite(values)) and values[0] >= 0
            and np.all(np.diff(values) >= 0)):
        return []
    return [f"grid {name} must hold at least 4 ascending finite values >= 0, got {grid!r}"]


def _log(v: float) -> float:
    return float(np.log(max(v, 1e-300)))


def lcurve_greedy(
    y: KSpaceData,
    method: str,
    grids: Mapping[str, Sequence[float]],
    base_params: ReconParams,
    **engine_kwargs,
) -> tuple[ReconParams, list[SweepPoint]]:
    """Tune the regularization weights of ``method`` on measured data.

    ``grids`` holds a grid for each tunable parameter of the method (see
    :func:`_grid_problems`), all checked before the first engine run; each
    stage picks the grid value at the L-curve corner (:func:`lcurve_corner`).
    ``engine_kwargs`` go to every engine run.  Returns the tuned parameters
    and the full evaluation trace.
    """
    names = TUNABLE_PARAMS.get(method)
    if names is None:
        raise InvalidArgumentError(f"method {method!r} has no tunable parameters")
    problems = [p for name in names for p in _grid_problems(name, grids.get(name, ()))]
    if problems:
        raise InvalidArgumentError("; ".join(problems))
    model = ForwardModel(y)
    chosen: dict[str, float] = {}
    trace: list[SweepPoint] = []
    for pos, name in enumerate(names):
        grid = [float(v) for v in grids[name]]
        overrides = dict(chosen)
        for later in names[pos + 1:]:
            overrides[later] = GAMMA_FLOOR if later == "gamma" else 0.0
        points = []
        for v in grid:
            overrides[name] = v
            params_v = replace(base_params, **overrides)
            out = run_method(method, y, params_v, **engine_kwargs)
            resid = float(np.sqrt(model.data_term(out.image.data)))
            pen = out.state.penalties()[name]
            points.append((_log(resid), _log(pen)))
            trace.append(SweepPoint(name, v, resid, pen))
        chosen[name] = grid[lcurve_corner(points)]
    return replace(base_params, **chosen), trace
