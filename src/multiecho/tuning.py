"""Greedy L-curve parameter selection from the measured data alone.

Regularization weights are tuned one at a time in the order of the method's
row (:func:`multiecho.defaults.method_row`), ``mu``, ``lam``, ``gamma`` as far
as the method reads them: parameters later in the order are held at zero,
earlier ones at their already-chosen values.  For every grid value the engine
runs to completion and contributes one point ``(log residual, log penalty)``,
the penalty being the block the parameter weighs in the engine's final state
(its ``penalties()``); the chosen value sits at the point of maximum discrete
curvature (the corner of the L).  No reference image is read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import (InvalidArgumentError, KSpaceData, ReconParams, _is_number, _is_pair,
                   _is_sequence, _params_problems, _refuse)
from .defaults import method_row
from .methods import run_method
from .operators import ForwardModel

__all__ = ["GAMMA_FLOOR", "lcurve_corner", "lcurve_greedy", "SweepPoint"]

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
    returned.  Raises ``InvalidArgumentError``, listing every violation,
    unless there are at least 3 points, each two finite numbers.
    """
    if not _is_sequence(points):
        raise InvalidArgumentError(f"points must be a sequence of pairs, got {points!r}")
    _refuse(([] if len(points) >= 3 else [f"need at least 3 points, got {len(points)}"])
            + [f"point {k} must be two finite numbers, got {pt!r}"
               for k, pt in enumerate(points) if not _is_pair(pt)])
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
    """Violations of the grid for ``name``: at least 4 ascending finite values >= 0.

    The corner is an interior point (:func:`lcurve_corner` never returns an
    end), so a grid of 3 values could only pick its middle one.  The least
    value must also pass the :class:`ReconParams` rule (``mu``, ``gamma`` > 0).
    """
    if (_is_sequence(grid) and len(grid) >= 4 and all(map(_is_number, grid)) and grid[0] >= 0
            and all(a <= b for a, b in zip(grid, grid[1:]))):
        least = {**vars(ReconParams()), name: grid[0]}
        return [f"grid {name}: {p}" for p in _params_problems(least)]
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

    ``grids`` maps each weight the method reads (its row's ``weights``, see
    :func:`multiecho.defaults.method_row`) to a grid, each checked by
    :func:`_grid_problems`; each stage picks the grid value at the L-curve
    corner (:func:`lcurve_corner`).  ``engine_kwargs`` go to every engine
    run.  The grids and the keywords are checked before the first engine
    run.  Returns the tuned parameters and the full evaluation trace.
    """
    row = method_row(method)
    names = row.weights
    if not names:
        raise InvalidArgumentError(f"method {method!r} has no tunable parameters")
    found = ([p for name in names for p in _grid_problems(name, grids.get(name, ()))]
             if isinstance(grids, Mapping) else
             [f"grids must map each weight to its grid, got {grids!r}"])
    _refuse(found + row.keyword_problems(engine_kwargs))
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
