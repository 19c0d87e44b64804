"""Reference reconstructions: zero-filled, wavelet CS, entrywise-sparse DL.

The compressed-sensing baseline solves::

    min_x ||y - A x||^2 + lam * sum_rows ||(S x)_row||_2

by proximal gradient, where ``S`` is an orthonormal multi-level 2-D Haar
transform applied per echo and a "row" collects the coefficients at one
(scale, offset) position across all echoes.  Because ``S`` is orthonormal the
prox is exact: transform, row-shrink, transform back.  The gradient
``2 (A^T A x - A^T y)`` and the data term come from the run's
:class:`~multiecho.operators.ForwardModel` (row Grams and row-space residual),
so an iteration runs no FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvalidArgumentError, KSpaceData, MultiEchoImage, ReconParams
from .dict_recon import DlState, reconstruct_dl
from .operators import ForwardModel, apply_adjoint
from .solvers import row_soft_threshold

__all__ = [
    "haar_dwt2",
    "haar_idwt2",
    "reconstruct_zero_filled",
    "CsState",
    "reconstruct_cs_analysis",
    "reconstruct_dl_sparse",
]

_SQRT2 = np.sqrt(2.0)


def _check_haar_dims(shape: tuple[int, int], levels: int) -> None:
    if levels < 0:
        raise InvalidArgumentError(f"levels must be >= 0, got {levels}")
    div = 1 << levels
    if shape[0] % div or shape[1] % div:
        raise InvalidArgumentError(
            f"dims {shape} must be divisible by 2^levels = {div}"
        )


def _haar_fwd_rows(a: np.ndarray) -> np.ndarray:
    s = (a[0::2] + a[1::2]) / _SQRT2
    d = (a[0::2] - a[1::2]) / _SQRT2
    return np.concatenate([s, d], axis=0)


def _haar_inv_rows(a: np.ndarray) -> np.ndarray:
    h = a.shape[0] // 2
    s, d = a[:h], a[h:]
    out = np.empty_like(a)
    out[0::2] = (s + d) / _SQRT2
    out[1::2] = (s - d) / _SQRT2
    return out


def haar_dwt2(plane: np.ndarray, levels: int) -> np.ndarray:
    """Orthonormal multi-level 2-D Haar transform of one plane.

    Coefficients are stored in the standard quadrant layout (approximation in
    the top-left block, recursively).  Energy-preserving and exactly inverted
    by :func:`haar_idwt2`.
    """
    arr = np.asarray(plane, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-D array, got shape {arr.shape}")
    _check_haar_dims(arr.shape, levels)
    out = arr.copy()
    h, w = arr.shape
    for _ in range(levels):
        sub = out[:h, :w]
        sub = _haar_fwd_rows(sub)
        sub = _haar_fwd_rows(sub.T).T
        out[:h, :w] = sub
        h //= 2
        w //= 2
    return out


def haar_idwt2(coeffs: np.ndarray, levels: int) -> np.ndarray:
    """Exact inverse (= adjoint) of :func:`haar_dwt2`."""
    arr = np.asarray(coeffs, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-D array, got shape {arr.shape}")
    _check_haar_dims(arr.shape, levels)
    out = arr.copy()
    for lev in reversed(range(levels)):
        h = out.shape[0] >> lev
        w = out.shape[1] >> lev
        sub = out[:h, :w]
        sub = _haar_inv_rows(sub.T).T
        sub = _haar_inv_rows(sub)
        out[:h, :w] = sub
    return out


def reconstruct_zero_filled(y: KSpaceData) -> MultiEchoImage:
    """Direct inversion with unmeasured k-space set to zero (no iterations)."""
    return apply_adjoint(y)


@dataclass
class CsState:
    """Final iterate, objective history and Haar depth of the CS baseline."""

    image: MultiEchoImage
    cost_history: list[float]
    levels: int


def _cs_objective(x: np.ndarray, model: ForwardModel, lam: float, levels: int) -> float:
    coeffs = np.stack([haar_dwt2(x[:, :, c], levels) for c in range(x.shape[2])], axis=-1)
    rows = coeffs.reshape(-1, x.shape[2])
    return model.data_term(x) + lam * float(np.linalg.norm(rows, axis=1).sum())


def reconstruct_cs_analysis(
    y: KSpaceData,
    params: ReconParams,
    levels: int = 3,
    max_iters: int = 200,
    rel_change_tol: float = 1e-6,
) -> tuple[MultiEchoImage, CsState]:
    """Group-sparse wavelet CS reconstruction by proximal gradient.

    Gradient of the data term is ``2 (A^T A x - A^T y)``, applied with the
    row Grams of the :class:`ForwardModel`.  Its Lipschitz constant is 2 (a
    masked unitary FFT has norm 1), so the step is 1/2 and each iteration
    shrinks the stacked Haar coefficient rows by ``params.lam / 2``.  Starts
    zero-filled; the objective is non-increasing.  With ``lam = 0`` and a
    full mask the first step already reproduces the exact image.
    """
    h, w, n_echo = y.data.shape
    _check_haar_dims((h, w), levels)
    model = ForwardModel(y)
    x = model.aty
    history = [_cs_objective(x, model, params.lam, levels)]
    for _ in range(max_iters):
        v = x - (model.normal(x) - model.aty)  # a gradient step of length 1/2
        coeffs = np.stack([haar_dwt2(v[:, :, c], levels) for c in range(n_echo)], axis=-1)
        coeffs = row_soft_threshold(
            coeffs.reshape(-1, n_echo), params.lam / 2.0
        ).reshape(h, w, n_echo)
        x_new = np.stack(
            [haar_idwt2(coeffs[:, :, c], levels) for c in range(n_echo)], axis=-1
        )
        history.append(_cs_objective(x_new, model, params.lam, levels))
        step = float(np.linalg.norm(x_new - x))
        denom = max(float(np.linalg.norm(x)), 1e-30)
        x = x_new
        if step <= rel_change_tol * denom:
            break
    image = MultiEchoImage(x)
    return image, CsState(image=image, cost_history=history, levels=levels)


def reconstruct_dl_sparse(
    y: KSpaceData, params: ReconParams
) -> tuple[MultiEchoImage, DlState]:
    """Dictionary-learning loop with entrywise (not row) shrinkage.

    Identical to :func:`multiecho.dict_recon.reconstruct_dl` except the
    coefficient step uses the scalar soft threshold, so sparsity is not shared
    across echoes.  With ``lam = 0`` both variants coincide exactly.
    """
    return reconstruct_dl(y, params, coef_prox="entry")
