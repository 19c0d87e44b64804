"""Reference reconstructions: zero-filled, wavelet CS, entrywise-sparse DL.

The compressed-sensing baseline solves::

    min_x ||y - A x||^2 + lam * sum_rows ||(S x)_row||_2

by proximal gradient, where ``S`` is an orthonormal multi-level 2-D Haar
transform of the ``(H, W, C)`` stack over its first two axes and a "row" is
the trailing axis of the coefficients: one (scale, offset) position across
all echoes.  Because ``S`` is orthonormal the prox is exact (transform,
row-shrink, transform back) and the penalty of the new iterate is that of the
shrunk coefficients.  The gradient ``2 (A^T A x - A^T y)`` and the data term
come from the run's :class:`~multiecho.operators.ForwardModel` (row Grams and
row-space residual), so an iteration runs no FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvalidArgumentError, KSpaceData, MultiEchoImage, ReconParams
from .dict_recon import DlState, reconstruct_dl
from .operators import ForwardModel, apply_adjoint
from .solvers import _sq_norm, row_soft_threshold

__all__ = [
    "haar_dwt2",
    "haar_idwt2",
    "reconstruct_zero_filled",
    "CsState",
    "reconstruct_cs_analysis",
    "reconstruct_dl_sparse",
]

_SQRT2 = np.sqrt(2.0)


def _check_haar_dims(shape: tuple[int, ...], levels: int) -> None:
    if len(shape) not in (2, 3):
        raise InvalidArgumentError(f"expected a plane or an (H, W, C) stack, got {shape}")
    if levels < 0:
        raise InvalidArgumentError(f"levels must be >= 0, got {levels}")
    div = 1 << levels
    if shape[0] % div or shape[1] % div:
        raise InvalidArgumentError(
            f"dims {shape[:2]} must be divisible by 2^levels = {div}"
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


def haar_dwt2(x: np.ndarray, levels: int) -> np.ndarray:
    """Orthonormal multi-level 2-D Haar transform over axes 0 and 1.

    ``x`` is one ``(H, W)`` plane or an ``(H, W, C)`` stack; a trailing echo
    axis is batched, and each plane of a stack gets exactly the bits it would
    get on its own.  Coefficients are stored in the standard quadrant layout
    (approximation in the top-left block, recursively).  Energy-preserving
    and exactly inverted by :func:`haar_idwt2`.
    """
    out = np.array(x, dtype=np.float64)
    _check_haar_dims(out.shape, levels)
    h, w = out.shape[:2]
    for _ in range(levels):
        sub = _haar_fwd_rows(out[:h, :w])
        out[:h, :w] = _haar_fwd_rows(sub.swapaxes(0, 1)).swapaxes(0, 1)
        h //= 2
        w //= 2
    return out


def haar_idwt2(coeffs: np.ndarray, levels: int) -> np.ndarray:
    """Exact inverse (= adjoint) of :func:`haar_dwt2`, for a plane or a stack."""
    out = np.array(coeffs, dtype=np.float64)
    _check_haar_dims(out.shape, levels)
    for lev in reversed(range(levels)):
        h = out.shape[0] >> lev
        w = out.shape[1] >> lev
        sub = _haar_inv_rows(out[:h, :w].swapaxes(0, 1)).swapaxes(0, 1)
        out[:h, :w] = _haar_inv_rows(sub)
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


def _cs_objective(x: np.ndarray, model: ForwardModel, lam: float, coeffs: np.ndarray) -> float:
    """Objective at ``x = S^T coeffs``; ``S`` is orthonormal, so ``S x = coeffs``."""
    rows = coeffs.reshape(-1, coeffs.shape[-1])
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
    shrinks the stacked Haar coefficient rows by ``params.lam / 2``: one
    transform pair per iteration.  Starts zero-filled and stops once
    ``||x_new - x|| <= rel_change_tol * ||x||``; the objective is
    non-increasing.  With ``lam = 0`` and a full mask the first step already
    reproduces the exact image.
    """
    model = ForwardModel(y)
    x = model.aty
    history = [_cs_objective(x, model, params.lam, haar_dwt2(x, levels))]
    for _ in range(max_iters):
        v = x - (model.normal(x) - model.aty)  # a gradient step of length 1/2
        coeffs = row_soft_threshold(haar_dwt2(v, levels), params.lam / 2.0)
        x_new = haar_idwt2(coeffs, levels)
        history.append(_cs_objective(x_new, model, params.lam, coeffs))
        step = np.sqrt(_sq_norm(x_new - x))
        denom = max(np.sqrt(_sq_norm(x)), 1e-30)
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
