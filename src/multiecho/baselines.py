"""Reference reconstructions: zero-filled, wavelet CS, entrywise-sparse DL.

The compressed-sensing baseline solves::

    min_x ||y - A x||^2 + lam * sum_rows ||(S x)_row||_2

by guarded FISTA, where ``S`` is an orthonormal multi-level 2-D Haar
transform of the ``(H, W, C)`` stack over its first two axes and a "row" is
the trailing axis of the coefficients: one (scale, offset) position across
all echoes.  Because ``S`` is orthonormal the prox is exact (transform,
row-shrink, transform back) and the penalty of the new iterate is that of the
shrunk coefficients.  Each step starts from the momentum-extrapolated
iterate; a step whose objective rises above the last recorded one (no slack)
is redone from the last iterate and the momentum restarts, so the recorded
objective does not rise.  A run stops once an iterate moves by at most
``rel_change_tol`` relative to the last.  The data term and the gradient
``2 E^T (E x - y~)`` come from the run's
:class:`~multiecho.operators.ForwardModel` in row space, and the residual
``E x - y~`` of each new iterate, formed by the objective, is carried to the
next step, so an iteration runs no FFT and no ``H x H`` Gram product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvalidArgumentError, KSpaceData, MultiEchoImage, ReconParams
from .dict_recon import DlState, reconstruct_dl
from .operators import ForwardModel, apply_adjoint
from .solvers import _row_penalty, _sq_norm, row_soft_threshold

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
    """Final iterate, objective history and Haar depth of the CS baseline.

    ``restarts`` counts the guarded steps: extrapolated steps whose objective
    rose and that were redone as plain steps from the last iterate.
    """

    image: MultiEchoImage
    cost_history: list[float]
    levels: int
    restarts: int


def _cs_objective(
    x: np.ndarray, model: ForwardModel, lam: float, coeffs: np.ndarray
) -> tuple[float, np.ndarray]:
    """Objective and row-space residual ``E x - y~`` at ``x = S^T coeffs``.

    ``S`` is orthonormal, so ``S x = coeffs`` and the penalty is read from
    the coefficients.  The data term is ``model.data_term(x)`` bit for bit.
    """
    r = model.residual(x)
    return float(np.sum(r * r)) + lam * _row_penalty(coeffs), r


def _extrapolate(cur: np.ndarray, prev: np.ndarray, beta: float, out: np.ndarray) -> np.ndarray:
    """``cur + beta * (cur - prev)``, written to ``out``."""
    np.subtract(cur, prev, out=out)
    out *= beta
    out += cur
    return out


def reconstruct_cs_analysis(
    y: KSpaceData,
    params: ReconParams,
    levels: int = 3,
    max_iters: int = 200,
    rel_change_tol: float = 1e-6,
) -> tuple[MultiEchoImage, CsState]:
    """Group-sparse wavelet CS reconstruction by guarded FISTA.

    A step is a proximal gradient step of length 1/2 (the Lipschitz constant
    of the data-term gradient ``2 (A^T A x - A^T y)`` is 2, since a masked
    unitary FFT has norm 1): one transform pair that shrinks the stacked
    Haar coefficient rows by ``params.lam / 2``.  The ordinary step starts
    from ``z = x_k + (t_k - 1) / t_{k+1} * (x_k - x_{k-1})`` with the FISTA
    weights ``t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2``, ``t_0 = 1`` (Beck &
    Teboulle 2009).  If its objective is above the last recorded one, with
    no slack, the step is redone from ``x_k`` and the weights restart at
    ``t = 1`` (O'Donoghue & Candes 2015); ``CsState.restarts`` counts these.

    The gradient is ``2 E^T (E z - y~)`` in the row space of the
    :class:`ForwardModel`.  Each objective evaluation yields the residual
    ``E x - y~`` of the new iterate, and the residual is linear in ``x``, so
    the residual at ``z`` is extrapolated from the last two with the same
    weight: an iteration costs one row-space product each way per echo and
    no FFT.  Starts zero-filled and stops after ``max_iters`` steps or once
    ``||x_new - x|| <= rel_change_tol * ||x||``; the recorded objective is
    non-increasing up to rounding.  With ``lam = 0`` and a full mask the
    first step already reproduces the exact image.
    """
    model = ForwardModel(y)
    lam = params.lam
    x = x_prev = model.aty
    cost, r = _cs_objective(x, model, lam, haar_dwt2(x, levels))
    r_prev = r
    history = [cost]
    # Work buffers, reused by every iteration.
    z, v = np.empty(x.shape), np.empty(x.shape)
    r_z = np.empty(r.shape)
    grad = np.empty((x.shape[2], x.shape[0], x.shape[1]))

    def prox_step(start: np.ndarray, r_start: np.ndarray):
        np.subtract(start, model.residual_adjoint(r_start, out=grad), out=v)
        coeffs = row_soft_threshold(haar_dwt2(v, levels), lam / 2.0)
        x_new = haar_idwt2(coeffs, levels)
        return (x_new, *_cs_objective(x_new, model, lam, coeffs))

    t, restarts = 1.0, 0
    for _ in range(max_iters):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        x_new, cost, r_new = prox_step(_extrapolate(x, x_prev, beta, z),
                                       _extrapolate(r, r_prev, beta, r_z))
        if beta > 0.0 and cost > history[-1]:  # at beta = 0 the step is already plain
            x_new, cost, r_new = prox_step(x, r)
            t_next, restarts = 1.0, restarts + 1
        history.append(cost)
        step = np.sqrt(_sq_norm(np.subtract(x_new, x, out=z)))  # z is free after the step
        denom = max(np.sqrt(_sq_norm(x)), 1e-30)
        x_prev, r_prev, x, r, t = x, r, x_new, r_new, t_next
        if step <= rel_change_tol * denom:
            break
    image = MultiEchoImage(x)
    return image, CsState(image=image, cost_history=history, levels=levels, restarts=restarts)


def reconstruct_dl_sparse(
    y: KSpaceData, params: ReconParams
) -> tuple[MultiEchoImage, DlState]:
    """Dictionary-learning loop with entrywise (not row) shrinkage.

    Identical to :func:`multiecho.dict_recon.reconstruct_dl` except the
    coefficient step uses the scalar soft threshold, so sparsity is not shared
    across echoes.  With ``lam = 0`` both variants coincide exactly.
    """
    return reconstruct_dl(y, params, coef_prox="entry")
