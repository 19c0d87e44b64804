"""Reference reconstructions: zero-filled and group-sparse wavelet CS.

The compressed-sensing baseline solves::

    min_x ||y - A x||^2 + lam * sum_rows ||(S x)_row||_2

by guarded FISTA, where ``S`` is the orthonormal one-level 2-D Haar
transform over the first two axes of the ``(H, W, C)`` stack and a "row" is
one coefficient position across all echoes.  One level is separable,
``S x_c = H_H x_c H_W^T``, so the iteration runs on the coefficients
``c = S x``: with ``E`` and ``y~`` the row-space arrays of the run's
:class:`~multiecho.operators.ForwardModel`, ``||A x - y|| = ||E' c - y~'||``
for ``E' = E H_H^T`` and ``y~' = y~ H_W^T``, both built once per run.
A step is scored from the row norms its shrinkage kept and from the
residual it carries, with no further read of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (KSpaceData, MultiEchoImage, ReconParams, _count_problems, _number_problems,
                   _refuse)
from .operators import ForwardModel, _echo_major, apply_adjoint
from .solvers import _row_penalty, _shrink_rows, _sq_norm

__all__ = [
    "haar_dwt2",
    "haar_idwt2",
    "reconstruct_zero_filled",
    "CsState",
    "reconstruct_cs_analysis",
]

_SQRT2 = np.sqrt(2.0)


def _haar_problems(shape: tuple[int, ...]) -> list[str]:
    """Violations of the one-level Haar transform's input shape."""
    if len(shape) not in (2, 3):
        return [f"expected a plane or an (H, W, C) stack, got {shape}"]
    if shape[0] % 2 or shape[1] % 2:
        return [f"image dims {shape[0]}x{shape[1]} must be divisible by 2 for the "
                f"one-level Haar transform"]
    return []


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


def haar_dwt2(x: np.ndarray) -> np.ndarray:
    """Orthonormal one-level 2-D Haar transform over axes 0 and 1.

    ``x`` is one ``(H, W)`` plane or an ``(H, W, C)`` stack with even ``H``
    and ``W``; a trailing echo axis is batched, and each plane of a stack gets
    exactly the bits it would get on its own.  Coefficients are in quadrant
    layout: the ``(H/2, W/2)`` approximation top left, the three detail bands
    around it.  Energy-preserving and exactly inverted by :func:`haar_idwt2`.
    """
    out = np.array(x, dtype=np.float64)
    _refuse(_haar_problems(out.shape))
    sub = _haar_fwd_rows(out)
    out[...] = _haar_fwd_rows(sub.swapaxes(0, 1)).swapaxes(0, 1)
    return out


def haar_idwt2(coeffs: np.ndarray) -> np.ndarray:
    """Exact inverse (= adjoint) of :func:`haar_dwt2`, for a plane or a stack."""
    out = np.array(coeffs, dtype=np.float64)
    _refuse(_haar_problems(out.shape))
    sub = _haar_inv_rows(out.swapaxes(0, 1)).swapaxes(0, 1)
    out[...] = _haar_inv_rows(sub)
    return out


def reconstruct_zero_filled(y: KSpaceData) -> MultiEchoImage:
    """Direct inversion with unmeasured k-space set to zero (no iterations)."""
    return apply_adjoint(y)


@dataclass
class CsState:
    """Objective history and final Haar coefficients of the CS baseline.

    ``coefs`` are the final one-level coefficients, ``(H, W, C)`` in
    :func:`haar_dwt2`'s layout, whose inverse transform is the image that
    :func:`reconstruct_cs_analysis` returns.  ``restarts`` counts the
    momentum steps that were redone as plain steps.
    """

    cost_history: list[float]
    coefs: np.ndarray
    restarts: int

    def penalties(self) -> dict[str, float]:
        """The penalty block, keyed by its weight: ``lam``, the row norms of ``coefs``."""
        return {"lam": _row_penalty(self.coefs)}


def _haar_rows_of(a: np.ndarray) -> np.ndarray:
    """``a @ H^T`` for a stack of matrices: each row one-level Haar transformed."""
    return np.ascontiguousarray(np.moveaxis(_haar_fwd_rows(np.moveaxis(a, -1, 0)), 0, -1))


def _cs_objective(c: np.ndarray, rows: np.ndarray, measured: np.ndarray,
                  lam: float, penalty: float) -> tuple[float, np.ndarray]:
    """Objective and residual ``E' c - y~'`` at ``(C, H, W)`` coefficients ``c``.

    ``rows`` is ``E'`` and ``measured`` is ``y~'``: ``||E' c - y~'|| = ||A S^T c - y||``.
    ``penalty`` is the l2,1 norm of ``c`` over its echo axis, 0, which the
    caller already holds (the shrinkage's kept row norms, summed).
    """
    r = np.matmul(rows, c)
    r -= measured
    return _sq_norm(r) + lam * penalty, r


def _extrapolate(cur: np.ndarray, prev: np.ndarray, beta: float, out: np.ndarray) -> np.ndarray:
    """``cur + beta * (cur - prev)``, written to ``out``."""
    np.subtract(cur, prev, out=out)
    out *= beta
    out += cur
    return out


def _cs_problems(max_iters, rel_change_tol=0.0) -> list[str]:
    """Violations of the CS stop settings: an integer cap >= 1, a finite tolerance >= 0."""
    return _count_problems(max_iters=max_iters) + _number_problems(rel_change_tol=rel_change_tol)


def reconstruct_cs_analysis(y: KSpaceData, params: ReconParams, max_iters: int = 1000,
                            rel_change_tol: float = 1e-6) -> tuple[MultiEchoImage, CsState]:
    """Group-sparse one-level Haar CS reconstruction by guarded FISTA.

    Each step is a proximal gradient step of length 1/2 on the coefficients
    (the gradient ``2 E'^T (E' c - y~')`` is 2-Lipschitz) that shrinks their
    rows by ``params.lam / 2``, taken from ``c_k + (t_k - 1) / t_{k+1} *
    (c_k - c_{k-1})`` with ``t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2``,
    ``t_0 = 1`` (Beck & Teboulle 2009).  A step whose objective is above the
    last recorded one (no slack) is redone from ``c_k`` and the weights
    restart at ``t = 1`` (O'Donoghue & Candes 2015).  The residual is linear
    in ``c``, so it is extrapolated along with ``c``: a step costs one
    ``(2L, H)`` product each way per echo and no transform.  The step's
    l2,1 value is the sum of the row norms the shrinkage kept, its data term
    the squared residual, and the ``||c||`` of the next stop test the norm of
    those kept row norms, so nothing reads the new coefficients again.
    Starts from ``S A^T y``; stops after ``max_iters`` steps or once
    ``||c_new - c|| <= rel_change_tol * ||c||``.  Image dims must be even,
    and the stop settings must pass :func:`_cs_problems`.
    """
    _refuse(_cs_problems(max_iters, rel_change_tol))
    model = ForwardModel(y)
    lam = params.lam
    c = c_prev = _echo_major(haar_dwt2(model.aty))
    rows, measured = _haar_rows_of(model.rows), _haar_rows_of(model.measured)
    rows_t = rows.transpose(0, 2, 1)
    cost, r = _cs_objective(c, rows, measured, lam, _row_penalty(c, axis=0))
    r_prev, history, sq_c = r, [cost], _sq_norm(c)
    # Work buffers, reused by every iteration.
    z, v, r_z = np.empty(c.shape), np.empty(c.shape), np.empty(r.shape)

    def prox_step(start: np.ndarray, r_start: np.ndarray):
        np.subtract(start, np.matmul(rows_t, r_start, out=v), out=v)
        # A row is one coefficient position across the echoes (axis 0).
        c_new, kept = _shrink_rows(v, lam / 2.0, axis=0)
        return (c_new, _sq_norm(kept),
                *_cs_objective(c_new, rows, measured, lam, float(kept.sum())))

    t, restarts = 1.0, 0
    for _ in range(max_iters):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        c_new, sq_new, cost, r_new = prox_step(_extrapolate(c, c_prev, beta, z),
                                               _extrapolate(r, r_prev, beta, r_z))
        if beta > 0.0 and cost > history[-1]:  # at beta = 0 the step is already plain
            c_new, sq_new, cost, r_new = prox_step(c, r)
            t_next, restarts = 1.0, restarts + 1
        history.append(cost)
        step = np.sqrt(_sq_norm(np.subtract(c_new, c, out=z)))  # z is free after the step
        denom = max(np.sqrt(sq_c), 1e-30)
        c_prev, r_prev, c, r, t, sq_c = c, r, c_new, r_new, t_next, sq_new
        if step <= rel_change_tol * denom:
            break
    coefs = np.moveaxis(c, 0, 2)
    state = CsState(cost_history=history, coefs=coefs, restarts=restarts)
    return MultiEchoImage(haar_idwt2(coefs)), state

