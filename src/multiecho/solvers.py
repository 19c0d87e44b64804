"""Numerical workhorses: proximal maps, ISTA and the descent loop.

:func:`conjugate_gradient` and :func:`power_iteration` have no caller in the
engines, whose image steps are exact solves; they stay only because the
benchmark's tracer (``perfbench/tracer.py``) wraps them by name, until the
benchmark reads an in-program trace instead (ROADMAP item 2).

The row prox and penalty take the row direction as an axis (the last by
default), so one call thresholds every atom-row of a coefficient stack.
Both measure rows with one kernel, :func:`_row_norms`; :func:`_shrink_rows`
also returns the norms of the rows it kept, which score the penalty.

ISTA takes the patches in the operators' ``(m, C, N)`` layout (see
:mod:`multiecho.operators`).  Every product with the dictionary contracts
over the patch or atom dimension and runs as one GEMM per echo slice
(:func:`multiecho.operators._per_echo`), sized for one OpenBLAS thread.
Such products give the same bits at every BLAS thread count.  The row prox
shrinks the ``(k, C, N)`` coefficients along their echo axis, 1.

An ISTA iteration allocates no coefficient-sized array: past the GEMM, every
pass writes over one of two buffers the loop owns (three for the entrywise
prox, which cannot write over its input), and each iterate's squared norm is
taken once, for the next stop test.
"""

from __future__ import annotations

import functools
from typing import Callable, Union

import numpy as np

from .core import (InvalidArgumentError, NumericalFailureError, _count_problems,
                   _number_problems, _refuse, _seed_problems)
from .operators import _per_echo

__all__ = [
    "conjugate_gradient",
    "row_soft_threshold",
    "soft_threshold",
    "power_iteration",
    "ista_row_sparse",
    "ista_entrywise",
    "descend",
]

# Relative rise in cost above which :func:`descend` replaces a cycle with the
# guarded one; the engines' histories descend up to this slack.
DESCENT_SLACK = 1e-6


def conjugate_gradient(
    apply_A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iters: int = 100,
) -> tuple[np.ndarray, int, float]:
    """Solve ``A x = b`` for symmetric positive (semi)definite ``A``.

    Parameters
    ----------
    apply_A : callable
        Matrix-free application of ``A``; must preserve the shape of ``b``.
    b : ndarray
        Right-hand side (any shape; inner products flatten).
    x0 : ndarray, optional
        Warm start.  CG monotonically decreases the quadratic
        ``x^T A x / 2 - b^T x`` from here.
    tol : float
        Terminate once ``||b - A x|| <= tol * ||b||``; finite and >= 0.
    max_iters : int
        Iteration cap, an integer >= 1.

    Returns
    -------
    (x, iters, residual_norm)
    """
    _refuse(_number_problems(tol=tol) + _count_problems(max_iters=max_iters))
    if not callable(apply_A):
        apply_A = (lambda v, _m=np.asarray(apply_A, dtype=np.float64): _m @ v)
    b = np.asarray(b, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - apply_A(x)
    p = r.copy()
    rs = float(np.vdot(r, r))
    if np.sqrt(rs) <= tol * b_norm:
        return x, 0, float(np.sqrt(rs))
    for k in range(1, max_iters + 1):
        Ap = apply_A(p)
        pAp = float(np.vdot(p, Ap))
        if not np.isfinite(pAp):
            raise NumericalFailureError(f"conjugate gradient broke down at iteration {k}")
        if pAp <= 0.0:
            break  # p is in the (numerical) null space; current x is optimal there
        alpha = rs / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(np.vdot(r, r))
        if not np.isfinite(rs_new):
            raise NumericalFailureError(f"non-finite residual at iteration {k}")
        if np.sqrt(rs_new) <= tol * b_norm:
            return x, k, float(np.sqrt(rs_new))
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, max_iters, float(np.sqrt(rs))


def _row_norms(M: np.ndarray, axis: int = -1) -> np.ndarray:
    """Norms of the rows of ``M`` along ``axis``, which is kept at length 1.

    One einsum over the rows, with no temporary of ``M``'s size.  On the
    engines' layouts (rows along an axis that is not the contiguous one) it
    gives the bits of ``np.linalg.norm``.
    """
    rows = np.moveaxis(M, axis, -1)
    return np.expand_dims(np.sqrt(np.einsum("...i,...i->...", rows, rows)), axis)


def _shrink_rows(M: np.ndarray, tau: float, out: np.ndarray | None = None,
                 axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """:func:`row_soft_threshold`, returned with the norms of the rows it kept.

    Returns ``(shrunk, kept)``: ``kept = max(0, ||m|| - tau)`` for each row
    ``m``, shaped as :func:`_row_norms` gives it.  So ``kept.sum()`` is the
    l2,1 norm of ``shrunk`` and ``_sq_norm(kept)`` its squared Frobenius
    norm, to rounding, without reading ``shrunk`` again.
    """
    _refuse(_number_problems(tau=tau))
    arr = np.asarray(M, dtype=np.float64)
    norms = _row_norms(arr, axis)
    # A finite norm means a finite row; an infinite one may still come from a
    # huge finite entry, so only then are the entries checked one by one.
    if not np.all(np.isfinite(norms)) and not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("row_soft_threshold input contains non-finite entries")
    scale = np.maximum(0.0, 1.0 - tau / np.where(norms > 0, norms, 1.0))
    return np.multiply(arr, scale, out=out), norms * scale


def row_soft_threshold(M: np.ndarray, tau: float, out: np.ndarray | None = None,
                       axis: int = -1) -> np.ndarray:
    """Group shrinkage of the rows of ``M``, which run along ``axis``.

    Each row ``m`` maps to ``max(0, 1 - tau/||m||) * m`` — the proximal map of
    ``tau * sum_of_row_norms`` — so rows with norm below ``tau`` become exactly
    zero and the rest keep their direction.  Other axes are batched, bit for
    bit as if ``axis`` were last.  The result goes to ``out`` when given,
    which may be ``M`` itself.
    This is :func:`_shrink_rows` without the kept norms.
    """
    return _shrink_rows(M, tau, out, axis)[0]


def soft_threshold(M: np.ndarray, tau: float, out: np.ndarray | None = None) -> np.ndarray:
    """Entrywise shrinkage ``sign(m) * max(|m| - tau, 0)`` (prox of ``tau * l1``).

    The result is written to ``out`` when given (same shape as ``M``, not
    overlapping it).  Zero entries map to ``+0.0``, as ``sign(-0.0) = 0``
    makes them.
    """
    _refuse(_number_problems(tau=tau))
    arr = np.asarray(M, dtype=np.float64)
    if out is not None and np.may_share_memory(arr, out):
        raise InvalidArgumentError("soft_threshold cannot write over its input")
    mag = np.abs(arr, out=out)
    mag -= tau
    np.maximum(mag, 0.0, out=mag)
    if not np.isfinite(mag.max(initial=0.0)):  # the max propagates NaN
        raise InvalidArgumentError("soft_threshold input contains non-finite entries")
    return np.copysign(mag, arr, out=mag, where=arr != 0)


def _row_penalty(Z: np.ndarray, axis: int = -1) -> float:
    """The l2,1 norm, the sum of :func:`_row_norms`; its prox is :func:`row_soft_threshold`."""
    return float(_row_norms(Z, axis).sum())


def _entry_penalty(Z: np.ndarray) -> float:
    """Sum of the absolute values; its prox is :func:`soft_threshold`."""
    return float(np.abs(Z).sum())


def power_iteration(
    G: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]],
    dim: int,
    iters: int = 200,
    seed: int = 0,
) -> float:
    """Largest eigenvalue of a symmetric PSD operator by power iteration.

    Deterministic for a given seed (random unit start vector, Rayleigh
    quotient estimate).  Returns 0.0 for the zero operator.  ``dim`` and
    ``iters`` must be integers >= 1 and ``seed`` an integer >= 0; one
    ``InvalidArgumentError`` lists every violation.
    """
    _refuse(_count_problems(dim=dim, iters=iters) + _seed_problems(seed))
    apply_G = G if callable(G) else (lambda v, _m=np.asarray(G, dtype=np.float64): _m @ v)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = apply_G(v)
        est = float(v @ w)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
    return est


def _sq_norm(a: np.ndarray) -> float:
    # einsum reduces without BLAS, so the value is the same at any thread count.
    flat = a.ravel()
    return float(np.einsum("i,i->", flat, flat))


def _ista(D, X, lam, Z0, iters, rel_tol, prox, in_place):
    _refuse(_number_problems(lam=lam, rel_tol=rel_tol) + _count_problems(iters=iters))
    atoms = np.asarray(D, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if atoms.ndim != 2 or X.ndim < 2 or len(X) != atoms.shape[0]:
        raise InvalidArgumentError(
            f"dictionary {atoms.shape} does not act on patches {X.shape}"
        )
    k = atoms.shape[1]
    z_shape = (k, *X.shape[1:])
    if Z0 is not None and np.shape(Z0) != z_shape:
        raise InvalidArgumentError(f"Z0 shape {np.shape(Z0)} does not match {z_shape}")
    gram = atoms.T @ atoms
    # Step size from the gradient Lipschitz bound 2 * lambda_max(D^T D), with
    # lambda_max exact from the k x k Gram; the 1.01 safety factor keeps the
    # majorization (and hence descent) valid.
    L = 1.01 * float(np.linalg.eigvalsh(gram)[-1])
    if L <= 0.0:
        raise InvalidArgumentError("dictionary has zero spectral norm")
    # Z - D^T (D Z - X) / L  ==  (I - D^T D / L) Z + D^T X / L: one k x k
    # product per echo and one add per iteration.
    bias = _per_echo(atoms.T, X)
    bias /= L
    step_op = np.eye(k) - gram / L
    tau = lam / (2.0 * L)
    # Every pass but the GEMM works in place over buffers drawn from ``free``.
    # An in-place prox shrinks the GEMM buffer V, which then is Z_new; the
    # entrywise prox cannot write over its input, so it takes a third buffer
    # and V goes back to ``free``.  The step is scored as Z - Z_new over the
    # old iterate's buffer, dead once Z_new exists; its squares are those of
    # Z_new - Z.  The caller's Z0 is never written: on the first iteration of
    # a warm start the difference goes into a free buffer instead.
    free = [np.empty_like(bias) for _ in range(2 if in_place else 3)]
    owned = Z0 is None
    if owned:
        Z = free.pop()
        Z.fill(0.0)
    else:
        Z = np.asarray(Z0, dtype=np.float64)
    scale = _sq_norm(Z)  # ||Z||^2, carried forward from one iteration to the next
    for _ in range(iters):
        V = free.pop()
        _per_echo(step_op, Z, out=V)
        V += bias
        Z_new = V if in_place else free.pop()
        prox(V, tau, out=Z_new)
        if not in_place:
            free.append(V)
        diff = np.subtract(Z, Z_new, out=Z if owned else free[-1])
        step = _sq_norm(diff)
        if owned:
            free.append(Z)
        Z, owned = Z_new, True
        if np.sqrt(step) <= rel_tol * max(np.sqrt(scale), 1e-30):
            break
        scale = _sq_norm(Z)
    return Z


def ista_row_sparse(
    D,
    X: np.ndarray,
    lam: float,
    Z0: np.ndarray | None = None,
    iters: int = 20,
    rel_tol: float = 1e-6,
):
    """Minimize ``||X - D Z||_F^2 + lam * sum_of_row_norms(Z)`` by proximal gradient.

    ``D`` is the ``(patch_dim, atoms)`` dictionary, a plain array taken as
    float64.  ``X`` may be one patch matrix ``(patch_dim, echoes)`` or the
    patches of every location, ``(patch_dim, echoes, locations)``; the same
    dictionary and step size are shared across locations.  The result has
    the matching C-contiguous ``(atoms, echoes, ...)`` shape, and a row is
    one atom's coefficients over the echoes (axis 1).  Warm-startable via ``Z0``, which
    is read in place, never copied or written; the objective is
    non-increasing across iterations.  An iteration reads only the previous
    iterate, so with ``rel_tol=0`` a chain of ``n`` single-iteration calls
    gives the bits of one ``iters=n`` call.  ``lam`` and ``rel_tol`` must be
    finite and >= 0 and ``iters`` an integer >= 1; one
    ``InvalidArgumentError`` lists every violation.
    """
    # Looked up at call time; it shrinks along the echo axis, 1.
    return _ista(D, X, lam, Z0, iters, rel_tol, functools.partial(row_soft_threshold, axis=1),
                 in_place=True)


def ista_entrywise(
    D,
    X: np.ndarray,
    lam: float,
    Z0: np.ndarray | None = None,
    iters: int = 20,
    rel_tol: float = 1e-6,
):
    """Entrywise-l1 twin of :func:`ista_row_sparse` (prox = scalar shrinkage)."""
    return _ista(D, X, lam, Z0, iters, rel_tol, soft_threshold, in_place=False)


def descend(cycle: Callable[[bool], tuple[Callable[[], None], float]], cost: float,
            max_iters: int, rel_tol: float) -> list[float]:
    """Outer loop of the alternating engines: history, descent guard, stop rule.

    ``cycle(guarded)`` runs one iteration from the last accepted iterate and
    returns ``(accept, cost)``; ``accept()`` commits it.  An ordinary cycle
    ``cycle(False)`` that ends above ``prev + DESCENT_SLACK * |prev|`` is
    replaced by the guarded ``cycle(True)``, which must not raise the cost.
    Stops after ``max_iters`` iterations, or once the ordinary or the accepted
    cycle changes the cost by at most ``rel_tol * |prev|``, so a retry cannot
    restart a run that has settled.  Returns ``[cost, *accepted costs]``.
    """
    history = [cost]
    for _ in range(max_iters):
        prev = history[-1]
        tol = rel_tol * max(abs(prev), 1e-30)
        accept, cost = cycle(False)
        settled = abs(prev - cost) <= tol
        if cost > prev + DESCENT_SLACK * abs(prev):
            accept, cost = cycle(True)
        accept()
        history.append(cost)
        if settled or abs(prev - cost) <= tol:
            break
    return history
