"""Joint reconstruction with a learned sparsifying transform.

Minimizes, over the image stack ``x``, square transform ``T``, and
per-location coefficient matrices ``Z_i``::

    ||y - A x||^2
      + mu * ( sum_i ||T X_i - Z_i||_F^2 + lam * sum_i ||Z_i||_2,1
               + gamma * (||T||_F^2 - log det T) )

The ``gamma`` term (counted once, not per patch) rules out trivial and
ill-conditioned transforms; its domain is ``det T > 0``.  All three blocks
have closed-form or CG solutions:

* coefficients — exact row shrinkage of ``T X_i``,
* transform    — closed form via an eigen-factorization of ``X X^T + gamma I``
  and an SVD (stationary point of the transform subproblem),
* image        — per-echo conjugate gradient on the normal equations.

The fidelity term, ``A^T y`` and ``A^T A`` come from one
:class:`~multiecho.operators.ForwardModel` built from ``y`` at the start of a
run.

Between outer iterations the image is extrapolated with FISTA weights (Beck &
Teboulle 2009) before the next cycle.  :func:`multiecho.solvers.descend` runs
the outer loop and owns its descent guard and stop rule; the guarded cycle
starts from the last accepted iterate without extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    InvalidArgumentError,
    KSpaceData,
    MultiEchoImage,
    ReconParams,
    Transform,
)
from .dict_recon import _left_singular_basis, scheme_for
from .operators import ForwardModel, PatchScheme, patch_stack, scatter_stack
from .solvers import _row_penalty, conjugate_gradient, descend, row_soft_threshold, to_rows

__all__ = [
    "TlState",
    "init_transform_svd",
    "objective_tl",
    "update_image_S1",
    "update_transform_S2",
    "update_coefs_S3",
    "reconstruct_tl",
]


@dataclass
class TlState:
    """Current iterate of the transform engine (see :class:`DlState`)."""

    image: MultiEchoImage
    transform: Transform
    coefs: np.ndarray  # (num_locations, patch_dim, echoes)
    cost_history: list[float]


def init_transform_svd(x0: MultiEchoImage, scheme: PatchScheme) -> Transform:
    """Orthonormal start: transposed left singular vectors of the patch matrix.

    Uses the same sign convention as the dictionary start, then flips the last
    row if needed so that ``det T = +1``.
    """
    big = to_rows(patch_stack(x0.data, scheme))
    if not np.any(big):
        raise InvalidArgumentError("cannot initialize a transform from all-zero patches")
    T = _left_singular_basis(big).T
    if np.linalg.det(T) < 0:
        T = T.copy()
        T[-1, :] *= -1.0
    return Transform(T)


def _penalty_blocks(state: TlState, params: ReconParams) -> tuple[float, float, float]:
    """Fit, row sparsity and conditioning terms at ``state`` (``det T > 0``)."""
    T = state.transform.matrix
    sign, logdet = np.linalg.slogdet(T)
    if sign <= 0:
        raise DomainError("transform determinant is not positive")
    x = state.image.data
    scheme = scheme_for(params, x.shape[0], x.shape[1])
    X = patch_stack(x, scheme)
    R = np.matmul(T, X) - state.coefs
    fit = float(np.sum(R * R))
    rows = _row_penalty(state.coefs)
    cond = float(np.sum(T * T)) - float(logdet)
    return fit, rows, cond


def objective_tl(state: TlState, model: ForwardModel, params: ReconParams) -> float:
    """Exact objective at ``state``; raises ``DomainError`` if ``det T <= 0``."""
    fit, rows, cond = _penalty_blocks(state, params)
    return model.data_term(state.image.data) + params.mu * (
        fit + params.lam * rows + params.gamma * cond
    )


def update_image_S1(
    model: ForwardModel,
    T: Transform,
    Z: np.ndarray,
    scheme: PatchScheme,
    params: ReconParams,
    x0: MultiEchoImage | None = None,
) -> MultiEchoImage:
    """Image step: per-echo CG on
    ``(A_c^T A_c + mu * sum_i P_i^T T^T T P_i) x_c = A_c^T y_c + mu * sum_i P_i^T T^T Z_i[:, c]``.

    With ``T = I`` this is exactly the dictionary-engine image step with
    ``D Z_i := Z_i``.  ``A_c^T A_c`` is applied as the echo's row Gram
    ``model.gram[c]``.
    """
    G = T.matrix.T @ T.matrix
    target = scatter_stack(np.matmul(T.matrix.T, Z), scheme)
    rhs = model.aty + params.mu * target
    x = np.empty(rhs.shape)
    for c in range(rhs.shape[2]):

        def normal_op(v, _n=model.gram[c]):
            patches = patch_stack(v, scheme)  # (N, m)
            return _n @ v + params.mu * scatter_stack(patches @ G, scheme)

        start = None if x0 is None else x0.data[:, :, c]
        x[:, :, c], _, _ = conjugate_gradient(
            normal_op, rhs[:, :, c], x0=start, tol=params.cg_tol,
            max_iters=params.cg_max_iters,
        )
    return MultiEchoImage(x)


def update_transform_S2(patches, Z: np.ndarray, gamma: float) -> Transform:
    """Transform step, in closed form.

    With ``X`` and ``Z`` the column-concatenated patches and coefficients:
    factor ``X X^T + gamma I = L L^T``, take the SVD
    ``L^{-1} X Z^T = Q S R^T``, and return
    ``T = R * (S + (S^2 + 2 gamma I)^{1/2}) / 2 * Q^T L^{-1}``,
    a stationary point of
    ``||T X - Z||_F^2 + gamma (||T||_F^2 - log det T)``.

    The log-det domain requires ``det T > 0``.  The formula's determinant sign
    follows ``det(X Z^T)``; when coefficient rows are zeroed at every location
    that matrix is singular and the SVD's sign on null directions is
    arbitrary, so the sign is enforced by flipping the direction of the
    smallest singular value (which leaves the subproblem value unchanged when
    that singular value is zero, and otherwise picks the best positive-
    determinant point of the same diagonal family).
    """
    if gamma <= 0:
        raise InvalidArgumentError(f"gamma must be > 0, got {gamma}")
    X = to_rows(np.asarray(patches, dtype=np.float64))
    Zc = to_rows(np.asarray(Z, dtype=np.float64))
    m = X.shape[0]
    w, V = np.linalg.eigh(X @ X.T + gamma * np.eye(m))
    L_inv = (V / np.sqrt(w)) @ V.T  # symmetric inverse square root
    Q, s, Rt = np.linalg.svd(L_inv @ (X @ Zc.T))
    R = Rt.T
    scale = 0.5 * (s + np.sqrt(s * s + 2.0 * gamma))
    if np.linalg.det(Q) * np.linalg.det(R) < 0:
        R = R.copy()
        R[:, -1] *= -1.0
        scale = scale.copy()
        scale[-1] = 0.5 * (-s[-1] + np.sqrt(s[-1] * s[-1] + 2.0 * gamma))
    T = (R * scale) @ Q.T @ L_inv
    return Transform(T)


def update_coefs_S3(patches, T: Transform, lam: float) -> np.ndarray:
    """Coefficient step: exact prox, ``Z_i = row_soft_threshold(T X_i, lam / 2)``."""
    return row_soft_threshold(np.matmul(T.matrix, patches), lam / 2.0)


def reconstruct_tl(y: KSpaceData, params: ReconParams) -> tuple[MultiEchoImage, TlState]:
    """Alternating transform-learning reconstruction with guarded momentum.

    Starts from the zero-filled image with an orthonormal SVD transform, then
    repeats coefficient, transform, and image steps in the outer loop of
    :func:`multiecho.solvers.descend` (``max_outer_iters``, ``rel_cost_tol``).
    The ordinary cycle starts from the image extrapolated with the FISTA
    weights, ``x_k + (t_k - 1) / t_{k+1} * (x_k - x_{k-1})`` with
    ``t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2`` and ``t_0 = 1``.  The guarded
    cycle is plain block-coordinate descent from the last accepted image
    (exact coefficient and transform steps, warm-started CG for the image)
    and restarts the weights at ``t = 1``.
    """
    if params.gamma <= 0:
        raise InvalidArgumentError("transform engine requires gamma > 0")
    model = ForwardModel(y)
    x = MultiEchoImage(model.aty)
    scheme = scheme_for(params, x.height, x.width)
    T = init_transform_svd(x, scheme)
    Z = update_coefs_S3(patch_stack(x.data, scheme), T, params.lam)
    state = TlState(image=x, transform=T, coefs=Z, cost_history=[])
    x_prev, t = x, 1.0

    def cycle(guarded: bool):
        x_cur = state.image
        if guarded:
            start, t_next = x_cur, 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            start = MultiEchoImage(x_cur.data + beta * (x_cur.data - x_prev.data))
        X = patch_stack(start.data, scheme)
        Z = update_coefs_S3(X, state.transform, params.lam)
        T = update_transform_S2(X, Z, params.gamma)
        image = update_image_S1(model, T, Z, scheme, params, x0=start)
        trial = TlState(image=image, transform=T, coefs=Z, cost_history=[])

        def accept():
            nonlocal x_prev, t
            state.image, state.transform, state.coefs = image, T, Z
            x_prev, t = x_cur, t_next

        return accept, objective_tl(trial, model, params)

    state.cost_history = descend(cycle, objective_tl(state, model, params),
                                 params.max_outer_iters, params.rel_cost_tol)
    return state.image, state
