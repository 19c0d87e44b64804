"""Joint reconstruction with a learned sparsifying transform.

Minimizes, over the image stack ``x``, square transform ``T``, and
per-location coefficient matrices ``Z_i``::

    ||y - A x||^2
      + mu * ( sum_i ||T X_i - Z_i||_F^2 + lam * sum_i ||Z_i||_2,1
               + gamma * (||T||_F^2 - log det T) )

The ``gamma`` term (counted once, not per patch) rules out trivial and
ill-conditioned transforms; its domain is ``det T > 0``.  All three blocks
have closed-form solutions:

* coefficients — exact row shrinkage of ``T X_i``,
* transform    — closed form via an eigen-factorization of ``X X^T + gamma I``
  and an SVD (stationary point of the transform subproblem),
* image        — exact solve of the normal equations in the Fourier domain.

The patches lie on the periodic grid (anchors at every multiple of the
stride, wrapping around the edges; see
:meth:`~multiecho.operators.PatchScheme.build`), so the stride must divide
both image dims.  On that grid the image step's operator commutes with
shifts by the stride, which splits it into small dense systems, one per
frequency of the stride-subsampled grid (see :func:`update_image_S1`).  This
is the closed-form image update of TLMRI (Ravishankar & Bresler, SIAM J.
Imaging Sci. 2015), taken from stride 1 to stride ``s``.

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
from .solvers import (
    _row_penalty,
    conjugate_gradient,  # unused here; the benchmark's tracer wraps this attribute
    descend,
    row_soft_threshold,
    to_rows,
)

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
    scheme: PatchScheme  # the periodic patch grid of the coefficients
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


def _penalty_blocks(state: TlState) -> tuple[float, float, float]:
    """Fit, row sparsity and conditioning terms at ``state`` (``det T > 0``)."""
    T = state.transform.matrix
    sign, logdet = np.linalg.slogdet(T)
    if sign <= 0:
        raise DomainError("transform determinant is not positive")
    X = patch_stack(state.image.data, state.scheme)
    R = np.matmul(T, X) - state.coefs
    fit = float(np.sum(R * R))
    rows = _row_penalty(state.coefs)
    cond = float(np.sum(T * T)) - float(logdet)
    return fit, rows, cond


def objective_tl(state: TlState, model: ForwardModel, params: ReconParams) -> float:
    """Exact objective at ``state``; raises ``DomainError`` if ``det T <= 0``."""
    fit, rows, cond = _penalty_blocks(state)
    return model.data_term(state.image.data) + params.mu * (
        fit + params.lam * rows + params.gamma * cond
    )


def _polyphase(x: np.ndarray, s: int) -> np.ndarray:
    """``(H, W, C)`` -> ``(C, s*s, H/s, W/s)``: sub-image ``(a, b)`` is ``x[a::s, b::s]``."""
    h, w, echoes = x.shape
    sub = x.reshape(h // s, s, w // s, s, echoes)
    return sub.transpose(4, 1, 3, 0, 2).reshape(echoes, s * s, h // s, w // s)


def _data_symbol(model: ForwardModel, s: int) -> np.ndarray:
    """Symbol of ``A^T A`` on the polyphase grid, ``(C, H/s, 1, s^2, s^2)``.

    ``N_c`` is circulant along axis 0 and the identity along axis 1, so in
    polyphase form its block at row frequency ``k`` is
    ``kron(F_n N_c[s n + a, a'], I_s)``, the same for every column frequency.
    It is fixed for a run.
    """
    echoes, h, _ = model.gram.shape
    rows = np.fft.fft(model.gram[:, :, :s].reshape(echoes, h // s, s, s), axis=1)
    blocks = rows[:, :, :, None, :, None] * np.eye(s)[:, None, :]
    return blocks.reshape(echoes, h // s, 1, s * s, s * s)


def _patch_symbol(G: np.ndarray, scheme: PatchScheme) -> np.ndarray:
    """Symbol of ``sum_i P_i^T G P_i`` on the polyphase grid, ``(H/s, W/s/2+1, s^2, s^2)``.

    The operator commutes with shifts by ``s``, so it is fixed by its
    columns at the ``s^2`` pixels of the first ``s x s`` cell; column ``b``
    is computed by applying the operator to that impulse, one plane at a
    time.
    """
    s, h, w = scheme.stride, scheme.height, scheme.width
    out = np.empty((h // s, w // s // 2 + 1, s * s, s * s), dtype=np.complex128)
    impulse = np.zeros((h, w, 1))
    for b in range(s * s):
        impulse[b // s, b % s] = 1.0
        column = scatter_stack(np.matmul(G, patch_stack(impulse, scheme)), scheme)
        impulse[b // s, b % s] = 0.0
        out[:, :, :, b] = np.moveaxis(np.fft.rfft2(_polyphase(column, s)[0]), 0, -1)
    return out


def update_image_S1(
    model: ForwardModel,
    T: Transform,
    Z: np.ndarray,
    scheme: PatchScheme,
    params: ReconParams,
    data_symbol: np.ndarray | None = None,
) -> MultiEchoImage:
    """Image step: the exact minimizer over ``x``, solved in the Fourier domain.

    Solves ``(A^T A + mu sum_i P_i^T G P_i) x = A^T y + mu sum_i P_i^T T^T Z_i``
    with ``G = T^T T`` on the periodic patch grid of stride ``s``.  Both
    operators commute with shifts by ``s`` (``A_c^T A_c`` is the row Gram
    ``N_c = model.gram[c]``, circulant along axis 0), so on the ``s^2``
    sub-images ``x[a::s, b::s]`` they act as block convolutions, and a 2-D
    real FFT over the sub-grid splits the system into one Hermitian
    ``s^2 x s^2`` system per frequency and echo.  These are positive
    definite, because ``det T > 0`` makes ``G`` so and every pixel is
    covered; one batched solve and an inverse FFT give ``x``.

    With ``T = I`` this is the dictionary-engine image step with
    ``D Z_i := Z_i`` on the same grid.  ``data_symbol`` is
    :func:`_data_symbol` of ``model`` at stride ``s``, computed once per run;
    without it it is computed here.
    """
    if not scheme.periodic:
        raise InvalidArgumentError("the transform image step needs the periodic patch grid")
    s, h, w = scheme.stride, scheme.height, scheme.width
    if data_symbol is None:
        data_symbol = _data_symbol(model, s)
    target = scatter_stack(np.matmul(T.matrix.T, Z), scheme)
    spectrum = np.fft.rfft2(_polyphase(model.aty + params.mu * target, s))
    rhs = np.moveaxis(spectrum, 1, -1)  # a view, solved in place: s*s entries per frequency
    patch_term = params.mu * _patch_symbol(T.matrix.T @ T.matrix, scheme)
    for c in range(len(rhs)):  # one echo at a time bounds the working memory
        rhs[c] = np.linalg.solve(data_symbol[c] + patch_term, rhs[c][..., None])[..., 0]
    sub = np.fft.irfft2(spectrum, s=(h // s, w // s))  # (C, s*s, H/s, W/s)
    x = sub.reshape(-1, s, s, h // s, w // s).transpose(3, 1, 4, 2, 0)
    return MultiEchoImage(np.ascontiguousarray(x).reshape(h, w, -1))


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
    (every step exact) and restarts the weights at ``t = 1``.  Patches lie
    on the periodic grid, so ``patch_stride`` must divide both image dims.
    """
    if params.gamma <= 0:
        raise InvalidArgumentError("transform engine requires gamma > 0")
    model = ForwardModel(y)
    x = MultiEchoImage(model.aty)
    scheme = scheme_for(params, x.height, x.width, periodic=True)
    data_symbol = _data_symbol(model, scheme.stride)
    T = init_transform_svd(x, scheme)
    Z = update_coefs_S3(patch_stack(x.data, scheme), T, params.lam)
    state = TlState(image=x, transform=T, coefs=Z, scheme=scheme, cost_history=[])
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
        image = update_image_S1(model, T, Z, scheme, params, data_symbol)
        trial = TlState(image=image, transform=T, coefs=Z, scheme=scheme, cost_history=[])

        def accept():
            nonlocal x_prev, t
            state.image, state.transform, state.coefs = image, T, Z
            x_prev, t = x_cur, t_next

        return accept, objective_tl(trial, model, params)

    state.cost_history = descend(cycle, objective_tl(state, model, params),
                                 params.max_outer_iters, params.rel_cost_tol)
    return state.image, state
