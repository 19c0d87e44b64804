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
* image        — exact solve of the normal equations in the Fourier domain,
  by elimination over small Hermitian blocks.

The patches lie on the periodic grid (anchors at every multiple of the
stride, wrapping around the edges; see
:meth:`~multiecho.operators.PatchScheme.build`), so the stride must divide
both image dims.  On that grid the image step's operator commutes with
shifts by the stride, which splits it into small dense systems, one per
frequency of the stride-subsampled grid (see :func:`update_image_S1`).  The
patch term's blocks are built from ``T^T T`` alone by one bincount and one
batched FFT, the data term's from the row Grams at every call, and the
systems of every echo are solved together by one Gaussian elimination
written over the block axes, every operation acting on every echo and
frequency.  This is the closed-form image update of TLMRI (Ravishankar &
Bresler, SIAM J. Imaging Sci. 2015), taken from stride 1 to stride ``s``.

The patches ``X`` and the coefficients ``Z`` (``TlState.coefs``) share the
operators' ``(m, C, N)`` layout; the transform step reads their 2-D forms,
and ``T X`` and ``T^T Z`` are one GEMM per echo
(:func:`multiecho.operators._per_echo`).

The fidelity term, ``A^T y`` and ``A^T A`` come from one
:class:`~multiecho.operators.ForwardModel` built from ``y`` at the start of a
run.

Each cycle is scored from its image solve (:func:`_cycle_cost`): the solved
``x`` satisfies the normal equations, so the patch fit is
``sum_i ||T X_i - Z_i||^2 = -<E x, r> / mu - <x, t> + ||Z||^2`` with
``r = E x - y~`` and ``t = sum_i P_i^T T^T Z_i``, and a cycle gathers its
patches and runs the ``T X`` GEMM once.  :func:`objective_tl` scores only
the start.

Between outer iterations the image is extrapolated with FISTA weights (Beck &
Teboulle 2009) before the next cycle.  :func:`multiecho.solvers.descend` runs
the outer loop and owns its descent guard and stop rule; the guarded cycle
starts from the last accepted iterate without extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidArgumentError,
    KSpaceData,
    MultiEchoImage,
    ReconParams,
    _number_problems,
    _refuse,
)
from .dict_recon import init_dictionary_svd, scheme_for
from .operators import ForwardModel, PatchScheme, _per_echo, patch_stack, scatter_stack
from .solvers import (
    _row_penalty,
    _shrink_rows,
    _sq_norm,
    conjugate_gradient,  # unused here; the benchmark's tracer wraps this attribute
    descend,
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
    """Current iterate of the transform engine (see :class:`DlState`).

    ``transform`` is ``T`` as a plain float64 ``(patch_dim, patch_dim)`` array,
    with ``det T > 0``.
    """

    image: MultiEchoImage
    transform: np.ndarray
    coefs: np.ndarray  # C-contiguous (patch_dim, echoes, num_locations); rows on axis 1
    scheme: PatchScheme  # the periodic patch grid of the coefficients
    cost_history: list[float]

    def penalties(self) -> dict[str, float]:
        """Patch-model blocks by weight: ``mu`` fit, ``lam`` row norms, ``gamma`` conditioning.

        Raises ``InvalidArgumentError`` if ``det T <= 0``.
        """
        T = self.transform
        R = _per_echo(T, patch_stack(self.image.data, self.scheme))
        R -= self.coefs
        return {"mu": float(np.sum(R * R)), "lam": _row_penalty(self.coefs, axis=1),
                "gamma": _conditioning(T)}


def _conditioning(T: np.ndarray) -> float:
    """``||T||_F^2 - log det T``; raises ``InvalidArgumentError`` if ``det T <= 0``."""
    sign, logdet = np.linalg.slogdet(T)
    if sign <= 0:
        raise InvalidArgumentError("transform determinant is not positive")
    return float(np.sum(T * T)) - float(logdet)


def init_transform_svd(x0: MultiEchoImage, scheme: PatchScheme) -> np.ndarray:
    """Orthonormal start: the transposed dictionary start, ``det T = +1``.

    ``T`` is :func:`~multiecho.dict_recon.init_dictionary_svd` transposed,
    its last row negated when its determinant is negative.
    """
    T = init_dictionary_svd(x0, scheme).T
    if np.linalg.det(T) < 0:
        T[-1, :] *= -1.0
    return T


def objective_tl(state: TlState, model: ForwardModel, params: ReconParams) -> float:
    """Exact objective at ``state``; raises ``InvalidArgumentError`` if ``det T <= 0``."""
    blocks = state.penalties()
    return model.data_term(state.image.data) + params.mu * (
        blocks["mu"] + params.lam * blocks["lam"] + params.gamma * blocks["gamma"]
    )


def _cycle_cost(model: ForwardModel, x: np.ndarray, target: np.ndarray, T: np.ndarray,
                kept: np.ndarray, params: ReconParams) -> float:
    """:func:`objective_tl` at the image ``x`` that :func:`update_image_S1` solved for.

    ``target`` is the solve's ``t`` and ``kept`` the row norms of ``Z`` from
    :func:`update_coefs_S3`.  As ``x`` solves
    ``(A^T A + mu sum_i P_i^T T^T T P_i) x = A^T y + mu t``, the data term and
    the patch fit (see the module docstring) sum to
    ``-<y~, r> + mu (||Z||^2 - <x, t>)``.  Equal to the objective to
    rounding: within 1.3e-12 relative on whole shipped runs, 1e-8 at
    ``mu = 1e-6``, where the cost is small against the dot products.
    Raises ``InvalidArgumentError`` if ``det T <= 0``.
    """
    r = model.residual(x)
    return -float(np.einsum("ijk,ijk->", model.measured, r)) + params.mu * (
        _sq_norm(kept) - float(np.einsum("ijk,ijk->", x, target))
        + params.lam * float(kept.sum()) + params.gamma * _conditioning(T)
    )


def _polyphase(x: np.ndarray, s: int) -> np.ndarray:
    """``(H, W, C)`` -> ``(C, s*s, H/s, W/s)``: sub-image ``(a, b)`` is ``x[a::s, b::s]``."""
    h, w, echoes = x.shape
    sub = x.reshape(h // s, s, w // s, s, echoes)
    return sub.transpose(4, 1, 3, 0, 2).reshape(echoes, s * s, h // s, w // s)


def _data_symbol(model: ForwardModel, s: int) -> np.ndarray:
    """Symbol of ``A^T A`` on the polyphase grid, ``(s^2, s^2, C, H/s, 1)``.

    ``N_c`` is circulant along axis 0 and the identity along axis 1, so in
    polyphase form its block at row frequency ``k`` is
    ``kron(F_n N_c[s n + a, a'], I_s)``, the same for every column frequency.
    The block axes come first, as :func:`_solve_blocks` reads them.
    """
    echoes, h, _ = model.gram.shape
    rows = np.fft.fft(model.gram[:, :, :s].reshape(echoes, h // s, s, s), axis=1)
    rows = rows.transpose(2, 3, 0, 1)  # (a, a', C, H/s)
    blocks = rows[:, None, :, None] * np.eye(s)[:, None, :, None, None]
    return blocks.reshape(s * s, s * s, echoes, h // s, 1)


def _patch_symbol(G: np.ndarray, scheme: PatchScheme) -> np.ndarray:
    """Symbol of ``sum_i P_i^T G P_i`` on the polyphase grid, ``(s^2, s^2, H/s, W/s/2+1)``.

    The operator commutes with shifts by ``s``, so it is fixed by its
    response to the ``s^2`` pixels ``b`` of the first ``s x s`` cell.  The
    pair of patch offsets ``(o, o')`` sends pixel ``q + o'`` to ``q + o``
    for every anchor ``q``, a multiple of ``s``; so ``G[o, o']`` adds to
    exactly one entry of that response: column ``b = o' mod s``, row
    ``a = (b + o - o') mod s`` and sub-grid shift
    ``floor((b + o - o') / s) mod (H/s, W/s)``, per axis.  One bincount of
    ``G`` builds the response, and a batched real FFT its symbol.
    """
    s, hs, ws = scheme.stride, scheme.height // scheme.stride, scheme.width // scheme.stride
    o = np.arange(scheme.patch_size)
    b = o % s
    q = b + o[:, None] - o  # b + o - o' for the pair (o, o'), per axis
    a, n = q % s, q // s
    # Entry of G[o_r, o_c, o'_r, o'_c] in the (a, b, n_r, n_c) kernel, row-major.
    row = (a[:, None, :, None] * s + a[None, :, None, :]) * s * s + b[:, None] * s + b
    index = (row * hs + n[:, None, :, None] % hs) * ws + n[None, :, None, :] % ws
    kernel = np.bincount(index.ravel(), weights=G.ravel(), minlength=s**4 * hs * ws)
    return np.fft.rfft2(kernel.reshape(s * s, s * s, hs, ws))


def _solve_blocks(A: np.ndarray, b: np.ndarray) -> None:
    """Solve ``A x = b`` in place, over every trailing index at once.

    ``A`` is ``(n, n, ...)`` and ``b`` ``(n, ...)``: one ``n x n`` system per
    trailing index.  Gaussian elimination without pivoting, which is
    backward stable for the Hermitian positive definite blocks of the image
    step; ``A`` is overwritten and ``b`` becomes ``x``.
    """
    n = len(b)
    for k in range(n - 1):
        f = A[k + 1:, k] / A[k, k]
        A[k + 1:, k + 1:] -= f[:, None] * A[k, k + 1:]
        b[k + 1:] -= f * b[k]
    for k in range(n - 1, -1, -1):
        b[k] /= A[k, k]
        b[:k] -= A[:k, k] * b[k]


def update_image_S1(
    model: ForwardModel,
    T: np.ndarray,
    Z: np.ndarray,
    scheme: PatchScheme,
    params: ReconParams,
) -> tuple[MultiEchoImage, np.ndarray]:
    """Image step: the exact minimizer over ``x``, solved in the Fourier domain.

    Solves ``(A^T A + mu sum_i P_i^T G P_i) x = A^T y + mu sum_i P_i^T T^T Z_i``
    with ``G = T^T T`` on the periodic patch grid of stride ``s``, which is
    singular on unsampled rows unless ``mu > 0``.  Both operators commute with
    shifts by ``s`` (``A_c^T A_c`` is the row Gram ``N_c = model.gram[c]``,
    circulant along axis 0), so on the ``s^2`` sub-images ``x[a::s, b::s]``
    they act as block convolutions, and a 2-D real FFT over the sub-grid
    splits the system into one Hermitian ``s^2 x s^2`` system per frequency
    and echo.  These are positive definite, because ``det T > 0`` makes ``G``
    so and every pixel is covered; one elimination over the block axes
    (:func:`_solve_blocks`) solves every echo at once, in place in the
    spectrum, and an inverse FFT gives ``x`` as echo-major planes.  The data
    symbol (:func:`_data_symbol`) is cheap enough to build at every call.

    Returns ``(x, t)``: the image and ``t = sum_i P_i^T T^T Z_i`` as an
    ``(H, W, C)`` stack, which scores the cycle (:func:`_cycle_cost`).
    With ``T = I`` this is the dictionary-engine image step with
    ``D Z_i := Z_i`` on the same grid.
    """
    if not scheme.periodic:
        raise InvalidArgumentError("the transform image step needs the periodic patch grid")
    s, h, w = scheme.stride, scheme.height, scheme.width
    target = scatter_stack(_per_echo(T.T, Z), scheme)
    spectrum = np.fft.rfft2(_polyphase(model.aty + params.mu * target, s))
    patch_term = _patch_symbol(params.mu * (T.T @ T), scheme)
    _solve_blocks(_data_symbol(model, s) + patch_term[:, :, None],
                  spectrum.transpose(1, 0, 2, 3))
    sub = np.fft.irfft2(spectrum, s=(h // s, w // s))  # (C, s*s, H/s, W/s)
    x = sub.reshape(-1, s, s, h // s, w // s).transpose(0, 3, 1, 4, 2).reshape(-1, h, w)
    return MultiEchoImage(np.moveaxis(x, 0, 2)), target


def update_transform_S2(patches, Z: np.ndarray, gamma: float) -> np.ndarray:
    """Transform step, in closed form.

    With ``X`` and ``Z`` the ``(m, C*N)`` forms of the patches and coefficients:
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
    _refuse(_number_problems(positive=True, gamma=gamma))
    m = len(patches)
    X = np.asarray(patches, dtype=np.float64).reshape(m, -1)
    Zc = np.asarray(Z, dtype=np.float64).reshape(m, -1)
    w, V = np.linalg.eigh(X @ X.T + gamma * np.eye(m))
    L_inv = (V / np.sqrt(w)) @ V.T  # symmetric inverse square root
    Q, s, Rt = np.linalg.svd(L_inv @ (X @ Zc.T))
    R = Rt.T
    scale = 0.5 * (s + np.sqrt(s * s + 2.0 * gamma))
    if np.linalg.det(Q) * np.linalg.det(R) < 0:
        R[:, -1] *= -1.0
        scale[-1] = 0.5 * (-s[-1] + np.sqrt(s[-1] * s[-1] + 2.0 * gamma))
    return (R * scale) @ Q.T @ L_inv


def update_coefs_S3(patches, T: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient step: exact prox, ``Z_i = row_soft_threshold(T X_i, lam / 2)`` on axis 1.

    Returns ``(Z, kept)`` as :func:`multiecho.solvers._shrink_rows` does:
    ``kept`` holds the norms of the rows of ``Z``, which score its penalty
    and its squared norm.
    """
    Z = _per_echo(T, patches)
    return _shrink_rows(Z, lam / 2.0, out=Z, axis=1)


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
    :func:`objective_tl` scores the start, and each cycle is scored from its
    image solve (:func:`_cycle_cost`), equal to the objective to rounding.
    """
    model = ForwardModel(y)
    x = MultiEchoImage(model.aty)
    scheme = scheme_for(params, x.height, x.width, periodic=True)
    T = init_transform_svd(x, scheme)
    Z = update_coefs_S3(patch_stack(x.data, scheme), T, params.lam)[0]
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
        Z, kept = update_coefs_S3(X, state.transform, params.lam)
        T = update_transform_S2(X, Z, params.gamma)
        image, target = update_image_S1(model, T, Z, scheme, params)

        def accept():
            nonlocal x_prev, t
            state.image, state.transform, state.coefs = image, T, Z
            x_prev, t = x_cur, t_next

        return accept, _cycle_cost(model, image.data, target, T, kept, params)

    state.cost_history = descend(cycle, objective_tl(state, model, params),
                                 params.max_outer_iters, params.rel_cost_tol)
    return state.image, state
