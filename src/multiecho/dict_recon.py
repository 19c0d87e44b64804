"""Joint reconstruction with a learned synthesis dictionary.

Minimizes, over the image stack ``x``, dictionary ``D``, and per-location
coefficient matrices ``Z_i``::

    ||y - A x||^2 + mu * sum_i ( ||X_i - D Z_i||_F^2 + lam * ||Z_i||_2,1 )

where ``A`` is the masked unitary FFT, ``X_i`` the i-th all-echo patch of
``x``, and ``||.||_2,1`` the sum of row norms (shared row support couples the
echoes).  Block minimization alternates:

* coefficients — warm-started batched ISTA with the row prox,
* dictionary   — ridge-stabilized least squares, columns renormalized to unit
  norm with the corresponding coefficient rows rescaled (fidelity-preserving);
  exact single-atom updates in the guarded cycles of
  :func:`multiecho.solvers.descend`, which runs the outer loop,
* image        — exact per-column solve of the normal equations.

The fidelity term, ``A^T y`` and ``A^T A`` all come from one
:class:`~multiecho.operators.ForwardModel` built from ``y`` at the start of a
run; the data term is evaluated in row space, without an FFT.

The patches and coefficients share the operators' layout (see
:mod:`multiecho.operators`): ``X`` is the ``(m, C, N)`` gather of the image
and ``DlState.coefs`` the ``(k, C, N)`` array ``Z``, so atom ``j``'s
coefficients ``Z[j]`` are one contiguous ``(C, N)`` block.  ISTA, the fit
``D Z - X`` and the image step's ``D Z`` are one GEMM per echo slice
(:func:`multiecho.operators._per_echo`), ``X Z^T``/``Z Z^T`` come from one
syrk per 64-column block of the 2-D ``(m + k, C*N)`` form of ``[X; Z]``, and
the per-atom step updates the ``(m, C*N)`` residual by rank-1 terms.  Each of
these products is small enough that OpenBLAS runs it on one thread, so a
second BLAS thread adds no CPU time to an iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dictionary,
    InvalidArgumentError,
    KSpaceData,
    MultiEchoImage,
    ReconParams,
)
from .operators import ForwardModel, PatchScheme, _per_echo, patch_stack, scatter_stack
from .solvers import (
    _entry_penalty,
    _row_penalty,
    _sq_norm,
    conjugate_gradient,  # unused here; the benchmark's tracer wraps this attribute
    descend,
    ista_entrywise,
    ista_row_sparse,
    row_soft_threshold,
    soft_threshold,
)

__all__ = [
    "DlState",
    "scheme_for",
    "init_dictionary_svd",
    "objective_dl",
    "update_image_P1",
    "update_dictionary_P2",
    "update_coefs_P3",
    "reconstruct_dl",
]


def _is_row(coef_prox: str) -> bool:
    """Whether ``coef_prox`` names row sparsity (``'row'``) rather than entrywise (``'entry'``)."""
    if coef_prox not in ("row", "entry"):
        raise InvalidArgumentError(f"coef_prox must be 'row' or 'entry', got {coef_prox!r}")
    return coef_prox == "row"


@dataclass
class DlState:
    """Current iterate of the dictionary engine.

    ``coefs`` holds the coefficients of every location as one C-contiguous
    ``(num_atoms, echoes, num_locations)`` array; ``coefs[:, :, i]`` is
    location ``i``'s matrix ``Z_i``, and ``scheme`` is the patch grid whose
    locations they belong to.  ``coef_prox`` names the sparsity the
    coefficients obey: ``'row'`` (row norms, shared across echoes: axis 1)
    or ``'entry'`` (absolute values).  ``cost_history`` records the full
    objective once per outer iteration (plus the initial value).
    """

    image: MultiEchoImage
    dictionary: Dictionary
    coefs: np.ndarray
    scheme: PatchScheme
    cost_history: list[float]
    coef_prox: str = "row"

    def penalties(self) -> dict[str, float]:
        """Patch-model blocks by weight: ``mu`` the fit, ``lam`` the sparsity of ``coefs``."""
        Z = self.coefs
        R = _per_echo(self.dictionary.atoms, Z)  # every D Z_i
        R -= patch_stack(self.image.data, self.scheme)
        sparsity = _row_penalty(Z, axis=1) if _is_row(self.coef_prox) else _entry_penalty(Z)
        return {"mu": _sq_norm(R), "lam": sparsity}


def scheme_for(params: ReconParams, height: int, width: int,
               periodic: bool = False) -> PatchScheme:
    """Patch grid implied by ``params`` on an ``height x width`` plane.

    The dictionary engines use the flush grid, the transform engine the
    periodic one (see :meth:`~multiecho.operators.PatchScheme.build`).
    """
    return PatchScheme.build(height, width, params.patch_size, params.patch_stride,
                             periodic=periodic)


def _fix_column_signs(U: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: each column's largest-|.| entry is positive."""
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs


def _left_singular_basis(big: np.ndarray) -> np.ndarray:
    """All ``m`` left singular vectors of an ``m x n`` matrix, signs fixed.

    They are the eigenvectors of the ``m x m`` Gram ``big @ big.T``, taken
    from ``eigh`` and reversed into descending order of singular value.  The
    Gram yields a complete orthonormal basis whatever the shape of ``big``,
    and is far cheaper than an SVD when ``n >> m``.
    """
    _, V = np.linalg.eigh(big @ big.T)
    return _fix_column_signs(V[:, ::-1])


def init_dictionary_svd(x0: MultiEchoImage, scheme: PatchScheme) -> Dictionary:
    """Data-driven orthonormal start: left singular vectors of the patch matrix.

    All patches of all echoes of ``x0`` are concatenated column-wise and all
    ``m`` left singular vectors (sign fix: largest-magnitude entry of each atom
    positive) become the atoms: a square ``m x m`` basis, ``D^T D = I``.
    """
    big = patch_stack(x0.data, scheme).reshape(scheme.patch_dim, -1)
    if not np.any(big):
        raise InvalidArgumentError("cannot initialize a dictionary from all-zero patches")
    return Dictionary(_left_singular_basis(big))


def objective_dl(state: DlState, model: ForwardModel, params: ReconParams) -> float:
    """Exact objective value at ``state``: data + mu * (fit + lam * sparsity)."""
    blocks = state.penalties()
    fit, sparsity = blocks["mu"], blocks["lam"]
    return model.data_term(state.image.data) + params.mu * (fit + params.lam * sparsity)


_objective_with = objective_dl  # the engine's name for it, which the benchmark's tracer wraps


def _column_factors(model: ForwardModel, scheme: PatchScheme, mu: float):
    """The parts of the image step fixed for a run: ``(s, V, divisor)``.

    ``s = a^{-1/2}`` as a column, the eigenvectors ``V`` of
    ``diag(s) N_c diag(s)`` per echo, and the divisor ``w_c 1^T + mu 1 b^T``
    (see :func:`update_image_P1`).  They depend only on the mask, the patch
    grid and ``mu``.  ``b`` is ``cov[0] / cov[0, 0]``, so that ``a b^T`` is
    the coverage on either grid (``cov[0, 0] = 1`` on the flush grid).
    """
    cov = scheme.coverage()
    s = 1.0 / np.sqrt(cov[:, :1])  # a^{-1/2} as a column
    w, V = np.linalg.eigh(s * model.gram * s.T)
    # w >= 0 up to rounding (N_c is PSD); clipped, every divisor is >= mu.
    return s, V, np.maximum(w, 0.0)[:, :, None] + mu * (cov[0] / cov[0, 0])


def update_image_P1(
    model: ForwardModel,
    D: Dictionary,
    Z: np.ndarray,
    scheme: PatchScheme,
    params: ReconParams,
    factors=None,
) -> MultiEchoImage:
    """Image step: the exact minimizer over ``x``, one closed-form solve per column.

    Solves ``(A^T A + mu sum_i P_i^T P_i) x = A^T y + mu sum_i P_i^T D Z_i``,
    which is singular on unsampled rows unless ``mu > 0``.  ``A_c^T A_c`` is
    the row Gram ``N_c = model.gram[c]`` and the coverage is ``a b^T`` (see
    :meth:`~multiecho.operators.PatchScheme.coverage`), so column ``j`` of
    echo ``c`` solves ``(N_c + mu b_j diag(a)) x = r``.  With ``s = a^{-1/2}``
    and ``diag(s) N_c diag(s) = V_c diag(w_c) V_c^T`` (one batched ``eigh``),
    echo ``c`` is ``diag(s) V_c [(V_c^T diag(s) R_c) / (w_c 1^T + mu 1 b^T)]``
    for its right-hand side ``R_c``, dividing entrywise: two batched products.
    ``factors`` are :func:`_column_factors` of the same model, grid and
    ``mu``, computed once per run; without them they are computed here.
    """
    s, V, divisor = factors or _column_factors(model, scheme, params.mu)
    target = scatter_stack(_per_echo(D.atoms, Z), scheme)  # sum_i P_i^T (D Z_i)
    rhs = np.moveaxis(model.aty + params.mu * target, 2, 0)  # (C, H, W) view
    u = np.matmul(V.transpose(0, 2, 1), s * rhs)
    u /= divisor
    # The (H, W, C) view of echo-major planes, which the patch gather reads without a copy.
    return MultiEchoImage(np.moveaxis(s * np.matmul(V, u), 0, 2))


# Columns per block of _cross_grams, few enough that OpenBLAS runs each syrk
# on one thread.  At 2 threads, OpenBLAS 0.3.31 runs the syrk of the 72-row
# [X; Z] of 6x6 patches and 36 atoms on one thread up to 80 columns and on two
# from 96, and a woken second thread spins for about 0.1 s after the call.
_GRAM_BLOCK = 64


def _cross_grams(X: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sum_i X_i Z_i^T`` and ``sum_i Z_i Z_i^T`` as blocks of one Gram.

    The blocks come from the Gram of the stacked ``[X; Z]``, the
    ``(m + k, C*N)`` matrix, summed over blocks of its columns so that only
    one block is ever copied into place.  A matrix times its own transpose
    runs as one syrk, which gives the same bits at every BLAS thread count;
    a general GEMM over the ``C*N`` columns does not.
    """
    Xr, Zr = X.reshape(len(X), -1), Z.reshape(len(Z), -1)
    (m, n), k = Xr.shape, len(Zr)
    buf = np.empty((m + k) * min(_GRAM_BLOCK, n))
    gram = np.zeros((m + k, m + k))
    for start in range(0, n, _GRAM_BLOCK):
        stop = min(start + _GRAM_BLOCK, n)
        S = buf[:(m + k) * (stop - start)].reshape(m + k, -1)
        S[:m], S[m:] = Xr[:, start:stop], Zr[:, start:stop]
        gram += S @ S.T
    return gram[:m, m:], gram[m:, m:]


def update_dictionary_P2(patches, Z: np.ndarray) -> tuple[Dictionary, np.ndarray]:
    """Dictionary step: ridge least squares, then unit-norm columns.

    Solves ``D = (sum_i X_i Z_i^T) (sum_i Z_i Z_i^T + r I)^{-1}`` with
    ``r = 1e-8 * trace/k``, which keeps the solve defined when a coefficient
    row is zero.  Each column is then scaled to unit norm and the
    matching coefficient row is scaled by the removed norm, which leaves
    every product ``D Z_i`` — and hence the fidelity term — unchanged.
    Returns the new dictionary and the rescaled coefficients.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if not np.any(Z):
        raise InvalidArgumentError("all coefficient matrices are zero")
    X = np.asarray(patches, dtype=np.float64)
    m, k = len(X), len(Z)
    XZt, ZZt = _cross_grams(X, Z)
    r = 1e-8 * (np.trace(ZZt) / k)
    D_raw = np.linalg.solve(ZZt + r * np.eye(k), XZt.T).T
    norms = np.linalg.norm(D_raw, axis=0)
    used = norms > 1e-14 * max(float(norms.max()), 1e-300)
    D_new = np.where(used, D_raw / np.where(used, norms, 1.0), 0.0)
    # Unused atom (zero coefficient row): any unit vector preserves the
    # fidelity term exactly; pick a deterministic basis vector.
    unused = np.flatnonzero(~used)
    D_new[unused % m, unused] = 1.0
    return Dictionary(D_new), Z * norms[:, None, None]


def update_dictionary_atoms(
    patches, Z: np.ndarray, D_prev: Dictionary, lam: float, coef_prox: str = "row"
) -> tuple[Dictionary, np.ndarray]:
    """Dictionary step as a sweep of exact single-atom updates.

    For each atom in turn, two exact block minimizations run back to back:
    the unit-norm direction that best explains the atom's share of the
    residual is ``g / ||g||`` with ``g = sum_i E_i z_i``, and the atom's
    coefficient row is then re-solved in closed form (soft thresholding of
    the residual correlations against the unit atom, rowwise for
    ``coef_prox='row'`` and entrywise for ``'entry'``).  Each substep
    minimizes ``||X - D Z||_F^2 + lam * penalty(Z)`` over its own block, so
    the sweep never increases that cost.  Atoms whose coefficient rows are
    entirely zero keep their previous direction.  Slower per step than the
    least-squares update but safe to apply unconditionally.
    """
    row = _is_row(coef_prox)
    Z = np.asarray(Z, dtype=np.float64)
    Zr = Z.reshape(len(Z), -1).copy()  # row j holds z_j, the (C, N) block of atom j
    A = D_prev.atoms.copy()
    R = np.asarray(patches, dtype=np.float64) - _per_echo(A, Z)
    R = R.reshape(len(A), -1)  # (m, C*N)
    thresh = 0.5 * float(lam)
    # After the products above, which contract over atoms, only elementwise
    # updates and einsum reductions, which use no BLAS, touch R: the sweep
    # gives the same bits at every thread count.
    for j in range(A.shape[1]):
        zj = Zr[j]
        if not np.any(zj):
            continue
        R += A[:, j, None] * zj
        g = np.einsum("mc,c->m", R, zj)
        norm = float(np.sqrt(np.einsum("m,m->", g, g)))
        if norm > 0.0:
            A[:, j] = g / norm
        corr = np.einsum("m,mc->c", A[:, j], R)
        if row:
            Zr[j] = row_soft_threshold(corr.reshape(Z.shape[1], -1), thresh, axis=0).ravel()
        else:
            Zr[j] = soft_threshold(corr, thresh)
        R -= A[:, j, None] * Zr[j]
    return Dictionary(A), Zr.reshape(Z.shape)


def update_coefs_P3(
    patches, D: Dictionary, lam: float, Z_prev: np.ndarray | None = None,
    inner_iters: int = 20, coef_prox: str = "row",
) -> np.ndarray:
    """Coefficient step: warm-started ISTA (tolerance 1e-6) over the ``(m, C, N)`` patches."""
    ista = ista_row_sparse if _is_row(coef_prox) else ista_entrywise
    return ista(D, patches, lam, Z0=Z_prev, iters=inner_iters)


def reconstruct_dl(
    y: KSpaceData, params: ReconParams, coef_prox: str = "row"
) -> tuple[MultiEchoImage, DlState]:
    """Alternating dictionary-learning reconstruction.

    Starts from the zero-filled image with an SVD dictionary and zero
    coefficients, then repeats the coefficient, dictionary and image steps on
    the patches of the current image, in the outer loop of
    :func:`multiecho.solvers.descend` (``max_outer_iters``, ``rel_cost_tol``).
    The ordinary cycle's least-squares dictionary step rescales coefficients,
    which can raise the sparsity penalty; the guarded cycle's per-atom step
    :func:`update_dictionary_atoms` descends in every sub-step.
    """
    model = ForwardModel(y)
    x = MultiEchoImage(model.aty)
    scheme = scheme_for(params, x.height, x.width)
    D = init_dictionary_svd(x, scheme)
    Z = np.zeros((D.num_atoms, x.echoes, scheme.num_locations))

    state = DlState(image=x, dictionary=D, coefs=Z, scheme=scheme, cost_history=[],
                    coef_prox=coef_prox)
    factors = _column_factors(model, scheme, params.mu)

    def cycle(guarded: bool):
        X = patch_stack(state.image.data, scheme)
        Z = update_coefs_P3(X, state.dictionary, params.lam, Z_prev=state.coefs,
                            inner_iters=params.inner_iters, coef_prox=coef_prox)
        D = state.dictionary
        if np.any(Z):  # else nothing to fit yet; keep the SVD start
            if guarded:
                D, Z = update_dictionary_atoms(X, Z, D, params.lam, coef_prox)
            else:
                D, Z = update_dictionary_P2(X, Z)
        image = update_image_P1(model, D, Z, scheme, params, factors)
        trial = replace(state, image=image, dictionary=D, coefs=Z)

        def accept():
            state.image, state.dictionary, state.coefs = image, D, Z

        return accept, _objective_with(trial, model, params)

    state.cost_history = descend(cycle, _objective_with(state, model, params),
                                 params.max_outer_iters, params.rel_cost_tol)
    return state.image, state
