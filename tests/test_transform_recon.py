"""Transform-learning engine: SVD init, closed-form transform step, descent.

The transform update is verified through the first-order stationarity
condition of its subproblem (an oracle that never touches the update's own
algebra) and through the analytically solved scalar case.
"""

from dataclasses import replace

import numpy as np
import pytest

import multiecho as me
from multiecho import InvalidArgumentError, ReconParams
from multiecho import transform_recon
from multiecho.dict_recon import init_dictionary_svd, scheme_for
from multiecho.operators import patch_stack, scatter_stack
from multiecho.solvers import row_soft_threshold
from multiecho.transform_recon import (
    TlState,
    init_transform_svd,
    objective_tl,
    update_coefs_S3,
    update_image_S1,
    update_transform_S2,
)

from conftest import assert_monotone


def s2_objective(T: np.ndarray, X: np.ndarray, Z: np.ndarray, gamma: float) -> float:
    """The transform subproblem objective (independent recomputation)."""
    sign, logdet = np.linalg.slogdet(T)
    if sign <= 0:
        return np.inf
    fit = float(np.sum((T @ X - Z) ** 2))
    return fit + gamma * (float(np.sum(T * T)) - float(logdet))


def s2_gradient(T: np.ndarray, X: np.ndarray, Z: np.ndarray, gamma: float) -> np.ndarray:
    """Gradient of the subproblem: 2(TX - Z)X^T + 2*gamma*T - gamma*T^{-T}."""
    return 2.0 * (T @ X - Z) @ X.T + 2.0 * gamma * T - gamma * np.linalg.inv(T).T


def random_instance(rng, n, cols):
    X = rng.normal(size=(n, cols))
    Z = rng.normal(size=(n, cols))
    gamma = float(rng.uniform(0.2, 5.0))
    return X, Z, gamma


def as_patches(X: np.ndarray) -> np.ndarray:
    """(m, cols) concatenated matrix -> (m, 1, cols) patches: one echo, a location per column."""
    return X[:, None, :]


def apply(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``M X_i`` at every location of an ``(m, C, N)`` array."""
    return np.tensordot(M, X, 1)


def per_echo(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``M X_i`` at every location of an ``(m, C, N)`` array, one product per echo."""
    return np.stack([M @ X[:, c] for c in range(X.shape[1])], axis=1)


class TestInitTransformSvd:
    def test_orthonormal_unit_determinant(self, small_truth):
        scheme = scheme_for(ReconParams(), 32, 32)
        T = init_transform_svd(small_truth, scheme)
        assert T.shape == (64, 64)
        assert np.allclose(T @ T.T, np.eye(64), atol=1e-10)
        assert np.linalg.det(T) == pytest.approx(1.0, abs=1e-10)
        # The dictionary start transposed, at most its last row negated.
        D = init_dictionary_svd(small_truth, scheme)
        assert np.array_equal(T[:-1], D.T[:-1])
        assert np.array_equal(T[-1], D[:, -1]) or np.array_equal(T[-1], -D[:, -1])

    def test_deterministic(self, small_truth):
        scheme = scheme_for(ReconParams(), 32, 32)
        T1 = init_transform_svd(small_truth, scheme)
        T2 = init_transform_svd(small_truth, scheme)
        assert np.array_equal(T1, T2)

    def test_zero_image_rejected(self):
        scheme = scheme_for(ReconParams(patch_size=4, patch_stride=4), 8, 8)
        with pytest.raises(InvalidArgumentError, match="all-zero"):
            init_transform_svd(me.MultiEchoImage(np.zeros((8, 8, 2))), scheme)

    def test_square_with_fewer_patches_than_pixels(self, rng):
        # one 8x8 patch of one echo: the patch matrix is 64 x 1, so the
        # basis has to be completed beyond its single singular vector
        scheme = scheme_for(ReconParams(patch_size=8, patch_stride=8), 8, 8)
        T = init_transform_svd(me.MultiEchoImage(rng.normal(size=(8, 8, 1))), scheme)
        assert T.shape == (64, 64)
        assert np.allclose(T @ T.T, np.eye(64), atol=1e-10)
        assert np.linalg.det(T) == pytest.approx(1.0, abs=1e-10)


class TestUpdateTransformS2:
    def test_scalar_analytic_case(self):
        # X = Z = [[1]], gamma = 1: minimize (t-1)^2 + t^2 - log t
        # => 4t^2 - 2t - 1 = 0 => t = (1 + sqrt(5)) / 4.
        X = np.ones((1, 1, 1))
        Z = np.ones((1, 1, 1))
        T = update_transform_S2(X, Z, gamma=1.0)
        assert T[0, 0] == pytest.approx((1 + np.sqrt(5)) / 4, abs=1e-10)

    def test_zero_data_gives_conditioned_transform(self):
        for gamma in (0.5, 1.0, 4.0):
            T = update_transform_S2(np.zeros((4, 1, 3)), np.zeros((4, 1, 3)), gamma)
            assert np.linalg.det(T) > 0
            # stationarity: 2*gamma*T = gamma*T^{-T}  =>  T T^T = I/2
            assert np.allclose(T @ T.T, np.eye(4) / 2.0, atol=1e-10)

    @pytest.mark.parametrize("n", [8, 64])
    def test_stationarity_on_random_instances(self, n):
        rng = np.random.default_rng(7)
        for _ in range(50):
            X, Z, gamma = random_instance(rng, n, 3 * n)
            T = update_transform_S2(as_patches(X), as_patches(Z), gamma)
            g = s2_gradient(T, X, Z, gamma)
            scale = 2 * np.linalg.norm(Z @ X.T) + gamma * (
                2 * np.linalg.norm(T) + np.linalg.norm(np.linalg.inv(T))
            )
            assert np.linalg.norm(g) <= 1e-6 * scale
            assert np.linalg.det(T) > 0

    def test_beats_nearby_perturbations(self, rng):
        X, Z, gamma = random_instance(rng, 6, 30)
        T = update_transform_S2(as_patches(X), as_patches(Z), gamma)
        base = s2_objective(T, X, Z, gamma)
        for _ in range(20):
            T_pert = T + 1e-3 * rng.normal(size=T.shape)
            assert s2_objective(T_pert, X, Z, gamma) >= base - 1e-9 * abs(base)

    def test_positive_determinant_with_zeroed_rows(self, rng):
        # Rows of Z zeroed at every location make X Z^T singular; the sign of
        # the SVD's null directions is arbitrary, so determinant positivity
        # must be enforced rather than assumed.
        for trial in range(20):
            X = rng.normal(size=(8, 40))
            Z = rng.normal(size=(8, 40))
            Z[rng.integers(0, 8, size=3), :] = 0.0
            T = update_transform_S2(as_patches(X), as_patches(Z), 1.0)
            assert np.linalg.det(T) > 0
            g = s2_gradient(T, X, Z, 1.0)
            assert np.linalg.norm(g) <= 1e-6 * max(np.linalg.norm(Z @ X.T), 1.0)

    def test_gamma_must_be_positive(self, rng):
        with pytest.raises(InvalidArgumentError, match="gamma"):
            update_transform_S2(np.ones((4, 1, 2)), np.ones((4, 1, 2)), 0.0)


class TestUpdateCoefsS3:
    def test_is_exact_row_prox(self, rng):
        T = rng.normal(size=(9, 9))
        X = rng.normal(size=(9, 3, 5))
        lam = 0.7
        got, kept = update_coefs_S3(X, T, lam)
        want = row_soft_threshold(per_echo(T, X), lam / 2.0, axis=1)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)
        # the norms of the rows it kept, which score the cycle
        assert np.allclose(kept, np.linalg.norm(want, axis=1, keepdims=True),
                           rtol=1e-14, atol=0.0)

    def test_zero_lambda_is_exact_transform(self, rng):
        T = rng.normal(size=(4, 4))
        X = rng.normal(size=(4, 2, 3))
        assert np.array_equal(update_coefs_S3(X, T, 0.0)[0], per_echo(T, X))


def brute_force_residual(model, x, T, Z, scheme, mu):
    """Relative residual of the image step's normal equations, by direct application.

    ``A^T A`` is applied with FFTs on the k-space mask and the patch term
    with explicit gather/scatter, independently of the engine's symbols.
    """
    G = T.T @ T
    mask = model.kspace.mask.bool_view()
    k = np.fft.fft2(x, axes=(0, 1), norm="ortho")
    normal = np.fft.ifft2(np.where(mask, k, 0), axes=(0, 1), norm="ortho").real
    lhs = normal + mu * scatter_stack(apply(G, patch_stack(x, scheme)), scheme)
    rhs = model.aty + mu * scatter_stack(apply(T.T, Z), scheme)
    return np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)


def per_echo_image_step(model, T, Z, scheme, mu):
    """The image step solved one echo at a time: the oracle for the all-echo elimination."""
    s, h, w = scheme.stride, scheme.height, scheme.width
    target = scatter_stack(per_echo(T.T, Z), scheme)
    spectrum = np.fft.rfft2(transform_recon._polyphase(model.aty + mu * target, s))
    patch_term = transform_recon._patch_symbol(mu * (T.T @ T), scheme)
    data_symbol = transform_recon._data_symbol(model, s)
    for c in range(len(spectrum)):
        transform_recon._solve_blocks(data_symbol[:, :, c] + patch_term, spectrum[c])
    sub = np.fft.irfft2(spectrum, s=(h // s, w // s))
    return sub.reshape(-1, s, s, h // s, w // s).transpose(3, 1, 4, 2, 0).reshape(h, w, -1)


class TestUpdateImageS1:
    def test_solves_normal_equations(self, rng, small_kspace):
        params = ReconParams(mu=0.4)
        scheme = scheme_for(params, 32, 32, periodic=True)
        T = np.linalg.qr(rng.normal(size=(64, 64)))[0] * 0.9
        Z = rng.normal(size=(64, 4, scheme.num_locations)) * 0.1
        x, t = update_image_S1(me.ForwardModel(small_kspace), T, Z, scheme, params)
        G = T.T @ T

        bmask = small_kspace.mask.bool_view()
        target = scatter_stack(apply(T.T, Z), scheme)
        assert np.allclose(t, target, rtol=1e-12, atol=0.0)  # the step hands back its t
        for c in range(4):
            m = bmask[:, :, c]
            rhs = np.fft.ifft2(np.where(m, small_kspace.data[:, :, c], 0), norm="ortho").real
            rhs = rhs + params.mu * target[:, :, c]
            k = np.fft.fft2(x.data[:, :, c], norm="ortho")
            lhs = np.fft.ifft2(np.where(m, k, 0), norm="ortho").real
            lhs = lhs + params.mu * scatter_stack(
                apply(G, patch_stack(x.data[:, :, c:c + 1], scheme)), scheme
            )[:, :, 0]
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("h, w", [(24, 40), (32, 16)])
    @pytest.mark.parametrize("p, s", [(4, 2), (8, 4), (4, 4), (3, 1)])
    def test_exact_on_non_square_stacks(self, h, w, p, s):
        rng = np.random.default_rng(h * 100 + p * 10 + s)
        truth = me.MultiEchoImage(rng.normal(size=(h, w, 3)))
        mask = me.generate_mask(h, w, h // 3, 3, per_echo_distinct=True, seed=1)
        model = me.ForwardModel(me.simulate_acquisition(truth, mask, noise_sigma=0.01, seed=0))
        params = ReconParams(mu=0.3, patch_size=p, patch_stride=s)
        scheme = scheme_for(params, h, w, periodic=True)
        T = rng.normal(size=(p * p, p * p)) + 3.0 * np.eye(p * p)
        Z = rng.normal(size=(p * p, 3, scheme.num_locations))
        x = update_image_S1(model, T, Z, scheme, params)[0]
        assert x.data.shape == (h, w, 3)
        assert np.moveaxis(x.data, 2, 0).flags.c_contiguous  # echo-major planes
        assert brute_force_residual(model, x.data, T, Z, scheme, params.mu) <= 1e-12

    @pytest.mark.parametrize("p, s", [(4, 2), (8, 4), (3, 1)])
    def test_byte_identical_to_per_echo_solves(self, small_kspace, p, s):
        rng = np.random.default_rng(p * 10 + s)
        model = me.ForwardModel(small_kspace)
        params = ReconParams(mu=0.4, patch_size=p, patch_stride=s)
        scheme = scheme_for(params, 32, 32, periodic=True)
        T = rng.normal(size=(p * p, p * p)) + 3.0 * np.eye(p * p)
        Z = rng.normal(size=(p * p, 4, scheme.num_locations))
        x = update_image_S1(model, T, Z, scheme, params)[0]
        want = per_echo_image_step(model, T, Z, scheme, params.mu)
        assert x.data.tobytes() == want.tobytes()

    def test_exact_at_shipped_settings(self):
        truth = me.generate_phantom(me.default_phantom_spec(64, 64, 8))
        mask = me.generate_mask(64, 64, 16, 8, per_echo_distinct=True, seed=0)
        model = me.ForwardModel(me.simulate_acquisition(truth, mask, noise_sigma=0.01, seed=0))
        params = me.tuned_params("tl_rowsparse")
        scheme = scheme_for(params, 64, 64, periodic=True)
        T = init_transform_svd(me.MultiEchoImage(model.aty), scheme)
        Z = update_coefs_S3(patch_stack(model.aty, scheme), T, params.lam)[0]
        x = update_image_S1(model, T, Z, scheme, params)[0]
        assert brute_force_residual(model, x.data, T, Z, scheme, params.mu) <= 1e-12

    def test_flush_grid_rejected(self, small_kspace):
        params = ReconParams(mu=0.4)
        scheme = scheme_for(params, 32, 32)
        Z = np.zeros((64, 4, scheme.num_locations))
        with pytest.raises(InvalidArgumentError, match="periodic"):
            update_image_S1(me.ForwardModel(small_kspace), np.eye(64), Z,
                            scheme, params)

    def test_mu_zero_rejected(self):
        # At mu = 0 the system is singular on unsampled rows, so no parameters
        # that reach the image step or the engine can hold it.
        with pytest.raises(InvalidArgumentError, match=r"^mu must be finite and > 0, got 0\.0$"):
            ReconParams(mu=0.0)

    def test_identity_transform_matches_dictionary_image_step(self, rng, small_kspace):
        from multiecho.dict_recon import update_image_P1

        params = ReconParams(mu=0.6)
        scheme = scheme_for(params, 32, 32, periodic=True)
        Z = rng.normal(size=(64, 4, scheme.num_locations)) * 0.1
        model = me.ForwardModel(small_kspace)
        x_t = update_image_S1(model, np.eye(64), Z, scheme, params)[0]
        x_d = update_image_P1(model, np.eye(64), Z, scheme, params)
        assert np.allclose(x_t.data, x_d.data, atol=1e-8)


def impulse_patch_symbol(G: np.ndarray, scheme) -> np.ndarray:
    """Reference patch symbol: the operator applied to each impulse of the first cell.

    ``sum_i P_i^T G P_i`` commutes with shifts by the stride ``s``, so its
    response to the ``s^2`` pixels of the first ``s x s`` cell, split into
    sub-images and transformed, is its symbol, column by column.
    """
    s, h, w = scheme.stride, scheme.height, scheme.width
    out = np.empty((s * s, s * s, h // s, w // s // 2 + 1), dtype=np.complex128)
    impulse = np.zeros((h, w, 1))
    for b in range(s * s):
        impulse[b // s, b % s] = 1.0
        column = scatter_stack(apply(G, patch_stack(impulse, scheme)), scheme)
        impulse[b // s, b % s] = 0.0
        out[:, b] = np.fft.rfft2(transform_recon._polyphase(column, s)[0])
    return out


def ill_conditioned_transform(rng, m: int) -> np.ndarray:
    """A random ``m x m`` transform with singular values from 1e-4 to 1 and ``det > 0``."""
    U = np.linalg.qr(rng.normal(size=(m, m)))[0]
    V = np.linalg.qr(rng.normal(size=(m, m)))[0]
    T = (U * np.logspace(-4, 0, m)) @ V.T
    if np.linalg.det(T) < 0:
        T[0] *= -1.0
    return T


def backward_error(A: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """Largest ``||A x - b|| / (||A|| ||x|| + ||b||)`` over blocks ``A[:, :, j]``."""
    A = np.moveaxis(A.reshape(*A.shape[:2], -1), -1, 0)
    x, b = x.reshape(len(x), -1).T, b.reshape(len(b), -1).T
    r = np.linalg.norm(np.einsum("jkl,jl->jk", A, x) - b, axis=1)
    scale = np.linalg.norm(A, ord=2, axis=(1, 2)) * np.linalg.norm(x, axis=1)
    return float(np.max(r / (scale + np.linalg.norm(b, axis=1))))


def assert_solves_as_well_as_lapack(A: np.ndarray, b: np.ndarray) -> None:
    """``_solve_blocks`` leaves a backward error no worse than ``np.linalg.solve``'s."""
    x = b.copy()
    transform_recon._solve_blocks(A.copy(), x)
    lapack = np.linalg.solve(np.moveaxis(A, (0, 1), (-2, -1)), np.moveaxis(b, 0, -1)[..., None])
    lapack = np.moveaxis(lapack[..., 0], -1, 0)
    assert backward_error(A, x, b) <= max(4 * backward_error(A, lapack, b), 1e-15)


class TestPatchSymbol:
    @pytest.mark.parametrize("h, w", [(64, 64), (24, 40)])
    @pytest.mark.parametrize("p, s", [(4, 1), (4, 2), (6, 2), (8, 4)])
    def test_matches_the_impulse_responses(self, h, w, p, s):
        rng = np.random.default_rng(10 * p + s)
        scheme = scheme_for(ReconParams(patch_size=p, patch_stride=s), h, w, periodic=True)
        T = rng.normal(size=(p * p, p * p))
        G = T.T @ T
        got = transform_recon._patch_symbol(G, scheme)
        want = impulse_patch_symbol(G, scheme)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestSolveBlocks:
    @pytest.mark.parametrize("cond", [1e2, 1e8])
    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_random_hpd_blocks(self, rng, n, cond):
        # 30 blocks with eigenvalues from 1/cond to 1 in random unitary bases.
        Q = np.linalg.qr(rng.normal(size=(30, n, n)) + 1j * rng.normal(size=(30, n, n)))[0]
        blocks = (Q * np.geomspace(1.0 / cond, 1.0, n)) @ np.conj(np.swapaxes(Q, 1, 2))
        A = np.moveaxis(blocks, 0, -1).reshape(n, n, 6, 5)
        b = rng.normal(size=(n, 6, 5)) + 1j * rng.normal(size=(n, 6, 5))
        assert_solves_as_well_as_lapack(A, b)

    @pytest.mark.parametrize("p, s", [(4, 1), (4, 2), (8, 4)])
    def test_image_step_blocks_of_an_ill_conditioned_transform(self, rng, p, s):
        # Blocks of the shipped image step with cond(G) = 1e8: a poorly
        # conditioned transform must not cost the elimination its accuracy.
        truth = me.generate_phantom(me.default_phantom_spec(32, 32, 2))
        mask = me.generate_mask(32, 32, 8, 2, per_echo_distinct=True, seed=0)
        model = me.ForwardModel(me.simulate_acquisition(truth, mask, noise_sigma=0.01, seed=0))
        scheme = scheme_for(ReconParams(patch_size=p, patch_stride=s), 32, 32, periodic=True)
        T = ill_conditioned_transform(rng, p * p)
        patch_term = transform_recon._patch_symbol(0.16 * (T.T @ T), scheme)
        data_symbol = transform_recon._data_symbol(model, s)
        for c in range(2):
            A = data_symbol[:, :, c] + patch_term
            b = rng.normal(size=A.shape[1:]) + 1j * rng.normal(size=A.shape[1:])
            assert_solves_as_well_as_lapack(A, b)


class TestObjectiveTl:
    def test_plug_in_value_at_identity_transform(self, small_truth):
        # Full sampling, x = truth, T = I, Z = T X, lam = 0:
        # objective = mu * gamma * (||I||_F^2 - log det I) = mu * gamma * patch_dim.
        mask = me.generate_mask(32, 32, 32, 4, seed=0)
        y = me.apply_forward(small_truth, mask)
        params = ReconParams(mu=0.7, lam=0.0, gamma=2.0)
        scheme = scheme_for(params, 32, 32, periodic=True)
        X = patch_stack(small_truth.data, scheme)
        state = TlState(image=small_truth, transform=np.eye(64),
                        coefs=X.copy(), scheme=scheme, cost_history=[])
        got = objective_tl(state, me.ForwardModel(y), params)
        assert got == pytest.approx(params.mu * params.gamma * 64, rel=1e-12)

    def test_counts_conditioning_term_once(self, rng, small_kspace):
        params = ReconParams(mu=1.0, lam=0.0, gamma=1.0)
        scheme = scheme_for(params, 32, 32, periodic=True)
        x = me.MultiEchoImage(np.zeros((32, 32, 4)))
        T = np.eye(64) * 2.0
        Z = apply(T, patch_stack(x.data, scheme))
        state = TlState(image=x, transform=T, coefs=Z, scheme=scheme, cost_history=[])
        y0 = me.KSpaceData(np.zeros((32, 32, 4), dtype=complex), small_kspace.mask)
        got = objective_tl(state, me.ForwardModel(y0), params)
        # ||T||_F^2 = 4 * 64; log det = 64 * log 2 — once, not per location
        want = 4 * 64 - 64 * np.log(2.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_non_positive_determinant_raises(self, rng, small_kspace):
        params = ReconParams()
        T = np.eye(64)
        T[0, 0] = -1.0
        state = TlState(
            image=me.MultiEchoImage(np.ones((32, 32, 4))),
            transform=T,
            coefs=np.zeros((64, 4, 64)),
            scheme=scheme_for(params, 32, 32, periodic=True),
            cost_history=[],
        )
        with pytest.raises(InvalidArgumentError, match="^transform determinant is not positive$"):
            objective_tl(state, me.ForwardModel(small_kspace), params)


def scored_and_exact(monkeypatch, y, params):
    """``(score, objective_tl)`` for every cycle of a run, guarded ones included.

    The score is the cost each cycle hands to ``descend``; the objective is
    :func:`objective_tl` on that cycle's trial state, recorded at its image step.
    """
    trials, scores = [], []
    image_step, descend = transform_recon.update_image_S1, transform_recon.descend

    def recording_step(model, T, Z, scheme, p):
        image, target = image_step(model, T, Z, scheme, p)
        trials.append(TlState(image=image, transform=T, coefs=Z, scheme=scheme,
                              cost_history=[]))
        return image, target

    def recording_descend(cycle, cost, *args):
        def recorded(guarded):
            accept, cost = cycle(guarded)
            scores.append(cost)
            return accept, cost

        return descend(recorded, cost, *args)

    monkeypatch.setattr(transform_recon, "update_image_S1", recording_step)
    monkeypatch.setattr(transform_recon, "descend", recording_descend)
    me.reconstruct_tl(y, params)
    model = me.ForwardModel(y)
    assert len(scores) == len(trials) >= params.max_outer_iters
    return [(score, objective_tl(trial, model, params)) for score, trial in zip(scores, trials)]


class TestCycleScore:
    def test_matches_objective_at_the_shipped_point(self, small_kspace, monkeypatch):
        # Only rounding separates the two: at most 2e-13 here and 1.3e-12 on
        # whole shipped 64x64 runs.  1e-10 leaves room for other BLAS builds
        # and is far below DESCENT_SLACK (1e-6) and the shipped rel_cost_tol
        # (1e-5), so no guard or stop decision can turn on the difference.
        params = replace(me.tuned_params("tl_rowsparse"), max_outer_iters=10)
        for score, exact in scored_and_exact(monkeypatch, small_kspace, params):
            assert score == pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_matches_objective_at_criterion_7s_mu(self, small_truth, monkeypatch):
        # Criterion 7's settings (full sampling, no noise, mu = 1e-6): the
        # cost is tiny against the dot products the score subtracts, so their
        # rounding shows, at most 3.1e-9 here and 9.6e-9 at criterion 7's
        # 64x64 size.  1e-7 keeps the score below DESCENT_SLACK (1e-6), so
        # the guard still sees a descent; criterion 7's rel_cost_tol (1e-12)
        # is below this rounding, and its 10 iterations run to the cap.
        y = me.apply_forward(small_truth, me.generate_mask(32, 32, 32, 4, seed=0))
        params = ReconParams(mu=1e-6, lam=0.0, gamma=1.0, patch_size=8, patch_stride=4,
                             max_outer_iters=10, rel_cost_tol=1e-12, inner_iters=20)
        for score, exact in scored_and_exact(monkeypatch, y, params):
            assert score == pytest.approx(exact, rel=1e-7, abs=0.0)


class TestReconstructTl:
    def test_descends_and_is_deterministic(self, small_kspace, fast_params):
        img1, state1 = me.reconstruct_tl(small_kspace, fast_params)
        img2, state2 = me.reconstruct_tl(small_kspace, fast_params)
        assert np.array_equal(img1.data, img2.data)
        assert state1.cost_history == state2.cost_history
        assert_monotone(state1.cost_history)

    def test_coefs_are_one_contiguous_row_echo_location_array(self, small_kspace,
                                                              fast_params):
        _, state = me.reconstruct_tl(small_kspace, fast_params)
        Z, m = state.coefs, state.scheme.patch_dim
        assert Z.shape == (m, 4, state.scheme.num_locations)
        assert Z.flags.c_contiguous and np.any(Z)
        assert np.shares_memory(Z.reshape(m, -1), Z)

    def test_final_transform_invertible_with_positive_det(self, small_kspace, fast_params):
        _, state = me.reconstruct_tl(small_kspace, fast_params)
        T = state.transform
        assert np.linalg.det(T) > 0
        assert np.linalg.cond(T) < 1e8

    def test_improves_on_zero_filled(self, small_truth, small_kspace):
        params = ReconParams(mu=0.05, lam=0.1, gamma=3.0, max_outer_iters=15)
        img, _ = me.reconstruct_tl(small_kspace, params)
        zf = me.reconstruct_zero_filled(small_kspace)
        assert me.snr_db(small_truth, img) > me.snr_db(small_truth, zf)

    def test_stride_must_divide_the_dims(self, small_kspace):
        # 32 x 32: a stride of 3 leaves no periodic grid.
        with pytest.raises(InvalidArgumentError, match="must divide"):
            me.reconstruct_tl(small_kspace, ReconParams(patch_size=6, patch_stride=3))

    def test_gamma_zero_rejected(self, small_kspace):
        with pytest.raises(InvalidArgumentError, match="gamma"):
            me.reconstruct_tl(small_kspace, ReconParams(gamma=0.0))

    def test_momentum_fallback_keeps_descent(self, small_kspace, monkeypatch):
        # Near convergence at these settings an extrapolated cycle overshoots
        # (once, in cycle 31 of 34, by 4e-4 relative): the engine must redo it
        # from the last accepted iterate without extrapolation, so the
        # overshoot never reaches the recorded history.  Heavier shrinkage
        # (lam 0.3) also overshoots, but there rows zeroed at every location
        # make the run's path depend on rounding.
        evaluated = []  # the start cost, then every cycle's, guarded ones included
        descend = transform_recon.descend

        def recording(cycle, cost, *args):
            def recorded(guarded):
                accept, cost = cycle(guarded)
                evaluated.append(cost)
                return accept, cost

            evaluated.append(cost)
            return descend(recorded, cost, *args)

        monkeypatch.setattr(transform_recon, "descend", recording)
        params = ReconParams(mu=1.0, lam=0.4, gamma=1.0, patch_size=4, patch_stride=2,
                             max_outer_iters=80)
        img1, state1 = me.reconstruct_tl(small_kspace, params)
        history = state1.cost_history
        rejected = [i for i, v in enumerate(evaluated) if v not in history]
        assert rejected, "the momentum fallback never fired"
        # each rejected cycle ended above the cost recorded just before it
        assert all(evaluated[i] > evaluated[i - 1] for i in rejected)
        assert len(evaluated) == len(history) + len(rejected)
        assert_monotone(history)

        img2, state2 = me.reconstruct_tl(small_kspace, params)
        assert np.array_equal(img1.data, img2.data)
        assert state1.cost_history == state2.cost_history
        assert np.array_equal(state1.transform, state2.transform)

    def test_heavy_shrinkage_regression(self, small_truth):
        # Large lambda zeroes whole coefficient rows; the run must still keep
        # det(T) > 0 at every objective evaluation (regression test).
        mask = me.generate_mask(32, 32, 10, 4, seed=0)
        y = me.simulate_acquisition(small_truth, mask, noise_sigma=0.01, seed=0)
        params = ReconParams(mu=0.5, lam=0.05, gamma=1.0, max_outer_iters=5)
        img, state = me.reconstruct_tl(y, params)
        assert_monotone(state.cost_history)
        assert np.linalg.det(state.transform) > 0
