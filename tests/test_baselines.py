"""Zero-filled, Haar-wavelet group-sparse CS, and entrywise-sparse DL baselines.

The Haar transform is checked against a direct per-pair loop oracle and the
energy/round-trip identities of an orthonormal map, and its stack form
against a loop over planes.  The CS engine, which iterates on the one-level
Haar coefficients, is checked against the same guarded FISTA run on the
image with one transform pair per step (:func:`image_domain_cs`).
"""

import numpy as np
import pytest

import multiecho as me
from multiecho import InvalidArgumentError, ReconParams
from multiecho.baselines import _cs_objective, _haar_rows_of, haar_dwt2, haar_idwt2
from multiecho.defaults import CS_ENGINE, tuned_params
from multiecho.solvers import _row_penalty

from conftest import assert_monotone, fft_normal


def haar_one_level_oracle(x: np.ndarray) -> np.ndarray:
    """Single-level 2-D Haar via explicit pair loops (independent oracle)."""
    h, w = x.shape
    rows = np.zeros_like(x)
    for i in range(h):
        for j in range(w // 2):
            rows[i, j] = (x[i, 2 * j] + x[i, 2 * j + 1]) / np.sqrt(2)
            rows[i, w // 2 + j] = (x[i, 2 * j] - x[i, 2 * j + 1]) / np.sqrt(2)
    out = np.zeros_like(x)
    for j in range(w):
        for i in range(h // 2):
            out[i, j] = (rows[2 * i, j] + rows[2 * i + 1, j]) / np.sqrt(2)
            out[h // 2 + i, j] = (rows[2 * i, j] - rows[2 * i + 1, j]) / np.sqrt(2)
    return out


class TestHaar:
    def test_one_level_matches_loop_oracle(self, rng):
        x = rng.normal(size=(8, 6))
        got = haar_dwt2(x)
        want = haar_one_level_oracle(x)
        assert np.allclose(got, want, atol=1e-12)

    def test_round_trip_and_parseval(self, rng):
        x = rng.normal(size=(16, 16))
        c = haar_dwt2(x)
        assert np.linalg.norm(c) == pytest.approx(np.linalg.norm(x), rel=1e-12)
        back = haar_idwt2(c)
        assert np.allclose(back, x, atol=1e-12)

    def test_constant_plane_concentrates_to_single_coefficient(self):
        # One level maps each 2x2 block of a constant plane to one
        # approximation coefficient and zero details.
        x = np.full((16, 16), 3.0)
        c = haar_dwt2(x)
        assert np.allclose(c[:8, :8], 2 * 3.0, rtol=1e-12)  # norm of each block
        c[:8, :8] = 0.0
        assert np.allclose(c, 0.0, atol=1e-12)

    def test_adjoint_identity(self, rng):
        x = rng.normal(size=(8, 8))
        u = rng.normal(size=(8, 8))
        lhs = np.sum(haar_dwt2(x) * u)
        rhs = np.sum(x * haar_idwt2(u))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("shape", [(16, 8, 3), (64, 64, 8)])
    def test_stack_is_bit_identical_to_per_plane_loop(self, rng, shape):
        x = rng.normal(size=shape)
        for transform in (haar_dwt2, haar_idwt2):
            planes = np.stack([transform(x[:, :, c]) for c in range(shape[2])], axis=-1)
            assert transform(x).tobytes() == planes.tobytes()

    def test_stack_round_trip_and_adjoint(self, rng):
        x = rng.normal(size=(16, 8, 3))
        u = rng.normal(size=(16, 8, 3))
        c = haar_dwt2(x)
        assert c.shape == x.shape
        assert np.linalg.norm(c) == pytest.approx(np.linalg.norm(x), rel=1e-12)
        assert np.allclose(haar_idwt2(c), x, atol=1e-12)
        lhs = np.sum(c * u)
        rhs = np.sum(x * haar_idwt2(u))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dimension_validation(self, rng):
        for shape in ((7, 6), (6, 7), (7, 6, 2)):
            for transform in (haar_dwt2, haar_idwt2):
                with pytest.raises(InvalidArgumentError, match="divisible by 2"):
                    transform(rng.normal(size=shape))
        with pytest.raises(InvalidArgumentError):
            haar_dwt2(rng.normal(size=8))
        with pytest.raises(InvalidArgumentError):
            haar_idwt2(rng.normal(size=(8, 8, 2, 2)))


class TestZeroFilled:
    def test_equals_adjoint(self, small_kspace):
        zf = me.reconstruct_zero_filled(small_kspace)
        adj = me.apply_adjoint(small_kspace)
        assert np.array_equal(zf.data, adj.data)

    def test_full_mask_noiseless_is_exact(self, small_truth):
        mask = me.generate_mask(32, 32, 32, 4, seed=0)
        y = me.apply_forward(small_truth, mask)
        zf = me.reconstruct_zero_filled(y)
        assert np.allclose(zf.data, small_truth.data, atol=1e-12)


def image_domain_cs(y, lam, max_iters, rel_change_tol=1e-6):
    """Guarded FISTA for the CS baseline on the image, one Haar pair per step.

    The same iteration as ``reconstruct_cs_analysis``, with the image as the
    variable: the gradient ``E^T (E x - y~)`` comes from the forward model's
    row space and the prox transforms, shrinks and transforms back.  Returns
    the image, the objective history and the restart count.
    """
    model = me.ForwardModel(y)
    rows_t = model.rows.transpose(0, 2, 1)

    def objective(x, coeffs):
        r = model.residual(x)
        return float(np.sum(r * r)) + lam * _row_penalty(coeffs), r

    def prox_step(start, r_start):
        grad = np.moveaxis(np.matmul(rows_t, r_start), 0, 2)
        coeffs = me.row_soft_threshold(haar_dwt2(start - grad), lam / 2.0)
        x_new = haar_idwt2(coeffs)
        return (x_new, *objective(x_new, coeffs))

    x = x_prev = model.aty
    cost, r = objective(x, haar_dwt2(x))
    r_prev, history = r, [cost]
    t, restarts = 1.0, 0
    for _ in range(max_iters):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        x_new, cost, r_new = prox_step(x + beta * (x - x_prev), r + beta * (r - r_prev))
        if beta > 0.0 and cost > history[-1]:
            x_new, cost, r_new = prox_step(x, r)
            t_next, restarts = 1.0, restarts + 1
        history.append(cost)
        step = np.linalg.norm(x_new - x)
        denom = max(np.linalg.norm(x), 1e-30)
        x_prev, r_prev, x, r, t = x, r, x_new, r_new, t_next
        if step <= rel_change_tol * denom:
            break
    return x, history, restarts


def echo_major(stack):
    return np.ascontiguousarray(np.moveaxis(stack, 2, 0))


class TestCsAnalysis:
    def test_descends(self, small_kspace):
        img, state = me.reconstruct_cs_analysis(small_kspace, ReconParams(lam=0.05),
                                                max_iters=60)
        assert_monotone(state.cost_history, rel_slack=1e-10)
        model = me.ForwardModel(small_kspace)
        start = model.data_term(model.aty) + 0.05 * _row_penalty(haar_dwt2(model.aty))
        assert state.cost_history[0] == pytest.approx(start, rel=1e-12)

    def test_state_holds_the_coefficients_of_the_image(self, small_kspace):
        img, state = me.reconstruct_cs_analysis(small_kspace, ReconParams(lam=0.05),
                                                max_iters=60)
        assert np.array_equal(img.data, haar_idwt2(state.coefs))
        model = me.ForwardModel(small_kspace)
        want = model.data_term(img.data) + 0.05 * _row_penalty(state.coefs)
        assert state.cost_history[-1] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("problem", ["small", "acceptance seed 0"])
    def test_matches_the_image_domain_iteration(self, small_kspace, problem):
        if problem == "small":
            y, lam, max_iters = small_kspace, 0.05, 1000
        else:
            truth = me.generate_phantom(me.default_phantom_spec(64, 64, 8))
            mask = me.generate_mask(64, 64, 16, 8, per_echo_distinct=True, seed=0)
            y = me.simulate_acquisition(truth, mask, noise_sigma=0.01, seed=0)
            lam, max_iters = tuned_params("cs_analysis").lam, CS_ENGINE["max_iters"]
        img, state = me.reconstruct_cs_analysis(y, ReconParams(lam=lam), max_iters=max_iters)
        x, history, restarts = image_domain_cs(y, lam, max_iters)
        assert len(state.cost_history) == len(history) < max_iters + 1  # both stop by the rule
        assert state.restarts == restarts >= 1
        assert np.linalg.norm(img.data - x) <= 1e-12 * np.linalg.norm(x)
        got, want = np.array(state.cost_history), np.array(history)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_library_default_runs_the_shipped_engine(self):
        # Acceptance seed 0: the shipped run stops by its own rule after 447 steps.
        truth = me.generate_phantom(me.default_phantom_spec(64, 64, 8))
        mask = me.generate_mask(64, 64, 16, 8, per_echo_distinct=True, seed=0)
        y = me.simulate_acquisition(truth, mask, noise_sigma=0.01, seed=0)
        params = tuned_params("cs_analysis")
        shipped = me.run_method("cs_analysis", y, params, **CS_ENGINE)
        default = me.run_method("cs_analysis", y, params)
        assert np.array_equal(default.image.data, shipped.image.data)
        assert default.cost_history == shipped.cost_history
        assert len(shipped.cost_history) - 1 < CS_ENGINE["max_iters"]

    def test_coefficient_gradient_is_the_transformed_image_gradient(self, small_kspace, rng):
        # E'^T (E' c - y~') = H_H (A^T A x - aty) H_W^T at x = H_H^T c H_W.
        model = me.ForwardModel(small_kspace)
        rows, measured = _haar_rows_of(model.rows), _haar_rows_of(model.measured)
        c = rng.normal(size=model.shape)
        x = haar_idwt2(c)
        got = np.matmul(rows.transpose(0, 2, 1), np.matmul(rows, echo_major(c)) - measured)
        want = echo_major(haar_dwt2(fft_normal(x, small_kspace.mask) - model.aty))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # The coefficient residual has the image residual's norm.
        c = echo_major(c)
        cost = _cs_objective(c, rows, measured, 0.0, _row_penalty(c, axis=0))[0]
        assert cost == pytest.approx(model.data_term(x), rel=1e-12)

    def test_guard_redoes_a_rising_step_as_a_plain_step(self, small_kspace):
        params = ReconParams(lam=0.3)

        def run(max_iters):
            return me.reconstruct_cs_analysis(small_kspace, params, max_iters=max_iters)[1]

        state = run(40)
        assert state.restarts >= 1
        assert_monotone(state.cost_history, rel_slack=1e-10)
        # Runs agree up to their cap, so the first run that counts a restart
        # ends on the first guarded step: the plain step from the last iterate.
        k = next(k for k in range(1, 41) if run(k).restarts)
        c, guarded = echo_major(run(k - 1).coefs), run(k)
        model = me.ForwardModel(small_kspace)
        rows, measured = _haar_rows_of(model.rows), _haar_rows_of(model.measured)
        r = _cs_objective(c, rows, measured, params.lam, _row_penalty(c, axis=0))[1]
        v = c - np.matmul(rows.transpose(0, 2, 1), r)
        plain = me.row_soft_threshold(np.moveaxis(v, 0, 2), params.lam / 2.0)
        assert np.array_equal(guarded.coefs, plain)
        plain_c = echo_major(plain)
        assert guarded.cost_history[-1] == _cs_objective(
            plain_c, rows, measured, params.lam, _row_penalty(plain_c, axis=0))[0]
        assert guarded.cost_history[-1] <= guarded.cost_history[-2]
        # The same plain step through an FFT pair, on the image, agrees to rounding.
        x = haar_idwt2(np.moveaxis(c, 0, 2))
        v_fft = x - (fft_normal(x, small_kspace.mask) - model.aty)
        via_fft = me.row_soft_threshold(haar_dwt2(v_fft), params.lam / 2.0)
        assert np.linalg.norm(plain - via_fft) <= 1e-12 * np.linalg.norm(plain)

    def test_objective_from_shrunk_coefficients_matches_retransform(self, small_kspace):
        model = me.ForwardModel(small_kspace)
        lam = 0.05
        v = model.aty - (fft_normal(model.aty, small_kspace.mask) - model.aty)
        coeffs = me.row_soft_threshold(haar_dwt2(v), lam / 2.0)
        x = haar_idwt2(coeffs)
        c = echo_major(coeffs)
        got = _cs_objective(c, _haar_rows_of(model.rows), _haar_rows_of(model.measured), lam,
                            _row_penalty(c, axis=0))[0]
        want = model.data_term(x) + lam * _row_penalty(haar_dwt2(x))
        assert got == pytest.approx(want, rel=1e-12)

    def test_lam_zero_full_mask_recovers_exactly(self, small_truth):
        mask = me.generate_mask(32, 32, 32, 4, seed=0)
        y = me.apply_forward(small_truth, mask)
        img, state = me.reconstruct_cs_analysis(y, ReconParams(lam=0.0), max_iters=5)
        assert me.snr_db(small_truth, img) == float("inf") or \
            me.snr_db(small_truth, img) > 250

    @pytest.mark.parametrize("max_iters, tol, message", [
        (0, 1e-6, "max_iters must be a positive integer, got 0"),
        (-3, 1e-6, "max_iters must be a positive integer, got -3"),
        (5.0, 1e-6, "max_iters must be a positive integer, got 5.0"),
        (True, 1e-6, "max_iters must be a positive integer, got True"),
        (10, float("nan"), "rel_change_tol must be finite and >= 0, got nan"),
        (10, -1e-3, "rel_change_tol must be finite and >= 0, got -0.001"),
        (-5, float("inf"), "max_iters must be a positive integer, got -5; "
                           "rel_change_tol must be finite and >= 0, got inf"),
    ])
    def test_stop_settings_refused_listing_every_violation(self, small_kspace, monkeypatch,
                                                           max_iters, tol, message):
        monkeypatch.setattr("multiecho.baselines.ForwardModel", pytest.fail)
        with pytest.raises(InvalidArgumentError) as exc:
            me.reconstruct_cs_analysis(small_kspace, ReconParams(), max_iters=max_iters,
                                       rel_change_tol=tol)
        assert str(exc.value) == message

    def test_benchmark_stop_settings_accepted(self, small_kspace):
        # A zero tolerance switches the stop rule off: the cap ends the run.
        _, state = me.reconstruct_cs_analysis(small_kspace, ReconParams(), max_iters=30,
                                              rel_change_tol=0.0)
        assert len(state.cost_history) == 31

    def test_deterministic(self, small_kspace):
        a, sa = me.reconstruct_cs_analysis(small_kspace, ReconParams(lam=0.08), max_iters=30)
        b, sb = me.reconstruct_cs_analysis(small_kspace, ReconParams(lam=0.08), max_iters=30)
        assert np.array_equal(a.data, b.data)
        assert sa.cost_history == sb.cost_history

    def test_improves_on_zero_filled(self, small_truth, small_kspace):
        img, _ = me.reconstruct_cs_analysis(small_kspace, ReconParams(lam=0.08))
        zf = me.reconstruct_zero_filled(small_kspace)
        assert me.snr_db(small_truth, img) > me.snr_db(small_truth, zf)

    def test_large_lambda_shares_support_across_echoes(self, small_kspace):
        img, _ = me.reconstruct_cs_analysis(small_kspace, ReconParams(lam=0.5),
                                            max_iters=60)
        coeffs = np.stack([haar_dwt2(img.data[:, :, c]) for c in range(4)], axis=-1)
        rows = coeffs.reshape(-1, 4)
        norms = np.linalg.norm(rows, axis=1)
        # group shrinkage produces rows that are entirely (near) zero
        assert np.mean(norms < 1e-12) > 0.05

    def test_odd_dims_are_rejected(self):
        for h, w in ((21, 20), (20, 21)):
            mask = me.generate_mask(h, w, 10, 2, seed=0)
            y = me.apply_forward(me.MultiEchoImage(np.ones((h, w, 2))), mask)
            with pytest.raises(InvalidArgumentError, match="divisible by 2"):
                me.reconstruct_cs_analysis(y, ReconParams(lam=0.1))


class TestDlSparse:
    def test_runs_and_descends(self, small_kspace, fast_params):
        img, state = me.reconstruct_dl_sparse(small_kspace, fast_params)
        assert_monotone(state.cost_history)

    def test_matches_row_variant_at_lam_zero(self, small_kspace):
        params = ReconParams(mu=0.3, lam=0.0, max_outer_iters=3,
                             inner_iters=10)
        a, _ = me.reconstruct_dl_sparse(small_kspace, params)
        b, _ = me.reconstruct_dl(small_kspace, params)
        assert np.array_equal(a.data, b.data)

    def test_entrywise_zeros_without_shared_support(self, small_kspace):
        params = ReconParams(mu=0.1, lam=0.3, max_outer_iters=10,
                             inner_iters=15)
        _, state = me.reconstruct_dl_sparse(small_kspace, params)
        Z = state.coefs
        assert np.mean(Z == 0.0) > 0.05  # plenty of entrywise zeros
