"""Dictionary-learning engine: SVD init, the three block updates, descent.

The dictionary update is checked against an independent least-squares oracle
(``np.linalg.lstsq`` on the stacked system), the coefficient update against
long-run ISTA, and the image update against its normal-equations residual
(``A^T A`` by an FFT pair per echo).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import multiecho as me
from multiecho import InvalidArgumentError, ReconParams
from multiecho.dict_recon import (
    DlState,
    _cross_grams,
    _fix_column_signs,
    init_dictionary_svd,
    objective_dl,
    scheme_for,
    update_coefs_P3,
    update_dictionary_P2,
    update_dictionary_atoms,
    update_image_P1,
)
from multiecho.defaults import CS_ENGINE, tuned_params
from multiecho.operators import patch_stack, scatter_stack
from multiecho.solvers import ista_row_sparse, row_soft_threshold, soft_threshold

from conftest import assert_monotone, fft_normal


def random_state(rng, h=16, w=16, c=2, p=4, s=2):
    params = ReconParams(patch_size=p, patch_stride=s)
    scheme = scheme_for(params, h, w)
    x = me.MultiEchoImage(rng.normal(size=(h, w, c)))
    D = init_dictionary_svd(x, scheme)
    Z = rng.normal(size=(D.shape[1], c, scheme.num_locations))
    return params, scheme, x, D, Z


def rows2d(a):
    """The free 2-D form ``(m, C*N)`` of an ``(m, C, N)`` array."""
    return a.reshape(len(a), -1)


def synth(D, Z):
    """``D Z_i`` at every location of a ``(k, C, N)`` coefficient array."""
    return np.einsum("mk,kcn->mcn", D, Z)


class TestFixColumnSigns:
    def test_largest_entry_positive(self, rng):
        U = rng.normal(size=(6, 6))
        F = _fix_column_signs(U)
        for j in range(6):
            col = F[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_idempotent_and_magnitude_preserving(self, rng):
        U = rng.normal(size=(5, 4))
        F = _fix_column_signs(U)
        assert np.array_equal(_fix_column_signs(F), F)
        assert np.allclose(np.abs(F), np.abs(U))


class TestConcatPatches:
    def test_explicit_layout(self):
        # The two 1x1 patches of a 1x2 plane with two echoes.
        scheme = scheme_for(ReconParams(patch_size=1, patch_stride=1), 1, 2)
        x = np.arange(4.0).reshape(1, 2, 2)  # pixel j, echo c holds 2 j + c
        X = patch_stack(x, scheme)
        big = rows2d(X)
        assert big.shape == (1, 4) and np.shares_memory(big, X)
        # echo-major columns: echo 0 of location 0, echo 0 of location 1,
        # echo 1 of location 0, echo 1 of location 1
        assert big.tolist() == [[0.0, 2.0, 1.0, 3.0]]


class TestInitDictionarySvd:
    def test_orthonormal_and_deterministic(self, small_truth):
        scheme = scheme_for(ReconParams(), 32, 32)
        D1 = init_dictionary_svd(small_truth, scheme)
        D2 = init_dictionary_svd(small_truth, scheme)
        assert np.array_equal(D1, D2)
        assert D1.shape == (64, 64)
        assert np.allclose(D1.T @ D1, np.eye(64), atol=1e-10)

    def test_sign_convention(self, small_truth):
        scheme = scheme_for(ReconParams(), 32, 32)
        D = init_dictionary_svd(small_truth, scheme)
        for j in range(D.shape[1]):
            col = D[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_all_zero_rejected(self):
        scheme = scheme_for(ReconParams(patch_size=4, patch_stride=4), 8, 8)
        with pytest.raises(InvalidArgumentError, match="all-zero"):
            init_dictionary_svd(me.MultiEchoImage(np.zeros((8, 8, 2))), scheme)

    def test_equals_svd_left_vectors_up_to_sign(self, rng):
        # the Gram's eigenvectors are the SVD's U, in the same order
        scheme = scheme_for(ReconParams(patch_size=4, patch_stride=2), 24, 24)
        x = me.MultiEchoImage(rng.normal(size=(24, 24, 3)))
        D = init_dictionary_svd(x, scheme)
        U = np.linalg.svd(rows2d(patch_stack(x.data, scheme)))[0]
        signs = np.sign(np.sum(U * D, axis=0))
        assert np.allclose(D, U * signs, rtol=0.0, atol=1e-8)

    def test_first_atom_captures_dominant_direction(self, small_truth):
        # the leading left singular vector maximizes captured energy
        scheme = scheme_for(ReconParams(), 32, 32)
        D = init_dictionary_svd(small_truth, scheme)
        big = rows2d(patch_stack(small_truth.data, scheme))
        energies = (D.T @ big) ** 2
        assert energies[0].sum() == max(energies[j].sum() for j in range(64))


def unnormalized_step(Z, D_new, Z_new):
    """The step's least-squares dictionary before its columns were normalized.

    Column ``j`` was divided by the factor that multiplied coefficient row ``j``.
    """
    norms = np.linalg.norm(Z_new, axis=(1, 2)) / np.linalg.norm(Z, axis=(1, 2))
    return D_new * norms


class TestUpdateDictionaryP2:
    def test_matches_lstsq_oracle(self, rng):
        _, scheme, x, D0, Z = random_state(rng)
        X = patch_stack(x.data, scheme)
        D_new, Z_new = update_dictionary_P2(X, Z)
        # Oracle: min_D ||Xc - D Zc||_F^2 + r ||D||_F^2 with column-concatenated
        # matrices is an ordinary least-squares problem in D^T, with sqrt(r) I
        # stacked under Zc^T and zeros under Xc^T.
        Xc, Zc = rows2d(X), rows2d(Z)
        m, k = Xc.shape[0], Zc.shape[0]
        r = SHIPPED_RIDGE * np.trace(Zc @ Zc.T) / k
        A = np.vstack([Zc.T, np.sqrt(r) * np.eye(k)])
        B = np.vstack([Xc.T, np.zeros((k, m))])
        want = np.linalg.lstsq(A, B, rcond=None)[0].T
        got = unnormalized_step(Z, D_new, Z_new)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_ridge_normal_equations(self, rng):
        _, scheme, x, D0, Z = random_state(rng)
        X = patch_stack(x.data, scheme)
        D_new, Z_new = update_dictionary_P2(X, Z)
        D_raw = unnormalized_step(Z, D_new, Z_new)
        Xc, Zc = rows2d(X), rows2d(Z)
        k = Zc.shape[0]
        r = SHIPPED_RIDGE * np.trace(Zc @ Zc.T) / k
        lhs = D_raw @ (Zc @ Zc.T + r * np.eye(k))
        rhs = Xc @ Zc.T
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_normalized_columns_preserve_fidelity(self, rng):
        _, scheme, x, D0, Z = random_state(rng)
        X = patch_stack(x.data, scheme)
        D_raw = ridge_dictionary(X, Z)
        D_new, Z_new = update_dictionary_P2(X, Z)
        assert np.allclose(np.linalg.norm(D_new, axis=0), 1.0, atol=1e-12)
        before = synth(D_raw, Z)
        after = synth(D_new, Z_new)
        assert np.linalg.norm(after - before) <= 1e-10 * max(np.linalg.norm(before), 1e-30)

    def test_improves_fit_versus_previous_dictionary(self, rng):
        _, scheme, x, D0, Z = random_state(rng)
        X = patch_stack(x.data, scheme)
        D_new, Z_new = update_dictionary_P2(X, Z)
        before = float(np.sum((X - synth(D0, Z)) ** 2))
        after = float(np.sum((X - synth(D_new, Z_new)) ** 2))
        assert after <= before + 1e-9 * max(before, 1.0)

    def test_zero_coefficients_rejected(self, rng):
        _, scheme, x, D0, Z = random_state(rng)
        X = patch_stack(x.data, scheme)
        with pytest.raises(InvalidArgumentError, match="^all coefficient matrices are zero$"):
            update_dictionary_P2(X, np.zeros_like(Z))

    def test_unused_atom_replaced_deterministically(self, rng):
        _, scheme, x, D0, Z = random_state(rng)
        X = patch_stack(x.data, scheme)
        Z = Z.copy()
        Z[5] = 0.0  # atom 5 never used -> raw column 5 is zero
        D_new, Z_new = update_dictionary_P2(X, Z)
        e5 = np.zeros(len(D_new))
        e5[5] = 1.0
        assert np.array_equal(D_new[:, 5], e5)
        assert np.all(Z_new[5] == 0.0)
        assert np.allclose(np.linalg.norm(D_new, axis=0), 1.0)


# The dictionary step's ridge, relative to trace(sum_i Z_i Z_i^T) / k.
SHIPPED_RIDGE = 1e-8


def ridge_dictionary(X, Z):
    """The dictionary step's ridge solve, before normalization, with einsum contractions."""
    k = len(Z)
    XZt = np.einsum("mcn,kcn->mk", X, Z)
    ZZt = np.einsum("kcn,jcn->kj", Z, Z)
    r = SHIPPED_RIDGE * (np.trace(ZZt) / k)
    return np.linalg.solve(ZZt + r * np.eye(k), XZt.T).T


def update_dictionary_P2_reference(X, Z):
    """The dictionary step with einsum contractions and a per-column loop."""
    k = len(Z)
    D_raw = ridge_dictionary(X, Z)
    norms = np.linalg.norm(D_raw, axis=0)
    tiny = 1e-14 * max(float(norms.max()), 1e-300)
    D_new = np.empty_like(D_raw)
    for j in range(k):
        if norms[j] > tiny:
            D_new[:, j] = D_raw[:, j] / norms[j]
        else:
            D_new[:, j] = 0.0
            D_new[j % D_raw.shape[0], j] = 1.0
    return D_new, Z * norms[:, None, None]


class TestDictionaryStepLayoutOracle:
    """The blocked syrk Gram form against the einsum contractions."""

    # 7, 8 and 9 locations of 8 echoes straddle one 64-column Gram block.
    @pytest.mark.parametrize("num_locations", [1, 5, 7, 8, 9, 64, 65, 441])
    def test_cross_grams_match_einsum(self, rng, num_locations):
        X = rng.normal(size=(36, 8, num_locations))
        Z = rng.normal(size=(30, 8, num_locations))
        XZt, ZZt = _cross_grams(X, Z)
        want_xz = np.einsum("mcn,kcn->mk", X, Z)
        want_zz = np.einsum("kcn,jcn->kj", Z, Z)
        assert np.linalg.norm(XZt - want_xz) <= 1e-12 * np.linalg.norm(want_xz)
        assert np.linalg.norm(ZZt - want_zz) <= 1e-12 * np.linalg.norm(want_zz)
        assert np.array_equal(ZZt, ZZt.T)

    @pytest.mark.parametrize("unused", [False, True])
    def test_update_matches_einsum_reference(self, rng, unused):
        _, scheme, x, D0, Z = random_state(rng)
        X = patch_stack(x.data, scheme)
        if unused:
            Z = Z.copy()
            Z[3] = 0.0
        D_new, Z_new = update_dictionary_P2(X, Z)
        D_want, Z_want = update_dictionary_P2_reference(X, Z)
        assert np.linalg.norm(D_new - D_want) <= 1e-12 * np.linalg.norm(D_want)
        assert np.linalg.norm(Z_new - Z_want) <= 1e-12 * np.linalg.norm(Z_want)

    def test_coefficients_in_working_layout(self, rng):
        # Coefficients in another memory order give the same step as the
        # C-contiguous (k, C, N) array the engine holds.
        _, scheme, x, D0, Z = random_state(rng)
        X = patch_stack(x.data, scheme)
        Zv = np.asfortranarray(Z)
        D_a, Z_a = update_dictionary_P2(X, Z)
        D_b, Z_b = update_dictionary_P2(X, Zv)
        assert np.array_equal(D_a, D_b)
        assert np.array_equal(Z_a, Z_b)


class TestUpdateDictionaryAtoms:
    def _block_cost(self, X, D, Z, lam, coef_prox):
        fit = float(np.sum((X - synth(D, Z)) ** 2))
        if coef_prox == "row":
            return fit + lam * float(np.linalg.norm(Z, axis=1).sum())
        return fit + lam * float(np.abs(Z).sum())

    @pytest.mark.parametrize("coef_prox", ["row", "entry"])
    def test_never_increases_block_cost(self, rng, coef_prox):
        _, scheme, x, D0, Z = random_state(rng)
        X = patch_stack(x.data, scheme)
        lam = 0.3
        before = self._block_cost(X, D0, Z, lam, coef_prox)
        D_new, Z_new = update_dictionary_atoms(X, Z, D0, lam, coef_prox)
        after = self._block_cost(X, D_new, Z_new, lam, coef_prox)
        assert after <= before + 1e-12 * max(before, 1.0)
        assert np.allclose(np.linalg.norm(D_new, axis=0), 1.0, atol=1e-12)

    def test_single_atom_matches_closed_form(self, rng):
        # with one atom the residual is all of X, so the direction update is
        # normalize(sum_i X_i z_i) and the coefficient update is the entrywise
        # soft threshold of the correlations at lam / 2
        n, m, c = 7, 5, 3
        X = rng.normal(size=(m, c, n))
        z = rng.normal(size=(1, c, n))
        d0 = np.zeros((m, 1))
        d0[0, 0] = 1.0
        lam = 0.4
        D_new, Z_new = update_dictionary_atoms(X, z, d0, lam, "entry")
        g = np.einsum("mcn,cn->m", X, z[0])
        want_d = g / np.linalg.norm(g)
        assert np.allclose(D_new[:, 0], want_d, atol=1e-12)
        corr = np.einsum("mcn,m->cn", X, want_d)
        want_z = np.sign(corr) * np.maximum(np.abs(corr) - lam / 2.0, 0.0)
        assert np.allclose(Z_new[0], want_z, atol=1e-12)

    def test_row_prox_zeroes_weak_rows_jointly(self, rng):
        _, scheme, x, D0, Z = random_state(rng)
        X = patch_stack(x.data, scheme)
        _, Z_new = update_dictionary_atoms(X, Z, D0, lam=1e9, coef_prox="row")
        rows = np.moveaxis(Z_new, 1, -1).reshape(-1, Z_new.shape[1])
        # at enormous lam every correlation row falls below the threshold
        assert np.all(np.all(rows == 0.0, axis=1))

    def test_unused_atom_keeps_direction_and_stays_unused(self, rng):
        _, scheme, x, D0, Z = random_state(rng)
        X = patch_stack(x.data, scheme)
        Z = Z.copy()
        Z[5] = 0.0
        D_new, Z_new = update_dictionary_atoms(X, Z, D0, 0.3, "row")
        assert np.array_equal(D_new[:, 5], D0[:, 5])
        assert np.all(Z_new[5] == 0.0)

    def test_deterministic_and_input_preserving(self, rng):
        _, scheme, x, D0, Z = random_state(rng)
        X = patch_stack(x.data, scheme)
        Z_orig = Z.copy()
        D_saved = D0.copy()
        out1 = update_dictionary_atoms(X, Z, D0, 0.3, "row")
        out2 = update_dictionary_atoms(X, Z, D0, 0.3, "row")
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1], out2[1])
        assert np.array_equal(Z, Z_orig)  # caller's array untouched
        assert np.array_equal(D0, D_saved)

    def test_invalid_prox_rejected(self, rng):
        _, scheme, x, D0, Z = random_state(rng)
        X = patch_stack(x.data, scheme)
        with pytest.raises(InvalidArgumentError, match="coef_prox"):
            update_dictionary_atoms(X, Z, D0, 0.3, "nope")


class TestUpdateCoefsP3:
    def test_matches_long_run_ista(self, rng):
        _, scheme, x, D, _ = random_state(rng)
        X = patch_stack(x.data, scheme)
        lam = 0.4
        got = update_coefs_P3(X, D, lam, inner_iters=800)
        want = ista_row_sparse(D, X, lam, iters=800, rel_tol=1e-6)  # the step's tolerance
        assert np.array_equal(got, want)

    def test_warm_start_at_fixed_point_stays(self, rng):
        _, scheme, x, _, _ = random_state(rng)
        X = patch_stack(x.data, scheme)
        D = np.eye(len(X))
        lam = 0.3
        Z_star = row_soft_threshold(X, lam / 2.0, axis=1)
        Z = update_coefs_P3(X, D, lam, Z_prev=Z_star, inner_iters=1)
        assert np.linalg.norm(Z - Z_star) <= 1e-12

    def test_entry_prox_variant(self, rng):
        _, scheme, x, _, _ = random_state(rng)
        X = patch_stack(x.data, scheme)
        D = np.eye(len(X))
        lam = 0.3
        Z = update_coefs_P3(X, D, lam, inner_iters=2000, coef_prox="entry")
        want = soft_threshold(X, lam / 2.0)
        assert np.linalg.norm(Z - want) <= 1e-5

    def test_unknown_prox_rejected(self, rng):
        _, scheme, x, D, _ = random_state(rng)
        X = patch_stack(x.data, scheme)
        with pytest.raises(InvalidArgumentError, match="coef_prox"):
            update_coefs_P3(X, D, 0.1, coef_prox="banana")


class TestUpdateImageP1:
    def test_solves_normal_equations(self, rng, small_kspace):
        params = ReconParams(mu=0.7)
        scheme = scheme_for(params, 32, 32)
        D = _fix_column_signs(np.linalg.qr(rng.normal(size=(64, 64)))[0])
        Z = rng.normal(size=(64, 4, scheme.num_locations)) * 0.1
        x = update_image_P1(me.ForwardModel(small_kspace), D, Z, scheme, params)
        assert np.moveaxis(x.data, 2, 0).flags.c_contiguous  # echo-major planes
        # residual of (A^T A + mu * cov) x - (A^T y + mu * target) per echo
        bmask = small_kspace.mask.bool_view()
        cov = scheme.coverage()
        target = scatter_stack(synth(D, Z), scheme)
        for c in range(4):
            m = bmask[:, :, c]
            rhs = np.fft.ifft2(np.where(m, small_kspace.data[:, :, c], 0), norm="ortho").real
            rhs = rhs + params.mu * target[:, :, c]
            k = np.fft.fft2(x.data[:, :, c], norm="ortho")
            lhs = np.fft.ifft2(np.where(m, k, 0), norm="ortho").real
            lhs = lhs + params.mu * cov * x.data[:, :, c]
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_full_sampling_mu_zero_limit(self, small_truth):
        # tiny mu, full mask, D Z = 0: solution approaches the zero-filled inverse
        mask = me.generate_mask(32, 32, 32, 4, seed=0)
        y = me.apply_forward(small_truth, mask)
        params = ReconParams(mu=1e-12)
        scheme = scheme_for(params, 32, 32)
        D = init_dictionary_svd(small_truth, scheme)
        Z = np.zeros((64, 4, scheme.num_locations))
        x = update_image_P1(me.ForwardModel(y), D, Z, scheme, params)
        assert np.linalg.norm(x.data - small_truth.data) <= 1e-5

    def test_exact_at_shipped_settings(self):
        # The 64x64x8 acceptance problem (seed 0) at the shipped dl_rowsparse
        # settings, with the engine's first dictionary and coefficients.
        truth = me.generate_phantom(me.default_phantom_spec(64, 64, 8))
        mask = me.generate_mask(64, 64, 16, 8, per_echo_distinct=True, seed=0)
        y = me.simulate_acquisition(truth, mask, noise_sigma=0.01, seed=0)
        params = tuned_params("dl_rowsparse")
        model = me.ForwardModel(y)
        scheme = scheme_for(params, 64, 64)
        X = patch_stack(model.aty, scheme)
        D = init_dictionary_svd(me.MultiEchoImage(model.aty), scheme)
        Z = update_coefs_P3(X, D, params.lam, inner_iters=params.inner_iters)
        x = update_image_P1(model, D, Z, scheme, params).data
        cov = scheme.coverage()[:, :, None]
        rhs = model.aty + params.mu * scatter_stack(synth(D, Z), scheme)
        residual = fft_normal(x, mask) + params.mu * cov * x - rhs
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)

    def test_mu_zero_rejected(self):
        # At mu = 0 the system is singular on unsampled rows, so no parameters
        # that reach the image step or an engine can hold it.
        with pytest.raises(InvalidArgumentError, match=r"^mu must be finite and > 0, got 0\.0$"):
            ReconParams(mu=0.0)


class TestObjectiveDl:
    def test_recomputation_is_exact(self, rng, small_kspace):
        params = ReconParams(mu=0.3, lam=0.2)
        scheme = scheme_for(params, 32, 32)
        x = me.MultiEchoImage(rng.normal(size=(32, 32, 4)))
        D = init_dictionary_svd(x, scheme)
        Z = rng.normal(size=(64, 4, scheme.num_locations))
        state = DlState(image=x, dictionary=D, coefs=Z, scheme=scheme, cost_history=[])
        got = objective_dl(state, me.ForwardModel(small_kspace), params)
        # independent recomputation
        ks = np.stack(
            [np.fft.fft2(x.data[:, :, c], norm="ortho") for c in range(4)], axis=2
        )
        ks = np.where(small_kspace.mask.bool_view(), ks, 0) - small_kspace.data
        data = float(np.sum(np.abs(ks) ** 2))
        X = patch_stack(x.data, scheme)
        fit = float(np.sum((X - synth(D, Z)) ** 2))
        rows = float(sum(np.linalg.norm(Z[:, :, i], axis=1).sum() for i in range(Z.shape[2])))
        want = data + params.mu * (fit + params.lam * rows)
        assert got == pytest.approx(want, rel=1e-12)

    def test_entrywise_state_scores_the_entrywise_penalty(self, rng, small_kspace):
        params = ReconParams(mu=0.3, lam=0.2)
        scheme = scheme_for(params, 32, 32)
        x = me.MultiEchoImage(rng.normal(size=(32, 32, 4)))
        D = init_dictionary_svd(x, scheme)
        Z = rng.normal(size=(64, 4, scheme.num_locations))
        model = me.ForwardModel(small_kspace)
        rows = DlState(image=x, dictionary=D, coefs=Z, scheme=scheme, cost_history=[])
        entries = DlState(image=x, dictionary=D, coefs=Z, scheme=scheme, cost_history=[],
                          coef_prox="entry")
        gap = params.mu * params.lam * (float(np.sum(np.abs(Z)))
                                        - float(np.sum(np.linalg.norm(Z, axis=1))))
        got = objective_dl(entries, model, params) - objective_dl(rows, model, params)
        assert got == pytest.approx(gap, rel=1e-10)


class TestReconstructDl:
    def test_descends_and_is_deterministic(self, small_kspace, fast_params):
        img1, state1 = me.reconstruct_dl(small_kspace, fast_params)
        img2, state2 = me.reconstruct_dl(small_kspace, fast_params)
        assert np.array_equal(img1.data, img2.data)
        assert state1.cost_history == state2.cost_history
        assert_monotone(state1.cost_history)
        assert len(state1.cost_history) <= fast_params.max_outer_iters + 1

    def test_improves_on_zero_filled(self, small_truth, small_kspace):
        params = ReconParams(mu=0.1, lam=0.3, max_outer_iters=15,
                             inner_iters=15)
        img, _ = me.reconstruct_dl(small_kspace, params)
        zf = me.reconstruct_zero_filled(small_kspace)
        assert me.snr_db(small_truth, img) > me.snr_db(small_truth, zf)

    @pytest.mark.parametrize("coef_prox", ["row", "entry"])
    def test_coefs_are_one_contiguous_atom_echo_location_array(self, small_kspace,
                                                               fast_params, coef_prox):
        _, state = me.reconstruct_dl(small_kspace, fast_params, coef_prox=coef_prox)
        Z, k = state.coefs, state.dictionary.shape[1]
        assert Z.shape == (k, 4, state.scheme.num_locations)
        assert Z.flags.c_contiguous and np.any(Z)
        assert np.shares_memory(Z.reshape(k, -1), Z)

    def test_unknown_coef_prox_refused_before_any_work(self, small_kspace, fast_params,
                                                       monkeypatch):
        for step in ("ForwardModel", "init_dictionary_svd", "_column_factors", "descend"):
            monkeypatch.setattr(f"multiecho.dict_recon.{step}", pytest.fail)
        with pytest.raises(InvalidArgumentError,
                           match="^coef_prox must be 'row' or 'entry', got 'bogus'$"):
            me.reconstruct_dl(small_kspace, fast_params, coef_prox="bogus")

    def test_huge_lambda_keeps_svd_dictionary(self, small_kspace):
        # coefficients stay zero, so the dictionary update must be skipped
        params = ReconParams(mu=0.5, lam=1e9, max_outer_iters=3)
        _, state = me.reconstruct_dl(small_kspace, params)
        assert not np.any(state.coefs)
        x0 = me.apply_adjoint(small_kspace)
        scheme = scheme_for(params, 32, 32)
        D0 = init_dictionary_svd(x0, scheme)
        assert np.array_equal(state.dictionary, D0)

    def test_invalid_arguments(self, small_kspace):
        with pytest.raises(InvalidArgumentError, match="coef_prox"):
            me.reconstruct_dl(small_kspace, ReconParams(), coef_prox="nope")
        with pytest.raises(InvalidArgumentError, match="patch_size"):
            me.reconstruct_dl(small_kspace, ReconParams(patch_size=33, patch_stride=4))

    def test_descent_holds_where_least_squares_step_climbs(self, small_truth,
                                                           small_kspace):
        # At large patches with a strong entrywise penalty, the raw
        # least-squares dictionary update plus column rescale raises the
        # objective on most iterations; the engine must detect this and keep
        # the recorded history non-increasing via the guarded per-atom path.
        params = ReconParams(mu=0.06, lam=0.25, patch_size=12, patch_stride=6,
                             max_outer_iters=30, inner_iters=15)
        img, state = me.reconstruct_dl(small_kspace, params, coef_prox="entry")
        assert_monotone(state.cost_history)
        assert len(state.cost_history) > 3  # made real progress, not a bail-out
        zf = me.reconstruct_zero_filled(small_kspace)
        assert me.snr_db(small_truth, img) > me.snr_db(small_truth, zf)


_THREAD_PROBE = textwrap.dedent("""
    import hashlib, json
    from dataclasses import replace
    import multiecho as me
    from multiecho.defaults import CS_ENGINE, cs_lambda_for_lines, tuned_params

    truth = me.generate_phantom(me.default_phantom_spec(64, 64, 8))
    mask = me.generate_mask(64, 64, 16, 8, per_echo_distinct=True, seed=0)
    y = me.simulate_acquisition(truth, mask, noise_sigma=0.01, seed=0)

    def record(out):
        return {
            "image": hashlib.sha256(out.image.data.tobytes()).hexdigest(),
            "cost": [repr(c) for c in out.cost_history],
            "snr": repr(me.snr_db(truth, out.image)),
            "snr_per_echo": [repr(v) for v in me.snr_db_per_echo(truth, out.image)],
        }

    runs = {}
    for method in ("dl_rowsparse", "dl_sparse", "tl_rowsparse", "cs_analysis"):
        params = replace(tuned_params(method), max_outer_iters=3, rel_cost_tol=0.0)
        kwargs = ({**CS_ENGINE, "max_iters": 20, "rel_change_tol": 0.0}
                  if method == "cs_analysis" else {})
        runs[method] = record(me.run_method(method, y, params, **kwargs))
    # The shipped CS engine to its own stop rule (103 iterations at 32 lines).
    mask32 = me.generate_mask(64, 64, 32, 8, per_echo_distinct=True, seed=0)
    y32 = me.simulate_acquisition(truth, mask32, noise_sigma=0.01, seed=0)
    params = replace(tuned_params("cs_analysis"), lam=cs_lambda_for_lines(32))
    runs["cs_analysis_stop"] = record(me.run_method("cs_analysis", y32, params, **CS_ENGINE))

    # No 3-iteration DL run above takes a guarded cycle, so the per-atom
    # dictionary step is called directly, on the engine's first patches.
    from multiecho.dict_recon import (init_dictionary_svd, scheme_for, update_coefs_P3,
                                      update_dictionary_atoms)
    from multiecho.operators import patch_stack
    params = tuned_params("dl_rowsparse")
    x0 = me.apply_adjoint(y)
    scheme = scheme_for(params, 64, 64)
    X = patch_stack(x0.data, scheme)
    D = init_dictionary_svd(x0, scheme)
    atom_step = {}
    for prox in ("row", "entry"):
        Z = update_coefs_P3(X, D, params.lam, inner_iters=params.inner_iters, coef_prox=prox)
        D_new, Z_new = update_dictionary_atoms(X, Z, D, params.lam, prox)
        atom_step[prox] = [hashlib.sha256(a.tobytes()).hexdigest() for a in (D_new, Z_new)]
    print(json.dumps(atom_step))
    print(json.dumps(runs))
""")


@pytest.fixture(scope="module")
def thread_probe_runs():
    """The probe's output in child processes with 1 and 2 BLAS threads.

    The 64x64x8 geometry with 6/3 patches runs every product at its shipped
    size: the DL engines' per-echo products and Gram blocks run on one
    thread, and their set-up Gram and ``eigh`` calls are split across threads.
    The ``dl_sparse`` run covers the entrywise prox.  The TL and CS runs cover
    the forward model's row-space residual, data term and normal operator,
    which every objective and the CS gradient go through.  One more CS run goes
    to the engine's own stop rule, whose relative-change test decides the
    iteration count.  ``runs["atom_step"]`` holds, per thread count, the
    hashes of one direct per-atom dictionary step.
    """
    src = str(Path(me.__file__).resolve().parents[1])
    runs = {"atom_step": {}}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], capture_output=True,
                              text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        runs[threads] = json.loads(lines[-1])
        runs["atom_step"][threads] = json.loads(lines[-2])
    return runs



def assert_same_iterates(runs, method):
    one, two = runs["1"][method], runs["2"][method]
    assert one["cost"] == two["cost"]
    assert one["image"] == two["image"]


class TestThreadDeterminism:
    def test_dl_image_bytes_equal_at_one_and_two_blas_threads(self, thread_probe_runs):
        assert_same_iterates(thread_probe_runs, "dl_rowsparse")

    def test_dl_sparse_image_bytes_equal_at_one_and_two_blas_threads(self, thread_probe_runs):
        # The entrywise prox on the same per-echo ISTA products.
        assert_same_iterates(thread_probe_runs, "dl_sparse")

    @pytest.mark.parametrize("method", ["tl_rowsparse", "cs_analysis"])
    def test_tl_and_cs_image_bytes_equal_at_one_and_two_blas_threads(
        self, thread_probe_runs, method
    ):
        assert_same_iterates(thread_probe_runs, method)

    def test_cs_stop_iteration_and_image_equal_at_one_and_two_blas_threads(
        self, thread_probe_runs
    ):
        # Equal cost histories mean the stop rule fired at the same iteration.
        iters = len(thread_probe_runs["1"]["cs_analysis_stop"]["cost"]) - 1
        assert iters < CS_ENGINE["max_iters"]
        assert_same_iterates(thread_probe_runs, "cs_analysis_stop")

    def test_atom_step_bytes_equal_at_one_and_two_blas_threads(self, thread_probe_runs):
        # The dictionary and coefficients of update_dictionary_atoms, 'row' and 'entry'.
        one, two = thread_probe_runs["atom_step"]["1"], thread_probe_runs["atom_step"]["2"]
        assert set(one) == {"row", "entry"}
        assert one == two

    def test_snr_repr_equal_at_one_and_two_blas_threads(self, thread_probe_runs):
        one, two = thread_probe_runs["1"], thread_probe_runs["2"]
        for method in one:
            assert one[method]["snr"] == two[method]["snr"]
            assert one[method]["snr_per_echo"] == two[method]["snr_per_echo"]
