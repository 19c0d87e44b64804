"""Fourier sampling operators and patch extraction.

The DFT is checked against a quadruple-loop naive evaluation (an independent
oracle), the masked forward/adjoint pair against the inner-product identity,
the forward model's row Grams and row-space data term against FFT
evaluations, its residual adjoint against the row Grams and its batched build
against a per-echo one, and the patch machinery against hand-counted grids.
A mask that breaks the mask rule cannot be built, so no forward model or
engine ever receives one, and no short engine run copies an image to
echo-major planes.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiecho as me
from multiecho import InvalidArgumentError
from multiecho.operators import PatchScheme, _per_echo, patch_stack, scatter_stack


def fft_normal(x: np.ndarray, mask: me.SamplingMask) -> np.ndarray:
    """A^T A by an FFT pair per echo: the oracle for ForwardModel's row Gram."""
    k = np.fft.fft2(x, axes=(0, 1), norm="ortho")
    return np.fft.ifft2(np.where(mask.bool_view(), k, 0.0), axes=(0, 1), norm="ortho").real


def fft_data_term(x: np.ndarray, y: me.KSpaceData) -> float:
    """||y - A x||^2 with one FFT per echo: the oracle for ForwardModel.data_term."""
    r = np.fft.fft2(x, axes=(0, 1), norm="ortho")
    r = np.where(y.mask.bool_view(), r, 0.0) - y.data
    return float(np.sum(r.real**2 + r.imag**2))


def per_plane_forward(x: np.ndarray, mask: me.SamplingMask) -> np.ndarray:
    """A x with one ``fft2`` call per echo: the oracle for the stacked FFT."""
    y = np.empty(x.shape, dtype=np.complex128)
    for c in range(x.shape[2]):
        y[:, :, c] = np.fft.fft2(x[:, :, c], norm="ortho")
    y[~mask.bool_view()] = 0.0
    return y


def per_plane_adjoint(y: me.KSpaceData) -> np.ndarray:
    """A^T y with one ``ifft2`` call per echo: the oracle for the stacked FFT."""
    x = np.empty(y.data.shape, dtype=np.float64)
    emb = np.where(y.mask.bool_view(), y.data, 0.0)
    for c in range(y.data.shape[2]):
        x[:, :, c] = np.fft.ifft2(emb[:, :, c], norm="ortho").real
    return x


def model_of(mask: me.SamplingMask) -> me.ForwardModel:
    """A forward model for ``mask`` with all-zero measurements."""
    return me.ForwardModel(me.KSpaceData(np.zeros((mask.height, mask.width, mask.echoes)), mask))


def per_echo_model_arrays(y: me.KSpaceData):
    """``gram``, ``rows`` and ``measured`` one echo at a time: the batched build's oracle."""
    h, w, echoes = y.data.shape
    lag = (np.arange(h)[:, None] - np.arange(h)[None, :]) % h
    L = y.mask.lines_per_echo
    gram = np.empty((echoes, h, h))
    E, Y = np.empty((echoes, 2 * L, h)), np.empty((echoes, 2 * L, w))
    for c, rows in enumerate(y.mask.lines):
        k = np.asarray(rows, dtype=np.int64)
        sampled = np.zeros(h)
        sampled[k] = 1.0
        r = np.fft.ifft(sampled).real
        gram[c] = (0.5 * (r + r[-np.arange(h) % h]))[lag]
        phase = (-2.0 * np.pi / h) * ((k[:, None] * np.arange(h)) % h)
        E[c, :L], E[c, L:] = np.cos(phase), np.sin(phase)
        rows_y = np.fft.ifft(y.data[k, :, c], axis=1, norm="ortho")
        Y[c, :L], Y[c, L:] = rows_y.real, rows_y.imag
    return gram, E / np.sqrt(h), Y


def random_kspace(rng, mask: me.SamplingMask) -> me.KSpaceData:
    """Random samples on ``mask``, consistent with no image."""
    shape = (mask.height, mask.width, mask.echoes)
    samples = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return me.KSpaceData(np.where(mask.bool_view(), samples, 0.0), mask)


def add_at_scatter(values: np.ndarray, scheme: PatchScheme) -> np.ndarray:
    """np.add.at reference for scatter_stack, adding in (m, C, N) order."""
    echoes = values.shape[1]
    out = np.zeros((scheme.height * scheme.width, echoes))
    np.add.at(out, (scheme.flat_index[:, None, :], np.arange(echoes)[:, None]), values)
    return out.reshape(scheme.height, scheme.width, echoes)


def loop_gather(arr: np.ndarray, scheme: PatchScheme) -> np.ndarray:
    """Reference for patch_stack: each patch cut out of the stack by slicing.

    Periodic patches are cut from the stack tiled twice along each axis.
    """
    p, echoes = scheme.patch_size, arr.shape[2]
    tiled = np.tile(arr, (2, 2, 1))
    out = np.empty((scheme.patch_dim, echoes, scheme.num_locations))
    for i, (r, c) in enumerate(scheme.locations):
        out[:, :, i] = tiled[r:r + p, c:c + p].reshape(p * p, echoes)
    return out


def naive_dft2(x: np.ndarray) -> np.ndarray:
    """O(n^4) direct evaluation of the unitary 2-D DFT."""
    h, w = x.shape
    out = np.zeros((h, w), dtype=complex)
    for k in range(h):
        for l in range(w):
            acc = 0.0 + 0.0j
            for m in range(h):
                for n in range(w):
                    acc += x[m, n] * np.exp(-2j * np.pi * (k * m / h + l * n / w))
            out[k, l] = acc / np.sqrt(h * w)
    return out


class TestUnitaryFFT:
    def test_matches_naive_dft(self, rng):
        x = rng.normal(size=(8, 8))
        got = me.fft2_unitary(x)
        want = naive_dft2(x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_inverse_matches_naive_conjugate(self, rng):
        y = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        # The unitary inverse is the conjugate-transposed kernel:
        want = naive_dft2(y.conj()).conj()
        got = me.ifft2_unitary(y)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_parseval(self, rng):
        x = rng.normal(size=(16, 12))
        assert np.linalg.norm(me.fft2_unitary(x)) == pytest.approx(
            np.linalg.norm(x), rel=1e-12
        )

    def test_round_trip(self, rng):
        x = rng.normal(size=(9, 7))
        back = me.ifft2_unitary(me.fft2_unitary(x))
        assert np.allclose(back.real, x, atol=1e-12)
        assert np.allclose(back.imag, 0, atol=1e-12)

    def test_dc_at_index_zero(self):
        x = np.ones((4, 4))
        y = me.fft2_unitary(x)
        assert y[0, 0] == pytest.approx(4.0)  # sum / sqrt(16)
        assert np.allclose(np.delete(y.ravel(), 0), 0, atol=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidArgumentError):
            me.fft2_unitary(np.ones(5))
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            me.fft2_unitary(np.array([[1.0, np.nan]]))


class TestGenerateMask:
    def test_dense_block_plus_random_remainder(self):
        mask = me.generate_mask(64, 64, 33, 1, dense_fraction=1 / 3, seed=7)
        rows = mask.lines[0]
        assert len(rows) == 33
        # floor(33/3) = 11 contiguous lines centered on the DC row in the
        # shifted view: shifted rows 27..37 -> unshifted (s - 32) % 64.
        dense = sorted(((s - 32) % 64) for s in range(27, 38))
        assert set(dense) <= set(rows)
        assert len(set(rows)) == 33
        assert all(0 <= r < 64 for r in rows)
        assert list(rows) == sorted(rows)

    def test_deterministic_and_seed_sensitive(self):
        a = me.generate_mask(32, 32, 12, 3, seed=5)
        b = me.generate_mask(32, 32, 12, 3, seed=5)
        c = me.generate_mask(32, 32, 12, 3, seed=6)
        assert a == b
        assert a != c

    def test_shared_vs_distinct_echo_masks(self):
        shared = me.generate_mask(32, 32, 8, 4, per_echo_distinct=False, seed=0)
        assert len(set(shared.lines)) == 1
        distinct = me.generate_mask(32, 32, 8, 4, per_echo_distinct=True, seed=0)
        assert len(set(distinct.lines)) > 1
        assert all(len(rows) == 8 for rows in distinct.lines)

    def test_full_sampling(self):
        mask = me.generate_mask(16, 16, 16, 2, seed=0)
        assert mask.lines[0] == tuple(range(16))

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            me.generate_mask(16, 16, 0, 1)
        with pytest.raises(InvalidArgumentError):
            me.generate_mask(16, 16, 17, 1)
        with pytest.raises(InvalidArgumentError):
            me.generate_mask(16, 16, 4, 1, dense_fraction=1.5)

    def test_every_violation_is_listed(self):
        with pytest.raises(InvalidArgumentError) as exc:
            me.generate_mask(32, 32, 40, 0, dense_fraction=2.0)
        assert str(exc.value).split("; ") == [
            "dims must be positive, got 32x32x0",
            "lines_per_echo must be in [1, 32], got 40",
            "dense_fraction must be in [0, 1], got 2.0",
        ]

    @pytest.mark.parametrize("lines", [2.5, 2.0, True, "2", None])
    def test_lines_per_echo_must_be_an_integer(self, lines):
        with pytest.raises(InvalidArgumentError) as exc:
            me.generate_mask(8, 8, lines, 2)
        assert str(exc.value) == f"lines_per_echo must be an integer, got {lines!r}"

    def test_every_type_violation_is_listed(self):
        with pytest.raises(InvalidArgumentError) as exc:
            me.generate_mask("8", 8, 2.5, 2, dense_fraction="x")
        assert str(exc.value).split("; ") == [
            "height must be an integer, got '8'",
            "lines_per_echo must be an integer, got 2.5",
            "dense_fraction must be in [0, 1], got 'x'",
        ]

    def test_numpy_integer_lines_per_echo_is_accepted(self):
        want = me.generate_mask(8, 8, 3, 2, seed=1)
        assert me.generate_mask(8, 8, np.int64(3), 2, seed=1) == want

    def test_dense_fraction_zero_is_fully_random(self):
        mask = me.generate_mask(32, 32, 6, 1, dense_fraction=0.0, seed=3)
        assert len(mask.lines[0]) == 6


class TestForwardAdjoint:
    def test_adjoint_identity_100_trials(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            h, w, c = rng.integers(4, 12), rng.integers(4, 12), rng.integers(1, 4)
            n_lines = int(rng.integers(1, h + 1))
            mask = me.generate_mask(int(h), int(w), n_lines, int(c),
                                    per_echo_distinct=True, seed=int(rng.integers(1 << 30)))
            x = me.MultiEchoImage(rng.normal(size=(h, w, c)))
            y = me.KSpaceData(
                np.where(mask.bool_view(),
                         rng.normal(size=(h, w, c)) + 1j * rng.normal(size=(h, w, c)),
                         0.0),
                mask,
            )
            lhs = np.vdot(y.data, me.apply_forward(x, mask).data).real
            rhs = np.sum(x.data * me.apply_adjoint(y).data)
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) <= 1e-10 * scale

    @pytest.mark.parametrize("shape", [(64, 64, 8), (33, 20, 3), (9, 14, 1)])
    def test_stacked_fft_is_byte_identical_to_per_plane_loop(self, rng, shape):
        h, w, c = shape
        mask = me.generate_mask(h, w, max(1, h // 4), c, per_echo_distinct=True, seed=1)
        x = rng.normal(size=shape)
        y = me.apply_forward(me.MultiEchoImage(x), mask)
        assert y.data.tobytes() == per_plane_forward(x, mask).tobytes()
        y = random_kspace(rng, mask)
        back = me.apply_adjoint(y).data
        assert np.moveaxis(back, 2, 0).flags.c_contiguous  # echo-major planes
        assert back.tobytes() == per_plane_adjoint(y).tobytes()

    def test_full_mask_round_trip(self, rng):
        x = me.MultiEchoImage(rng.normal(size=(8, 8, 2)))
        mask = me.generate_mask(8, 8, 8, 2, seed=0)
        back = me.apply_adjoint(me.apply_forward(x, mask))
        assert np.allclose(back.data, x.data, atol=1e-12)

    def test_forward_zeroes_unsampled_rows(self, small_truth, small_mask):
        y = me.apply_forward(small_truth, small_mask)
        off = ~small_mask.bool_view()
        assert np.all(y.data[off] == 0)
        data = y.data.copy()
        data[tuple(np.argwhere(off)[0])] = 1.0
        with pytest.raises(InvalidArgumentError, match="1 nonzero entries off the mask"):
            me.KSpaceData(data, small_mask)

    def test_dim_mismatch_rejected(self, small_truth):
        mask = me.generate_mask(16, 16, 4, 4, seed=0)
        with pytest.raises(InvalidArgumentError, match="do not match"):
            me.apply_forward(small_truth, mask)

    def test_normal_operator_is_symmetric_psd(self, rng, small_mask):
        model = model_of(small_mask)
        a = rng.normal(size=model.shape)
        b = rng.normal(size=model.shape)
        na, nb = model.normal(a), model.normal(b)
        assert np.sum(na * b) == pytest.approx(np.sum(a * nb), rel=1e-10)
        assert np.sum(a * na) >= -1e-12

    def test_normal_equals_adjoint_of_forward(self, rng, small_mask):
        model = model_of(small_mask)
        x = me.MultiEchoImage(rng.normal(size=model.shape))
        direct = model.normal(x.data)
        composed = me.apply_adjoint(me.apply_forward(x, small_mask))
        assert np.allclose(direct, composed.data, atol=1e-13)


class TestForwardModelGram:
    @pytest.mark.parametrize("h, w", [(64, 64), (33, 20), (9, 14)])
    def test_matches_fft_normal_operator_and_is_symmetric(self, h, w):
        rng = np.random.default_rng(h)
        mask = me.generate_mask(h, w, max(2, h // 4), 5, per_echo_distinct=True, seed=h)
        assert len(set(mask.lines)) > 1
        model = model_of(mask)
        assert model.gram.shape == (5, h, h)
        x = rng.normal(size=(h, w, 5))
        want = fft_normal(x, mask)
        got = model.normal(x)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        for n in model.gram:
            assert np.array_equal(n, n.T)  # symmetric bit for bit

    def test_aty_is_the_read_only_adjoint(self, rng, small_mask):
        y = random_kspace(rng, small_mask)
        model = me.ForwardModel(y)
        assert np.array_equal(model.aty, me.apply_adjoint(y).data)
        assert np.moveaxis(model.aty, 2, 0).flags.c_contiguous  # echo-major planes
        with pytest.raises(ValueError, match="read-only"):
            model.aty[0, 0, 0] = 1.0


class TestForwardModelMaskRule:
    def test_batched_build_is_byte_identical_to_per_echo_build(self, rng):
        for h, w, lines, echoes in ((64, 64, 16, 8), (33, 20, 7, 3), (9, 14, 1, 2)):
            mask = me.generate_mask(h, w, lines, echoes, per_echo_distinct=True, seed=h)
            y = random_kspace(rng, mask)
            model = me.ForwardModel(y)
            gram, rows, measured = per_echo_model_arrays(y)
            assert model.gram.tobytes() == gram.tobytes()
            assert model.rows.tobytes() == rows.tobytes()
            assert model.measured.tobytes() == measured.tobytes()

    def test_refuses_every_violation_of_the_mask_rule(self):
        # Echo 0 repeats a line, echo 1 is unsorted, echo 2 leaves the plane
        # and echo 3 samples fewer lines than the others.  The mask refuses
        # itself, so no forward model of it can be built.
        with pytest.raises(InvalidArgumentError) as err:
            me.SamplingMask(height=12, width=10,
                            lines=((0, 3, 3), (5, 1, 2), (0, 1, 12), (1, 2)))
        assert str(err.value) == "; ".join([
            "echoes disagree on line count: [2, 3]",
            "echo 0 has duplicated line indices",
            "echo 1 line indices are not sorted ascending",
            "echo 2 has line indices outside [0, 12)"])

    @pytest.mark.parametrize("method", ["tl_rowsparse", "dl_rowsparse", "dl_sparse",
                                        "cs_analysis"])
    def test_every_engine_refuses_unequal_line_counts(self, rng, method):
        params = me.ReconParams(mu=0.5, lam=0.05, gamma=1.0, patch_size=4, patch_stride=2,
                                max_outer_iters=1)
        # The refusal comes from the mask, before the engine is reached.
        with pytest.raises(InvalidArgumentError, match="disagree on line count"):
            mask = me.SamplingMask(height=16, width=16, lines=((0, 3, 7), (1, 2)))
            me.run_method(method, random_kspace(rng, mask), params)


class TestForwardModelDataTerm:
    @pytest.mark.parametrize("h, w", [(64, 64), (33, 20), (9, 14)])
    def test_matches_fft_data_term(self, h, w):
        rng = np.random.default_rng(h + w)
        mask = me.generate_mask(h, w, max(2, h // 4), 5, per_echo_distinct=True, seed=h)
        assert len(set(mask.lines)) > 1
        y = random_kspace(rng, mask)
        model = me.ForwardModel(y)
        for x in (rng.normal(size=(h, w, 5)), me.apply_adjoint(y).data):
            want = fft_data_term(x, y)
            assert abs(model.data_term(x) - want) <= 1e-13 * want

    def test_consistent_full_sampling_is_zero_to_rounding(self, small_truth):
        # At full noiseless sampling the data term of the truth is pure
        # rounding; the expansion <x, N x> - 2 <x, A^T y> + ||y||^2 would
        # cancel to about 1e-16 ||y||^2 here, of either sign.
        mask = me.generate_mask(32, 32, 32, 4, seed=0)
        y = me.apply_forward(small_truth, mask)
        value = me.ForwardModel(y).data_term(small_truth.data)
        assert 0.0 <= value <= 1e-24 * float(np.sum(np.abs(y.data) ** 2))


class TestForwardModelResidual:
    @pytest.mark.parametrize("h, w", [(64, 64), (33, 20), (9, 14)])
    def test_adjoint_of_residual_is_normal_minus_aty(self, h, w):
        rng = np.random.default_rng(h * w)
        mask = me.generate_mask(h, w, max(3, h // 4), 5, per_echo_distinct=True, seed=h)
        assert len(set(mask.lines)) == 5  # distinct lines per echo
        y = random_kspace(rng, mask)
        model = me.ForwardModel(y)
        x = rng.normal(size=(h, w, 5))
        r = model.residual(x)
        assert r.shape == (5, 2 * mask.lines_per_echo, w)
        assert model.data_term(x) == float(np.sum(r * r))
        want = model.normal(x) - model.aty
        got = np.moveaxis(np.matmul(model.rows.transpose(0, 2, 1), r), 0, 2)  # E^T r
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        for arr in (model.gram, model.aty, model.rows, model.measured):
            assert not arr.flags.writeable


class TestEchoMajorImages:
    """Every image is the ``(H, W, C)`` view of C-contiguous echo planes."""

    @pytest.mark.parametrize("method", ["tl_rowsparse", "dl_rowsparse", "cs_analysis"])
    def test_short_runs_copy_no_image(self, monkeypatch, small_kspace, fast_params, method):
        from multiecho import baselines, operators

        calls, copies = [], []
        echo_major = operators._echo_major

        def counting(x):
            out = echo_major(x)
            calls.append(x.shape)
            if not np.shares_memory(out, x):
                copies.append(x.shape)
            return out

        monkeypatch.setattr(operators, "_echo_major", counting)
        monkeypatch.setattr(baselines, "_echo_major", counting)
        params = replace(fast_params, max_outer_iters=3)
        kwargs = {"max_iters": 3} if method == "cs_analysis" else {}
        out = me.run_method(method, small_kspace, params, **kwargs)
        assert calls and copies == []
        assert np.moveaxis(out.image.data, 2, 0).flags.c_contiguous


class TestPatchScheme:
    def test_location_counts_on_64x64(self):
        assert PatchScheme.build(64, 64, 8, 8).num_locations == 64
        assert PatchScheme.build(64, 64, 8, 4).num_locations == 225

    def test_flush_edge_anchor(self):
        scheme = PatchScheme.build(6, 6, 4, 4)
        # anchors 0 and flush 2 per axis
        assert scheme.locations == ((0, 0), (0, 2), (2, 0), (2, 2))

    def test_coverage_counts(self):
        cov = PatchScheme.build(64, 64, 8, 4).coverage()
        assert cov[32, 32] == 4.0  # interior pixel: 2x2 overlapping anchors
        assert cov[0, 0] == 1.0
        assert cov.min() >= 1.0
        cov8 = PatchScheme.build(64, 64, 8, 8).coverage()
        assert np.all(cov8 == 1.0)

    @pytest.mark.parametrize("h, w, p, s", [(64, 64, 6, 3), (33, 20, 5, 2), (9, 14, 4, 3)])
    def test_coverage_is_an_outer_product(self, h, w, p, s):
        # The dictionary engine's image step solves column by column on this premise.
        cov = PatchScheme.build(h, w, p, s).coverage()
        assert cov[0, 0] == 1.0
        assert np.array_equal(cov, np.outer(cov[:, 0], cov[0]))

    def test_coverage_equals_scatter_of_ones(self):
        scheme = PatchScheme.build(13, 9, 4, 3)
        ones = np.ones((scheme.patch_dim, 1, scheme.num_locations))
        assert np.array_equal(scatter_stack(ones, scheme)[:, :, 0], scheme.coverage())

    def test_row_major_vectorization(self):
        scheme = PatchScheme.build(4, 4, 2, 2)
        arr = np.arange(16.0).reshape(4, 4, 1)
        patches = patch_stack(arr, scheme)
        assert patches[:, 0, 0].tolist() == [0.0, 1.0, 4.0, 5.0]  # rows then columns

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            PatchScheme.build(8, 8, 9, 4)
        with pytest.raises(InvalidArgumentError):
            PatchScheme.build(8, 8, 4, 0)
        with pytest.raises(InvalidArgumentError, match="cover every pixel"):
            PatchScheme.build(8, 8, 2, 3)  # stride > patch_size leaves gaps

    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_pixel_covered(self, h, w, p, s):
        if p > min(h, w) or s > p:
            return
        cov = PatchScheme.build(h, w, p, s).coverage()
        assert cov.min() >= 1.0
        assert np.array_equal(cov, np.outer(cov[:, 0], cov[0]))


class TestPeriodicPatchScheme:
    @pytest.mark.parametrize("h, w, p, s", [(12, 20, 4, 2), (9, 6, 3, 3), (24, 40, 3, 1)])
    def test_gather_scatter_adjoint(self, rng, h, w, p, s):
        scheme = PatchScheme.build(h, w, p, s, periodic=True)
        x = rng.normal(size=(h, w, 2))
        v = rng.normal(size=(scheme.patch_dim, 2, scheme.num_locations))
        lhs = np.sum(patch_stack(x, scheme) * v)
        rhs = np.sum(x * scatter_stack(v, scheme))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("h, w, p, s", [
        (64, 64, 4, 2), (24, 40, 8, 4), (32, 16, 3, 1), (8, 8, 4, 4), (12, 18, 6, 3),
    ])
    def test_uniform_coverage(self, h, w, p, s):
        scheme = PatchScheme.build(h, w, p, s, periodic=True)
        assert scheme.num_locations == (h // s) * (w // s)
        assert np.all(scheme.coverage() == (p // s) ** 2)

    def test_patches_wrap_around_the_edges(self):
        scheme = PatchScheme.build(8, 6, 4, 2, periodic=True)
        assert scheme.periodic and scheme.locations[-1] == (6, 4)
        arr = np.arange(48.0).reshape(8, 6, 1)
        block = arr[np.ix_([6, 7, 0, 1], [4, 5, 0, 1])].ravel()
        assert np.array_equal(patch_stack(arr, scheme)[:, 0, -1], block)

    @pytest.mark.parametrize("h, w", [(30, 32), (32, 30), (9, 9)])
    def test_stride_must_divide_the_dims(self, h, w):
        with pytest.raises(InvalidArgumentError, match="must divide"):
            PatchScheme.build(h, w, 4, 4, periodic=True)
        PatchScheme.build(h, w, 4, 4)  # the flush grid takes any dims

    @pytest.mark.parametrize("h, w, p, s", [(64, 64, 6, 3), (37, 23, 6, 3), (13, 9, 4, 3)])
    def test_flush_flat_index_unchanged(self, h, w, p, s):
        scheme = PatchScheme.build(h, w, p, s)
        assert not scheme.periodic
        pixels = np.arange(h * w, dtype=np.int64).reshape(h, w)
        want = np.array([pixels[r:r + p, c:c + p].ravel() for r, c in scheme.locations]).T
        want = np.ascontiguousarray(want)  # (patch_dim, num_locations)
        assert scheme.flat_index.flags.c_contiguous
        assert scheme.flat_index.dtype == want.dtype
        assert scheme.flat_index.tobytes() == want.tobytes()


class TestPatchGatherScatter:
    def test_gather_scatter_adjoint(self, rng):
        scheme = PatchScheme.build(11, 13, 4, 3)
        x = rng.normal(size=(11, 13, 2))
        v = rng.normal(size=(scheme.patch_dim, 2, scheme.num_locations))
        lhs = np.sum(patch_stack(x, scheme) * v)
        rhs = np.sum(x * scatter_stack(v, scheme))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_scatter_gather_recovers_with_coverage(self, rng):
        scheme = PatchScheme.build(12, 12, 4, 2)
        x = rng.normal(size=(12, 12, 1))
        back = scatter_stack(patch_stack(x, scheme), scheme) / scheme.coverage()[:, :, None]
        assert np.allclose(back, x, atol=1e-12)

    def test_stack_gather_scatter_round_trip(self, small_truth):
        scheme = PatchScheme.build(32, 32, 8, 4)
        patches = patch_stack(small_truth.data, scheme)
        assert patches.shape == (64, 4, scheme.num_locations)
        # patch i is the block at the scheme's i-th anchor, every echo a column
        r, c = scheme.locations[3]
        block = small_truth.data[r:r + 8, c:c + 8, :].reshape(64, 4)
        assert np.array_equal(patches[:, :, 3], block)
        back = scatter_stack(patches, scheme)
        cov = scheme.coverage()[:, :, None]
        assert np.allclose(back / cov, small_truth.data, atol=1e-12)

    @pytest.mark.parametrize("h, w, p, s", [
        (64, 64, 4, 2), (64, 64, 6, 3), (64, 64, 12, 6), (37, 23, 6, 3),
    ])
    def test_scatter_bit_identical_to_add_at(self, rng, h, w, p, s):
        scheme = PatchScheme.build(h, w, p, s)
        for echoes in (1, 8):
            values = rng.normal(size=(scheme.patch_dim, echoes, scheme.num_locations))
            got = scatter_stack(values, scheme)
            assert got.shape == (h, w, echoes)
            want = add_at_scatter(values, scheme)
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("h, w, p, s, periodic", [
        (13, 9, 4, 3, False), (37, 23, 6, 3, False), (12, 20, 4, 2, True), (9, 6, 3, 3, True),
    ])
    def test_gather_is_contiguous_and_matches_loop(self, rng, h, w, p, s, periodic):
        scheme = PatchScheme.build(h, w, p, s, periodic=periodic)
        x = rng.normal(size=(h, w, 3))
        got = patch_stack(x, scheme)
        assert got.shape == (scheme.patch_dim, 3, scheme.num_locations)
        assert got.flags.c_contiguous
        assert np.array_equal(got, loop_gather(x, scheme))
        assert np.shares_memory(got.reshape(scheme.patch_dim, -1), got)

    def test_shape_mismatch_rejected(self, rng):
        scheme = PatchScheme.build(8, 8, 4, 4)
        for bad in (rng.normal(size=(9, 8, 1)), rng.normal(size=(8, 8))):
            with pytest.raises(InvalidArgumentError):
                patch_stack(bad, scheme)
        for bad in (rng.normal(size=(16, 2)), rng.normal(size=(16, 1, 3)),
                    rng.normal(size=(4, 16, 1))):
            with pytest.raises(InvalidArgumentError):
                scatter_stack(bad, scheme)


class TestPerEcho:
    """The per-echo product against the einsum contraction over the patch axis."""

    @pytest.mark.parametrize("shape", [(36, 8, 441), (16, 3, 7), (16, 3), (5, 1)])
    def test_matches_einsum(self, rng, shape):
        M = rng.normal(size=(9, shape[0]))
        X = rng.normal(size=shape)
        want = np.einsum("mk,kc...->mc...", M, X)
        got = _per_echo(M, X)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        out = np.empty_like(want)
        assert _per_echo(M, X, out=out) is out
        assert np.array_equal(out, got)
