"""Domain types, the l2,1 norm, and invariant validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiecho as me
from multiecho import (
    InvalidArgumentError,
    KSpaceData,
    MultiEchoImage,
    ReconParams,
    SamplingMask,
    validate,
)
from multiecho.solvers import _row_penalty


class TestMultiEchoImage:
    def test_coerces_to_float64(self):
        img = MultiEchoImage(np.ones((4, 5, 2), dtype=np.float32))
        assert img.data.dtype == np.float64
        assert (img.height, img.width, img.echoes) == (4, 5, 2)

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidArgumentError, match="height, width, echoes"):
            MultiEchoImage(np.ones((4, 5)))
        with pytest.raises(InvalidArgumentError):
            MultiEchoImage(np.ones((4, 5, 2, 3)))


class TestSamplingMask:
    def test_bool_view_marks_whole_rows(self):
        mask = SamplingMask(height=4, width=3, lines=((0, 2), (1, 3)))
        view = mask.bool_view()
        assert view.shape == (4, 3, 2)
        assert view[:, :, 0].sum() == 2 * 3
        assert view[0, :, 0].all() and view[2, :, 0].all()
        assert not view[1, :, 0].any()
        assert view[1, :, 1].all() and view[3, :, 1].all()

    def test_properties(self):
        mask = SamplingMask(height=8, width=8, lines=((0, 1, 2),) * 5)
        assert mask.echoes == 5
        assert mask.lines_per_echo == 3

    def test_lines_coerced_to_int_tuples(self):
        mask = SamplingMask(height=4, width=4, lines=[[np.int64(0), 2.0]])
        assert mask.lines == ((0, 2),)
        assert all(isinstance(r, int) for r in mask.lines[0])


class TestKSpaceData:
    def test_shape_must_match_mask(self):
        mask = SamplingMask(height=4, width=4, lines=((0,), (1,)))
        with pytest.raises(InvalidArgumentError, match="does not match mask"):
            KSpaceData(np.zeros((4, 4, 3), dtype=complex), mask)

    def test_coerces_complex(self):
        mask = SamplingMask(height=2, width=2, lines=((0,),))
        ks = KSpaceData(np.zeros((2, 2, 1)), mask)
        assert ks.data.dtype == np.complex128


class TestReconParams:
    def test_defaults_are_valid(self):
        p = ReconParams()
        assert p.mu == 1.0 and p.patch_size == 8

    def test_all_violations_reported_together(self):
        with pytest.raises(InvalidArgumentError) as exc:
            ReconParams(mu=-1.0, lam=float("nan"), patch_size=0, inner_iters=-3)
        msg = str(exc.value)
        for field in ("mu", "lam", "patch_size", "inner_iters"):
            assert field in msg

    def test_zero_weights_allowed(self):
        p = ReconParams(mu=0.0, lam=0.0, gamma=0.0)
        assert p.lam == 0.0


class TestL21Norm:
    """The l2,1 norm, defined once as the solvers' row penalty."""

    def test_hand_example(self):
        M = np.array([[3.0, 4.0], [0.0, 0.0], [5.0, 12.0]])
        assert _row_penalty(M) == pytest.approx(5.0 + 0.0 + 13.0, abs=1e-12)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_homogeneity_and_zero(self, n, m, alpha, seed):
        M = np.random.default_rng(seed).normal(size=(n, m))
        assert _row_penalty(np.zeros((n, m))) == 0.0
        assert _row_penalty(alpha * M) == pytest.approx(abs(alpha) * _row_penalty(M),
                                                        rel=1e-9, abs=1e-9)

    def test_orthogonal_right_invariance(self, rng):
        M = rng.normal(size=(5, 4))
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        assert _row_penalty(M @ Q) == pytest.approx(_row_penalty(M), rel=1e-12)

    def test_triangle_inequality(self, rng):
        A, B = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        assert _row_penalty(A + B) <= _row_penalty(A) + _row_penalty(B) + 1e-12


class TestValidate:
    def test_valid_objects_return_empty(self, small_truth, small_mask, small_kspace):
        assert validate(small_truth) == []
        assert validate(small_mask) == []
        assert validate(small_kspace) == []

    def test_image_non_finite_reported_with_position(self):
        data = np.zeros((3, 3, 2))
        data[1, 2, 0] = np.nan
        msgs = validate(MultiEchoImage(data))
        assert len(msgs) == 1
        assert "row=1" in msgs[0] and "col=2" in msgs[0] and "echo=0" in msgs[0]

    def test_mask_duplicate_lines_name_the_echo(self):
        msgs = validate(SamplingMask(height=8, width=8, lines=((0, 1), (3, 3))))
        assert any("echo 1" in m and "duplicated" in m for m in msgs)

    def test_mask_unequal_counts(self):
        msgs = validate(SamplingMask(height=8, width=8, lines=((0, 1), (2,))))
        assert any("disagree on line count" in m for m in msgs)

    def test_mask_out_of_range_and_unsorted(self):
        msgs = validate(SamplingMask(height=4, width=4, lines=((9, 1),)))
        assert any("outside" in m for m in msgs)
        assert any("not sorted" in m for m in msgs)

    def test_mask_collects_multiple_violations(self):
        msgs = validate(SamplingMask(height=4, width=4, lines=((1, 1), (9, 0))))
        assert len(msgs) >= 3  # duplicate, out-of-range, unsorted

    def test_mask_over_size_limit_reported_with_other_violations(self):
        msgs = validate(SamplingMask(height=10**12, width=64, lines=((3, 1),)))
        assert any("exceed the limit of 16777216 samples" in m for m in msgs)
        assert any("not sorted" in m for m in msgs)

    def test_mask_non_positive_dims_reported(self):
        assert validate(SamplingMask(height=0, width=-2, lines=())) == [
            "dims must be positive, got 0x-2x0"]

    def test_oversized_constructors_raise_without_allocating(self):
        with pytest.raises(InvalidArgumentError, match="exceed the limit"):
            me.default_phantom_spec(height=10**12)
        with pytest.raises(InvalidArgumentError, match="exceed the limit"):
            me.generate_mask(10**12, 64, 16, 8)

    def test_kspace_off_mask_energy_counted(self):
        mask = SamplingMask(height=4, width=4, lines=((0,),))
        data = np.zeros((4, 4, 1), dtype=complex)
        data[0, :, 0] = 1.0       # on the mask: fine
        data[2, 1, 0] = 1.0 + 1j  # off the mask
        data[3, 0, 0] = 2.0       # off the mask
        msgs = validate(KSpaceData(data, mask))
        assert len(msgs) == 1
        assert "2 nonzero entries off the mask" in msgs[0]
        assert "row=2, col=1" in msgs[0]

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidArgumentError):
            validate(42)


def test_public_api_exports():
    for name in (
        "reconstruct_dl", "reconstruct_tl", "reconstruct_cs_analysis",
        "reconstruct_dl_sparse", "reconstruct_zero_filled", "run_method",
        "generate_mask", "generate_phantom", "simulate_acquisition",
        "snr_db", "lcurve_greedy", "save_mef", "load_mef",
    ):
        assert hasattr(me, name), name
