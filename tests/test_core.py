"""Domain types and the rules they check when built, the l2,1 norm, and the
package namespace."""

import importlib
import types

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
)
from multiecho.defaults import cs_lambda_for_lines
from multiecho.solvers import (_row_penalty, conjugate_gradient, ista_entrywise, ista_row_sparse,
                               power_iteration, row_soft_threshold, soft_threshold)
from multiecho.transform_recon import update_transform_S2


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

    def test_rejects_empty_dimension(self):
        with pytest.raises(InvalidArgumentError) as err:
            MultiEchoImage(np.ones((4, 0, 2)))
        assert str(err.value) == "image has an empty dimension: shape (4, 0, 2)"


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

    def test_lines_coerced_to_int_tuples(self):
        mask = SamplingMask(height=4, width=4, lines=[[np.int64(0), 2]])
        assert mask.lines == ((0, 2),)
        assert all(isinstance(r, int) for r in mask.lines[0])

    @pytest.mark.parametrize("lines", [((2.5, 3.9),), ((0, 1), (True, 3)),
                                       ((0, np.float64(1.5)),), (("3",),), ((0, 2.0),)])
    def test_non_integral_line_index_refused_naming_the_echo(self, lines):
        # Truncating them would sample lines the caller did not name (2.5 -> 2, True -> 1).
        with pytest.raises(InvalidArgumentError) as err:
            SamplingMask(height=8, width=4, lines=lines)
        assert str(err.value) == f"echo {len(lines) - 1} has line indices that are not integers"

    @pytest.mark.parametrize("lines, message", [
        (((8,),), "echo 0 has line indices outside [0, 8)"),
        (((-1,),), "echo 0 has line indices outside [0, 8)"),
        (((1,), (1, 2)), "echoes disagree on line count: [1, 2]"),
        (((), ()), "echo 0 samples no lines; echo 1 samples no lines"),
    ])
    def test_masks_no_operator_can_apply_are_refused(self, lines, message):
        # zero_filled and apply_forward index rows by these lines: row 8 is out
        # of bounds, and row -1 would wrap to row 7.
        with pytest.raises(InvalidArgumentError) as err:
            SamplingMask(height=8, width=4, lines=lines)
        assert str(err.value) == message


class TestKSpaceData:
    def test_shape_must_match_mask(self):
        mask = SamplingMask(height=4, width=4, lines=((0,), (1,)))
        with pytest.raises(InvalidArgumentError, match="does not match mask"):
            KSpaceData(np.zeros((4, 4, 3), dtype=complex), mask)

    def test_coerces_complex(self):
        mask = SamplingMask(height=2, width=2, lines=((0,),))
        ks = KSpaceData(np.zeros((2, 2, 1)), mask)
        assert ks.data.dtype == np.complex128

    def test_rejects_non_finite_naming_the_position(self):
        mask = SamplingMask(height=4, width=4, lines=((0, 2),))
        data = np.zeros((4, 4, 1), dtype=complex)
        data[2, 3, 0] = complex(1.0, np.nan)
        with pytest.raises(InvalidArgumentError) as err:
            KSpaceData(data, mask)
        assert str(err.value) == "k-space has non-finite value at (row=2, col=3, echo=0)"


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

    def test_zero_weights_refused_listing_both(self):
        # At mu = 0 a patch engine's image step is singular on unsampled rows;
        # at gamma = 0 the transform update is undefined.
        with pytest.raises(InvalidArgumentError) as exc:
            ReconParams(mu=0, gamma=0)
        assert str(exc.value) == ("mu must be finite and > 0, got 0; "
                                  "gamma must be finite and > 0, got 0")

    def test_mu_below_double_precision_refused(self):
        # Below the floor the image step's weight on unsampled rows is lost to
        # rounding; the floor itself stays valid, and mu = 0 keeps one message.
        with pytest.raises(InvalidArgumentError) as exc:
            ReconParams(mu=1e-20)
        assert str(exc.value) == ("mu must be >= 1e-12, got 1e-20; below it the image step "
                                  "is singular to double precision")
        assert ReconParams(mu=1e-12).mu == 1e-12
        # A float32 1e-12 is below the floor as a double, though equal to it in float32.
        with pytest.raises(InvalidArgumentError, match=r"^mu must be >= 1e-12, got "):
            ReconParams(mu=np.float32(1e-12))
        with pytest.raises(InvalidArgumentError, match=r"^mu must be finite and > 0, got 0$"):
            ReconParams(mu=0)

    def test_zero_sparsity_weight_and_tolerance_allowed(self):
        p = ReconParams(lam=0.0, rel_cost_tol=0.0)
        assert p.lam == 0.0 and p.rel_cost_tol == 0.0


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
    """Each domain type applies its rule when built and lists every violation."""

    def test_valid_objects_return_empty(self, small_truth, small_mask, small_kspace):
        assert MultiEchoImage(small_truth.data).data is small_truth.data
        assert SamplingMask(small_mask.height, small_mask.width, small_mask.lines) == small_mask
        again = KSpaceData(small_kspace.data, small_mask)
        assert again.data is small_kspace.data and again.mask == small_mask

    def test_image_non_finite_reported_with_position(self):
        data = np.zeros((3, 3, 2))
        data[1, 2, 0] = np.nan
        with pytest.raises(InvalidArgumentError) as err:
            MultiEchoImage(data)
        assert str(err.value) == "image has non-finite value at (row=1, col=2, echo=0)"

    def test_mask_duplicate_lines_name_the_echo(self):
        with pytest.raises(InvalidArgumentError,
                           match="^echo 1 has duplicated line indices$"):
            SamplingMask(height=8, width=8, lines=((0, 1), (3, 3)))

    def test_mask_unequal_counts(self):
        with pytest.raises(InvalidArgumentError, match="disagree on line count"):
            SamplingMask(height=8, width=8, lines=((0, 1), (2,)))

    def test_mask_out_of_range_and_unsorted(self):
        with pytest.raises(InvalidArgumentError) as err:
            SamplingMask(height=4, width=4, lines=((9, 1),))
        assert "outside" in str(err.value) and "not sorted" in str(err.value)

    def test_mask_collects_multiple_violations(self):
        with pytest.raises(InvalidArgumentError) as err:
            SamplingMask(height=4, width=4, lines=((1, 1), (9, 0)))
        assert len(str(err.value).split("; ")) >= 3  # duplicate, out-of-range, unsorted

    def test_mask_over_size_limit_reported_with_other_violations(self):
        with pytest.raises(InvalidArgumentError) as err:
            SamplingMask(height=10**12, width=64, lines=((3, 1),))
        assert "exceed the limit of 16777216 samples" in str(err.value)
        assert "not sorted" in str(err.value)

    def test_mask_non_positive_dims_reported(self):
        with pytest.raises(InvalidArgumentError) as err:
            SamplingMask(height=0, width=-2, lines=())
        assert str(err.value) == "dims must be positive, got 0x-2x0"

    @pytest.mark.parametrize("build", [
        lambda: SamplingMask(8.5, 4, ((1,),)),
        lambda: me.generate_phantom(me.PhantomSpec(height=8.5, width=8, echoes=2)),
        lambda: me.generate_mask(8.5, 8, 2, 2),
        lambda: SamplingMask(True, 4, ((0,),)),
    ], ids=["mask", "phantom", "generate_mask", "bool"])
    def test_non_integral_dims_refused(self, build):
        with pytest.raises(InvalidArgumentError, match="^height must be an integer, got "):
            build()

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
        with pytest.raises(InvalidArgumentError) as err:
            KSpaceData(data, mask)
        assert str(err.value) == ("k-space has 2 nonzero entries off the mask, "
                                  "first at (row=2, col=1, echo=0)")


def _tiny_kspace() -> KSpaceData:
    return me.apply_forward(MultiEchoImage(np.ones((4, 4, 1))), me.generate_mask(4, 4, 2, 1))


# Every function whose scalar arguments go through core's number rule (">= 0"
# or "> 0") or count rule ("count"), called with one of them set to ``v``:
# (argument, rule, call(v, tmp_path)).
SCALAR_ARGUMENTS = {
    **{f"ReconParams-{field}": (field, rule, lambda v, _, f=field: ReconParams(**{f: v}))
       for field, rule in (("mu", "> 0"), ("lam", ">= 0"), ("gamma", "> 0"),
                           ("rel_cost_tol", ">= 0"), ("patch_size", "count"),
                           ("patch_stride", "count"), ("max_outer_iters", "count"),
                           ("inner_iters", "count"))},
    **{f"{ista.__name__}-{arg}": (arg, rule, lambda v, _, ista=ista, arg=arg: ista(
        np.eye(2), np.ones((2, 1)), **{"lam": 0.1, arg: v}))
       for ista in (ista_row_sparse, ista_entrywise)
       for arg, rule in (("lam", ">= 0"), ("rel_tol", ">= 0"), ("iters", "count"))},
    **{f"power_iteration-{arg}": (arg, "count", lambda v, _, arg=arg: power_iteration(
        np.eye(2), **{"dim": 2, arg: v})) for arg in ("dim", "iters")},
    **{f"conjugate_gradient-{arg}": (arg, rule, lambda v, _, arg=arg: conjugate_gradient(
        np.eye(2), np.ones(2), **{arg: v}))
       for arg, rule in (("tol", ">= 0"), ("max_iters", "count"))},
    "row_soft_threshold-tau": ("tau", ">= 0", lambda v, _: row_soft_threshold(np.ones((2, 2)), v)),
    "soft_threshold-tau": ("tau", ">= 0", lambda v, _: soft_threshold(np.ones((2, 2)), v)),
    **{f"reconstruct_cs_analysis-{arg}": (arg, rule, lambda v, _, arg=arg: (
        me.reconstruct_cs_analysis(_tiny_kspace(), ReconParams(), **{arg: v})))
       for arg, rule in (("max_iters", "count"), ("rel_change_tol", ">= 0"))},
    "cs_lambda_for_lines-lines_per_echo": ("lines_per_echo", "count",
                                           lambda v, _: cs_lambda_for_lines(v)),
    "PhantomSpec-delta_te_ms": ("delta_te_ms", "> 0", lambda v, _: me.PhantomSpec(delta_te_ms=v)),
    "simulate_acquisition-noise_sigma": ("noise_sigma", ">= 0", lambda v, _: (
        me.simulate_acquisition(MultiEchoImage(np.ones((4, 4, 1))),
                                me.generate_mask(4, 4, 2, 1), noise_sigma=v))),
    "update_transform_S2-gamma": ("gamma", "> 0", lambda v, _: update_transform_S2(
        np.ones((2, 1, 2)), np.eye(2)[:, None, :], v)),
    "export_pgm-normalization": ("normalization", "> 0", lambda v, path: me.export_pgm(
        path / "out.pgm", np.ones((2, 2)), normalization=v)),
}
BAD_SCALARS = [True, "0.5", None, float("nan"), float("inf"), -1.0, np.array([0.1, 0.2])]
# 0 violates the count rule and "> 0"; None scales a PGM by the plane maximum.
SCALAR_CASES = [(call, bad) for call, (arg, rule, _) in SCALAR_ARGUMENTS.items()
                for bad in BAD_SCALARS + ([] if rule == ">= 0" else [0])
                if not (bad is None and arg == "normalization")]


@pytest.mark.parametrize("call, bad", SCALAR_CASES,
                         ids=[f"{call}-{bad!r}" for call, bad in SCALAR_CASES])
def test_bad_scalar_argument_is_one_violation_naming_it(tmp_path, call, bad):
    arg, rule, run = SCALAR_ARGUMENTS[call]
    with pytest.raises(InvalidArgumentError) as err:
        run(bad, tmp_path)
    wanted = "a positive integer" if rule == "count" else f"finite and {rule}"
    assert str(err.value) == f"{arg} must be {wanted}, got {bad!r}"
    assert not list(tmp_path.iterdir())  # export_pgm writes no file


PUBLIC_API = {
    # domain types and errors
    "InvalidArgumentError", "KSpaceData", "MultiEchoImage", "ReconParams", "SamplingMask",
    # operators
    "ForwardModel", "PatchScheme", "apply_adjoint", "apply_forward",
    "fft2_unitary", "generate_mask",
    # engines, their results and the method dispatch
    "CsState", "DlState", "TlState", "reconstruct_cs_analysis", "reconstruct_dl",
    "reconstruct_tl", "reconstruct_zero_filled",
    "run_method",
    # tuning and shipped defaults
    "lcurve_greedy", "EXPERIMENT", "METHOD_NAMES", "tuned_params",
    # file I/O
    "FormatError", "RunRecord", "export_difference", "export_pgm", "load_kspace",
    "load_mask", "load_mef", "load_run_record", "save_kspace", "save_mask",
    "save_mef", "save_run_record",
    # phantom and metrics
    "EllipseRegion", "PhantomSpec", "default_phantom_spec", "generate_phantom",
    "simulate_acquisition", "snr_db", "snr_db_per_echo",
}

# Engine internals that live only in their home modules.
MODULE_ONLY = {
    "core": ["NumericalFailureError"],
    "solvers": ["conjugate_gradient", "power_iteration", "ista_row_sparse",
                "ista_entrywise", "row_soft_threshold", "soft_threshold"],
    "dict_recon": ["init_dictionary_svd", "objective_dl", "update_coefs_P3",
                   "update_dictionary_P2", "update_image_P1"],
    "transform_recon": ["init_transform_svd", "objective_tl", "update_coefs_S3",
                        "update_image_S1", "update_transform_S2"],
    "baselines": ["haar_dwt2", "haar_idwt2"],
    "tuning": ["lcurve_corner"],
}


def test_public_api_exports():
    public = {name for name, obj in vars(me).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == PUBLIC_API
    assert len(PUBLIC_API) == 42


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in MODULE_ONLY.items() for name in names
])
def test_engine_internals_stay_in_their_modules(module, name):
    assert not hasattr(me, name)
    assert callable(getattr(importlib.import_module(f"multiecho.{module}"), name))
