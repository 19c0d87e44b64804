"""Phantom construction, acquisition simulation, and SNR metrics."""

import numpy as np
import pytest

import multiecho as me
from multiecho import (
    EllipseRegion,
    InvalidArgumentError,
    MultiEchoImage,
    PhantomSpec,
)


def single_region_spec(t2_ms: float, pd: float = 1.0) -> PhantomSpec:
    region = EllipseRegion(center=(0.0, 0.0), axes=(0.6, 0.6), angle_deg=0.0,
                           proton_density=pd, t2_ms=t2_ms)
    return PhantomSpec(height=32, width=32, echoes=6, regions=(region,))


class TestPhantom:
    def test_echo_ratio_matches_relaxation(self):
        # pixel value pd * exp(-c * dTE / T2): consecutive-echo ratio is
        # exp(-dTE / T2) everywhere inside one region.
        spec = single_region_spec(t2_ms=80.0)
        img = me.generate_phantom(spec)
        inside = img.data[:, :, 0] > 0
        assert inside.sum() > 50
        expected = np.exp(-6.738 / 80.0)
        assert expected == pytest.approx(0.9192, abs=1e-4)
        for c in range(5):
            ratio = img.data[inside, c + 1] / img.data[inside, c]
            assert np.allclose(ratio, expected, atol=1e-12)

    def test_first_echo_value(self):
        spec = single_region_spec(t2_ms=80.0, pd=0.7)
        img = me.generate_phantom(spec)
        inside = img.data[:, :, 0] > 0
        assert np.allclose(img.data[inside, 0], 0.7 * np.exp(-6.738 / 80.0), atol=1e-12)

    def test_covered_pixels_decay_strictly(self):
        img = me.generate_phantom(me.default_phantom_spec(32, 32, 8))
        covered = img.data[:, :, 0] > 0
        diffs = np.diff(img.data[covered], axis=-1)
        assert covered.sum() > 100
        assert np.all(diffs < 0)

    def test_background_is_zero_everywhere(self):
        img = me.generate_phantom(me.default_phantom_spec(32, 32, 8))
        background = img.data[:, :, 0] == 0
        assert background.sum() > 0
        assert np.all(img.data[background] == 0.0)

    def test_painter_order_later_region_wins(self):
        base = EllipseRegion(center=(0.0, 0.0), axes=(0.8, 0.8), angle_deg=0.0,
                             proton_density=1.0, t2_ms=100.0)
        top = EllipseRegion(center=(0.0, 0.0), axes=(0.2, 0.2), angle_deg=0.0,
                            proton_density=0.5, t2_ms=50.0)
        spec = PhantomSpec(height=32, width=32, echoes=2, regions=(base, top))
        img = me.generate_phantom(spec)
        center_val = img.data[16, 16, 0]
        assert center_val == pytest.approx(0.5 * np.exp(-6.738 / 50.0), abs=1e-12)

    def test_no_regions_gives_zero_image(self):
        img = me.generate_phantom(PhantomSpec(height=16, width=16, echoes=2))
        assert np.all(img.data == 0.0)

    def test_default_spec_properties(self):
        spec = me.default_phantom_spec()
        assert (spec.height, spec.width, spec.echoes) == (64, 64, 8)
        assert spec.delta_te_ms == pytest.approx(6.738)
        assert len(spec.regions) == 5
        t2s = {r.t2_ms for r in spec.regions}
        assert t2s == {30.0, 60.0, 90.0, 120.0, 200.0}
        assert all(0.4 <= r.proton_density <= 1.0 for r in spec.regions)

    def test_values_bounded_by_proton_density(self):
        img = me.generate_phantom(me.default_phantom_spec(64, 64, 8))
        assert np.all(img.data >= 0.0)
        assert np.all(img.data <= 1.0)

    def test_density_bounded_so_the_image_fits_float32(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        with pytest.raises(InvalidArgumentError,
                           match="proton density must be <= 3.402823e\\+38, the float32 "
                                 "maximum, got 1e\\+40"):
            EllipseRegion((0, 0), (0.5, 0.5), 0.0, 1e40, 50.0)
        spec = PhantomSpec(height=8, width=8, echoes=2,
                           regions=(EllipseRegion((0, 0), (0.5, 0.5), 0.0, top, 50.0),))
        img = me.generate_phantom(spec)
        me.save_mef(tmp_path / "truth", img)
        assert np.array_equal(me.load_mef(tmp_path / "truth").data, img.data.astype(np.float32))

    def test_region_validation(self):
        with pytest.raises(InvalidArgumentError, match="axes"):
            EllipseRegion((0, 0), (0.0, 0.5), 0.0, 1.0, 50.0)
        with pytest.raises(InvalidArgumentError, match="t2"):
            EllipseRegion((0, 0), (0.5, 0.5), 0.0, 1.0, 0.0)
        with pytest.raises(InvalidArgumentError, match="proton density"):
            EllipseRegion((0, 0), (0.5, 0.5), 0.0, -0.1, 50.0)
        with pytest.raises(InvalidArgumentError, match="dims"):
            PhantomSpec(height=0, width=16, echoes=2)
        with pytest.raises(InvalidArgumentError, match="delta_te"):
            PhantomSpec(delta_te_ms=0.0)
        # NaN passes every "<= 0" test, so non-finite values need their own check.
        good = dict(center=(0, 0), axes=(0.5, 0.5), angle_deg=0.0,
                    proton_density=1.0, t2_ms=50.0)
        for field, bad in [("center", (np.nan, 0.0)), ("axes", (np.nan, 0.5)),
                           ("axes", (0.5, np.inf)), ("angle_deg", np.nan),
                           ("proton_density", np.nan), ("t2_ms", np.inf)]:
            with pytest.raises(InvalidArgumentError, match=f"{field} must be (two )?finite"):
                EllipseRegion(**{**good, field: bad})
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidArgumentError, match="delta_te_ms must be finite"):
                PhantomSpec(delta_te_ms=bad)

    @pytest.mark.parametrize("bad", ["x", None, True, [6.0]])
    def test_non_numeric_delta_te_is_a_violation(self, bad):
        with pytest.raises(InvalidArgumentError) as exc:
            PhantomSpec(height="8", delta_te_ms=bad)
        assert str(exc.value).split("; ") == [
            "height must be an integer, got '8'",
            f"delta_te_ms must be finite and > 0, got {bad!r}",
        ]

    def test_non_numeric_region_fields_are_violations(self):
        with pytest.raises(InvalidArgumentError) as exc:
            EllipseRegion(("a", 0.0), (0.5, 0.5), "x", 1.0, None)
        assert str(exc.value).split("; ") == [
            "center must be two finite numbers, got ('a', 0.0)",
            "angle_deg must be finite, got 'x'",
            "t2_ms must be finite, got None",
        ]

    def test_every_violation_is_listed(self):
        with pytest.raises(InvalidArgumentError) as exc:
            EllipseRegion((np.nan, 0.0), (-0.5, 0.3), 0.0, -1.0, -5.0)
        assert str(exc.value).split("; ") == [
            "center must be two finite numbers, got (nan, 0.0)",
            "ellipse axes must be positive, got (-0.5, 0.3)",
            "proton density must be >= 0, got -1.0",
            "t2 must be positive, got -5.0",
        ]
        with pytest.raises(InvalidArgumentError) as exc:
            PhantomSpec(height=10**12, delta_te_ms=-1.0)
        assert str(exc.value).split("; ") == [
            "dims 1000000000000x64x8 exceed the limit of 16777216 samples",
            "delta_te_ms must be finite and > 0, got -1.0",
        ]


class TestSimulateAcquisition:
    def test_noiseless_equals_forward(self, small_truth, small_mask):
        y = me.simulate_acquisition(small_truth, small_mask, noise_sigma=0.0)
        assert np.array_equal(y.data, me.apply_forward(small_truth, small_mask).data)

    def test_deterministic_and_seed_sensitive(self, small_truth, small_mask):
        a = me.simulate_acquisition(small_truth, small_mask, noise_sigma=0.05, seed=7)
        b = me.simulate_acquisition(small_truth, small_mask, noise_sigma=0.05, seed=7)
        c = me.simulate_acquisition(small_truth, small_mask, noise_sigma=0.05, seed=8)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_noise_only_on_sampled_entries(self, small_truth, small_mask):
        y = me.simulate_acquisition(small_truth, small_mask, noise_sigma=0.3, seed=1)
        off = ~small_mask.bool_view()
        assert np.all(y.data[off] == 0.0)

    def test_complex_noise_variance(self, small_truth):
        # Monte Carlo: each sampled entry gets independent real/imag N(0, s^2),
        # total complex variance 2 s^2; check within 5% over >= 1e4 samples.
        sigma = 0.1
        mask = me.generate_mask(32, 32, 32, 4, seed=0)  # fully sampled
        clean = me.apply_forward(small_truth, mask).data
        draws = []
        for seed in range(10):
            y = me.simulate_acquisition(small_truth, mask, noise_sigma=sigma, seed=seed)
            draws.append((y.data - clean).ravel())
        noise = np.concatenate(draws)
        assert noise.size >= 10_000
        var = np.mean(np.abs(noise) ** 2)
        assert abs(var - 2 * sigma**2) < 0.05 * 2 * sigma**2
        # real and imaginary parts each carry half the variance
        assert abs(np.mean(noise.real**2) - sigma**2) < 0.05 * sigma**2
        assert abs(np.mean(noise.imag**2) - sigma**2) < 0.05 * sigma**2

    def test_negative_sigma_rejected(self, small_truth, small_mask):
        with pytest.raises(InvalidArgumentError, match="noise_sigma"):
            me.simulate_acquisition(small_truth, small_mask, noise_sigma=-1e-3)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, small_truth, small_mask, sigma):
        with pytest.raises(InvalidArgumentError, match="noise_sigma must be finite"):
            me.simulate_acquisition(small_truth, small_mask, noise_sigma=sigma)

    def test_result_validates(self, small_truth, small_mask):
        # Noise lands on the mask only, so the result passes the k-space rule,
        # which refuses the same noise spread over every entry.
        y = me.simulate_acquisition(small_truth, small_mask, noise_sigma=0.02, seed=3)
        assert y.mask == small_mask and np.all(y.data[~small_mask.bool_view()] == 0)
        with pytest.raises(InvalidArgumentError, match="nonzero entries off the mask"):
            me.KSpaceData(y.data + 0.02, small_mask)


class TestSnr:
    def test_constructed_20db(self):
        # SNR = 10 log10(||ref||^2 / ||ref - recon||^2); build an error with
        # exactly 1/100 of the reference energy.
        ref = np.zeros((4, 4, 2))
        ref[0, 0, 0] = 10.0
        err = np.zeros_like(ref)
        err[1, 1, 1] = 1.0
        a = MultiEchoImage(ref)
        b = MultiEchoImage(ref + err)
        assert me.snr_db(a, b) == pytest.approx(20.0, abs=1e-12)

    def test_exact_recon_is_inf(self, small_truth):
        assert me.snr_db(small_truth, small_truth) == float("inf")

    def test_zero_recon_is_zero_db(self, small_truth):
        zero = MultiEchoImage(np.zeros_like(small_truth.data))
        assert me.snr_db(small_truth, zero) == pytest.approx(0.0, abs=1e-12)

    def test_per_echo_matches_manual(self, small_truth, rng):
        noisy = MultiEchoImage(small_truth.data + 0.01 * rng.normal(size=small_truth.data.shape))
        per = me.snr_db_per_echo(small_truth, noisy)
        assert len(per) == small_truth.echoes
        for c, val in enumerate(per):
            num = np.sum(small_truth.data[:, :, c] ** 2)
            den = np.sum((small_truth.data[:, :, c] - noisy.data[:, :, c]) ** 2)
            assert val == pytest.approx(10 * np.log10(num / den), rel=1e-12)

    def test_scale_invariance_of_error_ratio(self, small_truth, rng):
        # scaling both images by k leaves SNR unchanged
        noisy = MultiEchoImage(small_truth.data + 0.05 * rng.normal(size=small_truth.data.shape))
        s1 = me.snr_db(small_truth, noisy)
        s2 = me.snr_db(MultiEchoImage(3.0 * small_truth.data),
                       MultiEchoImage(3.0 * noisy.data))
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_zero_reference_rejected(self):
        zero = MultiEchoImage(np.zeros((4, 4, 2)))
        other = MultiEchoImage(np.ones((4, 4, 2)))
        with pytest.raises(InvalidArgumentError, match="reference"):
            me.snr_db(zero, other)

    def test_shape_mismatch_rejected(self, small_truth):
        other = MultiEchoImage(np.ones((8, 8, 2)))
        with pytest.raises(InvalidArgumentError, match="shape"):
            me.snr_db(small_truth, other)
