"""Shared fixtures: small deterministic problem instances."""

from __future__ import annotations

import numpy as np
import pytest

import multiecho as me
from multiecho.solvers import DESCENT_SLACK


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_truth() -> me.MultiEchoImage:
    """32x32, 4-echo phantom — large enough for 8x8 patches, fast to solve."""
    return me.generate_phantom(me.default_phantom_spec(height=32, width=32, echoes=4))


@pytest.fixture
def small_mask() -> me.SamplingMask:
    return me.generate_mask(32, 32, 10, 4, per_echo_distinct=True, seed=0)


@pytest.fixture
def small_kspace(small_truth, small_mask) -> me.KSpaceData:
    return me.simulate_acquisition(small_truth, small_mask, noise_sigma=0.01, seed=0)


@pytest.fixture
def fast_params() -> me.ReconParams:
    return me.ReconParams(
        mu=0.5, lam=0.05, gamma=1.0, patch_size=8, patch_stride=4,
        max_outer_iters=5, inner_iters=10,
    )


def fft_normal(x: np.ndarray, mask: me.SamplingMask) -> np.ndarray:
    """A^T A by an FFT pair per echo: the oracle for ForwardModel's row Gram."""
    k = np.fft.fft2(x, axes=(0, 1), norm="ortho")
    return np.fft.ifft2(np.where(mask.bool_view(), k, 0.0), axes=(0, 1), norm="ortho").real


def assert_monotone(history, rel_slack=DESCENT_SLACK):
    """Every step of a cost history decreases, up to the engines' relative slack."""
    assert len(history) >= 1
    assert all(np.isfinite(c) for c in history)
    for i in range(len(history) - 1):
        allowed = history[i] + rel_slack * max(abs(history[i]), 1e-30)
        assert history[i + 1] <= allowed, (
            f"cost rose at step {i}: {history[i]} -> {history[i + 1]}"
        )
