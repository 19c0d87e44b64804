"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of the same code drifts by 15-25 % over tens of
seconds to minutes, so wall times taken a minute apart differ by more than
any change worth measuring.  The benchmark therefore runs this kernel before
the first reconstruction of a run and after every reconstruction, divides
each reconstruction's time by the mean of the two kernel times around it
(and each set-up time by the kernel time just before it), and reports the
median of these ratios times ``REFERENCE_S``: the time the work would take
at the host speed at which the kernel takes ``REFERENCE_S`` (see README.md).

The kernel is the mix of primitives the engines spend their time in: 2-D
FFTs of a 64x64x8 stack, small GEMMs of patch-matrix shape, ``np.add.at``
scatter, and element-wise arithmetic.  It uses only numpy and runs with the
BLAS thread count the benchmark fixed at start, whatever the program under
test may have set since, so no change to ``multiecho`` changes its time.
"""

from __future__ import annotations

import time

import numpy as np

import environment

# Typical time of ``kernel()`` on the 2-core x86-64 VM (Python 3.11, numpy
# 2.4.6, OpenBLAS 0.3.31, two BLAS threads) that the first numbers in
# README.md were measured on; it fixes the scale of the reported times.
REFERENCE_S = 0.30

_rng = np.random.default_rng(0)
_stack = _rng.standard_normal((64, 64, 8)) + 1j * _rng.standard_normal((64, 64, 8))
_patches = _rng.standard_normal((36, 3600))
_coefs = _rng.standard_normal((3600, 36))
_vector = _rng.standard_normal(250_000)
_index = _rng.integers(0, 4096, 36 * 3600)
_weights = _rng.standard_normal(36 * 3600)
_plane = np.zeros(4096)


def kernel(blas_threads: int) -> float:
    """Run the reference kernel once with ``blas_threads``; returns its wall seconds."""
    previous = environment.blas_threads()
    environment.set_blas_threads(blas_threads)
    try:
        t0 = time.perf_counter()
        for _ in range(50):
            np.fft.ifft2(np.fft.fft2(_stack, axes=(0, 1)), axes=(0, 1))
        for _ in range(140):
            (_patches @ _coefs) @ _patches
        for _ in range(280):
            np.add.at(_plane, _index, _weights)
        for _ in range(30):
            np.sqrt(_vector * _vector + 1.0).sum()
        return time.perf_counter() - t0
    finally:
        environment.set_blas_threads(previous)
