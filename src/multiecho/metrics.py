"""Reconstruction quality metrics."""

from __future__ import annotations

import numpy as np

from .core import InvalidArgumentError, MultiEchoImage

__all__ = ["snr_db", "snr_db_per_echo"]


def _as_stacks(reference: MultiEchoImage, reconstruction: MultiEchoImage):
    if reference.data.shape != reconstruction.data.shape:
        raise InvalidArgumentError(
            f"shape mismatch: reference {reference.data.shape} vs "
            f"reconstruction {reconstruction.data.shape}"
        )
    return reference.data, reconstruction.data


def _norm(a: np.ndarray) -> float:
    # Reduced without BLAS: np.linalg.norm goes through a threaded dot
    # product, whose last digits depend on the BLAS thread count.
    return float(np.sqrt(np.sum(a * a)))


def snr_db(reference: MultiEchoImage, reconstruction: MultiEchoImage) -> float:
    """Signal-to-noise ratio ``20 * log10(||ref|| / ||ref - rec||)`` in dB.

    Computed over the whole echo stack.  Returns ``inf`` on an exact match;
    an all-zero reference is rejected.
    """
    ref, rec = _as_stacks(reference, reconstruction)
    ref_norm = _norm(ref)
    if ref_norm == 0.0:
        raise InvalidArgumentError("SNR is undefined for an all-zero reference")
    err_norm = _norm(ref - rec)
    if err_norm == 0.0:
        return float("inf")
    return float(20.0 * np.log10(ref_norm / err_norm))


def snr_db_per_echo(reference: MultiEchoImage, reconstruction: MultiEchoImage) -> list[float]:
    """Per-echo SNR values (same definition, one echo plane at a time)."""
    ref, rec = _as_stacks(reference, reconstruction)
    out = []
    for c in range(ref.shape[2]):
        ref_norm = _norm(ref[:, :, c])
        if ref_norm == 0.0:
            raise InvalidArgumentError(f"SNR is undefined: echo {c} of the reference is zero")
        err = _norm(ref[:, :, c] - rec[:, :, c])
        out.append(float("inf") if err == 0.0 else float(20.0 * np.log10(ref_norm / err)))
    return out
