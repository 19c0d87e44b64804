"""Reconstruction quality metrics."""

from __future__ import annotations

import numpy as np

from .core import InvalidArgumentError, MultiEchoImage, _refuse

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


def _reference_problems(ref: np.ndarray, per_echo: bool = False) -> list[str]:
    """Why SNR against ``ref`` is undefined: it is zero, or (``per_echo``) one of its echoes is."""
    if not per_echo:
        return [] if _norm(ref) else ["SNR is undefined for an all-zero reference"]
    return [f"SNR is undefined: echo {c} of the reference is zero"
            for c in range(ref.shape[2]) if not _norm(ref[:, :, c])][:1]


def _snr(ref: np.ndarray, rec: np.ndarray) -> float:
    err = _norm(ref - rec)
    return float("inf") if err == 0.0 else float(20.0 * np.log10(_norm(ref) / err))


def snr_db(reference: MultiEchoImage, reconstruction: MultiEchoImage) -> float:
    """Signal-to-noise ratio ``20 * log10(||ref|| / ||ref - rec||)`` in dB.

    Computed over the whole echo stack.  Returns ``inf`` on an exact match;
    an all-zero reference is rejected.
    """
    ref, rec = _as_stacks(reference, reconstruction)
    _refuse(_reference_problems(ref))
    return _snr(ref, rec)


def snr_db_per_echo(reference: MultiEchoImage, reconstruction: MultiEchoImage) -> list[float]:
    """Per-echo SNR values (same definition, one echo plane at a time)."""
    ref, rec = _as_stacks(reference, reconstruction)
    _refuse(_reference_problems(ref, per_echo=True))
    return [_snr(ref[:, :, c], rec[:, :, c]) for c in range(ref.shape[2])]
