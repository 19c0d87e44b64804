"""File formats: image stacks, masks, k-space, PGM export, run records.

All binary payloads are little-endian float32; all JSON is written with a
fixed key order and 2-space indent so identical runs produce identical bytes.

* ``<name>.json`` + ``<name>.bin`` — multi-echo image: header plus raw f32
  samples in echo-major, then row-major order.
* mask JSON — dims plus per-echo sorted unshifted line indices.
* ``<name>.json`` + ``<name>.kbin`` — k-space: the mask JSON next to packed
  ``(real, imag)`` f32 pairs for the sampled lines only, echo-major, then
  line-major (ascending line index), then column-ascending.
* PGM — binary ``P5``, maxval 255.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    InvalidArgumentError,
    KSpaceData,
    MultiEchoImage,
    SamplingMask,
    _dims_problems,
    validate,
)

__all__ = [
    "FormatError",
    "MEF_VERSION",
    "save_mef",
    "load_mef",
    "save_mask",
    "load_mask",
    "save_kspace",
    "load_kspace",
    "export_pgm",
    "export_difference",
    "RunRecord",
    "save_run_record",
    "load_run_record",
]

MEF_VERSION = 1
_LAYOUT = "echo-major, then row-major"


class FormatError(ValueError):
    """A file does not conform to its documented format."""


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("ascii")


def _base(path) -> Path:
    p = Path(path)
    if p.suffix in (".json", ".bin", ".kbin"):
        p = p.with_suffix("")
    return p


def save_mef(path, image: MultiEchoImage) -> tuple[Path, Path]:
    """Write ``<base>.json`` + ``<base>.bin``; returns both paths."""
    base = _base(path)
    header = {
        "mef_version": MEF_VERSION,
        "height": image.height,
        "width": image.width,
        "echoes": image.echoes,
        "dtype": "f32",
        "endian": "little",
        "layout": _LAYOUT,
    }
    payload = np.ascontiguousarray(
        np.moveaxis(image.data, 2, 0), dtype="<f4"
    ).tobytes()
    base.parent.mkdir(parents=True, exist_ok=True)
    (base.with_suffix(".json")).write_bytes(_json_bytes(header))
    (base.with_suffix(".bin")).write_bytes(payload)
    return base.with_suffix(".json"), base.with_suffix(".bin")


def load_mef(path) -> MultiEchoImage:
    """Read an image stack written by :func:`save_mef`."""
    base = _base(path)
    header_path, bin_path = base.with_suffix(".json"), base.with_suffix(".bin")
    try:
        header = json.loads(header_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise FormatError(f"cannot read header {header_path}: {e}") from e
    for key in ("mef_version", "height", "width", "echoes", "dtype", "endian", "layout"):
        if key not in header:
            raise FormatError(f"{header_path}: missing header field {key!r}")
    if header["mef_version"] != MEF_VERSION:
        raise FormatError(f"{header_path}: unsupported version {header['mef_version']}")
    if (header["dtype"], header["endian"]) != ("f32", "little"):
        raise FormatError(f"{header_path}: unsupported dtype/endian")
    h, w, c = int(header["height"]), int(header["width"]), int(header["echoes"])
    problems = _dims_problems(h, w, c)
    if problems:
        raise FormatError(f"{header_path}: {'; '.join(problems)}")
    raw = np.fromfile(bin_path, dtype="<f4")
    if raw.size != h * w * c:
        raise FormatError(
            f"{bin_path}: expected {h * w * c} samples, found {raw.size}"
        )
    data = np.moveaxis(raw.reshape(c, h, w), 0, 2)
    return MultiEchoImage(data.astype(np.float64))


def save_mask(path, mask: SamplingMask) -> Path:
    p = Path(path)
    obj = {
        "height": mask.height,
        "width": mask.width,
        "echoes": mask.echoes,
        "lines": [list(echo) for echo in mask.lines],
    }
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_bytes(_json_bytes(obj))
    return p


def load_mask(path) -> SamplingMask:
    """Read a mask written by :func:`save_mask`.

    Raises :class:`FormatError` on unreadable JSON, a missing or non-integer
    field, or a mask that :func:`multiecho.validate` rejects (line indices
    out of range, duplicated or unsorted, echoes of unequal line count); the
    message lists every violation found.
    """
    p = Path(path)
    try:
        obj = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise FormatError(f"cannot read mask {p}: {e}") from e
    if not isinstance(obj, dict):
        raise FormatError(f"{p}: mask JSON must be an object")
    missing = [key for key in ("height", "width", "echoes", "lines") if key not in obj]
    if missing:
        raise FormatError(f"{p}: mask JSON lacks field(s) {', '.join(missing)}")
    try:
        echoes = int(obj["echoes"])
        mask = SamplingMask(
            height=int(obj["height"]),
            width=int(obj["width"]),
            lines=tuple(tuple(int(r) for r in echo) for echo in obj["lines"]),
        )
    except (TypeError, ValueError) as e:
        raise FormatError(f"{p}: malformed mask JSON ({e})") from e
    problems = validate(mask)
    if len(mask.lines) != echoes:
        problems.insert(0, "echoes field disagrees with lines list")
    if problems:
        raise FormatError(f"{p}: {'; '.join(problems)}")
    return mask


def save_kspace(path, kspace: KSpaceData) -> tuple[Path, Path]:
    """Write ``<base>.json`` (mask) + ``<base>.kbin`` (packed sampled lines)."""
    base = _base(path)
    mask_path = save_mask(base.with_suffix(".json"), kspace.mask)
    chunks = []
    for c, rows in enumerate(kspace.mask.lines):
        for r in rows:
            line = kspace.data[r, :, c]
            inter = np.empty(2 * line.size, dtype="<f4")
            inter[0::2] = line.real
            inter[1::2] = line.imag
            chunks.append(inter.tobytes())
    kbin = base.with_suffix(".kbin")
    kbin.write_bytes(b"".join(chunks))
    return mask_path, kbin


def load_kspace(path) -> KSpaceData:
    """Read k-space written by :func:`save_kspace`.

    The mask is checked by :func:`load_mask` before the payload is read, and
    the loaded samples by :func:`multiecho.validate` (finite values).
    Raises :class:`FormatError` on any violation.
    """
    base = _base(path)
    mask = load_mask(base.with_suffix(".json"))
    kbin = base.with_suffix(".kbin")
    raw = np.fromfile(kbin, dtype="<f4")
    expected = 2 * mask.width * sum(len(rows) for rows in mask.lines)
    if raw.size != expected:
        raise FormatError(f"{kbin}: expected {expected} floats, found {raw.size}")
    data = np.zeros((mask.height, mask.width, mask.echoes), dtype=np.complex128)
    pos = 0
    for c, rows in enumerate(mask.lines):
        for r in rows:
            line = raw[pos:pos + 2 * mask.width]
            data[r, :, c] = line[0::2].astype(np.float64) + 1j * line[1::2].astype(np.float64)
            pos += 2 * mask.width
    kspace = KSpaceData(data, mask)
    problems = validate(kspace)
    if problems:
        raise FormatError(f"{kbin}: {'; '.join(problems)}")
    return kspace


def export_pgm(path, plane: np.ndarray, normalization: float | None = None) -> Path:
    """Write one plane as binary PGM (P5, maxval 255).

    Values are scaled by ``255 / normalization`` (default: the plane maximum),
    rounded, and clamped to [0, 255].
    """
    arr = np.asarray(plane, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-D plane, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("plane contains non-finite values")
    if normalization is None:
        normalization = float(arr.max())
    if not normalization > 0:
        raise InvalidArgumentError(f"normalization must be > 0, got {normalization}")
    scaled = np.clip(np.rint(255.0 * arr / normalization), 0, 255).astype(np.uint8)
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    p.write_bytes(header + scaled.tobytes())
    return p


def export_difference(path, reference: np.ndarray, reconstruction: np.ndarray) -> Path:
    """PGM of ``|reference - reconstruction|`` scaled by the reference maximum."""
    ref = np.asarray(reference, dtype=np.float64)
    rec = np.asarray(reconstruction, dtype=np.float64)
    if ref.shape != rec.shape:
        raise InvalidArgumentError(f"shape mismatch: {ref.shape} vs {rec.shape}")
    return export_pgm(path, np.abs(ref - rec), normalization=float(ref.max()))


def _encode_snr(v: float | None):
    if v is None:
        return None
    return "inf" if math.isinf(v) else float(v)


def _decode_snr(v):
    if v is None:
        return None
    return float("inf") if v == "inf" else float(v)


@dataclass
class RunRecord:
    """Everything needed to audit one reconstruction run."""

    method: str
    seed: int
    config: dict
    cost_history: list[float] = field(default_factory=list)
    snr_db: float | None = None
    snr_db_per_echo: list[float] | None = None
    wall_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "seed": self.seed,
            "config": self.config,
            "cost_history": [float(v) for v in self.cost_history],
            "snr_db": _encode_snr(self.snr_db),
            "snr_db_per_echo": (
                None if self.snr_db_per_echo is None
                else [_encode_snr(v) for v in self.snr_db_per_echo]
            ),
            "wall_seconds": float(self.wall_seconds),
        }


def save_run_record(path, record: RunRecord) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_bytes(_json_bytes(record.to_json_dict()))
    return p


def load_run_record(path) -> RunRecord:
    p = Path(path)
    try:
        obj = json.loads(p.read_text())
        return RunRecord(
            method=obj["method"],
            seed=int(obj["seed"]),
            config=obj["config"],
            cost_history=[float(v) for v in obj["cost_history"]],
            snr_db=_decode_snr(obj["snr_db"]),
            snr_db_per_echo=(
                None if obj["snr_db_per_echo"] is None
                else [_decode_snr(v) for v in obj["snr_db_per_echo"]]
            ),
            wall_seconds=float(obj["wall_seconds"]),
        )
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise FormatError(f"cannot read run record {p}: {e}") from e
