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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    InvalidArgumentError,
    KSpaceData,
    MultiEchoImage,
    SamplingMask,
    _dims_problems,
    _is_integer,
    _is_number,
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


def _read_json(path: Path, what: str):
    """Parsed JSON of ``path``; a read, decode or parse failure is a :class:`FormatError`."""
    try:
        return json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError) as e:  # ValueError: bad UTF-8 or JSON
        raise FormatError(f"cannot read {what} {path}: {e}") from e


def _read_f32(path: Path) -> np.ndarray:
    """Little-endian float32 payload of ``path``."""
    try:
        return np.fromfile(path, dtype="<f4")
    except OSError as e:
        raise FormatError(f"cannot read payload {path}: {e}") from e


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _field_problems(obj, fields: dict) -> list[str]:
    """Every missing field of ``obj`` and every field that fails its check.

    ``fields`` maps a key to ``(check, description)`` in the order the
    violations are reported.
    """
    if not isinstance(obj, dict):
        return [f"the root must be a JSON object, got {_short(obj)}"]
    problems = []
    for key, (check, want) in fields.items():
        if key not in obj:
            problems.append(f"lacks field {key!r}")
        elif not check(obj[key]):
            problems.append(f"{key} must be {want}, got {_short(obj[key])}")
    return problems


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


_MEF_HEADER = {
    "mef_version": (lambda v: _is_integer(v) and v == MEF_VERSION, str(MEF_VERSION)),
    "height": (_is_integer, "an integer"),
    "width": (_is_integer, "an integer"),
    "echoes": (_is_integer, "an integer"),
    "dtype": (lambda v: v == "f32", '"f32"'),
    "endian": (lambda v: v == "little", '"little"'),
    "layout": (lambda v: v == _LAYOUT, repr(_LAYOUT)),
}


def load_mef(path) -> MultiEchoImage:
    """Read an image stack written by :func:`save_mef`.

    Raises :class:`FormatError` on an unreadable header, a header field that
    is missing or has the wrong value, dims that are not positive or exceed
    the size limit (checked before the payload is read), or a payload of the
    wrong size or with non-finite samples; the message lists every header
    violation found.
    """
    base = _base(path)
    header_path, bin_path = base.with_suffix(".json"), base.with_suffix(".bin")
    header = _read_json(header_path, "header")
    problems = _field_problems(header, _MEF_HEADER)
    if not problems:
        h, w, c = (int(header[key]) for key in ("height", "width", "echoes"))
        problems = _dims_problems(h, w, c)
    if problems:
        raise FormatError(f"{header_path}: {'; '.join(problems)}")
    raw = _read_f32(bin_path)
    if raw.size != h * w * c:
        raise FormatError(
            f"{bin_path}: expected {h * w * c} samples, found {raw.size}"
        )
    image = MultiEchoImage(np.moveaxis(raw.reshape(c, h, w), 0, 2).astype(np.float64))
    problems = validate(image)
    if problems:
        raise FormatError(f"{bin_path}: {'; '.join(problems)}")
    return image


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


def _is_line_lists(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(echo, list) and all(_is_integer(r) for r in echo) for echo in value
    )


_MASK_FIELDS = {
    "height": (_is_integer, "an integer"),
    "width": (_is_integer, "an integer"),
    "echoes": (_is_integer, "an integer"),
    "lines": (_is_line_lists, "a list of lists of integers"),
}


def load_mask(path) -> SamplingMask:
    """Read a mask written by :func:`save_mask`.

    Raises :class:`FormatError` on unreadable JSON, a missing or mistyped
    field, or a mask that :func:`multiecho.validate` rejects (line indices
    out of range, duplicated or unsorted, echoes of unequal line count); the
    message lists every violation found.
    """
    p = Path(path)
    obj = _read_json(p, "mask")
    problems = _field_problems(obj, _MASK_FIELDS)
    if problems:
        raise FormatError(f"{p}: malformed mask JSON ({'; '.join(problems)})")
    mask = SamplingMask(
        height=int(obj["height"]),
        width=int(obj["width"]),
        lines=tuple(tuple(int(r) for r in echo) for echo in obj["lines"]),
    )
    problems = validate(mask)
    if len(mask.lines) != obj["echoes"]:
        problems.insert(0, "echoes field disagrees with lines list")
    if problems:
        raise FormatError(f"{p}: {'; '.join(problems)}")
    return mask


def _sampled_lines(mask: SamplingMask) -> tuple[list[int], list[int]]:
    """Row and echo of each sampled line, in the order of the ``.kbin`` payload."""
    return ([r for rows in mask.lines for r in rows],
            [c for c, rows in enumerate(mask.lines) for _ in rows])


def save_kspace(path, kspace: KSpaceData) -> tuple[Path, Path]:
    """Write ``<base>.json`` (mask) + ``<base>.kbin`` (packed sampled lines)."""
    base = _base(path)
    mask_path = save_mask(base.with_suffix(".json"), kspace.mask)
    rows, echoes = _sampled_lines(kspace.mask)
    kbin = base.with_suffix(".kbin")
    # A '<c8' sample is the (real, imag) pair of little-endian f32.
    kbin.write_bytes(kspace.data[rows, :, echoes].astype("<c8").tobytes())
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
    raw = _read_f32(kbin)
    expected = 2 * mask.width * sum(len(rows) for rows in mask.lines)
    if raw.size != expected:
        raise FormatError(f"{kbin}: expected {expected} floats, found {raw.size}")
    data = np.zeros((mask.height, mask.width, mask.echoes), dtype=np.complex128)
    rows, echoes = _sampled_lines(mask)
    data[rows, :, echoes] = raw.view("<c8").reshape(len(rows), mask.width)
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


def _is_snr(value) -> bool:
    return value == "inf" or _is_number(value)


_RUN_RECORD_FIELDS = {
    "method": (lambda v: isinstance(v, str), "a string"),
    "seed": (_is_integer, "an integer"),
    "config": (lambda v: isinstance(v, dict), "an object"),
    "cost_history": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                     "a list of finite numbers"),
    "snr_db": (lambda v: v is None or _is_snr(v), 'a finite number, "inf" or null'),
    "snr_db_per_echo": (lambda v: v is None or isinstance(v, list) and all(map(_is_snr, v)),
                        'a list of finite numbers or "inf", or null'),
    "wall_seconds": (lambda v: _is_number(v) and v >= 0, "a finite number >= 0"),
}


def load_run_record(path) -> RunRecord:
    """Read a run record written by :func:`save_run_record`.

    Raises :class:`FormatError` on unreadable JSON or on any missing or
    mistyped field; the message lists every violation found.
    """
    p = Path(path)
    obj = _read_json(p, "run record")
    problems = _field_problems(obj, _RUN_RECORD_FIELDS)
    if problems:
        raise FormatError(f"cannot read run record {p}: {'; '.join(problems)}")
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
