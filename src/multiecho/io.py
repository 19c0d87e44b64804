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

A loader checks only a file's framing: it parses, its root is an object, no
field is missing, the format constants hold and the payload has its size.
Every field is then the rule of the type the loader builds (``SamplingMask``,
``MultiEchoImage``, ``KSpaceData``, ``RunRecord``), so a value a writer
accepts is one its loader reads back.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import (
    InvalidArgumentError,
    KSpaceData,
    MultiEchoImage,
    SamplingMask,
    _dims_problems,
    _is_int,
    _is_number,
    _plane_problems,
    _refuse,
    _seed_problems,
    _store,
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


def _build(path: Path, cls, *args, problems=(), **kwargs):
    """``cls(*args, **kwargs)``, else a :class:`FormatError`: ``path``, ``problems``, refusal."""
    try:
        value = cls(*args, **kwargs)
    except InvalidArgumentError as e:
        problems = [*problems, str(e)]
    if problems:
        raise FormatError(f"{path}: {'; '.join(problems)}")
    return value


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


def _field_problems(obj, keys, **constants) -> list[str]:
    """Framing violations of a JSON root: not an object, a key missing, a constant changed."""
    if not isinstance(obj, dict):
        return [f"the root must be a JSON object, got {_short(obj)}"]
    problems = [f"lacks field {key!r}" for key in (*constants, *keys) if key not in obj]
    return problems + [
        f"{key} must be {json.dumps(want)}, got {_short(obj[key])}"
        for key, want in constants.items()
        if key in obj and not (type(obj[key]) is type(want) and obj[key] == want)]


def _base(path) -> Path:
    p = Path(path)
    if p.suffix in (".json", ".bin", ".kbin"):
        p = p.with_suffix("")
    return p


def _as_f32(data: np.ndarray, what: str, dtype: str) -> np.ndarray:
    """``(H, W, C)`` data cast to ``dtype`` (``'<f4'`` or ``'<c8'``) for a payload.

    Refuses, naming the first position as the loaders do, a value beyond the
    float32 range, which the cast turns to inf and the loaders would refuse.
    """
    with np.errstate(over="ignore"):
        cast = data.astype(dtype)
    for h, w, c in np.argwhere(~np.isfinite(cast))[:1]:
        raise InvalidArgumentError(f"{what} has a value that float32 cannot hold at "
                                   f"(row={h}, col={w}, echo={c}): {data[h, w, c]}")
    return cast


_MEF_DIMS = ("height", "width", "echoes")
_MEF_CONSTANTS = {"mef_version": MEF_VERSION, "dtype": "f32", "endian": "little",
                  "layout": _LAYOUT}


def _header_dims(path) -> tuple[int, int, int] | None:
    """The dims an image, mask or k-space JSON declares, else ``None`` (its loader says why)."""
    with suppress(FormatError):
        header = _read_json(Path(path), "header")
        if isinstance(header, dict):
            dims = tuple(header.get(key) for key in _MEF_DIMS)
            return None if _dims_problems(*dims) else dims
    return None


def save_mef(path, image: MultiEchoImage) -> tuple[Path, Path]:
    """Write ``<base>.json`` + ``<base>.bin``; returns both paths (refuses as :func:`_as_f32`)."""
    base = _base(path)
    # The version leads, then the dims, then the other constants in their order.
    header = {"mef_version": MEF_VERSION, **dict(zip(_MEF_DIMS, image.data.shape)),
              **_MEF_CONSTANTS}
    payload = np.ascontiguousarray(np.moveaxis(_as_f32(image.data, "image", "<f4"), 2, 0))
    base.parent.mkdir(parents=True, exist_ok=True)
    (base.with_suffix(".json")).write_bytes(_json_bytes(header))
    (base.with_suffix(".bin")).write_bytes(payload.tobytes())
    return base.with_suffix(".json"), base.with_suffix(".bin")


def load_mef(path) -> MultiEchoImage:
    """Read an image stack written by :func:`save_mef`.

    Raises :class:`FormatError` on an unreadable header, a header field that
    is missing, a format constant of another value, dims that are not
    integers, not positive or beyond the size limit (checked before the
    payload is read), a payload of the wrong size, or samples that
    :class:`MultiEchoImage` refuses (non-finite values); the message lists
    every header violation found.
    """
    base = _base(path)
    header_path, bin_path = base.with_suffix(".json"), base.with_suffix(".bin")
    header = _read_json(header_path, "header")
    problems = _field_problems(header, _MEF_DIMS, **_MEF_CONSTANTS)
    if isinstance(header, dict) and header.keys() >= set(_MEF_DIMS):
        h, w, c = (header[key] for key in _MEF_DIMS)
        problems += _dims_problems(h, w, c)
    if problems:
        raise FormatError(f"{header_path}: {'; '.join(problems)}")
    raw = _read_f32(bin_path)
    if raw.size != h * w * c:
        raise FormatError(
            f"{bin_path}: expected {h * w * c} samples, found {raw.size}"
        )
    return _build(bin_path, MultiEchoImage,
                  np.moveaxis(raw.reshape(c, h, w), 0, 2).astype(np.float64))


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

    Raises :class:`FormatError` on unreadable JSON, a missing field, an
    ``echoes`` field that is not the number of line lists, or a mask that
    :class:`SamplingMask` refuses (dims or line indices that are not
    integers, lines out of range, duplicated or unsorted, echoes of unequal
    line count, dims beyond the size limit); the message lists every
    violation found.
    """
    p = Path(path)
    obj = _read_json(p, "mask")
    problems = _field_problems(obj, ("height", "width", "echoes", "lines"))
    if problems:
        raise FormatError(f"{p}: {'; '.join(problems)}")
    lines, echoes = obj["lines"], obj["echoes"]
    if isinstance(lines, list) and not (_is_int(echoes) and echoes == len(lines)):
        problems.append(f"echoes field disagrees with lines list, got {_short(echoes)}")
    return _build(p, SamplingMask, obj["height"], obj["width"], lines, problems=problems)


def _sampled_lines(mask: SamplingMask) -> tuple[list[int], list[int]]:
    """Row and echo of each sampled line, in the order of the ``.kbin`` payload."""
    return ([r for rows in mask.lines for r in rows],
            [c for c, rows in enumerate(mask.lines) for _ in rows])


def save_kspace(path, kspace: KSpaceData) -> tuple[Path, Path]:
    """Write ``<base>.json`` (mask) + ``<base>.kbin`` (packed sampled lines).

    Refuses as :func:`_as_f32` does.
    """
    base = _base(path)
    # A '<c8' sample is the (real, imag) pair of little-endian f32.
    samples = _as_f32(kspace.data, "k-space", "<c8")
    mask_path = save_mask(base.with_suffix(".json"), kspace.mask)
    rows, echoes = _sampled_lines(kspace.mask)
    kbin = base.with_suffix(".kbin")
    kbin.write_bytes(samples[rows, :, echoes].tobytes())
    return mask_path, kbin


def load_kspace(path) -> KSpaceData:
    """Read k-space written by :func:`save_kspace`.

    The mask is checked by :func:`load_mask` before the payload is read, and
    the loaded samples by :class:`KSpaceData` (finite values).  Raises
    :class:`FormatError` on any violation.
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
    return _build(kbin, KSpaceData, data, mask)


def export_pgm(path, plane: np.ndarray, normalization: float | None = None) -> Path:
    """Write one plane as binary PGM (P5, maxval 255).

    Values are scaled by ``255 / normalization`` (default: the plane maximum),
    rounded, and clamped to [0, 255].
    """
    arr = np.asarray(plane, dtype=np.float64)
    _refuse(_plane_problems(arr))
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


_SNR_FIELDS = ("snr_db", "snr_db_per_echo")


def _swap(value, old, new):
    """An SNR field with ``old``, itself or an item of its list, replaced by ``new``."""
    if isinstance(value, list):
        return [_swap(v, old, new) for v in value]
    return new if value == old else value


def _is_snr(value) -> bool:
    """A finite number or inf (an exact match), the values an SNR takes."""
    return _is_number(value) or (isinstance(value, float) and value == math.inf)


def _is_json_object(value) -> bool:
    """A dict that JSON writes and reads back equal: string keys, finite numbers, lists."""
    try:
        return isinstance(value, dict) and json.loads(json.dumps(value, allow_nan=False)) == value
    except (TypeError, ValueError, RecursionError):
        return False


def _record_problems(values: dict) -> list[str]:
    """Violations of the :class:`RunRecord` fields in ``values``, any subset of them."""
    wants = {
        "method": (lambda v: isinstance(v, str), "a string"),
        "config": (_is_json_object, "a JSON object"),
        "cost_history": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                         "a list of finite numbers"),
        "snr_db": (lambda v: v is None or _is_snr(v), "finite, inf or None"),
        "snr_db_per_echo": (lambda v: v is None or isinstance(v, list) and all(map(_is_snr, v)),
                            "a list of finite numbers or inf, or None"),
        "wall_seconds": (lambda v: _is_number(v) and v >= 0, "finite and >= 0"),
    }
    problems = [f"{name} must be {wants[name][1]}, got {_short(v)}"
                for name, v in values.items() if name in wants and not wants[name][0](v)]
    return problems + (_seed_problems(values["seed"]) if "seed" in values else [])


@dataclass(frozen=True)
class RunRecord:
    """Everything needed to audit one reconstruction run.

    Raises ``InvalidArgumentError`` listing every violation of its rule:
    ``method`` a string, ``seed`` an integer >= 0 (the rule of every seed),
    ``config`` a JSON object, ``cost_history`` a list of finite numbers,
    ``snr_db`` finite, inf or ``None``, ``snr_db_per_echo`` a list of finite
    numbers or inf, or ``None``, and ``wall_seconds`` finite and >= 0.
    Numbers are stored as ``int`` and ``float``, so every record that can be
    built saves to a file that :func:`load_run_record` reads back equal.
    """

    method: str
    seed: int
    config: dict
    cost_history: list[float] = field(default_factory=list)
    snr_db: float | None = None
    snr_db_per_echo: list[float] | None = None
    wall_seconds: float = 0.0

    def __post_init__(self):
        _refuse(_record_problems(vars(self)))
        _store(self, seed=int(self.seed), cost_history=[float(v) for v in self.cost_history],
               snr_db=None if self.snr_db is None else float(self.snr_db),
               snr_db_per_echo=(None if self.snr_db_per_echo is None
                                else [float(v) for v in self.snr_db_per_echo]),
               wall_seconds=float(self.wall_seconds))

    def to_json_dict(self) -> dict:
        """The fields in order, an infinite SNR written as ``"inf"`` (JSON has no infinity)."""
        return {**vars(self), **{name: _swap(getattr(self, name), math.inf, "inf")
                                 for name in _SNR_FIELDS}}


def save_run_record(path, record: RunRecord) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_bytes(_json_bytes(record.to_json_dict()))
    return p


def load_run_record(path) -> RunRecord:
    """Read a run record written by :func:`save_run_record`.

    Raises :class:`FormatError` on unreadable JSON, a missing field or a
    record that :class:`RunRecord` refuses; the message lists every violation
    found.
    """
    p = Path(path)
    obj = _read_json(p, "run record")
    names = [f.name for f in fields(RunRecord)]
    problems = _field_problems(obj, names)
    values = {name: _swap(obj[name], "inf", math.inf) if name in _SNR_FIELDS else obj[name]
              for name in names if isinstance(obj, dict) and name in obj}
    if problems:  # the rule takes any subset of the fields, so it still lists every violation
        raise FormatError(f"{p}: {'; '.join(problems + _record_problems(values))}")
    return _build(p, RunRecord, **values)
