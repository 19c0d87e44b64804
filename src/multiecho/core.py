"""Domain types for multi-echo reconstruction.

All images are real-valued ``(height, width, echoes)`` stacks; k-space data
carries complex samples on an explicit per-echo line mask.  Types are thin
dataclass wrappers around numpy arrays: they pin shapes and conventions but
leave numerics to the operator and solver modules.  Each type checks its
rules when built and raises one ``InvalidArgumentError`` that lists every
violation, so an image, mask or k-space value that exists is valid.

The rules share one integer policy, :func:`_is_int`: an integer is a Python
or numpy integer, never a bool or a float (``2.0`` is refused).  Every number
and count argument goes through one of two rules, each violation worded
alike: :func:`_number_problems`, a finite real >= 0 (or > 0), never a bool,
and :func:`_count_problems`, an integer >= 1.  A value whose rule passes is
stored as its field's declared type (``int``, ``float``, tuples of them), so
equal settings are equal values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "InvalidArgumentError",
    "DomainError",
    "NumericalFailureError",
    "MultiEchoImage",
    "SamplingMask",
    "KSpaceData",
    "Dictionary",
    "Transform",
    "ReconParams",
]

# Most height * width * echoes samples a mask or phantom may describe (256 MB
# as complex128); checked before anything of that size is allocated.
MAX_STACK_SAMPLES = 1 << 24


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class DomainError(ValueError):
    """A value left the mathematical domain of an expression (e.g. det <= 0)."""


class NumericalFailureError(RuntimeError):
    """An iterative routine produced non-finite values."""


def _refuse(problems: list[str]) -> None:
    """Raise one ``InvalidArgumentError`` that lists ``problems``, if there are any."""
    if problems:
        raise InvalidArgumentError("; ".join(problems))


def _store(obj, **values) -> None:
    """Set fields of the frozen dataclass ``obj``: its values once its rule passed."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class MultiEchoImage:
    """Real-valued image stack, one 2-D image per echo time.

    Parameters
    ----------
    data : ndarray
        Array of shape ``(height, width, echoes)``; coerced to float64.

    Raises ``InvalidArgumentError`` unless ``data`` is 3-D, with no empty
    dimension, and finite (naming the first non-finite position); so an
    engine iterate that turns non-finite raises where its image is built.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        _refuse(_image_problems(arr))
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def echoes(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class SamplingMask:
    """Frequency-encoding line mask: per echo, the sorted sampled row indices.

    ``lines[c]`` lists the k-space rows acquired for echo ``c`` in unshifted
    FFT coordinates (DC at row 0).  Full rows are sampled, so a boolean
    ``(height, width)`` view of echo ``c`` is true on exactly
    ``len(lines[c]) * width`` entries.

    The mask rule, checked when built (``InvalidArgumentError`` lists every
    violation): integer dims, positive and within ``MAX_STACK_SAMPLES``, and
    in every echo the same number, at least one, of distinct, sorted integer
    lines in ``[0, height)``.  Numpy integers are stored as ``int``; floats,
    integral ones included, are refused, as truncating them could sample
    lines the caller did not name.
    """

    height: int
    width: int
    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _refuse(_lines_problems(self.height, self.width, self.lines))
        _store(self, height=int(self.height), width=int(self.width),
               lines=tuple(tuple(int(r) for r in echo) for echo in self.lines))

    @property
    def echoes(self) -> int:
        return len(self.lines)

    def bool_view(self) -> np.ndarray:
        """Boolean array of shape (height, width, echoes), true on sampled rows."""
        m = np.zeros((self.height, self.width, self.echoes), dtype=bool)
        for c, rows in enumerate(self.lines):
            m[list(rows), :, c] = True
        return m


@dataclass(frozen=True)
class KSpaceData:
    """Measured k-space: complex samples on ``mask``, exactly zero elsewhere.

    ``data`` is the zero-filled embedding of the measurements, shape
    ``(height, width, echoes)`` complex.  Raises ``InvalidArgumentError``
    unless the shape matches the mask, every value is finite and every entry
    off the mask is zero.
    """

    data: np.ndarray
    mask: SamplingMask

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        _refuse(_kspace_problems(arr, self.mask))
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class Dictionary:
    """Synthesis dictionary: columns are unit-norm atoms in patch space."""

    atoms: np.ndarray  # (patch_dim, num_atoms)

    def __post_init__(self):
        arr = np.asarray(self.atoms, dtype=np.float64)
        if arr.ndim != 2:
            raise InvalidArgumentError(
                f"dictionary must be (patch_dim, num_atoms), got shape {arr.shape}"
            )
        object.__setattr__(self, "atoms", arr)

    @property
    def num_atoms(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class Transform:
    """Square analysis operator mapping patch space to coefficient space."""

    matrix: np.ndarray  # (patch_dim, patch_dim)

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidArgumentError(
                f"transform must be square, got shape {arr.shape}"
            )
        object.__setattr__(self, "matrix", arr)


@dataclass(frozen=True)
class ReconParams:
    """Weights and iteration budgets shared by the iterative engines.

    ``mu`` weights the patch-model block against k-space fidelity, ``lam``
    weights row sparsity inside that block (so the effective sparsity weight
    is ``mu * lam``), and ``gamma`` conditions the transform regularizer
    (transform engine only).  Every engine's image step is exact, so no
    solver tolerance or iteration cap is needed for it.

    Raises ``InvalidArgumentError`` listing every violation.  ``mu`` and
    ``gamma`` must be finite and > 0 even where a method ignores them (at 0
    the patch image step is singular and the transform update undefined),
    ``lam`` and ``rel_cost_tol`` finite and >= 0, and the sizes and budgets
    integers >= 1.  Each field is stored as its default's type, so
    ``ReconParams(mu=1)`` holds ``mu = 1.0``.
    """

    mu: float = 1.0
    lam: float = 0.05
    gamma: float = 1.0
    patch_size: int = 8
    patch_stride: int = 4
    max_outer_iters: int = 50
    rel_cost_tol: float = 1e-4
    inner_iters: int = 20

    def __post_init__(self):
        _refuse(_params_problems(vars(self)))
        _store(self, **{f.name: type(f.default)(getattr(self, f.name)) for f in fields(self)})


def _params_problems(values: dict, name=lambda field: field) -> list[str]:
    """Violations of the :class:`ReconParams` fields in ``values``, ``f`` called ``name(f)``."""
    problems = []
    for field in ("mu", "lam", "gamma", "rel_cost_tol"):
        problems += _number_problems(field in ("mu", "gamma"), **{name(field): values[field]})
    counts = ("patch_size", "patch_stride", "max_outer_iters", "inner_iters")
    problems += _count_problems(**{name(field): values[field] for field in counts})
    size, stride = values["patch_size"], values["patch_stride"]
    if not _count_problems(patch_size=size, patch_stride=stride) and stride > size:
        problems.append(f"patch_stride ({stride}) must not exceed patch_size ({size}) "
                        f"or patches would not cover every pixel")
    return problems


def _seed_problems(seed) -> list[str]:
    """Violations of a random seed: an integer >= 0, as ``numpy.random.default_rng`` takes."""
    return _int_problems(seed=seed) or ([] if seed >= 0 else [f"seed must be >= 0, got {seed}"])


def _is_int(value) -> bool:
    """A Python or numpy integer; ``True``/``False`` and floats (``2.0`` too) are not integers."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _int_problems(**values) -> list[str]:
    """One violation for each keyword value that is not an integer (:func:`_is_int`)."""
    return [f"{name} must be an integer, got {v!r}" for name, v in values.items()
            if not _is_int(v)]


def _count_problems(**values) -> list[str]:
    """One violation for each keyword value that is not an integer >= 1 (:func:`_is_int`)."""
    return [f"{name} must be a positive integer, got {v!r}" for name, v in values.items()
            if not _is_int(v) or v < 1]


def _bool_problems(**values) -> list[str]:
    """One violation for each keyword value that is not ``True`` or ``False``."""
    return [f"{name} must be a bool, got {v!r}" for name, v in values.items()
            if not isinstance(v, (bool, np.bool_))]


def _is_sequence(value) -> bool:
    """A list, a tuple or an array of at least one dimension."""
    return isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim > 0)


def _is_number(value) -> bool:
    """A finite real number, from JSON or numpy; ``True``/``False`` are not numbers."""
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


def _number_problems(positive: bool = False, **values) -> list[str]:
    """One violation for each keyword value that is not a finite number >= 0 (> 0 if ``positive``).

    Constant time: the proximal maps run it on every iteration of the engines.
    """
    bound = "> 0" if positive else ">= 0"
    return [f"{name} must be finite and {bound}, got {v!r}" for name, v in values.items()
            if not _is_number(v) or v < 0 or (positive and v == 0)]


def _is_pair(value) -> bool:
    """A sequence of two finite numbers (:func:`_is_number`)."""
    return _is_sequence(value) and len(value) == 2 and all(map(_is_number, value))


def _dims_problems(height, width, echoes) -> list[str]:
    """Violations of integer, positive ``(height, width, echoes)`` within ``MAX_STACK_SAMPLES``."""
    problems = _int_problems(height=height, width=width, echoes=echoes)
    if problems:
        return problems
    shape = f"{height}x{width}x{echoes}"
    if min(height, width, echoes) < 1:
        return [f"dims must be positive, got {shape}"]
    if int(height) * int(width) * int(echoes) > MAX_STACK_SAMPLES:
        return [f"dims {shape} exceed the limit of {MAX_STACK_SAMPLES} samples"]
    return []


def _non_finite(what: str, arr: np.ndarray) -> list[str]:
    """The first non-finite entry of an ``(H, W, C)`` array, as a problem of ``what``."""
    bad = ~np.isfinite(arr)
    if not bad.any():
        return []
    h, w, c = np.argwhere(bad)[0]
    return [f"{what} has non-finite value at (row={h}, col={w}, echo={c})"]


def _image_problems(arr: np.ndarray) -> list[str]:
    """Violations of the :class:`MultiEchoImage` rule by a float64 array."""
    if arr.ndim != 3:
        return [f"image data must be (height, width, echoes), got shape {arr.shape}"]
    if min(arr.shape) < 1:
        return [f"image has an empty dimension: shape {arr.shape}"]
    return _non_finite("image", arr)


def _plane_problems(arr: np.ndarray) -> list[str]:
    """Violations of one image plane: 2-D and finite."""
    if arr.ndim != 2:
        return [f"expected a 2-D plane, got shape {arr.shape}"]
    return [] if np.all(np.isfinite(arr)) else ["plane has non-finite values"]


def _lines_problems(height, width, lines) -> list[str]:
    """Violations of the :class:`SamplingMask` rule."""
    if not (_is_sequence(lines) and all(map(_is_sequence, lines))):
        return _dims_problems(height, width, 1) + [
            "lines must hold one sequence of line indices per echo"]
    out = _dims_problems(height, width, len(lines))
    counts = {len(echo) for echo in lines}
    if len(counts) > 1:
        out.append(f"echoes disagree on line count: {sorted(counts)}")
    for c, rows in enumerate(map(tuple, lines)):
        if not all(map(_is_int, rows)):
            out.append(f"echo {c} has line indices that are not integers")
            continue
        if len(set(rows)) != len(rows):
            out.append(f"echo {c} has duplicated line indices")
        if _is_int(height) and any(r < 0 or r >= height for r in rows):
            out.append(f"echo {c} has line indices outside [0, {height})")
        if tuple(sorted(rows)) != rows:
            out.append(f"echo {c} line indices are not sorted ascending")
        if len(rows) == 0:
            out.append(f"echo {c} samples no lines")
    return out


def _kspace_problems(data: np.ndarray, mask: SamplingMask) -> list[str]:
    """Violations of the :class:`KSpaceData` rule by a complex128 array on ``mask``."""
    expected = (mask.height, mask.width, mask.echoes)
    if data.shape != expected:
        return [f"k-space shape {data.shape} does not match mask dims {expected}"]
    out = _non_finite("k-space", data)
    if out:
        return out
    off = (data != 0) & ~mask.bool_view()
    if off.any():
        h, w, c = np.argwhere(off)[0]
        out.append(
            f"k-space has {int(off.sum())} nonzero entries off the mask, "
            f"first at (row={h}, col={w}, echo={c})"
        )
    return out
