"""Domain types and validation for multi-echo reconstruction.

All images are real-valued ``(height, width, echoes)`` stacks; k-space data
carries complex samples on an explicit per-echo line mask.  Types are thin
dataclass wrappers around numpy arrays: they pin shapes and conventions but
leave numerics to the operator and solver modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidArgumentError",
    "DegenerateInputError",
    "DomainError",
    "NumericalFailureError",
    "MultiEchoImage",
    "SamplingMask",
    "KSpaceData",
    "Dictionary",
    "Transform",
    "ReconParams",
    "validate",
]

# Most height * width * echoes samples a mask or phantom may describe (256 MB
# as complex128); checked before anything of that size is allocated.
MAX_STACK_SAMPLES = 1 << 24


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but degenerate (e.g. all-zero coefficients)."""


class DomainError(ValueError):
    """A value left the mathematical domain of an expression (e.g. det <= 0)."""


class NumericalFailureError(RuntimeError):
    """An iterative routine produced non-finite values."""


@dataclass(frozen=True)
class MultiEchoImage:
    """Real-valued image stack, one 2-D image per echo time.

    Parameters
    ----------
    data : ndarray
        Array of shape ``(height, width, echoes)``; coerced to float64.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise InvalidArgumentError(
                f"image data must be (height, width, echoes), got shape {arr.shape}"
            )
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
    """

    height: int
    width: int
    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "lines", tuple(tuple(int(r) for r in echo) for echo in self.lines)
        )

    @property
    def echoes(self) -> int:
        return len(self.lines)

    @property
    def lines_per_echo(self) -> int:
        return len(self.lines[0]) if self.lines else 0

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
    ``(height, width, echoes)`` complex; entries off the mask must be zero.
    """

    data: np.ndarray
    mask: SamplingMask

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        expected = (self.mask.height, self.mask.width, self.mask.echoes)
        if arr.shape != expected:
            raise InvalidArgumentError(
                f"k-space shape {arr.shape} does not match mask dims {expected}"
            )
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
    def patch_dim(self) -> int:
        return self.atoms.shape[0]

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

    @property
    def patch_dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ReconParams:
    """Weights and iteration budgets shared by the iterative engines.

    ``mu`` weights the patch-model block against k-space fidelity, ``lam``
    weights row sparsity inside that block (so the effective sparsity weight
    is ``mu * lam``), and ``gamma`` conditions the transform regularizer
    (transform engine only).  Every engine's image step is exact, so no
    solver tolerance or iteration cap is needed for it.
    """

    mu: float = 1.0
    lam: float = 0.05
    gamma: float = 1.0
    patch_size: int = 8
    patch_stride: int = 4
    max_outer_iters: int = 50
    rel_cost_tol: float = 1e-4
    inner_iters: int = 20
    seed: int = 0

    def __post_init__(self):
        problems = _params_problems(vars(self))
        if problems:
            raise InvalidArgumentError("; ".join(problems))


def _params_problems(values: dict, name=lambda field: field) -> list[str]:
    """Violations of the :class:`ReconParams` fields in ``values``, ``f`` called ``name(f)``."""
    problems = []
    def number(v):
        return (isinstance(v, (int, float, np.integer, np.floating))
                and not isinstance(v, bool))

    for field in ("mu", "lam", "gamma", "rel_cost_tol"):
        v = values[field]
        if not number(v) or not np.isfinite(v) or v < 0:
            problems.append(f"{name(field)} must be finite and >= 0, got {v}")
    grid_ok = True
    for field in ("patch_size", "patch_stride", "max_outer_iters", "inner_iters"):
        v = values[field]
        if not number(v) or not float(v).is_integer() or v < 1:
            problems.append(f"{name(field)} must be a positive integer, got {v}")
            grid_ok = grid_ok and field not in ("patch_size", "patch_stride")
    if grid_ok and values["patch_stride"] > values["patch_size"]:
        problems.append(
            f"patch_stride ({values['patch_stride']}) must not exceed "
            f"patch_size ({values['patch_size']}) or patches would not cover every pixel"
        )
    return problems


def _is_number(value) -> bool:
    """A finite real number read from JSON; ``true``/``false`` are not numbers."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


def _is_integer(value) -> bool:
    """A number read from JSON with an integral value (``3`` or ``3.0``)."""
    return _is_number(value) and float(value).is_integer()


def _dims_problems(*dims: int) -> list[str]:
    """Violations of positive ``(height, width, echoes)`` and of ``MAX_STACK_SAMPLES``."""
    shape = "x".join(str(v) for v in dims)
    if min(dims) < 1:
        return [f"dims must be positive, got {shape}"]
    if math.prod(int(v) for v in dims) > MAX_STACK_SAMPLES:
        return [f"dims {shape} exceed the limit of {MAX_STACK_SAMPLES} samples"]
    return []


def _validate_image(image: MultiEchoImage) -> list[str]:
    out = []
    if min(image.data.shape) < 1:
        out.append(f"image has an empty dimension: shape {image.data.shape}")
    bad = ~np.isfinite(image.data)
    if bad.any():
        h, w, c = np.argwhere(bad)[0]
        out.append(f"image has non-finite value at (row={h}, col={w}, echo={c})")
    return out


def _validate_mask(mask: SamplingMask) -> list[str]:
    out = _dims_problems(mask.height, mask.width, mask.echoes)
    if mask.echoes < 1:
        return out
    counts = {len(echo) for echo in mask.lines}
    if len(counts) > 1:
        out.append(f"echoes disagree on line count: {sorted(counts)}")
    for c, rows in enumerate(mask.lines):
        if len(set(rows)) != len(rows):
            out.append(f"echo {c} has duplicated line indices")
        if any(r < 0 or r >= mask.height for r in rows):
            out.append(f"echo {c} has line indices outside [0, {mask.height})")
        if tuple(sorted(rows)) != rows:
            out.append(f"echo {c} line indices are not sorted ascending")
        if len(rows) == 0:
            out.append(f"echo {c} samples no lines")
    return out


def _validate_kspace(ks: KSpaceData) -> list[str]:
    out = _validate_mask(ks.mask)
    bad = ~np.isfinite(ks.data)
    if bad.any():
        h, w, c = np.argwhere(bad)[0]
        out.append(f"k-space has non-finite value at (row={h}, col={w}, echo={c})")
        return out
    off = (ks.data != 0) & ~ks.mask.bool_view()
    if off.any():
        h, w, c = np.argwhere(off)[0]
        out.append(
            f"k-space has {int(off.sum())} nonzero entries off the mask, "
            f"first at (row={h}, col={w}, echo={c})"
        )
    return out


def validate(obj) -> list[str]:
    """Collect every invariant violation of a domain value as a list of strings.

    Accepts :class:`MultiEchoImage`, :class:`KSpaceData`, or
    :class:`SamplingMask`; an empty list means the value is valid.  A mask
    whose dims exceed ``MAX_STACK_SAMPLES`` is reported, so loaders can
    reject it before allocating its k-space.
    """
    if isinstance(obj, MultiEchoImage):
        return _validate_image(obj)
    if isinstance(obj, KSpaceData):
        return _validate_kspace(obj)
    if isinstance(obj, SamplingMask):
        return _validate_mask(obj)
    raise InvalidArgumentError(f"validate does not handle {type(obj).__name__}")
