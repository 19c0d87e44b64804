"""Synthetic multi-echo spin-echo phantom and acquisition simulation.

The phantom is a set of rotated ellipses painted in order (later regions
overwrite earlier ones) on a normalized ``[-1, 1]^2`` grid.  A pixel inside a
region with proton density ``pd`` and relaxation time ``t2_ms`` takes the
value ``pd * exp(-c * delta_te_ms / t2_ms)`` at echo ``c`` (1-based), so every
covered pixel decays strictly monotonically across echoes and the echo-to-echo
ratio inside one region is constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    KSpaceData,
    MultiEchoImage,
    SamplingMask,
    _dims_problems,
    _is_number,
    _is_pair,
    _is_sequence,
    _number_problems,
    _refuse,
    _seed_problems,
    _store,
)
from .operators import apply_forward

__all__ = [
    "EllipseRegion",
    "PhantomSpec",
    "default_phantom_spec",
    "generate_phantom",
    "simulate_acquisition",
]


@dataclass(frozen=True)
class EllipseRegion:
    """One tissue ellipse: geometry in normalized coordinates, MR parameters, as floats."""

    center: tuple[float, float]  # (x, y) in [-1, 1]
    axes: tuple[float, float]  # semi-axes (a, b)
    angle_deg: float
    proton_density: float
    t2_ms: float

    def __post_init__(self):
        _refuse(_region_problems(vars(self)))
        _store(self, **{name: tuple(map(float, v)) if name in _PAIRS else float(v)
                        for name, v in vars(self).items()})


_PAIRS = ("center", "axes")


def _region_problems(values: dict) -> list[str]:
    """Violations of the :class:`EllipseRegion` fields in ``values``, any subset of them."""
    finite = {name: v for name, v in values.items()
              if (_is_pair(v) if name in _PAIRS else _is_number(v))}
    problems = [f"{name} must be {'two finite numbers' if name in _PAIRS else 'finite'}, "
                f"got {v!r}" for name, v in values.items() if name not in finite]
    if "axes" in finite and min(finite["axes"]) <= 0:
        problems.append(f"ellipse axes must be positive, got {finite['axes']}")
    density, top = finite.get("proton_density", 0.0), float(np.finfo(np.float32).max)
    if density < 0:
        problems.append(f"proton density must be >= 0, got {density}")
    elif density > top:  # the echo images are density times a decay <= 1, saved as float32
        problems.append(f"proton density must be <= {top:.7g}, the float32 maximum, "
                        f"got {density}")
    if finite.get("t2_ms", 1.0) <= 0:
        problems.append(f"t2 must be positive, got {finite['t2_ms']}")
    return problems


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry plus acquisition timing for the synthetic phantom."""

    height: int = 64
    width: int = 64
    echoes: int = 8
    delta_te_ms: float = 6.738
    regions: tuple[EllipseRegion, ...] = ()

    def __post_init__(self):
        _refuse(_spec_problems(self.height, self.width, self.echoes, self.delta_te_ms,
                               self.regions))
        _store(self, height=int(self.height), width=int(self.width), echoes=int(self.echoes),
               delta_te_ms=float(self.delta_te_ms), regions=tuple(self.regions))


def _spec_problems(height, width, echoes, delta_te_ms, regions=()) -> list[str]:
    """Violations of the :class:`PhantomSpec` fields."""
    problems = _dims_problems(height, width, echoes)
    problems += _number_problems(positive=True, delta_te_ms=delta_te_ms)
    if not (_is_sequence(regions) and all(isinstance(r, EllipseRegion) for r in regions)):
        problems.append(f"regions must be a sequence of EllipseRegion, got {regions!r}")
    return problems


def default_phantom_spec(height: int = 64, width: int = 64, echoes: int = 8) -> PhantomSpec:
    """Five rotated ellipses with distinct relaxation times (30-200 ms)."""
    regions = (
        EllipseRegion(center=(0.00, 0.00), axes=(0.82, 0.70), angle_deg=18.0,
                      proton_density=1.00, t2_ms=90.0),
        EllipseRegion(center=(-0.28, -0.18), axes=(0.38, 0.26), angle_deg=-30.0,
                      proton_density=0.80, t2_ms=200.0),
        EllipseRegion(center=(0.30, 0.05), axes=(0.24, 0.34), angle_deg=25.0,
                      proton_density=0.65, t2_ms=60.0),
        EllipseRegion(center=(-0.05, 0.38), axes=(0.30, 0.16), angle_deg=-12.0,
                      proton_density=0.90, t2_ms=30.0),
        EllipseRegion(center=(0.08, -0.40), axes=(0.14, 0.12), angle_deg=40.0,
                      proton_density=0.40, t2_ms=120.0),
    )
    return PhantomSpec(height=height, width=width, echoes=echoes, regions=regions)


def generate_phantom(spec: PhantomSpec) -> MultiEchoImage:
    """Rasterize the region list (painter's order) and apply the echo decay."""
    h, w = spec.height, spec.width
    ys = np.linspace(-1.0, 1.0, h) if h > 1 else np.zeros(1)
    xs = np.linspace(-1.0, 1.0, w) if w > 1 else np.zeros(1)
    X, Y = np.meshgrid(xs, ys)

    pd = np.zeros((h, w))
    rate = np.zeros((h, w))  # delta_te / t2, zero outside every region
    for region in spec.regions:
        theta = np.deg2rad(region.angle_deg)
        dx, dy = X - region.center[0], Y - region.center[1]
        u = np.cos(theta) * dx + np.sin(theta) * dy
        v = -np.sin(theta) * dx + np.cos(theta) * dy
        inside = (u / region.axes[0]) ** 2 + (v / region.axes[1]) ** 2 <= 1.0
        pd[inside] = region.proton_density
        rate[inside] = spec.delta_te_ms / region.t2_ms

    echoes = np.arange(1, spec.echoes + 1, dtype=np.float64)
    data = pd[:, :, None] * np.exp(-rate[:, :, None] * echoes[None, None, :])
    data[pd == 0] = 0.0
    return MultiEchoImage(data)


def simulate_acquisition(
    x_true: MultiEchoImage,
    mask: SamplingMask,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> KSpaceData:
    """Sample k-space of the ground truth and add complex Gaussian noise.

    Noise is added only at sampled positions; real and imaginary parts are
    independent ``N(0, noise_sigma**2)`` draws, so each sampled entry has
    total variance ``2 * noise_sigma**2``.  Deterministic for a given seed,
    an integer >= 0.
    """
    _refuse(_number_problems(noise_sigma=noise_sigma) + _seed_problems(seed))
    y = apply_forward(x_true, mask)
    if noise_sigma == 0:
        return y
    rng = np.random.default_rng(seed)
    shape = y.data.shape
    with np.errstate(over="ignore"):  # KSpaceData refuses what overflows
        noise = noise_sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    data = y.data + np.where(mask.bool_view(), noise, 0.0)
    return KSpaceData(data, mask)
