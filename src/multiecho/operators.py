"""Linear operators: unitary FFT, line-mask sampling, and patch extraction.

Conventions pinned here and relied on everywhere else:

* 2-D FFTs are unitary (``1/sqrt(H*W)`` both ways), DC at index 0.
* Sampling masks select whole k-space rows; the densely sampled low-frequency
  block is contiguous *after* fftshift (centered on row ``H//2`` in the
  shifted view) and stored as unshifted indices.
* The image-domain adjoint of (FFT then restriction) takes the real part,
  which is the exact adjoint for real-valued images under the inner product
  ``<a, b> = Re(sum(a * conj(b)))``.
* Because whole rows are sampled, the normal operator of echo ``c`` acts
  along axis 0 only: ``A_c^T A_c v = Re(F_H^H diag(m_c) F_H) v = N_c @ v``
  for every real ``H x W`` plane ``v``, where ``m_c`` is the echo's row mask
  and ``N_c[i, j] = Re(ifft(m_c))[(i - j) mod H]`` is a real, symmetric,
  circulant ``H x H`` matrix.  No image step applies an FFT pair: the
  dictionary engine's image step factors the ``N_c`` once per run, and the
  transform engine's image step takes ``rfft2`` of polyphase planes against
  the symbol of ``N_c``.
* The data term needs no FFT either.  With ``E_c = F_H[lines_c, :]`` and
  ``y~_c`` the sampled rows of ``y_c`` after a unitary inverse 1-D FFT along
  the width, unitarity of ``F_W`` gives
  ``||A_c x_c - y_c||^2 = ||E_c x_c - y~_c||^2``: one small real product
  per echo with the real and imaginary parts of ``E_c`` stacked.  This form
  is used rather than the expansion ``<x, N x> - 2 <x, A^T y> + ||y||^2``,
  which cancels catastrophically near a consistent solution (it can even go
  negative at full sampling).
* The residual ``R_c = E_c x_c - y~_c`` carries the gradient as well:
  ``E_c^T R_c = A_c^T (A_c x_c - y_c) = N_c x_c - (A^T y)_c``.  ``R`` is
  linear in ``x``, so a solver that keeps the residuals of its iterates can
  extrapolate them instead of applying ``E`` again (the CS baseline does, on
  its Haar coefficients).
* Patches are ``p x p`` blocks vectorized row-major, on one of two grids
  that step by ``stride``.  The flush grid (the dictionary engines') adds
  anchors flush with the bottom/right edges, so every pixel is covered and
  no patch leaves the plane.  The periodic grid (the transform engine's)
  puts anchors at every multiple of ``stride`` and wraps patches around the
  edges; ``stride`` must divide both dims, and then ``sum_i P_i^T G P_i``
  commutes with shifts by ``stride`` for any ``p^2 x p^2`` matrix ``G``.
* The patches of an ``(H, W, C)`` stack are one C-contiguous ``(m, C, N)``
  array: patch pixel, then echo, then location.  Its 2-D form
  ``reshape(m, -1)`` is free (column ``c*N + i`` is echo ``c`` of location
  ``i``), so a product over all patches is one GEMM, and so is one over an
  echo's ``(m, N)`` slice.  The engines' ``(k, C, N)`` coefficients share
  the layout.  ``scatter_stack`` is the exact transpose of ``patch_stack``
  (summation, no averaging) on both grids.
* Images are echo-major too: ``A^T y`` and every image an engine iterates
  on is the ``(H, W, C)`` view of ``C`` contiguous planes, so the gathers
  and the products over planes read ``np.moveaxis(x, 2, 0)`` without a copy.

A reconstruction builds one :class:`ForwardModel` from its measured k-space
and reads the row Grams, ``A^T y``, the row-space arrays and the data term
from it; no engine touches the FFT or the mask itself.

Patch scatters sum in a fixed order, so they are deterministic.  The row
Grams, the residual and the CS baseline's row-space products use BLAS
matrix products; on OpenBLAS 0.3 the engines' outputs were checked
byte-identical at one and at two threads.

BLAS threads.  Past a size bound, OpenBLAS wakes its worker threads for a
call, and a woken worker spins for about 0.135 s of CPU after the call
returns, so a call of a few milliseconds can cost a tenth of a second of
CPU time.  The bounds of OpenBLAS 0.3.31 at 2 threads (2-core x86-64 VM),
taken one call at a time after 0.35 s of idle as the CPU the process uses
in the 0.3 s after the call, are:

* GEMM ``(m x k)(k x n)``: one thread while ``m*k*n < 1e6`` (999,936 on
  one, 1,000,192 on two, for 16x16, 36x36, 64x36 and 36x64 left factors).
* syrk ``S S^T`` of an ``h x n`` matrix ``S``: one thread up to
  ``h^2 n = 425,984``, two from 435,456 (``h`` from 36 to 128).
  :func:`_block_gram` keeps each block under ``_SYRK_WORK``.
* ``np.linalg.svd`` of an ``r x c`` matrix, alone or in a batch: one
  thread while ``min(r, c) <= 40``, two from 41.
* ``np.linalg.eigh`` of an ``n x n`` matrix: two threads from ``n = 26``,
  the divide-and-conquer path of LAPACK's ``dsyevd``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    InvalidArgumentError,
    KSpaceData,
    MultiEchoImage,
    SamplingMask,
    _bool_problems,
    _dims_problems,
    _int_problems,
    _is_int,
    _is_number,
    _plane_problems,
    _refuse,
    _seed_problems,
)

__all__ = [
    "fft2_unitary",
    "generate_mask",
    "apply_forward",
    "apply_adjoint",
    "ForwardModel",
    "PatchScheme",
    "patch_stack",
    "scatter_stack",
]


def _check_plane(plane: np.ndarray) -> np.ndarray:
    arr = np.asarray(plane)
    _refuse(_plane_problems(arr))
    return arr


def fft2_unitary(plane: np.ndarray) -> np.ndarray:
    """Unitary 2-D DFT of one image plane (real or complex), DC at index 0."""
    return np.fft.fft2(_check_plane(plane), norm="ortho")


def _mask_problems(height, width, lines_per_echo, echoes, dense_fraction, per_echo_distinct,
                   seed) -> list[str]:
    """Violations of :func:`generate_mask`'s arguments."""
    problems = _dims_problems(height, width, echoes)
    problems += _int_problems(lines_per_echo=lines_per_echo)
    if _is_int(lines_per_echo) and (lines_per_echo < 1
                                    or (_is_int(height) and lines_per_echo > height)):
        problems.append(f"lines_per_echo must be in [1, {height}], got {lines_per_echo}")
    if not (_is_number(dense_fraction) and 0.0 <= dense_fraction <= 1.0):
        problems.append(f"dense_fraction must be in [0, 1], got {dense_fraction!r}")
    problems += _bool_problems(per_echo_distinct=per_echo_distinct)
    return problems + _seed_problems(seed)


def generate_mask(
    height: int,
    width: int,
    lines_per_echo: int,
    echoes: int,
    dense_fraction: float = 1.0 / 3.0,
    per_echo_distinct: bool = False,
    seed: int = 0,
) -> SamplingMask:
    """Draw a line-undersampling mask with a dense low-frequency block.

    ``floor(dense_fraction * lines_per_echo)`` contiguous lines centered on
    the DC row (row ``height//2`` of the fftshifted view) are always sampled;
    the remaining lines are drawn uniformly at random without replacement
    from the other rows.  With ``per_echo_distinct`` each echo gets its own
    random complement, otherwise all echoes share one draw.  Deterministic
    for a given seed, an integer >= 0.  Raises ``InvalidArgumentError``
    listing every violation of :func:`_mask_problems`.
    """
    _refuse(_mask_problems(height, width, lines_per_echo, echoes, dense_fraction,
                           per_echo_distinct, seed))

    n_dense = int(np.floor(dense_fraction * lines_per_echo))
    # Contiguous block around the DC row in the shifted view, then unshift.
    start = height // 2 - n_dense // 2
    dense_rows = sorted(((s - height // 2) % height) for s in range(start, start + n_dense))
    pool = np.array(sorted(set(range(height)) - set(dense_rows)), dtype=np.int64)
    n_random = lines_per_echo - n_dense

    rng = np.random.default_rng(seed)

    def draw() -> tuple[int, ...]:
        picked = rng.choice(pool, size=n_random, replace=False) if n_random else []
        return tuple(sorted(dense_rows + [int(r) for r in picked]))

    if per_echo_distinct:
        lines = tuple(draw() for _ in range(echoes))
    else:
        shared = draw()
        lines = tuple(shared for _ in range(echoes))
    return SamplingMask(height=height, width=width, lines=lines)


def apply_forward(x: MultiEchoImage, mask: SamplingMask) -> KSpaceData:
    """Sample k-space: per echo, unitary FFT then restriction to masked rows."""
    if (x.height, x.width, x.echoes) != (mask.height, mask.width, mask.echoes):
        raise InvalidArgumentError(
            f"image dims {(x.height, x.width, x.echoes)} do not match mask "
            f"{(mask.height, mask.width, mask.echoes)}"
        )
    y = np.fft.fft2(x.data, axes=(0, 1), norm="ortho")
    y[~mask.bool_view()] = 0.0
    return KSpaceData(y, mask)


def apply_adjoint(y: KSpaceData) -> MultiEchoImage:
    """Exact adjoint of :func:`apply_forward` on real images.

    Applies the unitary inverse FFT to every echo of ``y.data`` in one call
    and takes the real part; ``y.data`` is already the zero-filled embedding,
    since every :class:`KSpaceData` is zero off its mask.  On a full mask
    this inverts :func:`apply_forward` exactly.  Returns echo-major planes.
    """
    planes = np.fft.ifft2(np.moveaxis(y.data, 2, 0), norm="ortho").real
    return MultiEchoImage(np.moveaxis(np.ascontiguousarray(planes), 0, 2))


@dataclass(frozen=True, eq=False)
class ForwardModel:
    """The sampling operator of one measurement and the constants it implies.

    Built once per reconstruction from the measured ``kspace``:

    * ``gram`` has shape ``(echoes, height, height)``; ``gram[c]`` is the real
      symmetric circulant matrix ``N_c`` with ``A_c^T A_c v = N_c @ v`` for
      every real plane ``v`` (see the module docstring).  It is symmetric bit
      for bit.
    * ``aty`` is ``A^T y``, the zero-filled image, as :func:`apply_adjoint` returns it.
    * ``rows`` ``(echoes, 2L, height)`` holds the sampled rows ``E_c`` of the
      unitary DFT matrix and ``measured`` ``(echoes, 2L, width)`` the
      measurement in row space, ``y~_c``, real parts stacked over imaginary
      ones; ``L`` is the mask's line count, the same for every echo.

    All four arrays are read-only.  Only samples on the mask are read.
    """

    kspace: KSpaceData
    gram: np.ndarray = field(init=False, repr=False)
    aty: np.ndarray = field(init=False, repr=False)
    rows: np.ndarray = field(init=False, repr=False)  # (C, 2L, H): Re E_c; Im E_c
    measured: np.ndarray = field(init=False, repr=False)  # (C, 2L, W): Re y~_c; Im y~_c

    def __post_init__(self):
        h = self.shape[0]
        k = np.array(self.kspace.mask.lines, dtype=np.int64)  # (C, L)
        echo = np.arange(len(k))[:, None]
        sampled = np.zeros((len(k), h))
        sampled[echo, k] = 1.0
        r = np.fft.ifft(sampled, axis=1).real
        r = 0.5 * (r + r[:, -np.arange(h) % h])  # even in the lag, exactly
        lag = (np.arange(h)[:, None] - np.arange(h)[None, :]) % h
        # Reduce k * j mod h before scaling, so every phase is exact to rounding.
        phase = (-2.0 * np.pi / h) * ((k[:, :, None] * np.arange(h)) % h)
        E = np.concatenate([np.cos(phase), np.sin(phase)], axis=1) / np.sqrt(h)
        y = np.fft.ifft(np.moveaxis(self.kspace.data, 2, 0)[echo, k], axis=2, norm="ortho")
        Y = np.concatenate([y.real, y.imag], axis=1)
        aty = apply_adjoint(self.kspace).data
        for name, value in (("gram", r[:, lag]), ("aty", aty), ("rows", E), ("measured", Y)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.kspace.data.shape

    def residual(self, x: np.ndarray) -> np.ndarray:
        """``E x - y~`` for an ``(H, W, C)`` stack, shape ``(C, 2L, W)``.

        Per echo ``E_c x_c - y~_c`` with the real and imaginary parts
        stacked; its squared norm is ``||A x - y||^2``.
        """
        r = np.matmul(self.rows, _echo_major(x))
        r -= self.measured
        return r

    def data_term(self, x: np.ndarray) -> float:
        """``||y - A x||^2`` for an ``(H, W, C)`` stack, as ``sum_c ||E_c x_c - y~_c||^2``."""
        r = self.residual(x)
        return float(np.sum(r * r))


def _echo_major(x: np.ndarray) -> np.ndarray:
    """An ``(H, W, C)`` stack as contiguous ``(C, H, W)`` planes, for batched BLAS."""
    return np.ascontiguousarray(np.moveaxis(x, 2, 0))


def _anchors(extent: int, patch: int, stride: int) -> list[int]:
    pos = list(range(0, extent - patch + 1, stride))
    if pos[-1] != extent - patch:
        pos.append(extent - patch)  # flush edge anchor keeps full coverage
    return pos


def _grid_problems(height: int, width: int, patch_size: int, stride: int,
                   periodic: bool) -> list[str]:
    """Violations of a patch grid's geometry on an ``height x width`` plane."""
    problems = (_int_problems(height=height, width=width, patch_size=patch_size, stride=stride)
                + _bool_problems(periodic=periodic))
    if problems:
        return problems
    if patch_size < 1 or patch_size > min(height, width):
        problems.append(f"patch_size must be in [1, {min(height, width)}], got {patch_size}")
    if stride < 1 or stride > patch_size:
        problems.append(f"stride must be in [1, patch_size={patch_size}] so that "
                        f"patches cover every pixel, got {stride}")
    elif periodic and (height % stride or width % stride):
        problems.append(f"stride {stride} must divide the image dims {height}x{width} "
                        f"on the periodic patch grid")
    return problems


@dataclass(frozen=True)
class PatchScheme:
    """Grid of overlapping patch locations on an ``height x width`` plane.

    ``periodic`` selects the wrap-around grid (see the module docstring);
    ``locations`` are the anchors, the top-left pixel of each patch, and
    ``flat_index[o, i]`` is the plane index of pixel ``o`` of patch ``i``.
    """

    height: int
    width: int
    patch_size: int
    stride: int
    locations: tuple[tuple[int, int], ...]
    flat_index: np.ndarray = field(repr=False, compare=False)
    periodic: bool = False

    @classmethod
    def build(cls, height: int, width: int, patch_size: int, stride: int,
              periodic: bool = False) -> "PatchScheme":
        _refuse(_grid_problems(height, width, patch_size, stride, periodic))
        if periodic:
            rows, cols = range(0, height, stride), range(0, width, stride)
        else:
            rows = _anchors(height, patch_size, stride)
            cols = _anchors(width, patch_size, stride)
        locations = tuple((r, c) for r in rows for c in cols)
        # Row-major vectorization of each patch; only periodic patches wrap.
        dr, dc = np.meshgrid(np.arange(patch_size), np.arange(patch_size), indexing="ij")
        r, c = np.array(locations, dtype=np.int64).T
        flat = ((dr.reshape(-1, 1) + r) % height) * width + (dc.reshape(-1, 1) + c) % width
        return cls(int(height), int(width), int(patch_size), int(stride),
                   locations=locations, flat_index=flat, periodic=bool(periodic))

    @property
    def num_locations(self) -> int:
        return len(self.locations)

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size

    def coverage(self) -> np.ndarray:
        """Per-pixel patch multiplicity: diagonal of sum_i P_i^T P_i.

        Anchors form a row-by-column grid, so this is an outer product.  On
        the flush grid it is ``outer(cov[:, 0], cov[0])`` with
        ``cov[0, 0] = 1`` (only the patch at (0, 0) covers that pixel); on
        the periodic grid it is uniform, ``(patch_size / stride)^2`` when the
        stride divides the patch size.
        """
        counts = np.bincount(self.flat_index.ravel(), minlength=self.height * self.width)
        return counts.reshape(self.height, self.width).astype(np.float64)


def patch_stack(arr: np.ndarray, scheme: PatchScheme) -> np.ndarray:
    """Gather all patches of an ``(H, W, C)`` stack into a new ``(m, C, N)`` array.

    Entry ``[o, c, i]`` is pixel ``o`` of echo ``c`` of the patch at location
    ``i`` (see the module docstring).  The result is C-contiguous.
    """
    if arr.ndim != 3 or arr.shape[:2] != (scheme.height, scheme.width):
        raise InvalidArgumentError(
            f"array shape {arr.shape} is not an (H, W, C) stack on the scheme's "
            f"{(scheme.height, scheme.width)} grid"
        )
    planes = _echo_major(arr).reshape(arr.shape[2], -1)
    out = np.empty((scheme.patch_dim, len(planes), scheme.num_locations), dtype=planes.dtype)
    for o, index in enumerate(scheme.flat_index):
        # Every index lies on the plane; "clip" only spares the bounds check's buffer.
        np.take(planes, index, axis=1, out=out[o], mode="clip")
    return out


def scatter_stack(values: np.ndarray, scheme: PatchScheme) -> np.ndarray:
    """Transpose of :func:`patch_stack`: sum ``(m, C, N)`` patch values back onto the grid.

    Returns the ``(H, W, C)`` view of ``C`` contiguous image planes.
    """
    if values.ndim != 3 or values.shape[::2] != (scheme.patch_dim, scheme.num_locations):
        raise InvalidArgumentError(
            f"values shape {values.shape} is not ({scheme.patch_dim}, C, "
            f"{scheme.num_locations}) for the scheme"
        )
    index, size = scheme.flat_index.ravel(), scheme.height * scheme.width
    # bincount adds the weights in input order: every pixel sums in (offset,
    # location) order, as an unbuffered ufunc scatter in (m, C, N) order
    # would (the tests compare the two bit for bit).
    planes = [np.bincount(index, weights=values[:, c].ravel(), minlength=size)
              for c in range(values.shape[1])]
    return np.moveaxis(np.reshape(planes, (-1, scheme.height, scheme.width)), 0, 2)


# The ``h^2 n`` work under which OpenBLAS runs a syrk on one thread (see the
# module docstring).
_SYRK_WORK = 400_000


def _per_echo(M: np.ndarray, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``M`` times every location of an ``(m, C, N)`` stack: one GEMM per ``(m, N)`` echo slice.

    The result has shape ``(len(M), *X.shape[1:])`` and goes to ``out`` when
    given.  A 2-D ``(m, C)`` stack, one location's matrix, is one GEMM.

    The split sizes the products of the shipped geometries for one OpenBLAS
    thread: one GEMM over all ``C*N`` columns would run on two (see the
    module docstring), while an echo slice of 36*36*441 (6x6 patches at
    stride 3) or 16*16*1024 (4x4 patches at stride 2 on the periodic grid)
    on a 64x64 plane stays under the GEMM bound.  A slice past it, such as
    4x4 patches at stride 1, still runs on two threads.
    """
    if out is None:
        out = np.empty((len(M), *X.shape[1:]))
    np.matmul(M, X.swapaxes(0, -2), out=out.swapaxes(0, -2))
    return out


def _block_gram(*rows: np.ndarray) -> np.ndarray:
    """The Gram ``S S^T`` of ``S``, the row stack of the 2-D arrays ``rows``.

    ``S`` is never built: the Gram is summed over blocks of its columns, and
    only one block is ever copied into place.  A block holds fewer than
    ``_SYRK_WORK / height^2`` columns (one at least), so each product runs
    as one syrk on one OpenBLAS thread, and a syrk gives the same bits at
    every BLAS thread count, which a general GEMM over the columns does
    not.  The Gram is symmetric bit for bit.
    """
    height, n = sum(len(r) for r in rows), rows[0].shape[1]
    step = max(1, (_SYRK_WORK - 1) // height**2)
    buf = np.empty(height * min(step, n))
    gram = np.zeros((height, height))
    for start in range(0, n, step):
        block = [r[:, start:start + step] for r in rows]
        S = buf[:height * block[0].shape[1]].reshape(height, -1)
        np.concatenate(block, out=S)
        gram += S @ S.T
    return gram
