"""Environment stamp for benchmark results, and the BLAS thread count in effect."""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# OpenBLAS thread-control entry points, by symbol prefix/suffix of the build
# (plain OpenBLAS, 64-bit-integer OpenBLAS, the scipy-openblas wheels numpy ships).
_OPENBLAS_NAMES = ("openblas_{}", "openblas_{}64_", "scipy_openblas_{}64_", "scipy_openblas_{}")


@functools.cache
def _openblas():
    """The OpenBLAS library numpy loaded, as a ctypes handle, or None."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*.so*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


def _blas_function(name: str):
    lib = _openblas()
    for pattern in _OPENBLAS_NAMES:
        fn = getattr(lib, pattern.format(name), None) if lib is not None else None
        if fn is not None:
            return fn
    return None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    """Threads the loaded OpenBLAS uses now; 0 when it cannot be queried."""
    fn = _blas_function("get_num_threads")
    if fn is None:
        return 0
    fn.restype = ctypes.c_int
    return int(fn())


def set_blas_threads(threads: int) -> None:
    """Set the loaded OpenBLAS's thread count, if it can be set."""
    setter = _blas_function("set_num_threads")
    if setter is not None and threads > 0:
        setter.argtypes = [ctypes.c_int]
        setter(threads)


def cap_blas_threads() -> int:
    """Lower this process's BLAS threads to ``nproc`` if above it; returns the count."""
    if blas_threads() > nproc():
        set_blas_threads(nproc())
    return blas_threads()


def _code_version() -> str:
    """Git commit of the checkout, or a hash of ``src/`` where there is no git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def stamp(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _code_version(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "seed": seed,
    }
