"""Per-layer tracing for the benchmark's traced pass.

Wrappers are installed from the benchmark's own files onto the module
attributes through which ``multiecho`` makes each call, and removed again
afterwards; ``src/`` is not modified.  The engines import by name
(``from .solvers import conjugate_gradient``), so a wrapper sits on the
calling module's attribute, e.g. ``dict_recon.conjugate_gradient``.

Spans are aggregated in memory per name: call count, inclusive seconds and
self seconds (inclusive minus the time of nested spans).  Counters collect
what the engines compute and discard, such as CG iterations and residuals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module attribute path, span name).  Module paths are relative to multiecho,
# except "numpy.fft", whose fft2/ifft2 the engines call directly.
_SPANS = [
    # Root span: its self time is the engine's own loop and glue.
    ("methods.run_method", "engine"),
    ("dict_recon.scatter_stack", "operators.scatter_stack"),
    ("transform_recon.scatter_stack", "operators.scatter_stack"),
    ("dict_recon.patch_stack", "operators.patch_stack"),
    ("transform_recon.patch_stack", "operators.patch_stack"),
    ("numpy.fft.fft2", "operators.fft"),
    ("numpy.fft.ifft2", "operators.fft"),
    ("dict_recon.conjugate_gradient", "solvers.cg"),
    ("transform_recon.conjugate_gradient", "solvers.cg"),
    ("dict_recon.ista_row_sparse", "solvers.ista"),
    ("dict_recon.ista_entrywise", "solvers.ista"),
    # Inside ista_* the prox is looked up on the solvers module, so these
    # calls are exactly the ISTA inner iterations (TL and CS call their own
    # imported copies, which stay unwrapped).
    ("solvers.row_soft_threshold", "solvers.prox"),
    ("solvers.soft_threshold", "solvers.prox"),
    ("solvers.power_iteration", "solvers.power_iteration"),
    ("dict_recon.init_dictionary_svd", "dict_recon.init_dictionary_svd"),
    ("dict_recon.update_coefs_P3", "dict_recon.update_coefs_P3"),
    ("dict_recon.update_dictionary_P2", "dict_recon.update_dictionary_P2"),
    ("dict_recon.update_dictionary_atoms", "dict_recon.update_dictionary_atoms"),
    ("dict_recon.update_image_P1", "dict_recon.update_image_P1"),
    # The engine evaluates its objective through this helper, once at the
    # start and once per outer cycle (guarded retries included).
    ("dict_recon._objective_with", "dict_recon.objective"),
    ("transform_recon.init_transform_svd", "transform_recon.init_transform_svd"),
    ("transform_recon.update_coefs_S3", "transform_recon.update_coefs_S3"),
    ("transform_recon.update_transform_S2", "transform_recon.update_transform_S2"),
    ("transform_recon.update_image_S1", "transform_recon.update_image_S1"),
    ("transform_recon.objective_tl", "transform_recon.objective_tl"),
    ("baselines.haar_dwt2", "baselines.haar"),
    ("baselines.haar_idwt2", "baselines.haar"),
    ("baselines._cs_objective", "baselines.cs_objective"),
]


class Tracer:
    """In-memory span aggregates and counters for one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self._open = []  # child seconds accumulated by each open span

    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args, kwargs)`` updates counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = self._open.pop()
                if self._open:
                    self._open[-1] += dt
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - child
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _after_cg(self, result, args, kwargs):
        _, iters, residual = result
        self.counts["solvers.cg.iters"] += iters
        if iters >= kwargs.get("max_iters", 100):
            self.counts["solvers.cg.capped_calls"] += 1
        b_norm = float(np.linalg.norm(args[1]))
        if b_norm > 0.0:
            rel = residual / b_norm
            self.maxima["solvers.cg.max_rel_residual"] = max(
                self.maxima["solvers.cg.max_rel_residual"], rel
            )

    @contextlib.contextmanager
    def installed(self, package):
        """Install every wrapper on ``package`` (multiecho) and numpy; undo on exit."""
        saved = []
        try:
            for path, name in _SPANS:
                module_path, attr = path.rsplit(".", 1)
                if not module_path.startswith("numpy"):
                    module_path = f"{package.__name__}.{module_path}"
                owner = importlib.import_module(module_path)
                original = getattr(owner, attr)
                after = self._after_cg if name == "solvers.cg" else None
                saved.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def table(self) -> dict:
        """Span aggregates by name: calls, inclusive and self seconds."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.calls)
        }
