"""Workload definitions, input generation and output checks for the benchmark.

Every workload reconstructs the acceptance geometry (64x64x8 phantom, 16 of 64
lines per echo, per-echo-distinct masks, noise sigma 0.01) with one shipped
engine at its shipped settings (``tuned_params``, and ``CS_ENGINE`` for the
Haar baseline), except that the early stop is switched off and the engine
runs a fixed number of outer iterations, so the work per reconstruction is the
same at every seed.  ``shipped=True`` runs the engine exactly as shipped, to
its own stopping rule.

The sampling mask is the protocol's fixed mask (mask seed 0, as in acceptance
seed 0); the workload seed draws the noise (see README.md).

Run as a script, this module is the child process the benchmark uses to time
set-up in a fresh interpreter and to run the single-thread reference pass::

    python3 perfbench/problem.py setup <seed>
    python3 perfbench/problem.py recon <workload> <seed> [shipped]

Each prints one JSON object.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

# numpy and multiecho are imported inside functions, after import_multiecho
# has put this checkout's src/ on the path, so that the set-up probe's clock
# covers the whole import.
SRC = Path(__file__).resolve().parent.parent / "src"

HEIGHT, WIDTH, ECHOES, LINES = 64, 64, 8, 16
MASK_SEED = 0

# workload name -> shipped method it reconstructs with
WORKLOADS = {
    "tl64": "tl_rowsparse",
    "dl64": "dl_rowsparse",
    "cs64": "cs_analysis",
    "dlsparse64": "dl_sparse",
}

# Outer iterations per reconstruction: the first iterations of the shipped
# run, about 1.5-3 s each, so a run can time ten or more and report their median.
# Whole shipped runs take 12-45 s, and on a shared host the speed drifts by
# 10-15 % between runs of that length.  Every budget sits below where the
# shipped engine stops (tl_rowsparse and dl_sparse at their 400 and 140 caps,
# dl_rowsparse after 176-250 iterations and cs_analysis after 2235-2313 on the
# noise seeds measured).  No seed therefore runs past its stopping point,
# where dl_rowsparse starts guarded retries and the work changes character.
ITERATIONS = {"tl64": 30, "dl64": 20, "cs64": 300, "dlsparse64": 20}

# Relative slack of the engines' cost-descent guarantee (dict_recon._DESCENT_SLACK).
DESCENT_SLACK = 1e-6


def import_multiecho():
    """Import ``multiecho`` from this checkout's ``src`` tree, never another copy."""
    if not (SRC / "multiecho" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no multiecho sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import multiecho

    if Path(multiecho.__file__).resolve().parent != SRC / "multiecho":
        raise SystemExit(f"perfbench: imported multiecho from {multiecho.__file__}, not {SRC}")
    return multiecho


@dataclass
class Problem:
    truth: object  # MultiEchoImage
    kspace: object  # KSpaceData
    zero_filled_snr: float


def make_problem(me, seed: int, timed=lambda name, fn: fn) -> Problem:
    """Phantom, protocol mask and noisy k-space for ``seed``.

    ``timed(name, fn)`` may wrap each generator so callers can time it.
    """
    from multiecho.defaults import EXPERIMENT

    truth = timed("phantom.generate_phantom", me.generate_phantom)(
        me.default_phantom_spec(HEIGHT, WIDTH, ECHOES)
    )
    mask = timed("operators.generate_mask", me.generate_mask)(
        HEIGHT, WIDTH, LINES, ECHOES,
        dense_fraction=EXPERIMENT["dense_fraction"],
        per_echo_distinct=EXPERIMENT["per_echo_distinct"],
        seed=MASK_SEED,
    )
    y = timed("phantom.simulate_acquisition", me.simulate_acquisition)(
        truth, mask, noise_sigma=EXPERIMENT["noise_sigma"], seed=seed
    )
    return Problem(truth, y, me.snr_db(truth, me.reconstruct_zero_filled(y)))


def reconstruct(me, workload: str, problem: Problem, seed: int, shipped: bool = False):
    """One reconstruction with the shipped engine and settings; returns ``RunOutput``."""
    from multiecho.defaults import CS_ENGINE, tuned_params

    method = WORKLOADS[workload]
    params = tuned_params(method, seed=seed)
    kwargs = dict(CS_ENGINE) if method == "cs_analysis" else {}
    if not shipped and method == "cs_analysis":
        kwargs.update(max_iters=ITERATIONS[workload], rel_change_tol=0.0)
    elif not shipped:
        params = replace(params, max_outer_iters=ITERATIONS[workload], rel_cost_tol=0.0)
    return me.methods.run_method(method, problem.kspace, params, **kwargs)


def check_output(me, out, problem: Problem) -> list[str]:
    """Violations of the output contract; an empty list means the output is correct."""
    import numpy as np

    errors = []
    data = out.image.data
    if data.shape != (HEIGHT, WIDTH, ECHOES):
        errors.append(f"image shape {data.shape}, expected {(HEIGHT, WIDTH, ECHOES)}")
    elif not np.all(np.isfinite(data)):
        errors.append("image has non-finite entries")
    elif me.snr_db(problem.truth, out.image) <= problem.zero_filled_snr:
        errors.append("SNR does not beat the zero-filled image")
    history = np.asarray(out.cost_history, dtype=np.float64)
    if history.size < 2 or not np.all(np.isfinite(history)):
        errors.append(f"cost history has {history.size} entries or non-finite values")
    else:
        prev, cur = history[:-1], history[1:]
        bad = np.flatnonzero(cur > prev + DESCENT_SLACK * np.abs(prev))
        if bad.size:
            errors.append(f"cost rises at outer iterations {bad[:5].tolist()}")
    return errors


def timed_reconstruction(
    me, workload: str, problem: Problem, seed: int, shipped: bool = False
) -> dict:
    """Reconstruct once, timing wall and process CPU, and check the output."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        out = reconstruct(me, workload, problem, seed, shipped)
    except Exception as exc:  # a failed reconstruction is counted, not fatal
        return {"ok": False, "errors": [f"{type(exc).__name__}: {exc}"]}
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    errors = check_output(me, out, problem)
    return {
        "ok": not errors,
        "errors": errors,
        "recon_s": wall,
        "recon_cpu_s": cpu,
        "snr_db": me.snr_db(problem.truth, out.image),
        "outer_iters": len(out.cost_history) - 1,
    }


def _setup_probe(seed: int) -> dict:
    t0 = time.perf_counter()
    me = import_multiecho()
    t_import = time.perf_counter()
    make_problem(me, seed)
    t_end = time.perf_counter()
    return {"setup_s": t_end - t0, "import_s": t_import - t0}


def _recon_probe(workload: str, seed: int, shipped: bool) -> dict:
    me = import_multiecho()
    return timed_reconstruction(me, workload, make_problem(me, seed), seed, shipped)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        result = _setup_probe(int(rest[0]))
    elif mode == "recon":
        result = _recon_probe(rest[0], int(rest[1]), rest[2:] == ["shipped"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
