"""Reconstruction benchmark: one workload at one seed.

    python3 perfbench/run.py --workload tl64 --seed 0 --seconds 40 --trace 0

``--trace 0`` reconstructs back to back, one at a time in this process, for
about ``--seconds`` (at least once), and reports the end-to-end metrics:
median wall and CPU time of a reconstruction and median set-up time of a
fresh interpreter, each at reference host speed (see hostspeed.py), the
reconstruction's SNR, and this process's peak resident memory.

``--trace 1`` runs a reconstruction with per-layer wrappers installed (see
tracer.py) between two untraced ones, then one in a child process with BLAS
pinned to a single thread, and reports the per-layer metrics, the tracing
overhead and the single-thread reference.  It checks that tracing changes no
result.

Every reconstruction's output is checked; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is non-zero
if any check failed.  A record with the environment stamp, every sample and
the span table is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import environment  # noqa: E402
import hostspeed  # noqa: E402
from problem import WORKLOADS, import_multiecho, make_problem, timed_reconstruction  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_MIN_SAMPLES = 7
CHILD_TIMEOUT_S = 170
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_child(args: list[str], env: dict | None = None) -> dict:
    """Run ``problem.py`` in a fresh interpreter and parse its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "problem.py"), *args],
        env=None if env is None else {**os.environ, **env},
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(seed: int) -> float:
    return run_child(["setup", str(seed)])["setup_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(me, workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    problem = make_problem(me, seed)
    threads = environment.blas_threads()
    kernel = [hostspeed.kernel(threads)]
    samples, setup = [], []
    start = time.perf_counter()
    while True:
        sample = timed_reconstruction(me, workload, problem, seed)
        kernel.append(hostspeed.kernel(threads))
        # Host speed around this reconstruction: the kernel runs on both sides of it.
        sample["host_kernel_s"] = (kernel[-2] + kernel[-1]) / 2
        samples.append(sample)
        # Set-up is timed between reconstructions, so that its samples span
        # the run as theirs do, each next to a kernel time.
        setup.append({"setup_s": measure_setup(seed), "host_kernel_s": kernel[-1]})
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(samples) > seconds:
            break
    while len(setup) < SETUP_MIN_SAMPLES:
        kernel.append(hostspeed.kernel(threads))
        setup.append({"setup_s": measure_setup(seed), "host_kernel_s": kernel[-1]})
    # Each time in units of the host kernel's time next to it, then back to
    # seconds at the kernel's reference time.
    ref = hostspeed.REFERENCE_S
    timed = [s for s in samples if "recon_s" in s]
    metrics = {
        "setup_s": (ref * statistics.median(s["setup_s"] / s["host_kernel_s"] for s in setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {"setup_s": statistics.median(s["setup_s"] for s in setup), "setup_samples": setup}
    if timed:
        metrics["recon_s"] = (
            ref * statistics.median(s["recon_s"] / s["host_kernel_s"] for s in timed), "s")
        metrics["recon_cpu_s"] = (
            ref * statistics.median(s["recon_cpu_s"] / s["host_kernel_s"] for s in timed), "s")
        metrics["snr_db"] = (statistics.median(s["snr_db"] for s in timed), "dB")
        raw.update(
            wall_recon_s=statistics.median(s["recon_s"] for s in timed),
            wall_recon_cpu_s=statistics.median(s["recon_cpu_s"] for s in timed),
            host_kernel_s=statistics.median(s["host_kernel_s"] for s in timed),
        )
    return metrics, samples, raw


def _layer_metrics(tracer: Tracer, method: str, sample: dict) -> dict:
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    m = {}
    # dict_recon.update_dictionary_atoms runs only in guarded retries, which no
    # gated workload reaches; its span stays in the span table and record.
    for name in ("operators.scatter_stack", "operators.patch_stack", "operators.fft",
                 "solvers.cg", "solvers.ista", "solvers.power_iteration", "baselines.haar"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
    m["solvers.cg.iters"] = (counts["solvers.cg.iters"], "count")
    m["solvers.cg.capped_calls"] = (counts["solvers.cg.capped_calls"], "count")
    m["solvers.cg.max_rel_residual"] = (tracer.maxima["solvers.cg.max_rel_residual"], "ratio")
    m["solvers.ista.inner_iters"] = (calls["solvers.prox"], "count")
    m["solvers.prox.self_s"] = (self_s["solvers.prox"], "s")
    for name in ("dict_recon.init_dictionary_svd", "dict_recon.update_coefs_P3",
                 "dict_recon.update_dictionary_P2", "dict_recon.update_image_P1",
                 "dict_recon.objective", "transform_recon.init_transform_svd",
                 "transform_recon.update_coefs_S3", "transform_recon.update_transform_S2",
                 "transform_recon.update_image_S1", "transform_recon.objective_tl",
                 "baselines.cs_objective"):
        m[f"{name}.self_s"] = (self_s[name], "s")
    outer = sample["outer_iters"]
    dl = method in ("dl_rowsparse", "dl_sparse")
    # One objective evaluation at the start and one per cycle; cycles beyond
    # the outer iterations are guarded retries.
    retries = calls["dict_recon.objective"] - 1 - outer if dl else 0
    m["dict_recon.outer_iters"] = (outer if dl else 0, "count")
    m["dict_recon.retries"] = (retries, "count")
    m["dict_recon.retry_frac"] = (retries / outer if dl and outer else 0.0, "ratio")
    m["transform_recon.outer_iters"] = (outer if method == "tl_rowsparse" else 0, "count")
    m["baselines.cs_iters"] = (outer if method == "cs_analysis" else 0, "count")
    return m


def traced(me, workload: str, seed: int) -> tuple[dict, list[dict], dict]:
    tracer = Tracer()
    problem = make_problem(me, seed, timed=tracer.span)
    setup_spans = {k: tracer.self_s[k] for k in list(tracer.self_s)}
    # Untraced passes on both sides of the traced one, so that warm-up and
    # drift cancel out of the overhead.
    before = timed_reconstruction(me, workload, problem, seed)
    tracer = Tracer()
    with tracer.installed(me):
        traced_sample = timed_reconstruction(me, workload, problem, seed)
    after = timed_reconstruction(me, workload, problem, seed)
    single = run_child(["recon", workload, str(seed)], env=SINGLE_THREAD_ENV)
    samples = [before, traced_sample, after, single]
    for sample, label in zip(samples, ("untraced", "traced", "untraced", "single-thread")):
        sample["pass"] = label
    if not all("recon_s" in s for s in samples):
        return {}, samples, tracer.table()

    for key in ("snr_db", "outer_iters"):
        if not before[key] == traced_sample[key] == after[key]:
            traced_sample["ok"] = False
            traced_sample["errors"].append(
                f"tracing changed {key}: {before[key]}, {after[key]} untraced, "
                f"{traced_sample[key]} traced"
            )
    untraced_s = (before["recon_s"] + after["recon_s"]) / 2
    untraced_cpu_s = (before["recon_cpu_s"] + after["recon_cpu_s"]) / 2
    metrics = _layer_metrics(tracer, WORKLOADS[workload], traced_sample)
    for name, value in setup_spans.items():
        metrics[f"{name}.self_s"] = (value, "s")
    metrics["blas.threads"] = (environment.blas_threads(), "count")
    metrics["cpu_per_wall"] = (untraced_cpu_s / untraced_s, "ratio")
    metrics["trace.recon_s"] = (traced_sample["recon_s"], "s")
    metrics["trace.overhead_s"] = (traced_sample["recon_s"] - untraced_s, "s")
    metrics["single_thread.recon_s"] = (single["recon_s"], "s")
    metrics["single_thread.cpu_per_wall"] = (single["recon_cpu_s"] / single["recon_s"], "ratio")
    return metrics, samples, tracer.table()


def report(workload: str, env: dict, metrics: dict, samples: list[dict], spans: dict,
           raw: dict) -> None:
    print(f"workload {workload} ({WORKLOADS[workload]})  env {json.dumps(env)}")
    for i, s in enumerate(samples):
        detail = "ok" if s["ok"] else "FAILED: " + "; ".join(s["errors"])
        timing = (f"{s['recon_s']:.3f} s wall, {s['recon_cpu_s']:.3f} s cpu, "
                  f"{s['snr_db']:.3f} dB, {s['outer_iters']} outer iters, "
                  if "recon_s" in s else "")
        if "host_kernel_s" in s:
            timing += f"host kernel {s['host_kernel_s']:.3f} s, "
        print(f"  reconstruction {i} {s.get('pass', '')}: {timing}{detail}")
    if spans:
        recon = metrics["trace.recon_s"][0]
        print(f"  {'span':40s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s} {'self%':>6s}")
        for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:40s} {row['calls']:8d} {row['total_s']:9.3f} "
                  f"{row['self_s']:9.3f} {100 * row['self_s'] / recon:6.1f}")
    for name, value in raw.items():
        if not isinstance(value, list):
            print(f"  unscaled {name:36s} {value:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    me = import_multiecho()
    environment.cap_blas_threads()
    env = environment.stamp(args.seed)
    if args.trace:
        metrics, samples, spans = traced(me, args.workload, args.seed)
        raw = {}
    else:
        metrics, samples, raw = end_to_end(me, args.workload, args.seed, args.seconds)
        spans = {}
    failed = sum(not s["ok"] for s in samples)
    report(args.workload, env, metrics, samples, spans, raw)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": args.workload, "method": WORKLOADS[args.workload],
              "trace": args.trace, "env": env, "samples": samples, "spans": spans, "raw": raw,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
