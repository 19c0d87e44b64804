"""Regenerate the ROADMAP Baseline figures: whole reconstructions, exactly as shipped.

    python3 perfbench/baseline.py [--seed 0] [--workloads tl64 dl64 cs64 dlsparse64]

Unlike ``run.py``, which times the first iterations of each engine, this runs
each engine to its own stopping rule, three times per workload: untraced
with the default BLAS threads, traced, and in a child process with BLAS
pinned to one thread.  It prints wall times, outer iterations, guarded
retries, SNR and the time shares the Baseline quotes, each over the traced
wall time: ISTA (inclusive), ``np.add.at`` (``scatter_stack`` self time),
the ``update_dictionary_atoms`` einsums and the init SVD.  It takes about
five minutes on a 2-core VM.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import environment  # noqa: E402
from problem import import_multiecho, make_problem, timed_reconstruction  # noqa: E402
from run import SINGLE_THREAD_ENV, run_child  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", default=["tl64", "dl64", "cs64", "dlsparse64"])
    args = parser.parse_args()

    me = import_multiecho()
    environment.cap_blas_threads()
    print(environment.stamp(args.seed))
    print(f"{'workload':11s} {'wall':>7s} {'1-thread':>8s} {'outer':>6s} {'retries':>7s} "
          f"{'snr_db':>7s} {'ista':>6s} {'add.at':>6s} {'atoms':>6s} {'svd':>13s}")
    failed = 0
    for workload in args.workloads:
        problem = make_problem(me, args.seed)
        plain = timed_reconstruction(me, workload, problem, args.seed, shipped=True)
        tracer = Tracer()
        with tracer.installed(me):
            traced = timed_reconstruction(me, workload, problem, args.seed, shipped=True)
        single = run_child(["recon", workload, str(args.seed), "shipped"], env=SINGLE_THREAD_ENV)
        if not (plain["ok"] and traced["ok"] and single["ok"]):
            print(f"{workload}: {plain['errors'] + traced['errors'] + single['errors']}")
            failed += 1
            continue
        wall = traced["recon_s"]
        total, self_s = tracer.total_s, tracer.self_s
        svd = (self_s["dict_recon.init_dictionary_svd"]
               + self_s["transform_recon.init_transform_svd"])
        retries = max(tracer.calls["dict_recon.objective"] - 1 - traced["outer_iters"], 0)
        print(f"{workload:11s} {plain['recon_s']:6.1f}s {single['recon_s']:7.1f}s "
              f"{plain['outer_iters']:6d} {retries:7d} {plain['snr_db']:7.2f} "
              f"{100 * total['solvers.ista'] / wall:5.1f}% "
              f"{100 * self_s['operators.scatter_stack'] / wall:5.1f}% "
              f"{100 * self_s['dict_recon.update_dictionary_atoms'] / wall:5.1f}% "
              f"{svd:5.2f}s {100 * svd / wall:5.1f}%", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
