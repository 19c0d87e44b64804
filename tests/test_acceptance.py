"""Acceptance gate: ten numbered criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.  The
reconstruction matrix (five methods x three seeds at the default experiment)
is computed once per session and shared across criteria.
"""

import json
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

import multiecho as me
from multiecho import ReconParams
from multiecho.cli import main as cli_main
from multiecho.defaults import CS_ENGINE, EXPERIMENT, cs_lambda_for_lines, tuned_params
from multiecho.dict_recon import scheme_for
from multiecho.operators import patch_stack
from multiecho.solvers import row_soft_threshold, soft_threshold
from multiecho.transform_recon import update_transform_S2


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def make_problem(seed: int, lines: int | None = None):
    h, w, c = EXPERIMENT["height"], EXPERIMENT["width"], EXPERIMENT["echoes"]
    truth = me.generate_phantom(me.default_phantom_spec(h, w, c))
    mask = me.generate_mask(
        h, w, lines or EXPERIMENT["lines_per_echo"], c,
        dense_fraction=EXPERIMENT["dense_fraction"],
        per_echo_distinct=EXPERIMENT["per_echo_distinct"], seed=seed,
    )
    y = me.simulate_acquisition(truth, mask, noise_sigma=EXPERIMENT["noise_sigma"],
                                seed=seed)
    return truth, y


@dataclass
class Run:
    method: str
    seed: int
    snr: float
    wall: float
    cost_history: list
    state: object


@pytest.fixture(scope="module")
def matrix():
    """All five methods at their tuned settings, seeds 0/1/2."""
    runs: dict[tuple[str, int], Run] = {}
    for seed in EXPERIMENT["seeds"]:
        truth, y = make_problem(seed)
        for method in me.METHOD_NAMES:
            kwargs = dict(CS_ENGINE) if method == "cs_analysis" else {}
            t0 = time.perf_counter()
            out = me.run_method(method, y, tuned_params(method, seed=seed), **kwargs)
            wall = time.perf_counter() - t0
            runs[(method, seed)] = Run(method, seed, me.snr_db(truth, out.image),
                                       wall, out.cost_history, out.state)
    return runs


def seed_mean(runs, method):
    return float(np.mean([runs[(method, s)].snr for s in EXPERIMENT["seeds"]]))


def test_criterion_1_method_ordering(matrix):
    means = {m: seed_mean(matrix, m) for m in me.METHOD_NAMES}
    worst_wall = max(r.wall for r in matrix.values())
    checks = [
        means["zero_filled"] < means["cs_analysis"],
        means["cs_analysis"] < means["dl_sparse"],
        means["dl_sparse"] < means["dl_rowsparse"],
        means["tl_rowsparse"] >= means["dl_rowsparse"] - 1.0,
        means["dl_rowsparse"] >= means["dl_sparse"] + 1.0,
        means["dl_rowsparse"] >= means["zero_filled"] + 3.0,
        worst_wall < 300.0,
    ]
    detail = (
        "seed-mean SNR dB: "
        + ", ".join(f"{m}={means[m]:.2f}" for m in me.METHOD_NAMES)
        + f"; slowest single run {worst_wall:.1f}s (budget 300s)"
    )
    report("criterion 1 (method ordering)", all(checks), detail)


def test_criterion_2_quarter_beats_half_sampling(matrix):
    truth, y32 = make_problem(seed=0, lines=32)
    params = replace(tuned_params("cs_analysis", seed=0),
                     lam=cs_lambda_for_lines(32))
    out = me.run_method("cs_analysis", y32, params, **CS_ENGINE)
    cs_half = me.snr_db(truth, out.image)
    tl_quarter = matrix[("tl_rowsparse", 0)].snr
    report(
        "criterion 2 (TL@25% > CS@50%)",
        tl_quarter > cs_half,
        f"tl_rowsparse at 16/64 lines = {tl_quarter:.2f} dB, "
        f"cs_analysis at 32/64 lines = {cs_half:.2f} dB",
    )


def test_criterion_3_operator_correctness(rng):
    # naive O(n^4) DFT oracle vs the packaged unitary FFT
    n = 8
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    naive = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        for l in range(n):
            for a in range(n):
                for b in range(n):
                    naive[k, l] += x[a, b] * np.exp(-2j * np.pi * (k * a + l * b) / n)
    naive /= n
    fft_err = np.linalg.norm(me.fft2_unitary(x) - naive) / np.linalg.norm(naive)

    # adjoint identities over 100 trials: masked-FFT stack and patch gather
    mask = me.generate_mask(16, 16, 6, 3, per_echo_distinct=True, seed=5)
    scheme = scheme_for(ReconParams(patch_size=4, patch_stride=2), 16, 16)
    worst_fwd = worst_patch = 0.0
    for _ in range(100):
        u = rng.normal(size=(16, 16, 3))
        v = rng.normal(size=(16, 16, 3)) + 1j * rng.normal(size=(16, 16, 3))
        v = np.where(mask.bool_view(), v, 0.0)
        ax = me.apply_forward(me.MultiEchoImage(u), mask).data
        aty = me.apply_adjoint(me.KSpaceData(v, mask)).data
        lhs = np.vdot(v, ax)
        rhs = np.vdot(aty, u)  # adjoint is real-valued; <A* v, u> over reals
        worst_fwd = max(worst_fwd, abs(lhs.real - rhs.real) / max(abs(lhs), 1e-30))
        P = patch_stack(u, scheme)
        Q = rng.normal(size=P.shape)
        from multiecho.operators import scatter_stack
        lhs2 = np.sum(P * Q)
        rhs2 = np.sum(u * scatter_stack(Q, scheme))
        worst_patch = max(worst_patch, abs(lhs2 - rhs2) / max(abs(lhs2), 1e-30))

    xr = rng.normal(size=(32, 32))
    parseval = abs(np.linalg.norm(me.fft2_unitary(xr)) - np.linalg.norm(xr)) / np.linalg.norm(xr)
    ok = fft_err <= 1e-12 and worst_fwd <= 1e-10 and worst_patch <= 1e-10 and parseval <= 1e-12
    report(
        "criterion 3 (operator correctness)", ok,
        f"fft-vs-naive rel {fft_err:.2e} (<=1e-12), forward-adjoint rel "
        f"{worst_fwd:.2e} (<=1e-10), patch-adjoint rel {worst_patch:.2e} "
        f"(<=1e-10), Parseval rel {parseval:.2e} (<=1e-12)",
    )


def _row_prox_oracle(v, tau, iters=200):
    r = np.linalg.norm(v)
    if r == 0.0 or r <= tau:
        return np.zeros_like(v)
    lo, hi = 0.0, 1.0
    for _ in range(iters):  # root of g(t) = (t - 1) r^2 + tau * t * r ... solved by bisection on the subgradient
        mid = 0.5 * (lo + hi)
        if mid * r - (r - tau) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * v


def _entry_prox_oracle(v, tau, iters=200):
    if abs(v) <= tau:
        return 0.0
    lo, hi = (0.0, v) if v > 0 else (v, 0.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        g = mid - v + tau * np.sign(mid)
        if g < 0:  # optimality residual increases in mid, so bisect upward
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_4_prox_correctness(rng):
    worst_row = 0.0
    for _ in range(1000):
        v = rng.normal(size=rng.integers(1, 9))
        tau = float(rng.uniform(0, 2))
        got = row_soft_threshold(v[None, :], tau)[0]
        want = _row_prox_oracle(v, tau)
        worst_row = max(worst_row, float(np.max(np.abs(got - want))))
    worst_entry = 0.0
    entries = rng.normal(size=1000) * 3
    taus = rng.uniform(0, 2, size=1000)
    got = soft_threshold(entries, 0.0)  # identity sanity
    assert np.array_equal(got, entries)
    for v, tau in zip(entries, taus):
        got = float(soft_threshold(np.array([v]), float(tau))[0])
        want = _entry_prox_oracle(float(v), float(tau))
        worst_entry = max(worst_entry, abs(got - want))
    ok = worst_row <= 1e-8 and worst_entry <= 1e-8
    report(
        "criterion 4 (prox correctness)", ok,
        f"row prox max err {worst_row:.2e}, entry prox max err {worst_entry:.2e} (<=1e-8)",
    )


def _s2_gradient(T, X, Z, gamma):
    return 2.0 * (T @ X - Z) @ X.T + 2.0 * gamma * T - gamma * np.linalg.inv(T).T


def _as_stack(M: np.ndarray) -> np.ndarray:
    """m x K matrix -> (m, 1, K) patches whose 2-D form is M again."""
    return M[:, None, :]


def test_criterion_5_transform_update_stationarity(rng):
    worst = 0.0
    for n in (8, 64):
        for _ in range(50):
            X = rng.normal(size=(n, 3 * n))
            Z = rng.normal(size=(n, 3 * n))
            gamma = float(rng.uniform(0.1, 5.0))
            T = update_transform_S2(_as_stack(X), _as_stack(Z), gamma)
            g = _s2_gradient(T, X, Z, gamma)
            scale = 2.0 * np.linalg.norm(Z @ X.T) + gamma * (
                2.0 * np.linalg.norm(T) + np.linalg.norm(np.linalg.inv(T))
            )
            worst = max(worst, float(np.linalg.norm(g)) / scale)
    T = update_transform_S2(np.ones((1, 1, 1)), np.ones((1, 1, 1)), 1.0)
    scalar_err = abs(float(T[0, 0]) - (1.0 + np.sqrt(5.0)) / 4.0)
    ok = worst <= 1e-6 and scalar_err <= 1e-10
    report(
        "criterion 5 (transform update stationarity)", ok,
        f"worst rel gradient norm {worst:.2e} (<=1e-6), scalar-case err "
        f"{scalar_err:.2e} (<=1e-10)",
    )


def test_criterion_6_descent(matrix):
    worst = -np.inf
    for method in ("cs_analysis", "dl_sparse", "dl_rowsparse", "tl_rowsparse"):
        h = matrix[(method, 0)].cost_history
        for a, b in zip(h, h[1:]):
            worst = max(worst, (b - a) / max(abs(a), 1e-30))
    ok = worst <= 1e-6
    report(
        "criterion 6 (objective descent)", ok,
        f"worst relative increase {worst:.2e} across all histories (<=1e-6)",
    )


def test_criterion_7_consistency_limit():
    h, w, c = EXPERIMENT["height"], EXPERIMENT["width"], EXPERIMENT["echoes"]
    truth = me.generate_phantom(me.default_phantom_spec(h, w, c))
    full = me.generate_mask(h, w, h, c, seed=0)
    y = me.apply_forward(truth, full)
    params = ReconParams(mu=1e-6, lam=0.0, gamma=1.0, patch_size=8, patch_stride=4,
                         max_outer_iters=10, rel_cost_tol=1e-12,
                         inner_iters=20)
    img_dl, _ = me.reconstruct_dl(y, params)
    img_tl, _ = me.reconstruct_tl(y, params)
    snr_dl = me.snr_db(truth, img_dl)
    snr_tl = me.snr_db(truth, img_tl)
    ok = snr_dl >= 60.0 and snr_tl >= 60.0
    report(
        "criterion 7 (consistency limit)", ok,
        f"full sampling, sigma=0, mu=1e-6, lambda=0, 10 outer iterations: "
        f"dl_rowsparse {snr_dl:.1f} dB, tl_rowsparse {snr_tl:.1f} dB (>=60)",
    )


def _zero_row_fraction(Z: np.ndarray) -> float:
    rows = np.moveaxis(Z, 1, -1).reshape(-1, Z.shape[1])  # a row runs along the echoes
    return float(np.mean(np.all(rows == 0.0, axis=1)))


def test_criterion_8_row_sparsity_structure(matrix):
    frac_dlr = _zero_row_fraction(matrix[("dl_rowsparse", 0)].state.coefs)
    frac_tl = _zero_row_fraction(matrix[("tl_rowsparse", 0)].state.coefs)

    # entrywise variant at the row-sparse engine's exact (mu, lambda):
    # zeros appear per entry, so complete rows die strictly less often
    _, y = make_problem(seed=0)
    params = tuned_params("dl_rowsparse", seed=0)
    out_dls = me.run_method("dl_sparse", y, params)
    out_dlr = matrix[("dl_rowsparse", 0)]
    Z = out_dls.state.coefs
    entry_zero = float(np.mean(Z == 0.0))
    rows_dls = _zero_row_fraction(Z)
    rows_dlr_matched = _zero_row_fraction(out_dlr.state.coefs)
    ok = (frac_dlr > 0.05 and frac_tl > 0.05 and entry_zero > 0.0
          and rows_dls < rows_dlr_matched)
    report(
        "criterion 8 (row-sparsity structure)", ok,
        f"all-zero coefficient rows: dl_rowsparse {frac_dlr:.1%}, tl_rowsparse "
        f"{frac_tl:.1%} (>5%); at matched (mu, lambda): dl_sparse zero entries "
        f"{entry_zero:.1%}, all-zero rows {rows_dls:.1%} < dl_rowsparse "
        f"{rows_dlr_matched:.1%}",
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    cfg = {
        "phantom": {"height": 32, "width": 32, "echoes": 4},
        "mask": {"lines_per_echo": 10, "per_echo_distinct": True},
        "noise_sigma": 0.01,
        "seed": 5,
        "params": {"mu": 0.1, "lambda": 0.2, "patch_size": 8, "patch_stride": 4,
                   "max_outer_iters": 4, "inner_iters": 10},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"

    def pipeline():
        for cmd in ("phantom", "mask", "simulate"):
            assert cli_main([cmd, "--out", str(out), "--config", str(cfg_path),
                             "--sequential"]) == 0
        for method in ("zero_filled", "dl_rowsparse", "tl_rowsparse"):
            assert cli_main(["reconstruct", "--out", str(out), "--config",
                             str(cfg_path), "--method", method, "--sequential"]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.is_file()}

    first = pipeline()
    second = pipeline()
    same = set(first) == set(second) and all(first[k] == second[k] for k in first)
    changed = [k for k in first if k in second and first[k] != second[k]]
    report(
        "criterion 9 (deterministic reruns)", same,
        f"{len(first)} output files byte-identical across two sequential-mode "
        f"pipeline reruns" + (f"; differing: {changed}" if changed else ""),
    )


def test_criterion_10_lcurve_selection():
    # planted corner on a synthetic log-log curve
    from multiecho.tuning import lcurve_corner, lcurve_greedy

    pts = [(0.0, 10.0), (0.2, 7.0), (0.4, 4.0), (3.0, 3.8), (6.0, 3.6)]
    planted_ok = lcurve_corner(pts) == 2

    # end-to-end: greedy selection vs exhaustive search over the same grid
    truth = me.generate_phantom(me.default_phantom_spec(32, 32, 4))
    mask = me.generate_mask(32, 32, 10, 4, per_echo_distinct=True, seed=0)
    y = me.simulate_acquisition(truth, mask, noise_sigma=0.01, seed=0)
    base = ReconParams(patch_size=8, patch_stride=4, max_outer_iters=4,
                       inner_iters=10)
    grid = [0.005, 0.02, 0.05, 0.15, 0.5]
    tuned, _ = lcurve_greedy(y, "cs_analysis", {"lam": grid}, base, max_iters=60)
    snr_selected = me.snr_db(
        truth, me.run_method("cs_analysis", y,
                             replace(base, lam=tuned.lam), max_iters=60).image
    )
    exhaustive = {
        lam: me.snr_db(truth, me.run_method("cs_analysis", y,
                                            replace(base, lam=lam),
                                            max_iters=60).image)
        for lam in grid
    }
    best_lam, best_snr = max(exhaustive.items(), key=lambda kv: kv[1])
    within = best_snr - snr_selected <= 2.0
    ok = planted_ok and within
    report(
        "criterion 10 (L-curve selection)", ok,
        f"planted corner found: {planted_ok}; greedy lambda={tuned.lam} -> "
        f"{snr_selected:.2f} dB vs exhaustive best lambda={best_lam} -> "
        f"{best_snr:.2f} dB (gap <= 2 dB)",
    )
