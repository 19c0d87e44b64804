"""Conjugate gradient, proximal operators, power iteration, ISTA, and the
guarded descent loop.

Proximal operators are compared against brute-force one-dimensional searches
(ternary search on the convex prox objective — no closed forms reused), CG
against dense direct solves.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiecho import InvalidArgumentError, solvers
from multiecho.core import NumericalFailureError
from multiecho.operators import _per_echo
from multiecho.solvers import (
    DESCENT_SLACK,
    _row_penalty,
    _shrink_rows,
    _sq_norm,
    conjugate_gradient,
    descend,
    ista_entrywise,
    ista_row_sparse,
    power_iteration,
    row_soft_threshold,
    soft_threshold,
)


def bisect_root(g, lo, hi, iters=200):
    """Root of a nondecreasing function by sign bisection (handles jumps)."""
    if g(lo) >= 0:
        return lo
    if g(hi) <= 0:
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def row_prox_oracle(v: np.ndarray, tau: float) -> np.ndarray:
    """Brute-force prox of ``tau * ||.||_2`` at ``v``.

    The minimizer of ``f(z) = 0.5 ||z - v||^2 + tau ||z||`` is colinear with
    ``v`` (an orthogonal component increases both terms), so with ``z = t v``
    it reduces to the convex scalar problem
    ``g(t) = 0.5 (t-1)^2 r^2 + tau t r`` with ``r = ||v||``, solved by
    bisection on the derivative ``g'(t) = (t-1) r^2 + tau r`` over [0, 1].
    """
    r = np.linalg.norm(v)
    if r == 0.0:
        return np.zeros_like(v)
    t = bisect_root(lambda t: (t - 1.0) * r * r + tau * r, 0.0, 1.0)
    return t * v


def entry_prox_oracle(v: float, tau: float) -> float:
    """Brute-force prox of ``tau * |.|`` at scalar ``v``.

    Bisection on the (monotone, jumping at 0) subgradient
    ``z - v + tau * sign(z)``; the jump at the kink makes 0 the root exactly
    when ``|v| <= tau``.
    """
    return bisect_root(
        lambda z: z - v + tau * np.sign(z), -abs(v) - tau - 1.0, abs(v) + tau + 1.0
    )


class TestRowSoftThreshold:
    def test_against_oracle_1000_rows(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            dim = int(rng.integers(1, 6))
            v = rng.normal(size=dim) * rng.choice([0.1, 1.0, 10.0])
            tau = float(rng.uniform(0, 2.0 * max(np.linalg.norm(v), 0.1)))
            got = row_soft_threshold(v[None, :], tau)[0]
            want = row_prox_oracle(v, tau)
            assert np.linalg.norm(got - want) <= 1e-8, (v, tau)

    def test_exact_zero_below_threshold(self):
        v = np.array([[0.3, 0.4]])  # norm 0.5
        out = row_soft_threshold(v, 0.5)
        assert np.all(out == 0.0)
        out = row_soft_threshold(v, 0.5000001)
        assert np.all(out == 0.0)

    def test_batched_3d_matches_per_matrix(self, rng):
        M = rng.normal(size=(5, 4, 3))
        whole = row_soft_threshold(M, 0.7)
        for i in range(5):
            assert np.allclose(whole[i], row_soft_threshold(M[i], 0.7), atol=1e-14)

    def test_rejects_bad_tau(self, rng):
        with pytest.raises(InvalidArgumentError):
            row_soft_threshold(rng.normal(size=(2, 2)), -0.1)
        with pytest.raises(InvalidArgumentError):
            row_soft_threshold(rng.normal(size=(2, 2)), np.nan)

    def test_tau_zero_is_identity(self, rng):
        M = rng.normal(size=(3, 4))
        assert np.array_equal(row_soft_threshold(M, 0.0), M)

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.floats(min_value=0, max_value=5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_shrinks_norm_keeps_direction(self, seed, tau):
        v = np.random.default_rng(seed).normal(size=4)
        out = row_soft_threshold(v[None, :], tau)[0]
        r = np.linalg.norm(v)
        assert np.linalg.norm(out) == pytest.approx(max(0.0, r - tau), abs=1e-12)
        if np.linalg.norm(out) > 0:
            cos = np.dot(out, v) / (np.linalg.norm(out) * r)
            assert cos == pytest.approx(1.0, abs=1e-12)


class TestSoftThreshold:
    def test_against_oracle_1000_entries(self):
        rng = np.random.default_rng(43)
        v = rng.normal(size=1000) * 3
        taus = rng.uniform(0, 2, size=1000)
        got = soft_threshold(v, 0.0)
        assert np.array_equal(got, v)
        for vi, ti in zip(v, taus):
            got = soft_threshold(np.array([vi]), ti)[0]
            want = entry_prox_oracle(vi, ti)
            assert abs(got - want) <= 1e-8

    def test_known_values(self):
        v = np.array([3.0, -3.0, 0.5, -0.5, 0.0])
        out = soft_threshold(v, 1.0)
        assert out.tolist() == [2.0, -2.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("tau", [0.0, 0.05, 0.3])
    def test_bits_of_the_sign_formula(self, rng, tau):
        # Signed zeros included: a shrunk negative entry gives -0.0, and a
        # zero entry gives +0.0, as sign(-0.0) = 0 does.
        M = rng.normal(size=(36, 441, 8)) * 0.1
        M.ravel()[::97], M.ravel()[::89] = -0.0, 0.0
        M.ravel()[::101], M.ravel()[::103] = 0.05, -0.05
        want = np.sign(M) * np.maximum(np.abs(M) - tau, 0.0)
        got = soft_threshold(M, tau)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entries_rejected(self, rng, bad):
        M = rng.normal(size=(3, 4))
        M[2, 1] = bad
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            soft_threshold(M, 0.1)

    def test_huge_finite_entries_are_kept(self):
        # Their sum overflows, but every entry is finite.
        M = np.array([[1e308, 1e308], [-1e308, 0.5]])
        assert np.array_equal(soft_threshold(M, 1.0), [[1e308, 1e308], [-1e308, 0.0]])

    def test_out_overlapping_the_input_rejected(self, rng):
        M = rng.normal(size=(4, 5))
        with pytest.raises(InvalidArgumentError, match="cannot write over its input"):
            soft_threshold(M, 0.1, out=M)


class TestConjugateGradient:
    def test_matches_dense_solve(self, rng):
        B = rng.normal(size=(30, 30))
        A = B.T @ B + np.eye(30)
        b = rng.normal(size=30)
        want = np.linalg.solve(A, b)
        got, iters, res = conjugate_gradient(A, b, tol=1e-12, max_iters=300)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_exact_convergence_in_n_iters(self, rng):
        n = 12
        B = rng.normal(size=(n, n))
        A = B.T @ B + 0.5 * np.eye(n)
        b = rng.normal(size=n)
        x, iters, res = conjugate_gradient(A, b, tol=1e-10, max_iters=200)
        assert iters <= n + 5
        assert res <= 1e-10 * np.linalg.norm(b)

    def test_diagonal_example(self):
        A = np.diag([1.0, 2.0, 4.0])
        b = np.array([1.0, 2.0, 4.0])
        x, _, _ = conjugate_gradient(A, b, tol=1e-12, max_iters=10)
        assert np.allclose(x, [1.0, 1.0, 1.0], atol=1e-10)

    def test_zero_rhs_returns_zero_immediately(self):
        x, iters, res = conjugate_gradient(np.eye(3), np.zeros(3))
        assert np.array_equal(x, np.zeros(3))
        assert iters == 0 and res == 0.0

    def test_warm_start_at_solution(self, rng):
        A = np.diag([1.0, 3.0])
        b = np.array([2.0, 6.0])
        x, iters, _ = conjugate_gradient(A, b, x0=np.array([2.0, 2.0]), tol=1e-12)
        assert iters == 0
        assert np.allclose(x, [2.0, 2.0])

    def test_matrix_free_callable(self, rng):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        x, _, _ = conjugate_gradient(lambda v: d * v, np.ones(4), tol=1e-12)
        assert np.allclose(x, 1.0 / d, atol=1e-10)

    def test_nd_unknown_shapes(self, rng):
        # operates on 2-D unknowns too (image planes)
        x0 = rng.normal(size=(6, 5))
        x, _, _ = conjugate_gradient(lambda v: 2.0 * v, 2.0 * x0, tol=1e-14)
        assert np.allclose(x, x0, atol=1e-10)

    def test_non_finite_raises_with_iteration(self):
        def bad_op(v):
            return np.full_like(v, np.nan)

        with pytest.raises(NumericalFailureError, match="at iteration"):
            conjugate_gradient(bad_op, np.ones(3))


class TestPowerIteration:
    def test_diagonal_example(self):
        assert power_iteration(np.diag([1.0, 5.0, 2.0]), 3) == pytest.approx(5.0, rel=1e-4)

    def test_matches_eigh_on_random_psd(self, rng):
        B = rng.normal(size=(9, 9))
        A = B @ B.T
        want = float(np.linalg.eigvalsh(A)[-1])
        assert power_iteration(A, 9) == pytest.approx(want, rel=1e-4)

    def test_callable_matches_matrix(self, rng):
        B = rng.normal(size=(6, 6))
        A = B @ B.T
        assert power_iteration(lambda v: A @ v, 6) == pytest.approx(
            power_iteration(A, 6), rel=1e-10
        )

    def test_zero_operator(self):
        assert power_iteration(np.zeros((4, 4)), 4) == 0.0


def chained_ista(ista, D, X, lam, n):
    """``n`` chained single-iteration ISTA calls and the objective before and after each.

    ISTA keeps no state between iterations, so the chain must reproduce one
    ``iters=n`` call bit for bit; that is asserted here.
    """
    def objective(Z):
        pen = (np.linalg.norm(Z, axis=1).sum() if ista is ista_row_sparse
               else np.abs(Z).sum())
        return float(np.sum((np.tensordot(D, Z, 1) - X) ** 2)) + lam * pen

    Z = np.zeros((D.shape[1], *X.shape[1:]))
    history = [objective(Z)]
    for _ in range(n):
        Z = ista(D, X, lam, Z0=Z, iters=1, rel_tol=0.0)
        history.append(objective(Z))
    assert np.array_equal(Z, ista(D, X, lam, iters=n, rel_tol=0.0))
    return Z, history


class TestIsta:
    def test_identity_dictionary_fixed_point(self, rng):
        # With D = I the row-lasso minimizer is the exact row prox at lam/2.
        X = rng.normal(size=(6, 3))
        lam = 0.8
        Z = ista_row_sparse(np.eye(6), X, lam, iters=3000, rel_tol=0.0)
        want = row_soft_threshold(X, lam / 2.0)
        assert np.linalg.norm(Z - want) <= 1e-5

    def test_identity_dictionary_entrywise(self, rng):
        X = rng.normal(size=(5, 2))
        lam = 0.6
        Z = ista_entrywise(np.eye(5), X, lam, iters=3000, rel_tol=0.0)
        want = soft_threshold(X, lam / 2.0)
        assert np.linalg.norm(Z - want) <= 1e-5

    def test_objective_descends(self, rng):
        D = rng.normal(size=(8, 12))
        X = rng.normal(size=(8, 4))
        Z, history = chained_ista(ista_row_sparse, D, X, 0.5, 50)
        assert len(history) == 51  # initial objective plus one entry per step
        for a, b in zip(history, history[1:]):
            assert b <= a + 1e-10 * max(abs(a), 1.0)

    def test_fixed_point_is_stationary(self, rng):
        # Run long, then verify the first-order optimality conditions of
        # min ||X - D Z||_F^2 + lam * sum_rows ||Z_row||.
        D = rng.normal(size=(6, 9))
        X = rng.normal(size=(6, 3))
        lam = 1.0
        Z = ista_row_sparse(D, X, lam, iters=6000, rel_tol=0.0)
        G = 2.0 * D.T @ (D @ Z - X)  # gradient of the fit term
        for j in range(9):
            if np.linalg.norm(Z[j]) > 1e-9:
                want = -lam * Z[j] / np.linalg.norm(Z[j])
                assert np.linalg.norm(G[j] - want) <= 1e-4
            else:
                assert np.linalg.norm(G[j]) <= lam + 1e-4

    def test_batched_3d_matches_loop(self, rng):
        D = rng.normal(size=(5, 7))
        X = rng.normal(size=(5, 2, 4))  # (patch_dim, echoes, locations)
        batched = ista_row_sparse(D, X, 0.3, iters=40)
        assert batched.shape == (7, 2, 4) and batched.flags.c_contiguous
        for i in range(4):
            single = ista_row_sparse(D, X[:, :, i], 0.3, iters=40)
            assert np.allclose(batched[:, :, i], single, atol=1e-12)

    def test_warm_start_used(self, rng):
        # With D = I the exact minimizer is a fixed point of the iteration:
        # one warm-started step from it must not move (a cold start would).
        X = rng.normal(size=(5, 2)) + 1.0
        lam = 0.4
        Z_star = row_soft_threshold(X, lam / 2.0)
        Z_restart = ista_row_sparse(np.eye(5), X, lam, Z0=Z_star, iters=1)
        assert np.linalg.norm(Z_restart - Z_star) <= 1e-12
        Z_cold = ista_row_sparse(np.eye(5), X, lam, iters=1)
        assert np.linalg.norm(Z_cold - Z_star) > 1e-3

    def test_lam_zero_reduces_to_least_squares_direction(self, rng):
        D = rng.normal(size=(6, 4))  # overdetermined, unique LS solution
        X = rng.normal(size=(6, 2))
        Z = ista_row_sparse(D, X, 0.0, iters=4000, rel_tol=0.0)
        want = np.linalg.lstsq(D, X, rcond=None)[0]
        assert np.linalg.norm(Z - want) <= 1e-6

    def test_zero_dictionary_rejected(self):
        with pytest.raises(InvalidArgumentError, match="zero spectral norm"):
            ista_row_sparse(np.zeros((4, 4)), np.ones((4, 2)), 0.1)


def ista_reference(D, X, lam, Z0, iters, prox):
    """ISTA as per-location batched products: ``Z - D^T (D Z - X) / L``.

    Takes location-major ``(N, patch_dim, echoes)`` stacks (see
    :func:`location_major`).  Uses the same step ``L = 1.01 * lambda_max(D^T D)``
    as the solver, so the two differ only in how the products are arranged.
    """
    L = 1.01 * float(np.linalg.eigvalsh(D.T @ D)[-1])
    Z = Z0
    for _ in range(iters):
        Z = prox(Z - np.matmul(D.T, np.matmul(D, Z) - X) / L, lam / (2.0 * L))
    return Z


def location_major(a):
    """An ``(m, C, N)`` array as the ``(N, m, C)`` stack; one ``(m, C)`` matrix as it is."""
    return np.moveaxis(a, 2, 0) if a.ndim == 3 else a


class TestIstaLayoutOracle:
    """The (k, C*N) GEMM form of ISTA against the batched-matmul formula."""

    @pytest.mark.parametrize("ista, prox", [(ista_row_sparse, row_soft_threshold),
                                            (ista_entrywise, soft_threshold)])
    @pytest.mark.parametrize("batch", [(), (37,)])
    def test_matches_batched_formula(self, rng, ista, prox, batch):
        D = rng.normal(size=(16, 16))
        D /= np.linalg.norm(D, axis=0)
        X = rng.normal(size=(16, 4) + batch)
        Z0 = 0.1 * rng.normal(size=(16, 4) + batch)
        lam = 3.0
        for start in (None, Z0):
            got = location_major(ista(D, X, lam, Z0=start, iters=25, rel_tol=0.0))
            want = ista_reference(D, location_major(X), lam,
                                  location_major(np.zeros_like(Z0) if start is None else Z0),
                                  25, prox)
            assert got.shape == want.shape
            assert np.any(want == 0.0) and np.any(want != 0.0)  # both prox branches
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("ista", [ista_row_sparse, ista_entrywise])
    def test_tracked_objective_non_increasing_batched(self, rng, ista):
        D = rng.normal(size=(12, 20))
        X = rng.normal(size=(12, 3, 30))
        Z, history = chained_ista(ista, D, X, 0.4, 60)
        assert len(history) == 61
        for a, b in zip(history, history[1:]):
            assert b <= a + 1e-10 * max(abs(a), 1.0)
        # The last entry is the objective at the returned coefficients.
        fit = float(np.sum((np.tensordot(D, Z, 1) - X) ** 2))
        pen = (np.linalg.norm(Z, axis=1).sum() if ista is ista_row_sparse
               else np.abs(Z).sum())
        assert history[-1] == pytest.approx(fit + 0.4 * pen, rel=1e-12)

    @pytest.mark.parametrize("ista", [ista_row_sparse, ista_entrywise])
    def test_warm_start_is_not_modified(self, rng, ista):
        D = rng.normal(size=(6, 6))
        X = rng.normal(size=(6, 2, 5))
        Z0 = rng.normal(size=(6, 2, 5))
        keep = Z0.copy()
        Z = ista(D, X, 0.2, Z0=Z0, iters=5)
        assert np.array_equal(Z0, keep) and not np.shares_memory(Z, Z0)

    def test_eigvalsh_step_bounds_power_iteration(self, rng):
        # The exact lambda_max never falls below the power-iteration estimate
        # (a Rayleigh quotient), so the step stays a valid majorizer.
        for shape in [(36, 36), (16, 24), (64, 32)]:
            D = rng.normal(size=shape)
            D /= np.linalg.norm(D, axis=0)
            G = D.T @ D
            exact = float(np.linalg.eigvalsh(G)[-1])
            # up to the rounding of the Rayleigh quotient itself
            slack = 8 * np.finfo(float).eps * exact
            assert exact >= power_iteration(G, shape[1], iters=200, seed=0) - slack
            assert exact == pytest.approx(
                power_iteration(G, shape[1], iters=5000, seed=0), rel=1e-6)


def out_of_place_ista(D, X, lam, Z0, iters, rel_tol, prox):
    """The ISTA loop as it ran before it worked in place, kept verbatim as its bit oracle.

    The prox writes into a second iterate buffer and the step is scored as
    ``Z_new - Z`` in the GEMM buffer.  Returns ``(Z, iterations run)``.
    """
    atoms = np.asarray(D, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    k = atoms.shape[1]
    gram = atoms.T @ atoms
    L = 1.01 * float(np.linalg.eigvalsh(gram)[-1])
    bias = _per_echo(atoms.T, X)
    bias /= L
    step_op = np.eye(k) - gram / L
    if Z0 is None:
        Z = np.zeros_like(bias)
    else:
        Z = np.asarray(Z0, dtype=np.float64)  # never written in place
    tau = lam / (2.0 * L)
    V = np.empty_like(bias)
    iterates = (np.empty_like(bias), np.empty_like(bias))  # Z and Z_new take turns
    for i in range(iters):
        _per_echo(step_op, Z, out=V)
        V += bias
        Z_new = iterates[i % 2]
        prox(V, tau, out=Z_new)
        np.subtract(Z_new, Z, out=V)
        step, scale = _sq_norm(V), _sq_norm(Z)
        Z = Z_new
        if np.sqrt(step) <= rel_tol * max(np.sqrt(scale), 1e-30):
            break
    return Z, i + 1


def count_prox_calls(monkeypatch):
    """Count the calls ISTA makes to the prox it looks up on ``solvers``."""
    calls = {"n": 0}

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls["n"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("row_soft_threshold", "soft_threshold"):
        monkeypatch.setattr(solvers, name, counted(getattr(solvers, name)))
    return calls


ISTA_PROXES = [(ista_row_sparse, functools.partial(row_soft_threshold, axis=1)),
               (ista_entrywise, soft_threshold)]


class TestIstaInPlace:
    """The in-place loop against its out-of-place predecessor, bit for bit."""

    CAP = 120

    @pytest.mark.parametrize("ista, prox", ISTA_PROXES)
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("rel_tol", [0.0, 1e-6, 1e-2])
    def test_matches_out_of_place_loop(self, rng, monkeypatch, ista, prox, warm, rel_tol):
        D = rng.normal(size=(16, 24))
        D /= np.linalg.norm(D, axis=0)
        X = rng.normal(size=(16, 4, 37))
        Z0 = 0.1 * rng.normal(size=(24, 4, 37)) if warm else None
        want, ran = out_of_place_ista(D, X, 2.0, Z0, self.CAP, rel_tol, prox)
        calls = count_prox_calls(monkeypatch)
        got = ista(D, X, 2.0, Z0=Z0, iters=self.CAP, rel_tol=rel_tol)
        assert got.tobytes() == want.tobytes()
        assert calls["n"] == ran  # the same stop iteration
        assert np.any(want == 0.0) and np.any(want != 0.0)  # both prox branches
        if rel_tol == 1e-2:
            assert ran < self.CAP  # the stop test fired

    @pytest.mark.parametrize("ista, prox", ISTA_PROXES)
    def test_stop_scaled_by_the_iterate_it_leaves(self, rng, monkeypatch, ista, prox):
        # From Z0 = 50 X with D = I the first step is about 0.97 ||Z0|| but
        # 33 ||Z_1||, so at rel_tol 1 only the norm of the iterate the step
        # leaves, Z0, stops the loop after that step.
        X = rng.normal(size=(6, 3, 4))
        want, ran = out_of_place_ista(np.eye(6), X, 0.5, 50.0 * X, self.CAP, 1.0, prox)
        calls = count_prox_calls(monkeypatch)
        got = ista(np.eye(6), X, 0.5, Z0=50.0 * X, iters=self.CAP, rel_tol=1.0)
        assert ran == calls["n"] == 1 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ista", [ista_row_sparse, ista_entrywise])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_one_prox_call_per_iteration(self, rng, monkeypatch, ista, n):
        # perfbench counts ISTA's inner iterations as these prox calls.
        D = rng.normal(size=(8, 10))
        X = rng.normal(size=(8, 3, 6))
        calls = count_prox_calls(monkeypatch)
        ista(D, X, 0.3, iters=n, rel_tol=0.0)
        assert calls["n"] == n


class TestIstaArguments:
    D = np.eye(4)
    X = np.ones((4, 2))

    @pytest.mark.parametrize("ista", [ista_row_sparse, ista_entrywise])
    @pytest.mark.parametrize("kwargs, message", [
        ({"iters": 0}, "iters must be >= 1, got 0"),
        ({"iters": -3}, "iters must be >= 1, got -3"),
        ({"iters": 2.5}, "iters must be an integer, got 2.5"),
        ({"iters": True}, "iters must be an integer, got True"),
        ({"rel_tol": float("nan")}, "rel_tol must be finite and >= 0, got nan"),
        ({"rel_tol": -1.0}, "rel_tol must be finite and >= 0, got -1.0"),
        ({"rel_tol": float("inf")}, "rel_tol must be finite and >= 0, got inf"),
        ({"lam": float("nan")}, "lam must be finite and >= 0, got nan"),
        ({"lam": -0.1}, "lam must be finite and >= 0, got -0.1"),
        ({"lam": "0.2"}, "lam must be finite and >= 0, got '0.2'"),
    ])
    def test_refused(self, ista, kwargs, message):
        kwargs = {"lam": 0.2, **kwargs}
        with pytest.raises(InvalidArgumentError) as err:
            ista(self.D, self.X, Z0=np.zeros((4, 2)), **kwargs)
        assert str(err.value) == message

    def test_every_violation_listed_once(self):
        with pytest.raises(InvalidArgumentError) as err:
            ista_row_sparse(self.D, self.X, float("nan"), iters=0, rel_tol=-1.0)
        assert str(err.value) == ("lam must be finite and >= 0, got nan; "
                                  "rel_tol must be finite and >= 0, got -1.0; "
                                  "iters must be >= 1, got 0")

    def test_numpy_scalars_accepted(self):
        Z = ista_entrywise(self.D, self.X, np.float64(0.2), iters=np.int64(3),
                           rel_tol=np.float32(0.0))
        assert np.array_equal(Z, ista_entrywise(self.D, self.X, 0.2, iters=3, rel_tol=0.0))


class TestRowNorms:
    def test_row_norms_match_linalg_norm(self, rng):
        M = rng.normal(size=(36, 441, 8))
        tau = 0.5 * float(np.median(np.linalg.norm(M, axis=-1)))
        got = row_soft_threshold(M, tau)
        norms = np.linalg.norm(M, axis=-1, keepdims=True)
        want = M * np.maximum(0.0, 1.0 - tau / norms)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(M))

    def test_non_finite_input_rejected(self, rng):
        M = rng.normal(size=(3, 4))
        M[1, 2] = np.inf
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            row_soft_threshold(M, 0.1)

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    def test_other_non_finite_entries_rejected(self, rng, bad):
        M = rng.normal(size=(3, 4))
        M[0, 1] = bad
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            row_soft_threshold(M, 0.1)

    def test_huge_finite_row_is_kept(self, rng):
        # Its squared norm overflows, but every entry is finite: tau / inf = 0.
        M = rng.normal(size=(3, 4))
        M[1, 2] = 1e200
        got = row_soft_threshold(M, 0.1)
        assert np.array_equal(got[1], M[1])

    @pytest.mark.parametrize("axis", [0, 1])
    def test_axis_equals_last_axis_on_moved_axes(self, rng, axis):
        # ISTA shrinks axis 1 of its (k, C, N) coefficients, the CS engine axis 0 of
        # its (C, H, W) coefficients; both must be the last-axis map, bit for bit.
        M = rng.normal(size=(6, 7, 8))
        M[2, 3] = 0.0
        tau = 0.5 * float(np.median(np.linalg.norm(M, axis=axis)))
        want = np.moveaxis(row_soft_threshold(np.moveaxis(M, axis, -1), tau), -1, axis)
        got = row_soft_threshold(M, tau, axis=axis)
        assert np.array_equal(got, want)
        out = np.empty_like(M)
        assert row_soft_threshold(M, tau, out=out, axis=axis) is out
        assert np.array_equal(out, want)
        assert _row_penalty(M, axis=axis) == _row_penalty(np.moveaxis(M, axis, -1))

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([0, 1, -1]),
           st.sampled_from(["zero", "between", "above"]), st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=80, deadline=None)
    def test_shrink_rows_returns_the_norms_it_kept(self, seed, axis, tau_kind, zero_frac):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=tuple(rng.integers(1, 7, size=3))) * rng.choice([1e-3, 1.0, 1e3])
        rows = np.moveaxis(M, axis, -1)  # a view: zeroing its rows zeroes M's
        rows[rng.random(rows.shape[:-1]) < zero_frac] = 0.0
        norms = np.linalg.norm(M, axis=axis)
        tau = {"zero": 0.0, "between": float(rng.uniform(norms.min(), norms.max())),
               "above": 2.0 * float(norms.max()) + 1.0}[tau_kind]
        # The prox as first written: its scale built on the moved view.
        moved = np.sqrt(np.einsum("...i,...i->...", rows, rows))[..., None]
        scale = np.maximum(0.0, 1.0 - tau / np.where(moved > 0, moved, 1.0))
        want = np.multiply(M, np.moveaxis(scale, -1, axis))
        got, kept = _shrink_rows(M, tau, axis=axis)
        assert got.tobytes() == want.tobytes()
        assert row_soft_threshold(M, tau, axis=axis).tobytes() == want.tobytes()
        assert kept.shape == np.expand_dims(norms, axis).shape
        assert kept.sum() == pytest.approx(_row_penalty(got, axis=axis), rel=1e-12, abs=0)
        assert _sq_norm(kept) == pytest.approx(_sq_norm(got), rel=1e-12, abs=0)

    @pytest.mark.parametrize("shape, axis, moved", [
        ((16, 8, 1024), 1, False),  # TL coefficients (m, C, N)
        ((36, 8, 441), 1, False),  # DL coefficients (k, C, N)
        ((8, 64, 64), 0, False),  # CS coefficients (C, H, W)
        ((8, 64, 64), -1, True),  # CsState.coefs: their (H, W, C) view
    ])
    def test_row_penalty_is_the_sum_of_linalg_norms_on_engine_layouts(self, rng, shape, axis,
                                                                      moved):
        # The engines' objectives and penalty blocks rely on these bits.
        for _ in range(5):
            Z = rng.normal(size=shape)
            Z = np.moveaxis(Z, 0, 2) if moved else Z
            assert _row_penalty(Z, axis=axis) == np.linalg.norm(Z, axis=axis).sum()

    @pytest.mark.parametrize("prox", [row_soft_threshold, soft_threshold])
    def test_writes_into_out(self, rng, prox):
        M = rng.normal(size=(5, 6, 3))
        out = np.empty_like(M)
        assert prox(M, 0.4, out=out) is out
        assert np.array_equal(out, prox(M, 0.4))


def scripted_cycle(pairs):
    """A ``descend`` cycle that replays ``(ordinary, guarded)`` costs per iteration.

    Returns the cycle and the event log: ``("plain" | "guarded", cost)`` for
    each cycle run and ``("accept", cost)`` for each commit.
    """
    pairs, log, current = iter(pairs), [], {}

    def cycle(guarded):
        if not guarded:
            current["pair"] = next(pairs)
        cost = current["pair"][guarded]
        log.append(("guarded" if guarded else "plain", cost))
        return (lambda: log.append(("accept", cost))), cost

    return cycle, log


class TestDescend:
    def test_guard_fires_only_above_the_slack(self):
        edge = 100.0 + DESCENT_SLACK * 100.0  # exactly at the slack: kept
        above = edge + DESCENT_SLACK * edge * 2  # past the slack: replaced
        cycle, log = scripted_cycle([(edge, -1.0), (above, 90.0), (80.0, -1.0)])
        history = descend(cycle, 100.0, max_iters=3, rel_tol=0.0)
        assert history == [100.0, edge, 90.0, 80.0]
        assert [kind for kind, _ in log] == [
            "plain", "accept", "plain", "guarded", "accept", "plain", "accept"]

    def test_ordinary_cycle_alone_can_stop_the_loop(self):
        # The ordinary cycle rises by less than rel_tol (but past the slack);
        # the guarded cycle moves far, yet the loop stops after accepting it.
        cycle, log = scripted_cycle([(100.0 * (1 + 1e-4), 50.0), (40.0, 40.0)])
        history = descend(cycle, 100.0, max_iters=10, rel_tol=1e-3)
        assert history == [100.0, 50.0]
        assert log[-1] == ("accept", 50.0)

    def test_accepted_cycle_alone_can_stop_the_loop(self):
        cycle, _ = scripted_cycle([(150.0, 100.0 * (1 - 1e-5)), (40.0, 40.0)])
        assert descend(cycle, 100.0, max_iters=10, rel_tol=1e-4) == [100.0, 100.0 * (1 - 1e-5)]

    def test_continues_while_both_cycles_move(self):
        cycle, _ = scripted_cycle([(150.0, 90.0), (80.0, -1.0), (80.0, -1.0)])
        assert descend(cycle, 100.0, max_iters=10, rel_tol=1e-3) == [100.0, 90.0, 80.0, 80.0]

    @pytest.mark.parametrize("max_iters", [0, 1, 7])
    def test_max_iters_caps_the_loop(self, max_iters):
        cycle, log = scripted_cycle([(2.0 ** -k, -1.0) for k in range(1, 20)])
        history = descend(cycle, 1.0, max_iters=max_iters, rel_tol=1e-12)
        assert len(history) == max_iters + 1
        assert sum(kind == "plain" for kind, _ in log) == max_iters

    def test_accept_runs_once_per_iteration_on_the_recorded_cycle(self):
        pairs, cost, expected = [], 1.0, [1.0]
        for k in range(10):  # every third ordinary cycle climbs
            plain, guarded = cost * (1.5 if k % 3 == 0 else 0.9), cost * 0.8
            pairs.append((plain, guarded))
            cost = guarded if plain > cost else plain
            expected.append(cost)
        cycle, log = scripted_cycle(pairs)
        history = descend(cycle, 1.0, max_iters=len(pairs), rel_tol=0.0)
        assert history == expected
        # one accept closes each iteration and commits the recorded cycle
        events = "".join(kind[0] for kind, _ in log)
        assert events.split("a")[:-1] == ["pg" if k % 3 == 0 else "p" for k in range(10)]
        assert [cost for kind, cost in log if kind == "accept"] == history[1:]
