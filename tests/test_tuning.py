"""Greedy L-curve parameter selection."""

import re
from dataclasses import replace

import numpy as np
import pytest

import multiecho as me
from multiecho import InvalidArgumentError, ReconParams
from multiecho.defaults import method_row
from multiecho.tuning import GAMMA_FLOOR, lcurve_corner, lcurve_greedy


def l_shape_points(corner_index: int, n: int = 9) -> list[tuple[float, float]]:
    """Polyline descending steeply to `corner_index` and then going flat."""
    pts = []
    x = 0.0
    y = 10.0
    for k in range(n):
        pts.append((x, y))
        if k < corner_index:
            x += 0.2
            y -= 3.0  # steep leg
        else:
            x += 3.0
            y -= 0.2  # flat leg
    return pts


class TestLcurveCorner:
    @pytest.mark.parametrize("corner", [1, 3, 5, 7])
    def test_planted_corner_is_found(self, corner):
        assert lcurve_corner(l_shape_points(corner)) == corner

    def test_endpoints_never_selected(self):
        # sharpest bend placed at an endpoint must not win: feed a curve whose
        # only bend is at index 0 / n-1 and check an interior index comes back
        pts = [(0.0, 0.0), (1.0, -1.0), (2.0, -2.0), (3.0, -3.0)]
        idx = lcurve_corner(pts)
        assert 1 <= idx <= 2

    def test_straight_line_returns_first_interior(self):
        pts = [(float(k), -2.0 * k) for k in range(6)]
        assert lcurve_corner(pts) == 1

    def test_sign_orientation_prefers_convex_corner(self):
        # L-corner (convex toward origin) must beat an equally sharp
        # reflex bend elsewhere on the polyline.
        pts = [(0.0, 8.0), (0.5, 4.0), (1.0, 3.9), (1.5, 3.8), (2.0, 0.0),
               (6.0, -0.2)]
        # bend at 1 is the L-corner; bend at 4 turns the other way
        assert lcurve_corner(pts) == 1

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidArgumentError, match="3 points"):
            lcurve_corner([(0.0, 0.0), (1.0, 1.0)])

    @pytest.mark.parametrize("points, message", [
        # Each used to end in a numpy ValueError, return index 1 or be accepted.
        ([(0, 0), ("x", 1), (2, 2)], "point 1 must be two finite numbers, got ('x', 1)"),
        ([(0, 0), (1,), (2, 2)], "point 1 must be two finite numbers, got (1,)"),
        ([(0, 0), (1, float("nan")), (2, 2)], "point 1 must be two finite numbers, got (1, nan)"),
        ([(0, 0, 0), (1, 1, 1), (2, 2, 2)], "point 0 must be two finite numbers, got (0, 0, 0)"),
        ([(0, 0), (True, 1), (2, 2)], "point 1 must be two finite numbers, got (True, 1)"),
        (7, "points must be a sequence of pairs, got 7"),
    ])
    def test_malformed_points_rejected(self, points, message):
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            lcurve_corner(points)

    def test_every_point_violation_listed(self):
        with pytest.raises(InvalidArgumentError) as exc:
            lcurve_corner([(0, float("inf")), ("x", 1)])
        assert str(exc.value) == ("need at least 3 points, got 2; point 0 must be two finite "
                                  "numbers, got (0, inf); point 1 must be two finite numbers, "
                                  "got ('x', 1)")

    def test_duplicate_points_do_not_crash(self):
        pts = [(0.0, 0.0), (0.0, 0.0), (1.0, -1.0), (2.0, -1.1)]
        idx = lcurve_corner(pts)
        assert 1 <= idx <= 2


@pytest.fixture(scope="module")
def problem():
    truth = me.generate_phantom(me.default_phantom_spec(32, 32, 4))
    mask = me.generate_mask(32, 32, 10, 4, per_echo_distinct=True, seed=0)
    y = me.simulate_acquisition(truth, mask, noise_sigma=0.01, seed=0)
    base = ReconParams(patch_size=8, patch_stride=4, max_outer_iters=4,
                       inner_iters=8)
    return truth, y, base


class TestLcurveGreedy:
    def test_cs_grid_selection_runs(self, problem):
        truth, y, base = problem
        grids = {"lam": [0.001, 0.01, 0.05, 0.2, 1.0]}
        tuned, trace = lcurve_greedy(y, "cs_analysis", grids, base, max_iters=30)
        assert tuned.lam in grids["lam"]
        assert tuned.lam not in (grids["lam"][0], grids["lam"][-1])  # interior
        assert len(trace) == 5
        assert all(p.param == "lam" for p in trace)
        # residual grows with stronger shrinkage
        resids = [p.residual_norm for p in trace]
        assert resids[-1] > resids[0]

    def test_greedy_order_and_gamma_floor(self, problem, monkeypatch):
        truth, y, base = problem
        seen = []
        import multiecho.tuning as tuning_mod
        real = tuning_mod.run_method

        def spy(method, y_, params, **kw):
            seen.append((params.mu, params.lam, params.gamma))
            return real(method, y_, params, **kw)

        monkeypatch.setattr(tuning_mod, "run_method", spy)
        grids = {"mu": [0.01, 0.1, 1.0, 10.0], "lam": [0.01, 0.1, 1.0, 10.0],
                 "gamma": [0.3, 1.0, 3.0, 10.0]}
        tuned, trace = lcurve_greedy(y, "tl_rowsparse", grids, base)
        # stage 1: lam held at 0, gamma at the positive floor
        stage1 = seen[:4]
        assert all(lam == 0.0 and g == GAMMA_FLOOR for _, lam, g in stage1)
        assert [mu for mu, _, _ in stage1] == grids["mu"]
        # stage 2: mu fixed at its chosen value, gamma still floored
        stage2 = seen[4:8]
        assert all(mu == tuned.mu and g == GAMMA_FLOOR for mu, _, g in stage2)
        # stage 3: mu and lam fixed, gamma sweeps
        stage3 = seen[8:12]
        assert all(mu == tuned.mu and lam == tuned.lam for mu, lam, _ in stage3)
        assert [g for _, _, g in stage3] == grids["gamma"]
        assert len(seen) == 12
        assert tuned.gamma in grids["gamma"]

    def test_unknown_method_rejected(self, problem):
        _, y, base = problem
        with pytest.raises(InvalidArgumentError, match="tunable"):
            lcurve_greedy(y, "zero_filled", {}, base)

    def test_short_grid_rejected(self, problem):
        _, y, base = problem
        with pytest.raises(InvalidArgumentError, match="at least 4"):
            lcurve_greedy(y, "cs_analysis", {"lam": [0.01, 0.1, 1.0]}, base)

    def test_unsorted_grid_rejected(self, problem):
        _, y, base = problem
        with pytest.raises(InvalidArgumentError, match="ascending"):
            lcurve_greedy(y, "cs_analysis", {"lam": [0.1, 0.01, 1.0, 10.0]}, base)

    def test_every_grid_is_checked_before_the_first_run(self, problem, monkeypatch):
        # A bad last-stage grid must not cost the runs of the stages before it.
        _, y, base = problem
        import multiecho.tuning as tuning_mod
        runs = []
        monkeypatch.setattr(tuning_mod, "run_method", lambda *a, **kw: runs.append(a))
        grids = {"mu": [0.01, 0.1, 1.0], "lam": [0.01, 0.1, 1.0, 10.0],
                 "gamma": [3.0]}
        with pytest.raises(InvalidArgumentError) as exc:
            lcurve_greedy(y, "tl_rowsparse", grids, base)
        assert runs == []
        assert str(exc.value).split("; ") == [
            "grid mu must hold at least 4 ascending finite values >= 0, got [0.01, 0.1, 1.0]",
            "grid gamma must hold at least 4 ascending finite values >= 0, got [3.0]",
        ]

    def test_engine_weight_rules_are_checked_before_the_first_run(self, problem,
                                                                  monkeypatch):
        # The transform update is undefined at gamma = 0 and every image step
        # is singular at mu = 0, so a grid reaching 0 there fails up front.
        _, y, base = problem
        import multiecho.tuning as tuning_mod
        runs = []
        monkeypatch.setattr(tuning_mod, "run_method", lambda *a, **kw: runs.append(a))
        grids = {"mu": [0.01, 0.1, 1.0, 10.0], "lam": [0.0, 0.1, 1.0, 10.0],
                 "gamma": [0.0, 0.1, 1.0, 3.0]}
        with pytest.raises(InvalidArgumentError) as exc:
            lcurve_greedy(y, "tl_rowsparse", grids, base)
        assert runs == []
        assert str(exc.value) == "grid gamma: gamma must be finite and > 0, got 0.0"
        with pytest.raises(InvalidArgumentError,
                           match=r"^grid mu: mu must be finite and > 0, got 0\.0$"):
            lcurve_greedy(y, "dl_sparse", {**grids, "mu": [0.0, 0.1, 1.0, 10.0]}, base)
        with pytest.raises(InvalidArgumentError,
                           match=r"^grid mu: mu must be >= 1e-12, got 1e-13;"):
            lcurve_greedy(y, "dl_sparse", {**grids, "mu": [1e-13, 0.1, 1.0, 10.0]}, base)
        assert runs == []

    @pytest.mark.parametrize("grids", [[0.1, 0.2, 0.3, 0.4], None, "lam"])
    def test_grids_that_are_not_a_mapping_are_refused_before_the_first_run(
            self, problem, monkeypatch, grids):
        # A bare grid used to end in AttributeError; it is listed with the keywords.
        _, y, base = problem
        import multiecho.tuning as tuning_mod
        runs = []
        monkeypatch.setattr(tuning_mod, "run_method", lambda *a, **kw: runs.append(a))
        with pytest.raises(InvalidArgumentError) as exc:
            lcurve_greedy(y, "cs_analysis", grids, base, bogus=1)
        assert runs == []
        assert str(exc.value) == (f"grids must map each weight to its grid, got {grids!r}; "
                                  "method 'cs_analysis' takes no keyword 'bogus'")

    @pytest.mark.parametrize("grid", [[-0.1, 0.1, 1.0, 10.0], [0.1, 1.0, np.nan, 10.0],
                                      [0.1, 1.0, 10.0, np.inf]])
    def test_negative_and_non_finite_grids_rejected(self, problem, grid):
        _, y, base = problem
        with pytest.raises(InvalidArgumentError, match="ascending finite values >= 0"):
            lcurve_greedy(y, "cs_analysis", {"lam": grid}, base)


class TestStatePenalties:
    # The sweep scores each weight by the block it scales in the engine's final
    # state, so those blocks must be the ones the engine minimised.
    @pytest.mark.parametrize("method", ["dl_rowsparse", "dl_sparse", "tl_rowsparse",
                                        "cs_analysis"])
    def test_blocks_reproduce_the_final_cost(self, problem, method):
        _, y, base = problem
        params = replace(base, mu=0.3, lam=0.1, gamma=1.0)
        kwargs = {"max_iters": 30} if method == "cs_analysis" else {}
        out = me.run_method(method, y, params, **kwargs)
        blocks = out.state.penalties()
        assert list(blocks) == list(method_row(method).weights)
        assert blocks["lam"] > 0
        data = me.ForwardModel(y).data_term(out.image.data)
        if method == "cs_analysis":
            want = data + params.lam * blocks["lam"]
        else:
            want = data + params.mu * (blocks["mu"] + params.lam * blocks["lam"]
                                       + params.gamma * blocks.get("gamma", 0.0))
        assert out.cost_history[-1] == pytest.approx(want, rel=1e-12)
