"""The method table: one row per method, read by dispatch, tuning and the CLI."""

import re
from dataclasses import fields, replace

import pytest

from multiecho import InvalidArgumentError, METHOD_NAMES, ReconParams, run_method, tuned_params
from multiecho.defaults import method_row
from multiecho.tuning import lcurve_greedy

WEIGHTS = ("mu", "lam", "gamma")


@pytest.mark.parametrize("name", ["bogus", ["x"], None])
@pytest.mark.parametrize("call", [
    lambda name, y, p: run_method(name, y, p),
    lambda name, y, p: lcurve_greedy(y, name, {"lam": [0.01, 0.1, 1.0, 10.0]}, p),
    lambda name, y, p: tuned_params(name),
], ids=["run_method", "lcurve_greedy", "tuned_params"])
def test_unknown_method_is_refused_naming_the_known_ones(small_kspace, fast_params, call, name):
    want = f"unknown method {name!r}; expected one of {', '.join(METHOD_NAMES)}"
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(want)}$"):
        call(name, small_kspace, fast_params)


def test_method_names_keep_their_order():
    assert METHOD_NAMES == ("zero_filled", "cs_analysis", "dl_sparse", "dl_rowsparse",
                            "tl_rowsparse")


@pytest.mark.parametrize("method, kwargs, unknown", [
    ("zero_filled", {"max_iters": 3, "bogus": 1}, ["max_iters", "bogus"]),
    ("cs_analysis", {"max_iters": 3, "bogus": 1}, ["bogus"]),
    ("dl_sparse", {"max_iters": 3}, ["max_iters"]),
    ("dl_rowsparse", {"coef_prox": "entry", "bogus": 1}, ["coef_prox", "bogus"]),
    ("tl_rowsparse", {"max_iters": 3, "rel_change_tol": 0.0}, ["max_iters", "rel_change_tol"]),
])
def test_keywords_the_engine_does_not_take_are_refused(small_kspace, fast_params, monkeypatch,
                                                       method, kwargs, unknown):
    want = "; ".join(f"method {method!r} takes no keyword {k!r}" for k in unknown)
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(want)}$"):
        run_method(method, small_kspace, fast_params, **kwargs)
    if method_row(method).weights:  # and before the first run of a sweep
        import multiecho.tuning as tuning_mod
        runs = []
        monkeypatch.setattr(tuning_mod, "run_method", lambda *a, **kw: runs.append(a))
        grids = {w: [0.1, 0.3, 1.0, 3.0] for w in WEIGHTS}
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(want)}$"):
            lcurve_greedy(small_kspace, method, grids, fast_params, **kwargs)
        assert runs == []


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_row_weights_are_exactly_what_the_engine_reads(small_kspace, fast_params, method):
    # Doubling a weight outside the row leaves a 3-iteration run byte-identical;
    # doubling one in the row changes its image or its cost history.
    params = replace(fast_params, max_outer_iters=3, rel_cost_tol=0.0)
    kwargs = {"max_iters": 3, "rel_change_tol": 0.0} if method == "cs_analysis" else {}

    def run(p):
        out = run_method(method, small_kspace, p, **kwargs)
        return out.image.data.tobytes(), out.cost_history

    base = run(params)
    changed = [w for w in WEIGHTS if run(replace(params, **{w: 2 * getattr(params, w)})) != base]
    assert changed == list(method_row(method).weights)


def test_every_params_field_is_read_by_some_engine(small_kspace, fast_params):
    # A field that no engine reads is a dead knob.  Reads are recorded on each
    # run's instance once it is built, so the reads of its own rule do not count.
    read = set()

    class Recorded(ReconParams):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    runs = {m: Recorded(**vars(replace(fast_params, max_outer_iters=1))) for m in METHOD_NAMES}
    read.clear()
    for method, params in runs.items():
        kwargs = {"max_iters": 1} if method == "cs_analysis" else {}
        run_method(method, small_kspace, params, **kwargs)
    assert [f.name for f in fields(ReconParams) if f.name not in read] == []


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_one_tuned_point_ships_for_every_seed(method):
    assert all(tuned_params(method, seed=s) is method_row(method).params for s in (0, 1, 2, 9))
