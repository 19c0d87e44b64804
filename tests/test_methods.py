"""The method table: one row per method, read by dispatch, tuning and the CLI.

Two guards against dead code ride along: every ``ReconParams`` field is read
by some engine, and every member of the domain types by some program path.
"""

import functools
import json
import re
from dataclasses import fields, replace
from types import FunctionType

import pytest

import multiecho as me
from multiecho import InvalidArgumentError, METHOD_NAMES, ReconParams, run_method, tuned_params
from multiecho.cli import main
from multiecho.defaults import method_row
from multiecho.methods import RunOutput
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


def _noted(member, note):
    """``member``, a property, classmethod or function, calling ``note()`` on each use."""
    if isinstance(member, property):
        return property(lambda self: (note(), member.fget(self))[1])
    if isinstance(member, classmethod):
        return classmethod(_noted(member.__func__, note))

    @functools.wraps(member)
    def call(*args, **kwargs):
        note()
        return member(*args, **kwargs)
    return call


def test_every_type_member_is_read_on_a_program_path(tmp_path, monkeypatch, small_kspace):
    # The program paths are the CLI's commands and run_method, which the
    # benchmark runs.  A property or method of a domain type, or a field of
    # RunOutput, that neither reads is dead code.
    read, members = set(), []
    for cls in (me.MultiEchoImage, me.SamplingMask, me.KSpaceData, me.Dictionary,
                me.Transform, me.ForwardModel, me.PatchScheme):
        for name, member in vars(cls).items():
            if not name.startswith("__") and isinstance(member, (property, classmethod,
                                                                 FunctionType)):
                key = f"{cls.__name__}.{name}"
                members.append(key)
                monkeypatch.setattr(cls, name, _noted(member, functools.partial(read.add, key)))
    members += [f"RunOutput.{f.name}" for f in fields(RunOutput)]

    def getattribute(self, name):
        read.add(f"RunOutput.{name}")
        return object.__getattribute__(self, name)

    monkeypatch.setattr(RunOutput, "__getattribute__", getattribute)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"phantom": {"height": 16, "width": 16, "echoes": 2},
                               "mask": {"lines_per_echo": 8}, "cs": {"max_iters": 3},
                               "params": {"max_outer_iters": 2}}))
    run = ["--out", str(tmp_path / "run"), "--config", str(cfg)]
    commands = [["phantom"], ["mask"], ["simulate"]]
    commands += [["reconstruct", "--method", m, "--sequential"] for m in METHOD_NAMES]
    commands += [["evaluate"], ["export", "--method", "tl_rowsparse"]]
    commands += [["sweep", "--method", m] for m in METHOD_NAMES if method_row(m).weights]
    for command in commands:
        assert main([*command, *run]) == 0, command
    for method in METHOD_NAMES:
        kwargs = {"max_iters": 3} if method == "cs_analysis" else {}
        run_method(method, small_kspace, replace(tuned_params(method), max_outer_iters=2),
                   **kwargs)
    unread = [m for m in members if m not in read]
    assert not unread, f"no program path reads {unread}"
