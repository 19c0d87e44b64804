"""Tests of the input boundary: value types, generators, loaders and CLI config readers.

Every input, however malformed, must give a valid object or a clean
rejection (``InvalidArgumentError`` from the library, ``FormatError`` from a
loader, a listed problem or exit code 2 from the CLI), never another
exception.  The property tests replace fields of valid files or configs by
arbitrary JSON, delete them, or write whole files of arbitrary bytes; the
table-driven tests give every field one wrong value of each JSON type.
"""

import contextlib
import io
import json
import math
import tempfile
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import multiecho as me
from multiecho import FormatError, RunRecord
from multiecho.cli import (
    _engine_kwargs,
    _mask_settings,
    _params_from_config,
    _phantom_spec_from_config,
    main,
)
from multiecho.defaults import cs_lambda_for_lines, method_row
from multiecho.dict_recon import update_dictionary_atoms
from multiecho.solvers import power_iteration

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

json_scalars = (st.none() | st.booleans() | st.integers(-5, 70) | st.integers()
                | st.floats() | st.text(max_size=6)
                | st.sampled_from([10**400, -(10**400), 1e308, 0.5, 2.0, "inf", "12"]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=8,
)


def mutated(valid: dict):
    """``valid`` with some fields replaced by arbitrary JSON and some deleted."""
    keys = sorted(valid)
    return st.tuples(
        st.dictionaries(st.sampled_from(keys), json_values, max_size=len(keys)),
        st.sets(st.sampled_from(keys), max_size=2),
    ).map(lambda edit: {k: edit[0].get(k, v) for k, v in valid.items() if k not in edit[1]})


def write_json(path: Path, obj) -> None:
    # allow_nan: a file may hold NaN or Infinity tokens, which json.loads accepts.
    path.write_text(json.dumps(obj, allow_nan=True))


# A valid value of every field of the library's value types but the nested ones.
_VALID = {
    me.ReconParams: vars(me.ReconParams()),
    me.PhantomSpec: {"height": 8, "width": 8, "echoes": 2, "delta_te_ms": 6.0},
    me.EllipseRegion: {"center": (0.0, 0.0), "axes": (0.5, 0.5), "angle_deg": 0.0,
                       "proton_density": 1.0, "t2_ms": 50.0},
    RunRecord: {"method": "cs_analysis", "seed": 1, "config": {"lam": 0.05},
                "cost_history": [2.0, 1.0], "snr_db": 12.5, "snr_db_per_echo": [12.0, 13.0],
                "wall_seconds": 0.5},
}


class TestFieldRules:
    @SETTINGS
    @given(cls_field=st.sampled_from([(cls, f) for cls in _VALID for f in _VALID[cls]]),
           value=json_values)
    def test_typed_field_or_refusal(self, cls_field, value):
        # A field takes any value its rule passes and stores it as the valid
        # value's type (a run record's SNRs may also be None); any other value
        # is refused with InvalidArgumentError.
        cls, field = cls_field
        valid = _VALID[cls][field]
        try:
            got = getattr(cls(**{**_VALID[cls], field: value}), field)
        except me.InvalidArgumentError:
            return
        if value is None:
            assert cls is RunRecord and field.startswith("snr_db") and got is None
            return
        if isinstance(valid, (tuple, list)):
            assert type(got) is type(valid) and all(type(v) is float for v in got)
            assert got == type(valid)(value)
        else:
            assert type(got) is type(valid) and got == value
        # Never a bool, and a float only where the field is a float.
        kinds = {int: (int,), str: (str,), dict: (dict,)}.get(type(valid), (int, float))
        assert all(type(v) in kinds
                   for v in (value if isinstance(valid, (tuple, list)) else [value]))


class TestConfigSections:
    @SETTINGS
    @given(section=json_values, regions=json_values)
    def test_phantom_section(self, section, regions):
        cfg = {"phantom": section}
        if isinstance(section, dict):
            section["regions"] = regions
        problems = []
        spec = _phantom_spec_from_config(cfg, problems)
        assert isinstance(spec, me.PhantomSpec)
        if not problems:
            assert all(isinstance(r, me.EllipseRegion) for r in spec.regions)
            if spec.height * spec.width * spec.echoes <= 4096:
                assert np.all(np.isfinite(me.generate_phantom(spec).data))

    @SETTINGS
    @given(mask=mutated({"lines_per_echo": 4, "dense_fraction": 0.3,
                         "per_echo_distinct": True}),
           phantom=mutated({"height": 8, "width": 8, "echoes": 2}),
           seed=json_values)
    def test_mask_settings(self, mask, phantom, seed):
        problems = []
        cfg = {"mask": mask, "phantom": phantom, "seed": seed}
        settings_ = _mask_settings(cfg, Namespace(seed=None), problems)
        if not problems and settings_["height"] * settings_["width"] * settings_["echoes"] <= 4096:
            me.generate_mask(settings_["height"], settings_["width"],
                             settings_["lines_per_echo"], settings_["echoes"],
                             dense_fraction=settings_["dense_fraction"],
                             per_echo_distinct=settings_["per_echo_distinct"],
                             seed=settings_["seed"])

    @SETTINGS
    @given(params=mutated({"mu": 0.1, "lambda": 0.05, "patch_size": 4, "patch_stride": 2,
                           "max_outer_iters": 3}) | json_values,
           cs=json_values)
    def test_params_and_engine_sections(self, params, cs):
        problems = []
        base = me.tuned_params("cs_analysis")
        got = _params_from_config(base, params if isinstance(params, dict) else {}, problems)
        assert isinstance(got, me.ReconParams)
        kwargs = _engine_kwargs(method_row("cs_analysis"), {"cs": cs}, problems)
        assert set(kwargs) == {"max_iters"}
        assert all(type(v) is int for v in kwargs.values())


class TestCliConfigFiles:
    @SETTINGS
    @given(cfg=json_values | st.binary(max_size=40),
           command=st.sampled_from(["reconstruct", "sweep", "simulate"]))
    def test_bad_inputs_exit_2(self, cfg, command):
        # No input files exist in the run directory, so every command must
        # stop at validation, whatever the config holds.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            if isinstance(cfg, bytes):
                path.write_bytes(cfg)
            else:
                write_json(path, cfg)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--out", str(Path(tmp) / "run"), "--config", str(path)])
        assert code == 2 and err.getvalue().startswith("error: ")


_MEF_HEADER = {"mef_version": 1, "height": 3, "width": 2, "echoes": 2, "dtype": "f32",
               "endian": "little", "layout": "echo-major, then row-major"}


class TestLoaders:
    @SETTINGS
    @given(header=mutated(_MEF_HEADER) | json_values | st.binary(max_size=30),
           payload=st.binary(max_size=60) | st.just(np.ones(12, dtype="<f4").tobytes()))
    def test_load_mef(self, header, payload):
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp) / "img"
            if isinstance(header, bytes):
                base.with_suffix(".json").write_bytes(header)
            else:
                write_json(base.with_suffix(".json"), header)
            base.with_suffix(".bin").write_bytes(payload)
            try:
                image = me.load_mef(base)
            except FormatError:
                return
        assert image.data.shape == (3, 2, 2)
        assert np.all(np.isfinite(image.data))

    @SETTINGS
    @given(obj=mutated({"height": 8, "width": 4, "echoes": 2, "lines": [[0, 3], [1, 5]]})
           | json_values | st.binary(max_size=30))
    def test_load_mask(self, obj):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mask.json"
            if isinstance(obj, bytes):
                path.write_bytes(obj)
            else:
                write_json(path, obj)
            try:
                mask = me.load_mask(path)
            except FormatError:
                return
        assert type(mask) is me.SamplingMask
        assert all(type(r) is int for rows in mask.lines for r in rows)

    @SETTINGS
    @given(payload=st.binary(max_size=80)
           | st.lists(st.floats(width=32), min_size=32, max_size=32).map(
               lambda v: np.array(v, dtype="<f4").tobytes()))
    def test_load_kspace(self, payload):
        mask = me.SamplingMask(height=8, width=4, lines=((0, 3), (1, 5)))
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp) / "ks"
            me.save_mask(base.with_suffix(".json"), mask)
            base.with_suffix(".kbin").write_bytes(payload)
            try:
                kspace = me.load_kspace(base)
            except FormatError:
                return
        assert type(kspace) is me.KSpaceData and kspace.mask == mask
        assert all(type(r) is int for rows in kspace.mask.lines for r in rows)

    @SETTINGS
    @given(obj=mutated(RunRecord(method="cs_analysis", seed=1, config={"lam": 0.05},
                                 cost_history=[2.0, 1.0], snr_db=12.5,
                                 snr_db_per_echo=[12.0, math.inf],
                                 wall_seconds=0.5).to_json_dict())
           | json_values | st.binary(max_size=30))
    def test_load_run_record(self, obj):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "record.json"
            if isinstance(obj, bytes):
                path.write_bytes(obj)
            else:
                write_json(path, obj)
            try:
                record = me.load_run_record(path)
            except FormatError:
                return
        assert isinstance(record.method, str) and type(record.seed) is int and record.seed >= 0
        assert isinstance(record.config, dict)
        assert all(type(c) is float and np.isfinite(c) for c in record.cost_history)
        assert record.snr_db is None or type(record.snr_db) is float
        assert type(record.wall_seconds) is float and record.wall_seconds >= 0


class TestRunRecordValues:
    def _write(self, tmp_path, **edits):
        rec = RunRecord(method="cs_analysis", seed=1, config={}, cost_history=[2.0, 1.0],
                        snr_db=12.5, wall_seconds=0.5)
        path = me.save_run_record(tmp_path / "rec.json", rec)
        obj = json.loads(path.read_text())
        obj.update(edits)
        path.write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize("edits, message", [
        ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
        ({"seed": 1.7}, "seed must be an integer, got 1.7"),
        ({"snr_db": "abc"}, "snr_db must be"),
        ({"wall_seconds": "x"}, "wall_seconds must be"),
        ({"cost_history": "12"}, "cost_history must be a list"),
        ({"seed": 1.0}, "seed must be an integer, got 1.0"),
    ])
    def test_wrong_value_is_a_format_error(self, tmp_path, edits, message):
        with pytest.raises(FormatError, match=message):
            me.load_run_record(self._write(tmp_path, **edits))

    def test_seed_beyond_float_range(self, tmp_path):
        path = self._write(tmp_path)
        path.write_text(path.read_text().replace('"seed": 1', '"seed": 1e400'))
        with pytest.raises(FormatError, match="seed must be an integer, got inf"):
            me.load_run_record(path)

    def test_every_violation_listed(self, tmp_path):
        path = self._write(tmp_path, seed="abc", snr_db="abc", wall_seconds="x")
        del_obj = json.loads(path.read_text())
        del del_obj["method"]
        path.write_text(json.dumps(del_obj))
        with pytest.raises(FormatError) as err:
            me.load_run_record(path)
        for field in ("'method'", "seed", "snr_db", "wall_seconds"):
            assert field in str(err.value)


@pytest.mark.parametrize("edits, message", [
    # Each used to save, and then fail to load (or, for seed -1, to load).
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"cost_history": [math.nan]}, "cost_history must be a list of finite numbers, got [nan]"),
    ({"cost_history": [math.inf]}, "cost_history must be a list of finite numbers, got [inf]"),
    ({"wall_seconds": -1.0}, "wall_seconds must be finite and >= 0, got -1.0"),
    ({"snr_db": math.nan}, "snr_db must be finite, inf or None, got nan"),
    ({"method": 3}, "method must be a string, got 3"),
    ({"config": [1]}, "config must be a JSON object, got [1]"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
])
def test_record_refused_when_built(edits, message):
    with pytest.raises(me.InvalidArgumentError) as exc:
        RunRecord(**{**_VALID[RunRecord], **edits})
    assert str(exc.value) == message


json_configs = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=8,
)


@SETTINGS
@given(values=st.fixed_dictionaries({
    "method": st.text(max_size=8), "seed": st.integers(0), "config": json_configs,
    "cost_history": st.lists(st.floats(allow_nan=False, allow_infinity=False)
                             | st.integers(-10**6, 10**6), max_size=4),
    "snr_db": st.none() | st.floats(allow_nan=False) | st.just(math.inf),
    "snr_db_per_echo": st.none() | st.lists(st.floats(allow_nan=False), max_size=3),
    "wall_seconds": st.floats(0, allow_infinity=False) | st.integers(0, 10**6),
}) | mutated(_VALID[RunRecord]))
def test_every_buildable_record_loads_back_equal(values):
    # The writer/reader contract: a record that can be built saves to a file
    # that loads back equal.  Values the rule refuses never reach a file.
    try:
        record = RunRecord(**values)
    except (me.InvalidArgumentError, TypeError):  # TypeError: a deleted required field
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = me.save_run_record(Path(tmp) / "record.json", record)
        json.loads(path.read_text(), parse_constant=pytest.fail)  # no NaN or Infinity tokens
        assert me.load_run_record(path) == record


# One wrong value of each JSON type; a float of integral value is wrong only
# where an integer is required, and would give a valid setting if converted.
WRONG = {"string": "x", "null": None, "bool": True, "list": [1], "nan": math.nan,
         "inf": math.inf, "integral float": 2.0}


def _wrong_for(valid) -> list[str]:
    """Names of the ``WRONG`` values that a field whose valid value is ``valid`` must refuse."""
    right = {bool: "bool", float: "integral float"}.get(type(valid))
    return [name for name in WRONG if name != right]


_TRUTH = me.generate_phantom(me.default_phantom_spec(8, 8, 2))
_MASK = me.generate_mask(8, 8, 4, 2)

# Every public constructor and generator that takes settings: how to call it,
# and one valid value of every setting it checks.
_CALLS = {
    "ReconParams": (me.ReconParams, vars(me.ReconParams())),
    "PhantomSpec": (me.PhantomSpec, {"height": 8, "width": 8, "echoes": 2,
                                     "delta_te_ms": 6.0, "regions": ()}),
    "EllipseRegion": (me.EllipseRegion, {"center": (0.0, 0.0), "axes": (0.5, 0.5),
                                         "angle_deg": 0.0, "proton_density": 1.0,
                                         "t2_ms": 50.0}),
    "SamplingMask": (me.SamplingMask, {"height": 8, "width": 4, "lines": ((0, 3), (1, 5))}),
    "generate_mask": (me.generate_mask, {"height": 16, "width": 16, "lines_per_echo": 6,
                                         "echoes": 2, "dense_fraction": 0.3,
                                         "per_echo_distinct": False, "seed": 0}),
    "simulate_acquisition": (lambda **kw: me.simulate_acquisition(_TRUTH, _MASK, **kw),
                             {"noise_sigma": 0.01, "seed": 0}),
    "PatchScheme.build": (me.PatchScheme.build, {"height": 16, "width": 16, "patch_size": 4,
                                                 "stride": 2, "periodic": False}),
    "cs_lambda_for_lines": (cs_lambda_for_lines, {"lines_per_echo": 16}),
    "reconstruct_cs_analysis": (
        lambda **kw: me.reconstruct_cs_analysis(me.simulate_acquisition(_TRUTH, _MASK),
                                                me.ReconParams(), **kw),
        {"max_iters": 2, "rel_change_tol": 0.0}),
}


class TestEveryWrongType:
    @pytest.mark.parametrize("call", list(_CALLS))
    def test_valid_settings_accepted(self, call):
        build, valid = _CALLS[call]
        build(**valid)

    @pytest.mark.parametrize("call, field, wrong", [
        (call, field, wrong) for call, (_, valid) in _CALLS.items()
        for field in valid for wrong in _wrong_for(valid[field])])
    def test_library_refuses_with_invalid_argument(self, call, field, wrong):
        build, valid = _CALLS[call]
        integer = type(valid[field]) is int
        value = float(valid[field]) if wrong == "integral float" and integer else WRONG[wrong]
        with pytest.raises(me.InvalidArgumentError, match=field):
            build(**{**valid, field: value})

    # Each config section: the command that reads it, the prefix of its
    # violations, and a valid value of each of its keys.
    SECTIONS = {
        "params": ("reconstruct", "params: ", {
            "mu": 0.5, "lambda": 0.1, "gamma": 1.0, "rel_cost_tol": 0.0, "patch_size": 4,
            "patch_stride": 2, "max_outer_iters": 2, "inner_iters": 5}),
        "phantom": ("phantom", "phantom: ", {"height": 8, "width": 8, "echoes": 2,
                                             "delta_te_ms": 6.0}),
        "phantom.regions[0]": ("phantom", "phantom: regions[0]: ", {
            "center": [0.0, 0.0], "axes": [0.5, 0.5], "angle_deg": 0.0,
            "proton_density": 1.0, "t2_ms": 50.0}),
        "mask": ("mask", "mask: ", {"lines_per_echo": 4, "dense_fraction": 0.3,
                                    "per_echo_distinct": True}),
        "cs": ("reconstruct", "cs: ", {"max_iters": 2}),
        "sweep.grids": ("sweep", "sweep: grid ", {"mu": [0.1, 0.2, 0.3, 0.4],
                                                 "lambda": [0.1, 0.2, 0.3, 0.4],
                                                 "gamma": [0.1, 0.2, 0.3, 0.4]}),
        "": ("simulate", "", {"seed": 0, "noise_sigma": 0.01}),
    }

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        """Truth, mask and k-space of the sections' valid config, for the commands that read them."""
        out = tmp_path_factory.mktemp("boundary")
        path = out / "config.json"
        write_json(path, self.config())
        for command in ("phantom", "mask", "simulate"):
            assert main([command, "--out", str(out), "--config", str(path)]) == 0
        return out

    def config(self, section=None, keys=(), value=None) -> dict:
        """The sections' valid config, with ``keys`` of ``section`` set to ``value``."""
        cfg = {"phantom": {}, "mask": {}, "params": {}, "cs": {}, "sweep": {"grids": {}}}
        for name, (_, _, valid) in self.SECTIONS.items():
            values = {k: value if name == section and k in keys else v for k, v in valid.items()}
            if name == "phantom.regions[0]":
                cfg["phantom"]["regions"] = [values]
            elif name == "sweep.grids":
                cfg["sweep"]["grids"] = values
            elif name:
                cfg[name].update(values)
            else:
                cfg.update(values)
        return cfg

    @pytest.mark.parametrize("section", list(SECTIONS))
    @pytest.mark.parametrize("wrong", list(WRONG))
    def test_cli_exits_2_listing_every_violation(self, run_dir, tmp_path, capsys, section,
                                                  wrong):
        command, prefix, valid = self.SECTIONS[section]
        keys = [k for k, v in valid.items() if wrong in _wrong_for(v)]
        path = tmp_path / "config.json"
        write_json(path, self.config(section, keys, WRONG[wrong]))
        # The commands that would write a value read no input, so they get a fresh directory.
        out = run_dir if command in ("simulate", "reconstruct", "sweep") else tmp_path / "run"
        method = "cs_analysis" if section == "cs" else "tl_rowsparse"
        flags = ["--method", method] if command in ("reconstruct", "sweep") else []
        capsys.readouterr()
        assert main([command, "--out", str(out), "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("\n") and "Traceback" not in err
        violations = err[len("error: "):-1].split("; ")
        named = [[k for k in keys if v.startswith(f"{prefix}{k} ")] for v in violations]
        assert sorted(k for ks in named for k in ks) == sorted(keys), violations
        assert all(len(ks) == 1 for ks in named), violations
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("build", [
    lambda seed: me.tuned_params("tl_rowsparse", seed=seed),
    lambda seed: me.generate_mask(16, 16, 6, 2, seed=seed),
    lambda seed: me.simulate_acquisition(_TRUTH, _MASK, noise_sigma=0.01, seed=seed),
    lambda seed: power_iteration(np.eye(2), 2, seed=seed),
], ids=["tuned_params", "generate_mask", "simulate_acquisition", "power_iteration"])
@pytest.mark.parametrize("seed, message", [
    ("x", "seed must be an integer, got 'x'"),
    (-1, "seed must be >= 0, got -1"),
    (1.0, "seed must be an integer, got 1.0"),
])
def test_one_seed_rule(build, seed, message):
    with pytest.raises(me.InvalidArgumentError) as exc:
        build(seed)
    assert str(exc.value) == message


# Patches, coefficients and dictionary for one dictionary-atom sweep.
_ATOM_STEP = (np.ones((4, 1, 2)), np.ones((4, 1, 2)), np.eye(4))

_REGION = dict(center=(0.0, 0.0), axes=(0.5, 0.5), angle_deg=0.0, proton_density=1.0,
               t2_ms=50.0)


@pytest.mark.parametrize("build, message", [
    # Each used to be accepted or to end in another exception.
    (lambda: me.EllipseRegion(**{**_REGION, "axes": (0.5,)}),
     "axes must be two finite numbers, got (0.5,)"),
    (lambda: me.EllipseRegion(**{**_REGION, "center": (0.0, 0.1, 0.2)}),
     "center must be two finite numbers, got (0.0, 0.1, 0.2)"),
    (lambda: me.PhantomSpec(regions=("x",)),
     "regions must be a sequence of EllipseRegion, got ('x',)"),
    (lambda: me.generate_mask(16, 16, 6, 2, per_echo_distinct="no"),
     "per_echo_distinct must be a bool, got 'no'"),
    (lambda: me.simulate_acquisition(_TRUTH, _MASK, noise_sigma="x"),
     "noise_sigma must be finite and >= 0, got 'x'"),
    (lambda: me.simulate_acquisition(_TRUTH, _MASK, noise_sigma=None),
     "noise_sigma must be finite and >= 0, got None"),
    (lambda: me.simulate_acquisition(_TRUTH, _MASK, noise_sigma=True),
     "noise_sigma must be finite and >= 0, got True"),
    (lambda: me.PatchScheme.build(16, 16, 4.0, 2), "patch_size must be an integer, got 4.0"),
    (lambda: me.PatchScheme.build(16, 16, "4", 2), "patch_size must be an integer, got '4'"),
    (lambda: me.ReconParams(patch_size=6.0, patch_stride=3),
     "patch_size must be a positive integer, got 6.0"),
    (lambda: me.export_pgm("empty.pgm", np.zeros((0, 3))),
     "expected a non-empty 2-D plane, got shape (0, 3)"),
    (lambda: update_dictionary_atoms(*_ATOM_STEP, lam="0.5"),
     "lam must be finite and >= 0, got '0.5'"),
    (lambda: update_dictionary_atoms(*_ATOM_STEP, lam=math.nan),
     "lam must be finite and >= 0, got nan"),
])
def test_shape_and_type_gaps_are_refused(build, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a refused call writes no file
    with pytest.raises(me.InvalidArgumentError) as exc:
        build()
    assert str(exc.value) == message
    assert not any(tmp_path.iterdir())
