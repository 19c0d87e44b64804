"""Property tests of the input boundary: loaders and CLI config readers.

Every input, however malformed, must give a valid object or a clean
rejection (``FormatError`` from a loader, a listed problem or exit code 2
from the CLI), never another exception.  Inputs are valid files or configs
with fields replaced by arbitrary JSON, deleted, or whole files of arbitrary
bytes.
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
    _value,
    main,
)

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


class TestValue:
    @SETTINGS
    @given(value=json_values, kind=st.sampled_from([int, float, bool]))
    def test_typed_value_or_one_problem(self, value, kind):
        problems = []
        got = _value({"k": value}, "k", kind(1), kind, "", problems)
        if problems:
            assert len(problems) == 1 and got == kind(1)
        else:
            assert type(got) is kind and got == kind(value)
            if kind is not bool:
                assert math.isfinite(got) and type(value) in (int, float)


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
        kwargs = _engine_kwargs("cs_analysis", {"cs": cs}, problems)
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
                                 snr_db_per_echo=[12.0, "inf"], wall_seconds=0.5).__dict__)
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
        assert isinstance(record.method, str) and type(record.seed) is int
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
