"""Command-line pipeline: end-to-end runs in a temp directory, in process."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import multiecho as me
from multiecho.baselines import haar_dwt2
from multiecho.cli import main
from multiecho.methods import run_method


@pytest.fixture()
def config_path(tmp_path):
    cfg = {
        "phantom": {"height": 32, "width": 32, "echoes": 4},
        "mask": {"lines_per_echo": 10, "per_echo_distinct": True},
        "noise_sigma": 0.01,
        "seed": 3,
        "params": {
            "mu": 0.5, "lambda": 0.1, "patch_size": 8, "patch_stride": 8,
            "max_outer_iters": 2, "inner_iters": 5,
        },
        "cs": {"max_iters": 15},
    }
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def run_pipeline(tmp_path, config_path, method="zero_filled"):
    out = str(tmp_path / "run")
    for cmd in (
        ["phantom", "--out", out, "--config", str(config_path)],
        ["mask", "--out", out, "--config", str(config_path)],
        ["simulate", "--out", out, "--config", str(config_path)],
        ["reconstruct", "--out", out, "--config", str(config_path),
         "--method", method, "--sequential"],
    ):
        assert main(cmd) == 0, cmd
    return tmp_path / "run"


class TestPipeline:
    def test_full_pipeline_all_methods(self, tmp_path, config_path, capsys):
        out = run_pipeline(tmp_path, config_path)
        for method in ("cs_analysis", "dl_sparse", "dl_rowsparse", "tl_rowsparse"):
            assert main(["reconstruct", "--out", str(out), "--config",
                         str(config_path), "--method", method, "--sequential"]) == 0
        assert main(["evaluate", "--out", str(out)]) == 0
        assert main(["export", "--out", str(out), "--method", "zero_filled"]) == 0
        capsys.readouterr()

        for method in ("zero_filled", "cs_analysis", "dl_sparse",
                       "dl_rowsparse", "tl_rowsparse"):
            assert (out / f"recon_{method}.json").is_file()
            assert (out / f"recon_{method}.bin").is_file()
            record = me.load_run_record(out / f"record_{method}.json")
            assert record.method == method
            assert record.seed == 3
            assert record.snr_db is not None  # truth present in the run dir
            assert record.wall_seconds == 0.0  # sequential mode
        evaluation = json.loads((out / "evaluation.json").read_text())
        assert set(evaluation["snr_db"]) == {"zero_filled", "cs_analysis",
                                             "dl_sparse", "dl_rowsparse",
                                             "tl_rowsparse"}
        # default export echoes for a 4-echo stack: just echo 1
        assert (out / "recon_zero_filled_echo1.pgm").is_file()
        assert (out / "diff_zero_filled_echo1.pgm").is_file()

    def test_evaluate_matches_recomputation(self, tmp_path, config_path, capsys):
        out = run_pipeline(tmp_path, config_path, method="cs_analysis")
        assert main(["evaluate", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "cs_analysis" in stdout
        evaluation = json.loads((out / "evaluation.json").read_text())
        truth = me.load_mef(out / "truth")
        recon = me.load_mef(out / "recon_cs_analysis")
        expected = me.snr_db(truth, recon)
        assert evaluation["snr_db"]["cs_analysis"]["run"] == pytest.approx(
            expected, abs=1e-10
        )

    def test_sequential_reruns_are_byte_identical(self, tmp_path, config_path):
        out = run_pipeline(tmp_path, config_path, method="dl_rowsparse")
        names = ["kspace.kbin", "kspace.json", "recon_dl_rowsparse.json",
                 "recon_dl_rowsparse.bin", "record_dl_rowsparse.json",
                 "config_reconstruct_dl_rowsparse.json"]
        first = {n: (out / n).read_bytes() for n in names}
        assert main(["simulate", "--out", str(out), "--config", str(config_path)]) == 0
        assert main(["reconstruct", "--out", str(out), "--config", str(config_path),
                     "--method", "dl_rowsparse", "--sequential"]) == 0
        for n in names:
            assert (out / n).read_bytes() == first[n], n

    def test_seed_flag_overrides_config(self, tmp_path, config_path):
        out = run_pipeline(tmp_path, config_path)
        assert main(["simulate", "--out", str(out), "--config", str(config_path),
                     "--seed", "9"]) == 0
        resolved = json.loads((out / "config_simulate.json").read_text())
        assert resolved["seed"] == 9

    def test_mask_uses_config_dims(self, tmp_path, config_path):
        out = run_pipeline(tmp_path, config_path)
        mask = me.load_mask(out / "mask.json")
        assert (mask.height, mask.width, mask.echoes) == (32, 32, 4)
        assert all(len(rows) == 10 for rows in mask.lines)
        assert len(set(mask.lines)) > 1  # per_echo_distinct honored

    def test_mask_defaults_to_distinct_echoes(self, tmp_path, config_path):
        cfg = json.loads(config_path.read_text())
        del cfg["mask"]["per_echo_distinct"]
        config_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["mask", "--out", str(out), "--config", str(config_path)]) == 0
        mask = me.load_mask(out / "mask.json")
        assert len(set(mask.lines)) > 1

    def test_sweep_writes_chosen_params(self, tmp_path, config_path):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["sweep"] = {"grids": {"mu": [0.05, 0.2, 1.0, 5.0],
                                  "lambda": [0.01, 0.1, 0.5, 2.0]}}
        sweep_cfg = tmp_path / "sweep.json"
        sweep_cfg.write_text(json.dumps(cfg))
        assert main(["sweep", "--out", str(out), "--config", str(sweep_cfg),
                     "--method", "dl_rowsparse"]) == 0
        chosen = json.loads((out / "params_dl_rowsparse.json").read_text())
        assert chosen["mu"] in cfg["sweep"]["grids"]["mu"]
        assert chosen["lambda"] in cfg["sweep"]["grids"]["lambda"]
        trace = json.loads((out / "sweep_dl_rowsparse.json").read_text())
        assert len(trace) == 8
        assert {p["param"] for p in trace} == {"mu", "lambda"}


    def test_sweep_cs_tunes_the_shipped_engine(self, tmp_path, config_path):
        # sweep reads the engine settings exactly as reconstruct does (the
        # config's cs section over CS_ENGINE) and measures the one-level
        # Haar penalty of the engine's result.
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["cs"] = {"max_iters": 10}
        cfg["sweep"] = {"grids": {"lambda": [0.01, 0.1, 0.5, 2.0]}}
        sweep_cfg = tmp_path / "sweep.json"
        sweep_cfg.write_text(json.dumps(cfg))
        assert main(["sweep", "--out", str(out), "--config", str(sweep_cfg),
                     "--method", "cs_analysis"]) == 0
        resolved = json.loads((out / "config_sweep_cs_analysis.json").read_text())
        assert resolved["cs"] == {"max_iters": 10}
        trace = json.loads((out / "sweep_cs_analysis.json").read_text())
        y = me.load_kspace(out / "kspace")
        # the Haar baseline reads only lam from its parameters
        params = replace(me.tuned_params("cs_analysis"), lam=trace[1]["value"])
        rec = run_method("cs_analysis", y, params, max_iters=10).image.data
        coeffs = np.stack([haar_dwt2(rec[:, :, c]) for c in range(rec.shape[2])],
                          axis=-1)
        want = float(np.linalg.norm(coeffs.reshape(-1, rec.shape[2]), axis=1).sum())
        assert trace[1]["penalty"] == pytest.approx(want, rel=1e-12)


class TestValidation:
    def test_all_violations_reported_at_once(self, tmp_path, capsys):
        rc = main(["reconstruct", "--out", str(tmp_path / "nothing"),
                   "--method", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "method must be one of" in err
        assert "k-space not found" in err
        assert ";" in err  # both problems in one line

    def test_unknown_method_names_valid_set(self, tmp_path, capsys):
        rc = main(["reconstruct", "--out", str(tmp_path), "--method", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        for name in ("zero_filled", "cs_analysis", "dl_sparse",
                     "dl_rowsparse", "tl_rowsparse"):
            assert name in err

    def test_unknown_param_key_rejected(self, tmp_path, config_path, capsys):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["params"]["bogus_knob"] = 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = main(["reconstruct", "--out", str(out), "--config", str(bad),
                   "--method", "zero_filled"])
        assert rc == 2
        assert "unknown key 'bogus_knob'" in capsys.readouterr().err

    def test_invalid_param_value_reported(self, tmp_path, config_path, capsys):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["params"]["mu"] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = main(["reconstruct", "--out", str(out), "--config", str(bad),
                   "--method", "zero_filled"])
        assert rc == 2
        assert "mu" in capsys.readouterr().err

    def test_every_param_violation_is_prefixed_and_names_lambda(self, tmp_path, config_path,
                                                                capsys):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["params"].update({"mu": -1, "lambda": -2})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = main(["reconstruct", "--out", str(out), "--config", str(bad),
                   "--method", "dl_rowsparse"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: params: mu must be finite and > 0, got -1; "
            "params: lambda must be finite and >= 0, got -2\n")

    def test_negative_noise_sigma_is_exit_2_with_the_library_rule(self, tmp_path,
                                                                  config_path, capsys):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["noise_sigma"] = -1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["simulate", "--out", str(out), "--config", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: noise_sigma must be finite and >= 0, got -1\n")

    @pytest.mark.parametrize("noise_sigma, pd, message", [
        (1e308, 1.0, "error: k-space has non-finite value at "),
        (1e39, 1.0, "error: k-space has a value that float32 cannot hold at "),
        (0.01, 3e38, "error: k-space has a value that float32 cannot hold at "),
    ], ids=["noise-beyond-float64", "noise-beyond-float32", "density-beyond-float32"])
    def test_kspace_float32_cannot_hold_is_exit_2_writing_nothing(self, tmp_path, capsys,
                                                                  noise_sigma, pd, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "phantom": {"height": 16, "width": 16, "echoes": 2, "regions": [
                {"center": [0, 0], "axes": [0.5, 0.5], "proton_density": pd, "t2_ms": 50}]},
            "mask": {"lines_per_echo": 4}, "noise_sigma": noise_sigma}))
        out = tmp_path / "run"
        for command in ("phantom", "mask"):
            assert main([command, "--out", str(out), "--config", str(cfg)]) == 0
        before = sorted(out.iterdir())
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--out", str(out), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert sorted(out.iterdir()) == before

    def test_config_not_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        rc = main(["phantom", "--out", str(tmp_path / "run"), "--config", str(bad)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["phantom", "--out", str(tmp_path / "run"),
                   "--config", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "config file not found" in capsys.readouterr().err

    def test_mask_line_count_out_of_range(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phantom": {"height": 16, "width": 16},
                                   "mask": {"lines_per_echo": 99}}))
        rc = main(["mask", "--out", str(tmp_path / "run"), "--config", str(cfg)])
        assert rc == 2
        assert "lines_per_echo" in capsys.readouterr().err

    def test_export_echo_out_of_range(self, tmp_path, config_path, capsys):
        out = run_pipeline(tmp_path, config_path)
        rc = main(["export", "--out", str(out), "--method", "zero_filled",
                   "--echoes", "1,7"])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    def test_export_malformed_echoes_listed_with_out_of_range(self, tmp_path,
                                                              config_path, capsys):
        out = run_pipeline(tmp_path, config_path)
        capsys.readouterr()
        rc = main(["export", "--out", str(out), "--method", "zero_filled",
                   "--echoes", "a,1,,2.5,9"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "must be integers, got ['a', '', '2.5']" in err
        assert "out of range 1..4: [9]" in err
        assert not list(out.glob("*.pgm"))

    def test_export_missing_truth_is_exit_2_writing_nothing(self, tmp_path, config_path,
                                                            capsys, monkeypatch):
        out = run_pipeline(tmp_path, config_path)
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        rc = main(["export", "--out", str(out), "--method", "zero_filled", "--truth", "nope"])
        assert rc == 2
        assert capsys.readouterr().err == "error: truth image not found: nope.json\n"
        assert not list(out.glob("*.pgm"))

    def test_evaluate_names_each_missing_truth_file_once(self, tmp_path, config_path,
                                                         capsys, monkeypatch):
        out = run_pipeline(tmp_path, config_path)
        other = tmp_path / "b" / "other"
        shutil.copytree(out, other)
        (other / "truth.json").unlink()
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        for flags, missing in ((["--truth", "nope"], "nope.json"),
                               ([], other / "truth.json")):
            assert main(["evaluate", "--out", str(out), "--runs", str(other), *flags]) == 2
            assert capsys.readouterr().err == f"error: truth image not found: {missing}\n"
        assert not (out / "evaluation.json").exists()

    def test_corrupt_input_file_is_exit_1(self, tmp_path, config_path, capsys):
        out = run_pipeline(tmp_path, config_path)
        (out / "truth.bin").write_bytes((out / "truth.bin").read_bytes()[:-4])
        rc = main(["reconstruct", "--out", str(out), "--config", str(config_path),
                   "--method", "zero_filled", "--truth", str(out / "truth")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command, flags, others, after", [
        ("simulate", [], ["mask.json"], []),
        ("reconstruct", ["--method", "tl_rowsparse"], ["kspace.json"], []),
        ("evaluate", [], ["recon_zero_filled.json", "recon_cs_analysis.json"], []),
        ("export", ["--method", "cs_analysis", "--echoes", "1,9"], ["recon_cs_analysis.json"],
         ["echo indices out of range 1..2: [9]"]),
    ], ids=["simulate", "reconstruct", "evaluate", "export"])
    def test_inputs_of_other_dims_are_exit_2_before_any_work(self, tmp_path, capsys,
                                                             monkeypatch, command, flags,
                                                             others, after):
        # A 16x16x2 run directory and an 8x8x2 truth elsewhere.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phantom": {"height": 16, "width": 16, "echoes": 2},
                                   "mask": {"lines_per_echo": 8}}))
        out, small = tmp_path / "run", tmp_path / "b"
        for cmd in (["phantom"], ["mask"], ["simulate"],
                    ["reconstruct", "--method", "zero_filled"]):
            assert main([*cmd, "--out", str(out), "--config", str(cfg)]) == 0
        for suffix in (".json", ".bin"):  # a second image of the run's dims
            shutil.copy(out / f"recon_zero_filled{suffix}", out / f"recon_cs_analysis{suffix}")
        cfg.write_text(json.dumps({"phantom": {"height": 8, "width": 8, "echoes": 2}}))
        assert main(["phantom", "--out", str(small), "--config", str(cfg)]) == 0
        cfg.write_text(json.dumps({"bogus": 1}))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr("multiecho.cli.run_method", pytest.fail)
        capsys.readouterr()
        rc = main([command, "--out", str(out), "--config", str(cfg),
                   "--truth", str(small / "truth"), *flags])
        assert rc == 2
        truth = small / "truth.json"
        assert capsys.readouterr().err == "error: " + "; ".join(
            ["unknown key 'bogus'"]
            + [f"dims disagree: {truth} is 8x8x2, {out / name} is 16x16x2" for name in others]
            + after) + "\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("zero_echoes, command, flags, violation", [
        ([0, 1], "reconstruct", ["--method", "cs_analysis"],
         "SNR is undefined: echo 0 of the reference is zero"),
        ([0, 1], "evaluate", [], "SNR is undefined for an all-zero reference"),
        ([0, 1], "export", ["--method", "zero_filled"],
         "echo 1: normalization must be finite and > 0, got 0.0"),
        ([1], "reconstruct", ["--method", "cs_analysis"],
         "SNR is undefined: echo 1 of the reference is zero"),
        ([1], "export", ["--method", "zero_filled", "--echoes", "1,2"],
         "echo 2: normalization must be finite and > 0, got 0.0"),
    ], ids=["reconstruct", "evaluate", "export", "reconstruct-echo", "export-echo"])
    def test_truth_that_cannot_score_is_exit_2_before_any_work(self, tmp_path, capsys,
                                                               monkeypatch, zero_echoes,
                                                               command, flags, violation):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phantom": {"height": 16, "width": 16, "echoes": 2},
                                   "mask": {"lines_per_echo": 8}}))
        out = tmp_path / "run"
        for cmd in (["phantom"], ["mask"], ["simulate"],
                    ["reconstruct", "--method", "zero_filled"]):
            assert main([*cmd, "--out", str(out), "--config", str(cfg)]) == 0
        truth = me.load_mef(out / "truth").data.copy()
        truth[:, :, zero_echoes] = 0.0
        me.save_mef(tmp_path / "zero" / "truth", me.MultiEchoImage(truth))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr("multiecho.cli.run_method", pytest.fail)
        capsys.readouterr()
        rc = main([command, "--out", str(out), "--truth", str(tmp_path / "zero" / "truth"),
                   *flags])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: truth image {tmp_path / 'zero' / 'truth.json'}: {violation}\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("method", ["dl_sparse", "dl_rowsparse"])
    def test_dictionary_engine_at_mu_zero_is_exit_2(self, tmp_path, config_path, capsys,
                                                    method):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["params"]["mu"] = 0.0
        config_path.write_text(json.dumps(cfg))
        rc = main(["reconstruct", "--out", str(out), "--config", str(config_path),
                   "--method", method, "--sequential"])
        assert rc == 2
        assert "params: mu must be finite and > 0, got 0.0" in capsys.readouterr().err
        assert not (out / f"recon_{method}.bin").exists()

    def test_transform_engine_below_the_mu_floor_is_exit_2(self, tmp_path, config_path,
                                                           capsys):
        # At mu = 1e-20 the transform engine's SVD used not to converge.
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["params"]["mu"] = 1e-20
        config_path.write_text(json.dumps(cfg))
        rc = main(["reconstruct", "--out", str(out), "--config", str(config_path),
                   "--method", "tl_rowsparse", "--sequential"])
        assert rc == 2
        assert "params: mu must be >= 1e-12, got 1e-20" in capsys.readouterr().err
        assert not (out / "recon_tl_rowsparse.bin").exists()

    def test_transform_weight_rule_is_listed_with_the_other_violations(
            self, tmp_path, config_path, capsys):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["params"].update(gamma=0, patch_size=6, patch_stride=3)
        config_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        rc = main(["reconstruct", "--out", str(out), "--config", str(config_path),
                   "--method", "tl_rowsparse", "--sequential"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "params: gamma must be finite and > 0, got 0" in err
        assert "stride 3 must divide the image dims 32x32" in err
        assert not (out / "recon_tl_rowsparse.bin").exists()

    def test_patch_grid_is_checked_beside_a_bad_weight(self, tmp_path, config_path, capsys):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["params"].update(mu=-1, patch_size=6, patch_stride=3)
        config_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        rc = main(["reconstruct", "--out", str(out), "--config", str(config_path),
                   "--method", "tl_rowsparse", "--sequential"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "params: mu must be finite and > 0, got -1" in err
        assert "stride 3 must divide the image dims 32x32" in err
        assert not (out / "recon_tl_rowsparse.bin").exists()

    @pytest.mark.parametrize("max_iters", [0, -5])
    def test_cs_iteration_cap_below_one_is_exit_2(self, tmp_path, config_path, capsys,
                                                  max_iters):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["cs"]["max_iters"] = max_iters
        cfg["params"]["lambda"] = -1
        config_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        for command in (["reconstruct", "--sequential"], ["sweep"]):
            rc = main([*command, "--out", str(out), "--config", str(config_path),
                       "--method", "cs_analysis"])
            assert rc == 2
            assert capsys.readouterr().err == (
                "error: params: lambda must be finite and >= 0, got -1; "
                f"cs: max_iters must be a positive integer, got {max_iters}\n")
        assert not (out / "recon_cs_analysis.bin").exists()
        assert not (out / "params_cs_analysis.json").exists()

    def test_params_seed_key_refused_and_the_record_holds_the_root_seed(self, tmp_path,
                                                                       config_path, capsys):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg.update(seed=1, params={**cfg["params"], "seed": 2})
        config_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        rc = main(["reconstruct", "--out", str(out), "--config", str(config_path),
                   "--method", "cs_analysis", "--sequential"])
        assert rc == 2
        assert capsys.readouterr().err == "error: params: unknown key 'seed'\n"
        del cfg["params"]["seed"]
        config_path.write_text(json.dumps(cfg))
        assert main(["reconstruct", "--out", str(out), "--config", str(config_path),
                     "--method", "cs_analysis", "--sequential"]) == 0
        record = json.loads((out / "record_cs_analysis.json").read_text())
        # The record holds the seed once, at its root.
        assert record["seed"] == 1 and "seed" not in record["config"]["params"]

    def test_sweep_params_paste_back_into_a_config(self, tmp_path, config_path):
        out = run_pipeline(tmp_path, config_path)
        assert main(["sweep", "--out", str(out), "--config", str(config_path),
                     "--method", "cs_analysis"]) == 0
        chosen = json.loads((out / "params_cs_analysis.json").read_text())
        cfg = json.loads(config_path.read_text())
        cfg["params"] = chosen
        config_path.write_text(json.dumps(cfg))
        assert main(["reconstruct", "--out", str(out), "--config", str(config_path),
                     "--method", "cs_analysis", "--sequential"]) == 0
        record = json.loads((out / "record_cs_analysis.json").read_text())
        assert record["config"]["params"] == chosen and "seed" not in chosen

    def test_sweep_gamma_grid_from_zero_is_exit_2_before_any_run(
            self, tmp_path, config_path, capsys, monkeypatch):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["params"].update(patch_size=4, patch_stride=2)
        cfg["sweep"] = {"grids": {"gamma": [0.0, 0.1, 1.0, 3.0]}}
        config_path.write_text(json.dumps(cfg))
        monkeypatch.setattr("multiecho.tuning.run_method", pytest.fail)
        capsys.readouterr()
        rc = main(["sweep", "--out", str(out), "--config", str(config_path),
                   "--method", "tl_rowsparse"])
        assert rc == 2
        assert ("sweep: grid gamma: gamma must be finite and > 0, got 0.0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("cfg, command, message", [
        (b"\xff{}", "phantom", "not valid JSON"),
        ({"seed": -1}, "mask", "seed must be >= 0, got -1"),
        ({"phantom": {"regions": [{"center": [0, 0], "axes": [0.5],
                                   "proton_density": 1, "t2_ms": 50}]}},
         "phantom", "regions[0]: axes must be two finite numbers, got [0.5]"),
        ({"phantom": {"regions": [{"center": "ab", "axes": [0.5, 0.5],
                                   "proton_density": "1", "t2_ms": 50}]}},
         "phantom", "proton_density must be finite, got '1'"),
    ])
    def test_config_values_that_used_to_crash_are_exit_2(self, tmp_path, capsys, cfg,
                                                         command, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(cfg if isinstance(cfg, bytes) else json.dumps(cfg).encode())
        rc = main([command, "--out", str(tmp_path / "run"), "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "run").exists()

    def test_sweep_grid_too_short_is_exit_2(self, tmp_path, config_path, capsys):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["sweep"] = {"grids": {"lambda": [0.01, 0.1, 0.5]}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = main(["sweep", "--out", str(out), "--config", str(bad), "--method", "cs_analysis"])
        assert rc == 2
        assert "grid lambda must hold at least 4 ascending" in capsys.readouterr().err

    @pytest.mark.parametrize("ph, parts", [
        ({"delta_te_ms": -1, "regions": [{"center": [0, 0], "axes": [-0.5, 0.3],
                                          "proton_density": -1, "t2_ms": -5}]},
         ["phantom: regions[0]: ellipse axes must be positive, got [-0.5, 0.3]",
          "phantom: regions[0]: proton density must be >= 0, got -1",
          "phantom: regions[0]: t2 must be positive, got -5",
          "phantom: delta_te_ms must be finite and > 0, got -1"]),
        ({"height": 10**12, "delta_te_ms": -1},
         ["phantom: dims 1000000000000x64x8 exceed the limit of 16777216 samples",
          "phantom: delta_te_ms must be finite and > 0, got -1"]),
        ({"regions": [{"center": "ab", "axes": [0.5, -0.5], "t2_ms": 0}]},
         ["phantom: regions[0]: missing proton_density",
          "phantom: regions[0]: center must be two finite numbers, got 'ab'",
          "phantom: regions[0]: ellipse axes must be positive, got [0.5, -0.5]",
          "phantom: regions[0]: t2 must be positive, got 0"]),
        ({"regions": [{"center": [0, 0], "axes": [0.5, 0.5], "proton_density": 1e40,
                       "t2_ms": 50}]},
         ["phantom: regions[0]: proton density must be <= 3.402823e+38, the float32 maximum, "
          "got 1e+40"]),
    ])
    def test_phantom_values_list_every_violation(self, tmp_path, capsys, ph, parts):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phantom": ph}))
        assert main(["phantom", "--out", str(tmp_path / "run"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err[len("error: "):].strip().split("; ") == parts
        assert not (tmp_path / "run").exists()

    def test_mask_values_list_every_violation(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phantom": {"height": 32, "echoes": 0},
                                   "mask": {"lines_per_echo": 40, "dense_fraction": 2.0}}))
        assert main(["mask", "--out", str(tmp_path / "run"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err[len("error: "):].strip().split("; ") == [
            "mask: dims must be positive, got 32x64x0",
            "mask: lines_per_echo must be in [1, 32], got 40",
            "mask: dense_fraction must be in [0, 1], got 2.0",
        ]

    @pytest.mark.parametrize("command", ["phantom", "evaluate", "export"])
    def test_seed_flag_only_where_a_seed_is_read(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path / "run"), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_non_integer_phantom_height_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phantom": {"height": "abc"}}))
        rc = main(["phantom", "--out", str(tmp_path / "run"), "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "height must be an integer, got 'abc'" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["phantom", "mask"])
    def test_oversized_dims_are_exit_2_listing_every_violation(self, tmp_path, capsys,
                                                                command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"phantom": {"height": 10**12, "delta_te_ms": "x"},
                                   "mask": {"dense_fraction": 2.0}}))
        rc = main([command, "--out", str(tmp_path / "run"), "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "dims 1000000000000x64x8 exceed the limit of 16777216 samples" in err
        if command == "phantom":
            assert "delta_te_ms must be finite and > 0, got 'x'" in err
        else:
            assert "dense_fraction must be in [0, 1], got 2.0" in err
        assert not (tmp_path / "run").exists()

    def test_non_numeric_param_is_exit_2_listing_every_violation(
            self, tmp_path, config_path, capsys):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["params"].update(mu="x", patch_size=2.5)
        cfg["seed"] = "three"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = main(["reconstruct", "--out", str(out), "--config", str(bad),
                   "--method", "dl_rowsparse"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for part in ("params: mu must be finite and > 0, got 'x'",
                     "params: patch_size must be a positive integer, got 2.5",
                     "seed must be an integer, got 'three'"):
            assert part in err

    def test_retired_solver_keys_are_exit_2(self, tmp_path, config_path, capsys):
        # Every image step is exact, so the CG settings are no longer parameters.
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["params"].update(cg_tol=1e-6, cg_max_iters=60)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        capsys.readouterr()
        rc = main(["reconstruct", "--out", str(out), "--config", str(bad),
                   "--method", "tl_rowsparse"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown key 'cg_tol'" in err and "unknown key 'cg_max_iters'" in err

    @pytest.mark.parametrize("command", ["phantom", "mask", "simulate", "reconstruct",
                                         "sweep", "export", "evaluate"])
    def test_unknown_keys_in_every_section_are_exit_2(self, tmp_path, capsys, command):
        cfg = {"bogus": 1, "method": "cs_analysis",
               "phantom": {"height": 32, "hieght": 32, "regions": [
                   {"center": [0, 0], "axes": [0.5, 0.5], "proton_density": 1.0,
                    "t2_ms": 50.0, "t1_ms": 900.0}]},
               "mask": {"linez": 3}, "params": {"bogus_knob": 1.0, "lam": 0.1},
               "cs": {"levels": 1, "max_iter": 5}, "sweep": {"grid": {}, "grids": {"lam": []}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--out", str(tmp_path / "run"), "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for part in ("error: unknown key 'bogus'", "phantom: unknown key 'hieght'",
                     "mask: unknown key 'linez'", "params: unknown key 'bogus_knob'",
                     "params: unknown key 'lam'",
                     "cs: unknown key 'levels'", "cs: unknown key 'max_iter'",
                     "sweep: unknown key 'grid'", "sweep.grids: unknown key 'lam'"):
            assert part in err
        # Region entries are read by the phantom command alone.
        assert ("phantom: regions[0]: unknown key 't1_ms'" in err) == (command == "phantom")

    @pytest.mark.parametrize("config", ["missing.json", "broken.json"])
    def test_evaluate_rejects_a_bad_config_with_its_run_directory(self, tmp_path, capsys,
                                                                   config):
        (tmp_path / "broken.json").write_text("{not json")
        rc = main(["evaluate", "--out", str(tmp_path / "run"),
                   "--config", str(tmp_path / config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "run directory not found" in err
        assert ("config file not found" in err) == (config == "missing.json")
        assert ("config is not valid JSON" in err) == (config == "broken.json")

    def test_evaluate_rejects_run_directories_that_share_a_name(self, tmp_path,
                                                                config_path, capsys):
        # Columns are keyed by directory name: a/run and b/run would share one.
        out = run_pipeline(tmp_path, config_path)
        other = tmp_path / "b" / "run"
        shutil.copytree(out, other)
        # Truncated, so a run that read the images would exit 1 instead.
        (other / "truth.bin").write_bytes((other / "truth.bin").read_bytes()[:-4])
        capsys.readouterr()
        rc = main(["evaluate", "--out", str(out), "--runs", str(other)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "run directories share the column name 'run'" in err
        assert not (out / "evaluation.json").exists()

    @pytest.mark.parametrize("command", ["reconstruct", "sweep"])
    def test_cs_on_odd_dims_is_exit_2_listing_every_violation(self, tmp_path, capsys,
                                                               command):
        cfg = {"phantom": {"height": 31, "width": 30, "echoes": 2},
               "mask": {"lines_per_echo": 8}, "params": {"lambda": "x"}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "run")
        for cmd in ("phantom", "mask", "simulate"):
            assert main([cmd, "--out", out, "--config", str(path)]) == 0
        capsys.readouterr()
        assert main([command, "--out", out, "--config", str(path),
                     "--method", "cs_analysis"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "cs_analysis: image dims 31x30 must be divisible by 2" in err
        assert "lambda must be finite and >= 0, got 'x'" in err

    @pytest.mark.parametrize("command", ["reconstruct", "sweep"])
    def test_patch_grid_off_the_dims_is_exit_2_listing_every_violation(
            self, tmp_path, config_path, capsys, command):
        out = run_pipeline(tmp_path, config_path)
        cfg = json.loads(config_path.read_text())
        cfg["params"].update(patch_size=6, patch_stride=3, **{"lambda": "x"})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        capsys.readouterr()
        rc = main([command, "--out", str(out), "--config", str(bad),
                   "--method", "tl_rowsparse"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "stride 3 must divide the image dims 32x32 on the periodic patch grid" in err
        assert "lambda must be finite and >= 0, got 'x'" in err
        assert not (out / "recon_tl_rowsparse.bin").exists()
        # The dictionary engines patch on the flush grid, which takes any stride.
        cfg["params"].update(patch_size=40, **{"lambda": 0.1})
        bad.write_text(json.dumps(cfg))
        rc = main([command, "--out", str(out), "--config", str(bad),
                   "--method", "dl_rowsparse"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "patch_size must be in [1, 32], got 40" in err and "divide" not in err

    def test_mistyped_mask_and_simulate_values_are_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mask": {"lines_per_echo": "8",
                                            "per_echo_distinct": "yes"},
                                   "noise_sigma": [0.1]}))
        out = str(tmp_path / "run")
        assert main(["mask", "--out", out, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "lines_per_echo must be an integer" in err
        assert "per_echo_distinct must be a bool, got 'yes'" in err
        assert main(["simulate", "--out", out, "--config", str(cfg)]) == 2
        assert "noise_sigma must be finite and >= 0, got [0.1]" in capsys.readouterr().err

    def test_missing_out_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["phantom"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestRunMethodDispatch:
    def test_unknown_method_rejected(self, small_kspace, fast_params):
        with pytest.raises(me.InvalidArgumentError, match="unknown method"):
            run_method("bogus", small_kspace, fast_params)

    def test_zero_filled_has_no_state(self, small_kspace, fast_params):
        out = run_method("zero_filled", small_kspace, fast_params)
        assert out.state is None and out.cost_history == []


def test_module_help_via_subprocess():
    # the child imports the same multiecho as this process, also when the
    # package is found through pytest's pythonpath setting alone
    src = str(Path(me.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "multiecho", "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    for sub in ("phantom", "mask", "simulate", "reconstruct",
                "evaluate", "export", "sweep"):
        assert sub in proc.stdout
