"""File formats: image stacks (MEF), masks, k-space, PGM export, run records."""

import json

import numpy as np
import pytest

import multiecho as me
from multiecho import (
    FormatError,
    InvalidArgumentError,
    KSpaceData,
    MultiEchoImage,
    RunRecord,
)


class TestMef:
    def test_round_trip_is_f32_exact(self, rng, tmp_path):
        data = rng.normal(size=(6, 5, 3)).astype(np.float32).astype(np.float64)
        img = MultiEchoImage(data)
        me.save_mef(tmp_path / "img", img)
        back = me.load_mef(tmp_path / "img")
        assert back.data.dtype == np.float64
        assert np.array_equal(back.data, data)

    def test_value_beyond_float32_is_refused(self, tmp_path):
        # The cast would write inf, which load_mef refuses.
        data = np.zeros((4, 5, 2))
        data[2, 3, 1] = -1e39
        with pytest.raises(InvalidArgumentError,
                           match=r"float32 cannot hold at \(row=2, col=3, echo=1\): -1e\+39"):
            me.save_mef(tmp_path / "img", MultiEchoImage(data))
        assert list(tmp_path.iterdir()) == []
        data[2, 3, 1] = float(np.finfo(np.float32).max)
        me.save_mef(tmp_path / "img", MultiEchoImage(data))
        assert np.array_equal(me.load_mef(tmp_path / "img").data, data)

    def test_header_contents(self, tmp_path):
        img = MultiEchoImage(np.zeros((4, 6, 2)))
        header_path, bin_path = me.save_mef(tmp_path / "img", img)
        header = json.loads(header_path.read_text())
        assert header == {
            "mef_version": 1,
            "height": 4,
            "width": 6,
            "echoes": 2,
            "dtype": "f32",
            "endian": "little",
            "layout": "echo-major, then row-major",
        }
        assert bin_path.stat().st_size == 4 * 6 * 2 * 4

    def test_payload_layout_golden(self, tmp_path):
        # echo-major then row-major: all of echo 0's rows first
        data = np.zeros((2, 2, 2))
        data[:, :, 0] = [[1.0, 2.0], [3.0, 4.0]]
        data[:, :, 1] = [[5.0, 6.0], [7.0, 8.0]]
        _, bin_path = me.save_mef(tmp_path / "img", MultiEchoImage(data))
        raw = np.frombuffer(bin_path.read_bytes(), dtype="<f4")
        assert raw.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]

    def test_missing_header_field(self, tmp_path):
        img = MultiEchoImage(np.zeros((2, 2, 1)))
        header_path, _ = me.save_mef(tmp_path / "img", img)
        header = json.loads(header_path.read_text())
        del header["layout"]
        header_path.write_text(json.dumps(header))
        with pytest.raises(FormatError, match="layout"):
            me.load_mef(tmp_path / "img")

    def test_wrong_version(self, tmp_path):
        img = MultiEchoImage(np.zeros((2, 2, 1)))
        header_path, _ = me.save_mef(tmp_path / "img", img)
        header = json.loads(header_path.read_text())
        header["mef_version"] = 99
        header_path.write_text(json.dumps(header))
        with pytest.raises(FormatError, match="version"):
            me.load_mef(tmp_path / "img")

    def test_truncated_payload(self, tmp_path):
        img = MultiEchoImage(np.ones((4, 4, 2)))
        _, bin_path = me.save_mef(tmp_path / "img", img)
        bin_path.write_bytes(bin_path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="expected 32 samples, found 31"):
            me.load_mef(tmp_path / "img")

    @pytest.mark.parametrize("dims, message", [
        ((-1, -1, 1), "dims must be positive, got -1x-1x1"),
        ((10**12, 1, 1), "dims 1000000000000x1x1 exceed the limit"),
        ((1.0, 1, 1), "height must be an integer, got 1.0"),
    ])
    def test_header_dims_checked_before_payload(self, tmp_path, dims, message):
        # One sample on disk: (-1) * (-1) * 1 matches its size.
        header_path, _ = me.save_mef(tmp_path / "img", MultiEchoImage(np.ones((1, 1, 1))))
        header = json.loads(header_path.read_text())
        header.update(zip(("height", "width", "echoes"), dims))
        header_path.write_text(json.dumps(header))
        with pytest.raises(FormatError, match=message):
            me.load_mef(tmp_path / "img")

    def test_non_finite_payload(self, tmp_path):
        _, bin_path = me.save_mef(tmp_path / "img", MultiEchoImage(np.ones((2, 2, 1))))
        bin_path.write_bytes(np.array([1.0, np.nan, 1.0, 1.0], dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="non-finite"):
            me.load_mef(tmp_path / "img")

    def test_every_header_violation_listed(self, tmp_path):
        header_path, _ = me.save_mef(tmp_path / "img", MultiEchoImage(np.ones((1, 1, 1))))
        header = json.loads(header_path.read_text())
        header.update(height="abc", width=1e400, endian="big")
        del header["layout"]
        header_path.write_text(json.dumps(header))
        with pytest.raises(FormatError) as err:
            me.load_mef(tmp_path / "img")
        for part in ("height must be an integer, got 'abc'", "width must be an integer, got inf",
                     "endian must be", "lacks field 'layout'"):
            assert part in str(err.value)

    def test_unreadable_header(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read header"):
            me.load_mef(tmp_path / "missing")


class TestMask:
    def test_round_trip(self, small_mask, tmp_path):
        me.save_mask(tmp_path / "mask.json", small_mask)
        back = me.load_mask(tmp_path / "mask.json")
        assert back == small_mask

    def test_json_shape(self, tmp_path):
        mask = me.generate_mask(8, 6, 4, 2, seed=3)
        p = me.save_mask(tmp_path / "mask.json", mask)
        obj = json.loads(p.read_text())
        assert list(obj.keys()) == ["height", "width", "echoes", "lines"]
        assert obj["echoes"] == 2
        assert all(sorted(rows) == rows for rows in obj["lines"])

    def test_echo_count_mismatch(self, small_mask, tmp_path):
        p = me.save_mask(tmp_path / "mask.json", small_mask)
        obj = json.loads(p.read_text())
        obj["echoes"] += 1
        p.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="disagrees"):
            me.load_mask(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "mask.json"
        p.write_text("{not json")
        with pytest.raises(FormatError, match="cannot read mask"):
            me.load_mask(p)

    def test_missing_echoes_field(self, small_mask, tmp_path):
        p = me.save_mask(tmp_path / "mask.json", small_mask)
        obj = json.loads(p.read_text())
        del obj["echoes"]
        p.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="lacks field.*echoes"):
            me.load_mask(p)

    def test_non_integer_height(self, small_mask, tmp_path):
        p = me.save_mask(tmp_path / "mask.json", small_mask)
        obj = json.loads(p.read_text())
        obj["height"] = "abc"
        p.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="height must be an integer, got 'abc'"):
            me.load_mask(p)

    @pytest.mark.parametrize("lines, message", [
        (["03", "14"], "lines must hold one sequence of line indices per echo"),
        ([[0.5, 3], [1, 4]], "echo 0 has line indices that are not integers"),
        ([[True, 3], [1, 4]], "echo 0 has line indices that are not integers"),
        ({"0": [0, 3]}, "lines must hold one sequence of line indices per echo"),
        ([[0.0, 3], [1, 4]], "echo 0 has line indices that are not integers"),
    ])
    def test_mistyped_lines(self, small_mask, tmp_path, lines, message):
        # Strings, floats and booleans used to be converted to line indices;
        # the mask rule refuses them.
        p = tmp_path / "mask.json"
        p.write_text(json.dumps({"height": 8, "width": 4, "echoes": 2, "lines": lines}))
        with pytest.raises(FormatError, match=message):
            me.load_mask(p)

    @pytest.mark.parametrize("echoes", [3, 2.0, "2", None])
    def test_echoes_field_is_the_line_list_count(self, tmp_path, echoes):
        p = tmp_path / "mask.json"
        p.write_text(json.dumps({"height": 8, "width": 4, "echoes": echoes,
                                 "lines": [[0, 3], [1, 4]]}))
        with pytest.raises(FormatError, match="echoes field disagrees with lines list"):
            me.load_mask(p)


def _set_mask_lines(path, *edits):
    """Overwrite ``lines[echo][pos] = row`` for each ``(echo, pos, row)``."""
    obj = json.loads(path.read_text())
    for echo, pos, row in edits:
        obj["lines"][echo][pos] = row
    path.write_text(json.dumps(obj))


class TestKSpace:
    def test_round_trip_f32_exact(self, small_truth, small_mask, tmp_path):
        y = me.simulate_acquisition(small_truth, small_mask, noise_sigma=0.05, seed=2)
        f32 = y.data.real.astype(np.float32).astype(np.float64) + \
            1j * y.data.imag.astype(np.float32).astype(np.float64)
        y32 = KSpaceData(np.where(small_mask.bool_view(), f32, 0.0), small_mask)
        me.save_kspace(tmp_path / "ks", y32)
        back = me.load_kspace(tmp_path / "ks")
        assert back.mask == small_mask
        assert np.array_equal(back.data, y32.data)

    def test_value_beyond_float32_is_refused(self, small_mask, tmp_path):
        data = np.zeros((32, 32, 4), dtype=np.complex128)
        row = small_mask.lines[2][1]
        data[row, 5, 2] = 1.0 + 1e39j
        with pytest.raises(InvalidArgumentError,
                           match=rf"float32 cannot hold at \(row={row}, col=5, echo=2\)"):
            me.save_kspace(tmp_path / "ks", KSpaceData(data, small_mask))
        assert list(tmp_path.iterdir()) == []

    def test_interleaved_layout_golden(self, tmp_path):
        mask = me.SamplingMask(height=2, width=2, lines=((1,), (0,)))
        data = np.zeros((2, 2, 2), dtype=np.complex128)
        data[1, :, 0] = [1 + 2j, 3 + 4j]
        data[0, :, 1] = [5 + 6j, 7 + 8j]
        me.save_kspace(tmp_path / "ks", KSpaceData(data, mask))
        raw = np.frombuffer((tmp_path / "ks.kbin").read_bytes(), dtype="<f4")
        assert raw.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]

    def test_truncated_kbin(self, small_truth, small_mask, tmp_path):
        y = me.simulate_acquisition(small_truth, small_mask)
        me.save_kspace(tmp_path / "ks", y)
        kbin = tmp_path / "ks.kbin"
        kbin.write_bytes(kbin.read_bytes()[:-8])
        with pytest.raises(FormatError, match="expected"):
            me.load_kspace(tmp_path / "ks")

    def test_line_index_out_of_range(self, small_truth, small_mask, tmp_path):
        # same number of lines, so the payload size still matches
        me.save_kspace(tmp_path / "ks", me.simulate_acquisition(small_truth, small_mask))
        _set_mask_lines(tmp_path / "ks.json", (1, -1, 99))
        with pytest.raises(FormatError, match=r"echo 1 has line indices outside \[0, 32\)"):
            me.load_kspace(tmp_path / "ks")

    def test_duplicated_line_index(self, small_truth, small_mask, tmp_path):
        me.save_kspace(tmp_path / "ks", me.simulate_acquisition(small_truth, small_mask))
        # echo 0 repeats its first row (still sorted); echo 2 leaves the grid
        _set_mask_lines(tmp_path / "ks.json", (0, 1, small_mask.lines[0][0]), (2, -1, 99))
        with pytest.raises(FormatError) as err:
            me.load_kspace(tmp_path / "ks")
        # every violation is listed, not only the first
        assert "echo 0 has duplicated line indices" in str(err.value)
        assert "echo 2 has line indices outside" in str(err.value)

    def test_non_finite_payload(self, small_truth, small_mask, tmp_path):
        me.save_kspace(tmp_path / "ks", me.simulate_acquisition(small_truth, small_mask))
        raw = np.fromfile(tmp_path / "ks.kbin", dtype="<f4")
        raw[3] = np.nan
        raw.tofile(tmp_path / "ks.kbin")
        with pytest.raises(FormatError, match="non-finite"):
            me.load_kspace(tmp_path / "ks")

    def test_off_mask_entries_zero_after_load(self, small_truth, small_mask, tmp_path):
        y = me.simulate_acquisition(small_truth, small_mask, noise_sigma=0.01, seed=0)
        me.save_kspace(tmp_path / "ks", y)
        back = me.load_kspace(tmp_path / "ks")
        assert np.all(back.data[~small_mask.bool_view()] == 0.0)


    def test_oversized_mask_fails_before_allocating(self, tmp_path):
        # 10^12 x 1 x 1 complex samples would need 16 TB; two floats match the
        # one sampled line, so only the size limit can reject it.  No such
        # SamplingMask can be built, so the file is written by hand.
        (tmp_path / "ks.json").write_text(json.dumps(
            {"height": 10**12, "width": 1, "echoes": 1, "lines": [[0]]}))
        (tmp_path / "ks.kbin").write_bytes(np.zeros(2, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="exceed the limit"):
            me.load_kspace(tmp_path / "ks")


class TestPgm:
    def test_header_and_bytes_golden(self, tmp_path):
        plane = np.array([[0.0, 0.5], [1.0, 2.0]])
        p = me.export_pgm(tmp_path / "out.pgm", plane, normalization=1.0)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        # 0 -> 0, 0.5 -> 128 (round-half-even of 127.5), 1 -> 255, 2 clamps
        assert list(raw[len(b"P5\n2 2\n255\n"):]) == [0, 128, 255, 255]

    def test_default_normalization_is_plane_max(self, tmp_path):
        plane = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = me.export_pgm(tmp_path / "out.pgm", plane)
        assert p.read_bytes()[-1] == 255

    def test_constant_plane_at_norm_max_is_all_255(self, tmp_path):
        p = me.export_pgm(tmp_path / "c.pgm", np.full((3, 3), 7.0), normalization=7.0)
        assert set(p.read_bytes()[len(b"P5\n3 3\n255\n"):]) == {255}

    def test_difference_of_identical_is_all_zero(self, tmp_path):
        ref = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = me.export_difference(tmp_path / "d.pgm", ref, ref.copy())
        assert set(p.read_bytes()[len(b"P5\n2 2\n255\n"):]) == {0}

    def test_validation(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="2-D"):
            me.export_pgm(tmp_path / "x.pgm", np.zeros(4))
        with pytest.raises(InvalidArgumentError, match="finite"):
            me.export_pgm(tmp_path / "x.pgm", np.array([[np.nan, 0.0]]))
        with pytest.raises(InvalidArgumentError, match="normalization"):
            me.export_pgm(tmp_path / "x.pgm", np.zeros((2, 2)))
        with pytest.raises(InvalidArgumentError, match="shape"):
            me.export_difference(tmp_path / "x.pgm", np.zeros((2, 2)), np.zeros((3, 2)))


class TestRunRecord:
    def test_round_trip(self, tmp_path):
        rec = RunRecord(method="dl_rowsparse", seed=3,
                        config={"mu": 0.1, "lam": 0.3},
                        cost_history=[5.0, 4.0, 3.5],
                        snr_db=17.25, snr_db_per_echo=[18.0, 16.5],
                        wall_seconds=1.5)
        p = me.save_run_record(tmp_path / "rec.json", rec)
        assert me.load_run_record(p) == rec

    def test_infinite_snr_uses_sentinel(self, tmp_path):
        rec = RunRecord(method="zero_filled", seed=0, config={},
                        snr_db=float("inf"), snr_db_per_echo=[float("inf"), 3.0])
        p = me.save_run_record(tmp_path / "rec.json", rec)
        obj = json.loads(p.read_text())
        assert obj["snr_db"] == "inf"
        assert obj["snr_db_per_echo"] == ["inf", 3.0]
        back = me.load_run_record(p)
        assert back.snr_db == float("inf")
        assert back.snr_db_per_echo == [float("inf"), 3.0]

    def test_none_snr_round_trips(self, tmp_path):
        rec = RunRecord(method="cs_analysis", seed=1, config={"lam": 0.05})
        p = me.save_run_record(tmp_path / "rec.json", rec)
        back = me.load_run_record(p)
        assert back.snr_db is None and back.snr_db_per_echo is None

    def test_malformed_record(self, tmp_path):
        p = tmp_path / "rec.json"
        p.write_text('{"method": "x"}')
        with pytest.raises(FormatError,
                           match=r"rec\.json: lacks field 'seed'; lacks field 'config'"):
            me.load_run_record(p)

    def test_identical_records_identical_bytes(self, tmp_path):
        rec = RunRecord(method="tl_rowsparse", seed=0, config={"mu": 1.0},
                        cost_history=[2.0, 1.0], snr_db=12.0,
                        snr_db_per_echo=[12.0], wall_seconds=0.0)
        p1 = me.save_run_record(tmp_path / "a.json", rec)
        p2 = me.save_run_record(tmp_path / "b.json", rec)
        assert p1.read_bytes() == p2.read_bytes()
