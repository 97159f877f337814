import csv
import json
import math
import warnings

import numpy as np
import pytest

from sysident import (NoiseSpec, Rng, generate_held_gaussian_input,
                      load_csv_dataset, make_chen_dataset, normalize_dataset,
                      save_csv_dataset, simulate_chen)
from sysident.data import (Dataset, SequenceRecord, compute_norm_constants,
                           denormalize_output)
from sysident.errors import (DataError, NumericError, ParameterError,
                             SchemaError)

NO_NOISE = NoiseSpec(0.0, 0.0)

# cells float() and the bulk parser both read: spaces, quotes, signed zero,
# a subnormal, explicit plus, bare dots; CRLF and LF lines, blank lines, an
# unselected column holding text, and a header out of the selection's order
AWKWARD_CSV = ('"y1", u2 ,note,u1\r\n'
               ' 1.5 ,"-0.0",x,+1.5\r\n'
               '\r\n'
               '1e-320,1.,"a,b",.5\r\n'
               '\n'
               '"  2.25 ",-1e-5, ,7\n')


def float_rows(path, cols):
    """Reference parser: the selected cells of each non-empty row by float()."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        idx = [header.index(c) for c in cols]
        return np.array([[float(row[i]) for i in idx] for row in reader if row])


class TestSimulateChen:
    def test_pure_input_step(self):
        # zero past, u[k-1]=1, u[k-2]=0: all state terms vanish -> y[k]=1
        rec = simulate_chen([0.0, 1.0, 0.0], NO_NOISE, Rng(0))
        assert rec.y[0, 2] == 1.0

    def test_state_term(self):
        # u=[1,0,0] reaches y*[1]=1, y*[0]=0; at k=2 the state contributes
        # (0.8 - 0.5 e^{-1}) and the input tail 0.2*u[0]
        rec = simulate_chen([1.0, 0.0, 0.0], NO_NOISE, Rng(0))
        assert rec.y[0, 1] == 1.0
        state_only = rec.y[0, 2] - 0.2 * 1.0
        assert state_only == pytest.approx(0.8 - 0.5 * math.exp(-1.0), abs=1e-15)
        assert state_only == pytest.approx(0.6160602794142788, abs=1e-12)

    def test_cross_term(self):
        # u[k-1]=u[k-2]=1 contributes 1 + 0.2 + 0.1 = 1.3 on top of the state
        # terms; with u=[1,1,0] the state at k=2 is y*[1]=1, y*[0]=0
        rec = simulate_chen([1.0, 1.0, 0.0], NO_NOISE, Rng(0))
        assert rec.y_clean[0, 1] == 1.0
        e = math.exp(-1.0)
        state_part = (0.8 - 0.5 * e) * 1.0 - (0.3 + 0.9 * e) * 0.0
        assert rec.y[0, 2] == pytest.approx(state_part + 1.3, abs=1e-15)

    def test_bit_reproducible(self):
        noise = NoiseSpec(0.3, 0.3)
        u = generate_held_gaussian_input(200, 5, Rng(1))
        a = simulate_chen(u, noise, Rng(2))
        b = simulate_chen(u, noise, Rng(2))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.y_clean, b.y_clean)

    def test_noiseless_output_equals_clean(self):
        u = generate_held_gaussian_input(100, 5, Rng(3))
        rec = simulate_chen(u, NO_NOISE, Rng(4))
        assert np.array_equal(rec.y, rec.y_clean)

    def test_bounded_input_stays_bounded(self):
        rng = Rng(5)
        u = np.clip(rng.gaussian(10 ** 5), -1.0, 1.0)
        rec = simulate_chen(u, NO_NOISE, rng)
        assert np.max(np.abs(rec.y_clean)) < 10.0

    def test_blow_up_raises_diagnostic(self):
        # the u[k-1]u[k-2] cross term alone exceeds the guard at this drive
        with pytest.raises(NumericError, match="sample"):
            simulate_chen(np.full(10, 1e4), NO_NOISE, Rng(6))


class TestHeldGaussianInput:
    def test_hold_one_is_white(self):
        u = generate_held_gaussian_input(50, 1, Rng(7))
        assert len(np.unique(u)) == 50

    def test_hold_five_runs(self):
        u = generate_held_gaussian_input(10, 5, Rng(8))
        assert len(np.unique(u)) == 2
        assert np.all(u[:5] == u[0]) and np.all(u[5:] == u[5])

    def test_deterministic(self):
        assert np.array_equal(generate_held_gaussian_input(40, 5, Rng(9)),
                              generate_held_gaussian_input(40, 5, Rng(9)))

    def test_truncates_to_length(self):
        assert generate_held_gaussian_input(13, 5, Rng(10)).shape == (13,)

    def test_bad_hold(self):
        with pytest.raises(ParameterError):
            generate_held_gaussian_input(10, 0, Rng(0))


class TestMakeChenDataset:
    def test_sample_count(self):
        ds = make_chen_dataset(20, 100, NoiseSpec(0.3, 0.3), seed=1)
        assert len(ds.records) == 20
        assert ds.num_samples == 2000

    def test_noiseless_clean(self):
        ds = make_chen_dataset(3, 50, NO_NOISE, seed=2)
        for rec in ds.records:
            assert np.array_equal(rec.y, rec.y_clean)

    def test_records_are_distinct_and_weakly_correlated(self):
        ds = make_chen_dataset(6, 100, NO_NOISE, seed=4)
        us = [r.u[0] for r in ds.records]
        corrs = []
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                assert not np.array_equal(us[i], us[j])
                corrs.append(abs(np.corrcoef(us[i], us[j])[0, 1]))
        # held-5 inputs have ~20 effective draws; average over pairs stays low
        assert np.mean(corrs) < 0.2

    def test_reproducible(self):
        a = make_chen_dataset(2, 30, NoiseSpec(0.1, 0.1), seed=4)
        b = make_chen_dataset(2, 30, NoiseSpec(0.1, 0.1), seed=4)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.y, rb.y)


class TestDataset:
    @pytest.mark.parametrize("channels,role,message", [
        ([], "training", "at least one record"),
        ([(1, 1), (2, 1)], "training", r"record 1 has \(nu, ny\) = \(2, 1\)"),
        ([(2, 1), (2, 1), (2, 2)], "test", r"record 2 has \(nu, ny\) = \(2, 2\)"),
        ([(1, 1)], "bogus", "unknown dataset role 'bogus'"),
    ], ids=["no_records", "nu_differs", "ny_differs", "unknown_role"])
    def test_invalid_dataset_rejected(self, channels, role, message):
        records = [SequenceRecord(u=np.zeros((nu, 5)), y=np.zeros((ny, 5)))
                   for nu, ny in channels]
        with pytest.raises(DataError, match=message):
            Dataset(records=records, role=role)


class TestCsvRoundTrip:
    def test_small_file(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("u1,y1\n1.0,2.0\n3.0,4.0\n5.5,6.5\n-1.0,0.25\n0.0,9.0\n")
        ds = load_csv_dataset(path)
        assert len(ds.records) == 1
        assert ds.records[0].length == 5
        assert ds.records[0].u[0, 0] == 1.0
        assert ds.records[0].y[0, 4] == 9.0

    def test_multichannel_layout(self, tmp_path):
        # aircraft-benchmark style: 2 inputs, 3 outputs
        path = tmp_path / "f16.csv"
        header = "u1,u2,y1,y2,y3"
        rows = ["%f,%f,%f,%f,%f" % tuple(range(i, i + 5)) for i in range(4)]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        ds = load_csv_dataset(path)
        rec = ds.records[0]
        assert rec.u.shape == (2, 4)
        assert rec.y.shape == (3, 4)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u1,y1\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"u1,y1\n1.0,2.0\n1.0,{value}\n")
        with pytest.raises(DataError, match="non-finite value at line 3"):
            load_csv_dataset(path)

    @pytest.mark.parametrize("cols", [
        dict(u_cols=["u1", "u2"], y_cols=["y1"]),
        dict(u_cols=["u2", "u1"], y_cols=["y1"]),
    ], ids=["u1_first", "u2_first"])
    def test_bulk_parse_equals_float_per_row_on_awkward_cells(self, tmp_path,
                                                               cols):
        path = tmp_path / "awkward.csv"
        path.write_bytes(AWKWARD_CSV.encode())
        rec = load_csv_dataset(path, **cols).records[0]
        ref = float_rows(path, cols["u_cols"] + cols["y_cols"])
        assert rec.u.tobytes() == ref[:, :2].T.tobytes()
        assert rec.y.tobytes() == ref[:, 2:].T.tobytes()
        assert np.signbit(rec.u[cols["u_cols"].index("u2"), 0])   # -0.0 kept
        assert rec.u.strides == ref[:, :2].copy().T.strides

    def test_bulk_parse_equals_float_per_row_on_written_dataset(self,
                                                                tmp_path):
        # save_csv_dataset adds the unselected ystar1 column
        path = tmp_path / "chen.csv"
        save_csv_dataset(make_chen_dataset(1, 500, NoiseSpec(0.3, 0.3), 8), path)
        rec = load_csv_dataset(path).records[0]
        ref = float_rows(path, ["u1", "y1"])
        assert rec.u.tobytes() == ref[:, :1].T.tobytes()
        assert rec.y.tobytes() == ref[:, 1:].T.tobytes()

    @pytest.mark.parametrize("cell,message", [
        ("oops", "malformed row at line 5"),
        ("1_000", "malformed row at line 5"),   # float() reads it, loadtxt not
        ("", "malformed row at line 5"),
        ("nan", "non-finite value at line 5"),
        ("1e999", "non-finite value at line 5"),
    ])
    def test_error_line_counts_blank_lines(self, tmp_path, cell, message):
        path = tmp_path / "gaps.csv"
        path.write_text(f"u1,y1\n1.0,2.0\n\n\r\n1.0,{cell}\n3.0,4.0\n")
        with pytest.raises(DataError, match=message):
            load_csv_dataset(path)

    @pytest.mark.parametrize("text", ["u1,y1\n", "u1,y1", "u1,y1\n\n\r\n"],
                             ids=["header_line", "no_newline", "blank_lines"])
    def test_no_data_rows_schema_error_without_warning(self, tmp_path, text):
        path = tmp_path / "header_only.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError, match="no data rows"):
                load_csv_dataset(path)

    def test_missing_column_schema_error(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("u1,y1\n1.0,2.0\n")
        with pytest.raises(SchemaError, match="u2"):
            load_csv_dataset(path, u_cols=["u1", "u2"], y_cols=["y1"])

    @pytest.mark.parametrize("header,cols,message", [
        ("u1,y1,u1", {}, "'u1' appears more than once in the header"),
        ("u1,y1,u1", dict(u_cols=["u1"], y_cols=["y1"]),
         "'u1' appears more than once in the header"),
        ("u1,u2,y1", dict(u_cols=["u1", "u1"], y_cols=["y1"]),
         "'u1' is selected more than once"),
        ("u1,y1", dict(u_cols=["u1"], y_cols=["u1"]),
         "'u1' is selected more than once"),
    ], ids=["header_default", "header_named", "twice_in_u", "in_u_and_y"])
    def test_duplicate_column_schema_error(self, tmp_path, header, cols,
                                           message):
        path = tmp_path / "dup.csv"
        width = header.count(",") + 1
        path.write_text(header + "\n" + ",".join(["1.0"] * width) + "\n")
        with pytest.raises(SchemaError, match=message):
            load_csv_dataset(path, **cols)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv_dataset(tmp_path / "nope.csv")

    def test_save_load_exact_round_trip(self, tmp_path):
        ds = make_chen_dataset(3, 40, NoiseSpec(0.3, 0.3), seed=5)
        path = tmp_path / "chen.csv"
        save_csv_dataset(ds, path)
        loaded = load_csv_dataset(path, role="training")
        assert len(loaded.records) == 3      # segments survive via the sidecar
        for orig, back in zip(ds.records, loaded.records):
            assert np.array_equal(orig.u, back.u)
            assert np.array_equal(orig.y, back.y)

    def test_save_load_keeps_sample_rate(self, tmp_path):
        rng = Rng(31)
        ds = Dataset(records=[SequenceRecord(u=rng.gaussian(n),
                                             y=rng.gaussian(n),
                                             sample_rate=610.35)
                              for n in (12, 7)])
        path = tmp_path / "rated.csv"
        save_csv_dataset(ds, path)
        assert [r.sample_rate for r in load_csv_dataset(path).records] == \
            [610.35, 610.35]

    def _with_sidecar(self, tmp_path, sidecar):
        path = tmp_path / "rows.csv"
        path.write_text("u1,y1\n" + "".join(f"{k}.0,{k}.5\n" for k in range(30)))
        (tmp_path / "rows.csv.meta.json").write_text(sidecar)
        return path

    def test_sidecar_segments_split_records(self, tmp_path):
        path = self._with_sidecar(tmp_path, '{"segments": [[0, 12], [12, 30]]}')
        lengths = [r.length for r in load_csv_dataset(path).records]
        assert lengths == [12, 18]

    @pytest.mark.parametrize("segments", [
        [[0, 100]],                 # past the last row
        [[-1, 10]],                 # before the first row
        [[5, 5]],                   # empty
        [[20, 10]],                 # reversed
        [[0, 20], [10, 30]],        # overlapping
        [[10, 20], [0, 10]],        # out of order
        [[0, 10.0]],                # not an integer
        [[0, True]],                # a boolean is no row number
        [[0, 10, 20]],              # not a pair
        [10, 20],                   # not a list of pairs
        {"0": 10},                  # not a list
    ])
    def test_bad_sidecar_segments_rejected(self, tmp_path, segments):
        path = self._with_sidecar(tmp_path, json.dumps({"segments": segments}))
        with pytest.raises(DataError, match=r"rows\.csv\.meta\.json"):
            load_csv_dataset(path)

    @pytest.mark.parametrize("rate", [50, 12.5])
    def test_sidecar_sample_rate_kept(self, tmp_path, rate):
        path = self._with_sidecar(tmp_path, json.dumps({"sample_rate": rate}))
        assert load_csv_dataset(path).records[0].sample_rate == rate

    @pytest.mark.parametrize("rate", [
        '"fast"', "-5", "0", "0.0", "true", "NaN", "Infinity", "-Infinity",
        "[10]", pytest.param("1" + "0" * 400, id="int_beyond_float"),
    ])
    def test_bad_sample_rate_rejected(self, tmp_path, rate):
        path = self._with_sidecar(tmp_path, '{"sample_rate": %s}' % rate)
        with pytest.raises(DataError, match=r"rows\.csv\.meta\.json: sample_rate"):
            load_csv_dataset(path)

    @pytest.mark.parametrize("sidecar,message", [
        ("{broken", "not a JSON document"),
        ("[[0, 30]]", "not a JSON object"),
    ])
    def test_malformed_sidecar_rejected(self, tmp_path, sidecar, message):
        path = self._with_sidecar(tmp_path, sidecar)
        with pytest.raises(DataError, match=message):
            load_csv_dataset(path)

    def test_ystar_column_written_for_clean_records(self, tmp_path):
        ds = make_chen_dataset(1, 10, NO_NOISE, seed=6)
        path = tmp_path / "clean.csv"
        save_csv_dataset(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "u1,y1,ystar1"


class TestNormalization:
    def test_standardized_data_unchanged(self):
        rng = Rng(11)
        recs = [SequenceRecord(u=rng.gaussian(4000), y=rng.gaussian(4000))]
        ds = Dataset(records=recs)
        # force exactly standardized channels
        u = (recs[0].u - recs[0].u.mean()) / recs[0].u.std()
        y = (recs[0].y - recs[0].y.mean()) / recs[0].y.std()
        ds = Dataset(records=[SequenceRecord(u=u, y=y)])
        out = normalize_dataset(ds, compute_norm_constants(ds))
        assert np.allclose(out.records[0].u, u, atol=1e-12)
        assert np.allclose(out.records[0].y, y, atol=1e-12)

    def test_constant_offset_removed(self):
        rng = Rng(12)
        u = rng.gaussian(500) + 7.0
        ds = Dataset(records=[SequenceRecord(u=u, y=rng.gaussian(500))])
        out = normalize_dataset(ds, compute_norm_constants(ds))
        assert abs(out.records[0].u.mean()) < 1e-12

    def test_validation_uses_training_constants(self):
        train = Dataset(records=[SequenceRecord(u=Rng(13).gaussian(400) + 1.0,
                                                y=Rng(14).gaussian(400))])
        valid = Dataset(records=[SequenceRecord(u=Rng(15).gaussian(400) + 3.0,
                                                y=Rng(16).gaussian(400))],
                        role="validation")
        consts = compute_norm_constants(train)
        out = normalize_dataset(valid, consts)
        own = normalize_dataset(valid, compute_norm_constants(valid))
        # transformed with foreign constants: mean stays away from 0
        assert abs(out.records[0].u.mean()) > 0.5
        assert abs(own.records[0].u.mean()) < 1e-12

    def test_round_trip_within_tolerance(self):
        rng = Rng(17)
        rec = SequenceRecord(u=rng.gaussian(300, mean=2.0, std=4.0),
                             y=rng.gaussian(300, mean=-1.0, std=0.5))
        ds = Dataset(records=[rec])
        consts = compute_norm_constants(ds)
        out = normalize_dataset(ds, consts)
        back = denormalize_output(out.records[0].y, consts)
        assert np.allclose(back, rec.y, atol=1e-12)

    def test_clean_output_mapped_like_the_output(self):
        ds = make_chen_dataset(2, 60, NoiseSpec(0.1, 0.1), seed=19)
        consts = compute_norm_constants(ds)
        for orig, out in zip(ds.records, normalize_dataset(ds, consts).records):
            assert np.array_equal(
                out.y_clean, (orig.y_clean - consts.y_mean[:, None])
                / consts.y_scale[:, None])

    def test_zero_variance_channel_rejected(self):
        ds = Dataset(records=[SequenceRecord(u=np.ones(50), y=Rng(18).gaussian(50))])
        with pytest.raises(DataError, match="zero-variance"):
            compute_norm_constants(ds)


def test_noise_spec_validation():
    with pytest.raises(ParameterError):
        NoiseSpec(sigma_v=-0.1)
