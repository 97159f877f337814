import argparse
import dataclasses
import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from sysident import (ModelConfig, NormConstants, Rng, TrainConfig,
                      build_model, compute_norm_constants, evaluate,
                      load_checkpoint, load_csv_dataset, save_checkpoint)
from sysident import analysis, cli, models
from sysident.layers import ACTIVATIONS
from sysident.models import FAMILIES, MODES, NORM_KINDS
from sysident.training import OPTIMIZERS, validation_loss
from sysident.cli import main
from sysident.data import (Dataset, SequenceRecord, normalize_dataset,
                           save_csv_dataset)

from test_models import diverging_mlp, u_channel_model


def run_cli(*args):
    return main([str(a) for a in args])


# 2.2 KB of arrays nested deeper than json's recursion limit
NESTED_JSON = "[" * 1100 + "]" * 1100


def write_linear_dataset(path, num_records, length, seed, gain=0.5):
    rng = Rng(seed)
    records = []
    for _ in range(num_records):
        u = rng.gaussian(length)
        y = np.zeros(length)
        y[1:] = gain * u[:-1]
        records.append(SequenceRecord(u=u, y=y))
    save_csv_dataset(Dataset(records=records), path)


def write_two_input_dataset(path):
    path.write_text("u1,u2,y1\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
    return path


def refuse_training(*args, **kwargs):
    raise AssertionError("training ran")


class TestGenerate:
    def test_chen_sample_counts(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert run_cli("generate", "chen", "--records", 20, "--length", 100,
                       "--sigma-v", 0.3, "--sigma-w", 0.3, "--seed", 1,
                       "--out", out) == 0
        text = (out / "train.csv").read_text()
        assert len(text.strip().splitlines()) == 2001   # header + 20*100 rows
        assert (out / "valid.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert manifest["command"] == "generate"

    def test_noiseless_y_equals_ystar(self, tmp_path):
        out = tmp_path / "gen"
        run_cli("generate", "chen", "--records", 2, "--length", 50,
                "--sigma-v", 0, "--sigma-w", 0, "--seed", 2, "--out", out)
        lines = (out / "train.csv").read_text().strip().splitlines()
        assert lines[0] == "u1,y1,ystar1"
        for line in lines[1:]:
            _, y, ystar = line.split(",")
            assert y == ystar

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("generate", "chen", "--records", 3, "--length", 40,
                    "--seed", 7, "--out", out)
        assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()
        assert (a / "valid.csv").read_bytes() == (b / "valid.csv").read_bytes()

    @pytest.mark.parametrize("flag,value", [
        ("--sigma-v", "nan"), ("--sigma-v", "inf"), ("--sigma-w", "nan"),
        ("--sigma-w", "inf")])
    def test_non_finite_noise_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "gen"
        assert run_cli("generate", "chen", "--records", 2, "--length", 20,
                       flag, value, "--seed", 3, "--out", out) == 2
        assert "finite" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("flag,value", [
        ("--records", 0), ("--val-records", 0), ("--length", 2)])
    def test_too_small_dataset_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "gen"
        assert run_cli("generate", "chen", "--records", 2, "--length", 20,
                       flag, value, "--seed", 3, "--out", out) == 2
        err = capsys.readouterr().err
        assert "need at least 1 record of length >= 3" in err
        assert "Traceback" not in err
        assert not list(out.iterdir())


class TestTrain:
    def test_recovers_linear_gain_through_cli(self, tmp_path):
        data = tmp_path / "train.csv"
        val = tmp_path / "val.csv"
        write_linear_dataset(data, 8, 60, seed=3)
        write_linear_dataset(val, 2, 60, seed=4)
        out = tmp_path / "run"
        code = run_cli("train", "--data", data, "--val", val, "--family", "tcn",
                       "--fir", "--hidden", 8, "--depth", 1, "--kernel-size", 1,
                       "--activation", "tanh", "--epochs", 500, "--batch-size", 2,
                       "--plateau-patience", 25, "--lr-factor", 0.5,
                       "--early-stop-patience", 200, "--seed", 5, "--out", out)
        assert code == 0
        from sysident.models import load_checkpoint
        model, _ = load_checkpoint(out / "checkpoint.json")
        hi = model.forward(np.full((1, 1, 2), 1.0), training=False)[0, 0, -1]
        lo = model.forward(np.full((1, 1, 2), -1.0), training=False)[0, 0, -1]
        assert abs((hi - lo) / 2.0 - 0.5) < 1e-3
        assert (out / "history.csv").exists()

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        code = run_cli("train", "--data", tmp_path / "absent.csv",
                       "--out", tmp_path / "o")
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("", "empty dataset file"),
        ("a,b\n1.0,2.0\n3.0,4.0\n", "no input/output columns declared"),
        ("u1,y1\n1.0,2.0\n", "dataset yields no training subsequences"),
        ("u1,y" + "1" * 140_000 + "\n1.0,2.0\n",
         "field larger than field limit"),
    ], ids=["empty_file", "no_channel_columns", "one_row",
            "header_cell_past_csv_limit"])
    def test_unusable_dataset_exit_2(self, tmp_path, capsys, text, message):
        data = tmp_path / "train.csv"
        data.write_text(text)
        out = tmp_path / "run"
        assert run_cli("train", "--data", data, "--hidden", 3, "--seed", 6,
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not list(out.iterdir())

    def test_cell_loadtxt_rejects_exit_2(self, tmp_path, capsys, monkeypatch):
        # float() reads 1_000; the one cell parser, np.loadtxt, does not
        monkeypatch.setattr(cli, "train", refuse_training)
        data = tmp_path / "train.csv"
        data.write_text("u1,y1\n1.0,2.0\n1_000,3.0\n")
        assert run_cli("train", "--data", data, "--seed", 6,
                       "--out", tmp_path / "run") == 2
        assert "malformed row at line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (("--epochs", 0), "max_epochs must be >= 1, got 0"),
        (("--subseq-len", 0), "subseq_len must be >= 2, got 0"),
        (("--subseq-len", 1), "subseq_len must be >= 2, got 1"),
        (("--batch-size", 0), "batch_size must be >= 1, got 0"),
        (("--plateau-patience", 0), "plateau_patience must be >= 1, got 0"),
        # numpy refuses the first weight array (29 TiB) outright
        (("--hidden", 10 ** 12), "too large to build"),
    ], ids=["epochs_0", "subseq_len_0", "subseq_len_1", "batch_size_0",
            "plateau_patience_0", "hidden_too_large_to_build"])
    def test_bad_training_numbers_exit_2(self, tmp_path, capsys, flags, message):
        data = tmp_path / "train.csv"
        write_linear_dataset(data, 2, 40, seed=6)
        out = tmp_path / "run"
        assert run_cli("train", "--data", data, "--hidden", 3, *flags,
                       "--seed", 6, "--out", out) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not list(out.iterdir())

    def test_column_selected_twice_exit_2(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(cli, "train", refuse_training)
        data = tmp_path / "train.csv"
        write_linear_dataset(data, 2, 40, seed=6)
        out = tmp_path / "run"
        assert run_cli("train", "--data", data, "--u-cols", "u1",
                       "--y-cols", "u1", "--seed", 6, "--out", out) == 2
        assert "'u1' is selected more than once" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lr_exit_2(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setattr(cli, "train", refuse_training)
        data = tmp_path / "train.csv"
        write_linear_dataset(data, 2, 40, seed=6)
        out = tmp_path / "run"
        assert run_cli("train", "--data", data, "--lr", value, "--seed", 6,
                       "--out", out) == 2
        assert "lr must be finite" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_validation_channel_mismatch_exit_2(self, tmp_path, capsys,
                                                 monkeypatch):
        # rejected before any training, naming both channel counts
        monkeypatch.setattr(cli, "train", refuse_training)
        data = tmp_path / "train.csv"
        write_linear_dataset(data, 2, 40, seed=6)
        val = write_two_input_dataset(tmp_path / "val.csv")
        out = tmp_path / "run"
        assert run_cli("train", "--data", data, "--val", val, "--hidden", 3,
                       "--epochs", 2, "--seed", 6, "--out", out) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("the training data has 1 inputs / 1 outputs but the "
                "validation data has 2 / 1") in err
        assert not (out / "checkpoint.json").exists()
        assert not (out / "manifest.json").exists()

    def test_non_finite_loss_exit_4(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        val = tmp_path / "val.csv"
        write_linear_dataset(data, 2, 40, seed=6)
        write_linear_dataset(val, 2, 40, seed=7)
        out = tmp_path / "run"
        # the diverged weights make numpy warn of an invalid value
        with pytest.warns(RuntimeWarning):
            assert run_cli("train", "--data", data, "--val", val, "--hidden", 3,
                           "--lr", 1e300, "--epochs", 3, "--seed", 6,
                           "--out", out) == 4
        err = capsys.readouterr().err
        assert "validation loss became non-finite at epoch 0" in err
        assert "Traceback" not in err
        assert not list(out.iterdir())     # no checkpoint, no manifest

    def test_normalize_uses_training_statistics(self, tmp_path):
        data = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        write_linear_dataset(data, 4, 40, seed=6)
        write_linear_dataset(test, 2, 40, seed=7)
        run = tmp_path / "run"
        assert run_cli("train", "--data", data, "--hidden", 3, "--epochs", 2,
                       "--normalize", "--seed", 6, "--out", run) == 0
        ckpt = run / "checkpoint.json"
        model, norm = load_checkpoint(ckpt)
        assert norm == compute_norm_constants(load_csv_dataset(data)).to_dict()
        out = tmp_path / "eval"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", test,
                       "--out", out) == 0
        for mode in MODES:
            report = json.loads(
                (out / f"report_{mode.replace('-', '_')}.json").read_text())
            direct = evaluate(model, load_csv_dataset(test, role="test"),
                              mode=mode,
                              normalization=NormConstants.from_dict(norm))
            assert report["rmse_mean"] == direct.rmse_mean

    def test_normalize_scores_validation_with_training_statistics(self,
                                                                 tmp_path):
        gen, run = tmp_path / "gen", tmp_path / "run"
        assert run_cli("generate", "chen", "--records", 4, "--val-records", 2,
                       "--length", 60, "--seed", 8, "--out", gen) == 0
        assert run_cli("train", "--data", gen / "train.csv", "--val",
                       gen / "valid.csv", "--hidden", 4, "--epochs", 1,
                       "--normalize", "--seed", 9, "--out", run) == 0
        model, norm = load_checkpoint(run / "checkpoint.json")
        valid = load_csv_dataset(gen / "valid.csv")
        with open(run / "history.csv", newline="") as fh:
            row, = csv.DictReader(fh)
        expected = validation_loss(
            model, normalize_dataset(valid, NormConstants.from_dict(norm)))
        assert float(row["valid_loss"]) == expected
        # the validation set's own statistics give another loss
        own = normalize_dataset(valid, compute_norm_constants(valid))
        assert validation_loss(model, own) != expected

    @pytest.mark.parametrize("family", ["tcn", "mlp", "lstm"])
    def test_family_dispatch(self, tmp_path, family):
        data = tmp_path / "train.csv"
        write_linear_dataset(data, 2, 40, seed=6)
        out = tmp_path / f"run_{family}"
        code = run_cli("train", "--data", data, "--family", family,
                       "--hidden", 3, "--epochs", 2, "--seed", 6, "--out", out)
        assert code == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        assert doc["config"]["family"] == family


class TestEval:
    def _oracle_setup(self, tmp_path):
        """Checkpoint realizing yhat[k+1] = u[k] plus data obeying it."""
        model = u_channel_model()
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(model, ckpt)
        rng = Rng(8)
        u = rng.gaussian(50)
        y = np.zeros(50)
        y[1:] = u[:-1]
        data = tmp_path / "test.csv"
        save_csv_dataset(Dataset(records=[SequenceRecord(u=u, y=y)]), data)
        return ckpt, data

    def test_perfect_oracle_rmse_zero(self, tmp_path):
        ckpt, data = self._oracle_setup(tmp_path)
        out = tmp_path / "eval"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data,
                       "--mode", "one-step", "--out", out) == 0
        report = json.loads((out / "report_one_step.json").read_text())
        assert report["rmse_mean"] == 0.0

    def test_feedback_free_modes_agree(self, tmp_path):
        ckpt, data = self._oracle_setup(tmp_path)
        out = tmp_path / "eval"
        run_cli("eval", "--checkpoint", ckpt, "--data", data,
                "--mode", "both", "--out", out)
        one = json.loads((out / "report_one_step.json").read_text())
        free = json.loads((out / "report_free_run.json").read_text())
        assert one["rmse_per_channel"] == free["rmse_per_channel"]

    def test_band_restricts_spectrum(self, tmp_path):
        ckpt, data = self._oracle_setup(tmp_path)
        out = tmp_path / "eval"
        run_cli("eval", "--checkpoint", ckpt, "--data", data, "--mode",
                "one-step", "--band", 0.1, 0.3, "--out", out)
        lines = (out / "spectrum_one_step.csv").read_text().strip().splitlines()
        freqs = [float(l.split(",")[0]) for l in lines[1:]]
        assert freqs and min(freqs) >= 0.1 and max(freqs) <= 0.3

    @pytest.mark.parametrize("band", [(0.3, 0.1), (0.101, 0.102), ("nan", 0.2)],
                             ids=["reversed", "no_bin", "nan"])
    def test_bad_band_exit_2(self, tmp_path, capsys, band):
        ckpt, data = self._oracle_setup(tmp_path)
        out = tmp_path / "eval"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data, "--mode",
                       "both", "--band", *band, "--out", out) == 2
        assert "band" in capsys.readouterr().err
        assert not list(out.glob("spectrum_*.csv"))
        assert not list(out.glob("report_*.json"))
        assert not list(out.glob("predictions_*.csv"))

    def test_channel_mismatch_exit_2(self, tmp_path, capsys):
        ckpt, _ = self._oracle_setup(tmp_path)
        bad = write_two_input_dataset(tmp_path / "bad.csv")
        assert run_cli("eval", "--checkpoint", ckpt, "--data", bad,
                       "--out", tmp_path / "o") == 2
        assert ("the checkpoint has 1 inputs / 1 outputs but the test data "
                "has 2 / 1") in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"u1,y1\xff\n1.0,2.0\n3.0,4.0\n",
        # far enough into the file that the header decodes without it
        b"u1,y1\n" + b"1.25,2.5\n" * 2000 + b"3.0,4.0\xff\n",
    ], ids=["header", "body"])
    def test_non_utf8_dataset_exit_2(self, tmp_path, capsys, content):
        ckpt, _ = self._oracle_setup(tmp_path)
        data = tmp_path / "bad.csv"
        data.write_bytes(content)
        out = tmp_path / "o"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data,
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{data}: not UTF-8 text" in err and "Traceback" not in err
        assert not list(out.iterdir())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_model_exit_4(self, tmp_path, capsys):
        # its one-step RMSE is finite; every mode is scored before any file
        # is written, so the free-run failure leaves none
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(diverging_mlp(), ckpt)
        data = tmp_path / "test.csv"
        write_linear_dataset(data, 1, 60, seed=4)
        out = tmp_path / "o"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data,
                       "--mode", "both", "--band", 0.1, 0.3, "--out", out) == 4
        err = capsys.readouterr().err
        assert "free-run RMSE is not finite" in err and "Traceback" not in err
        assert not list(out.iterdir())

    def test_mismatched_checkpoint_state_exit_2(self, tmp_path, capsys):
        _, data = self._oracle_setup(tmp_path)
        model = build_model(ModelConfig(family="tcn", hidden=3, norm="batch"),
                            Rng(15))
        ckpt = tmp_path / "bn.json"
        save_checkpoint(model, ckpt)
        doc = json.loads(ckpt.read_text())
        doc["state"]["blocks.0.extra.running_mean"] = \
            doc["state"]["blocks.0.bn1.running_mean"]
        ckpt.write_text(json.dumps(doc))
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data,
                       "--out", tmp_path / "o") == 2
        assert "state names" in capsys.readouterr().err

    def test_negative_warmup_exit_2(self, tmp_path, capsys):
        ckpt, data = self._oracle_setup(tmp_path)
        out = tmp_path / "o"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data,
                       "--warmup", -5, "--out", out) == 2
        assert "warmup" in capsys.readouterr().err
        assert not (out / "report_one_step.json").exists()

    @pytest.mark.parametrize("corrupt,message", [
        (lambda text: text[:len(text) // 2], "not a JSON document"),
        (lambda text: text.replace('"family"', '"famly"', 1), "famly"),
        (lambda text: text.replace('"data": "', '"data": "AAAA', 1),
         "cannot be decoded"),
        (lambda text: text.replace('"params"', '"parameters"', 1), "'params'"),
        (lambda text: text.replace('"config"', '"configuration"', 1),
         "'config'"),
        (lambda text: NESTED_JSON, "not a JSON document"),
    ], ids=["not_json", "unknown_config_key", "payload_length",
            "missing_params", "missing_config", "nested_too_deep"])
    def test_malformed_checkpoint_exit_2(self, tmp_path, capsys, corrupt,
                                         message):
        ckpt, data = self._oracle_setup(tmp_path)
        ckpt.write_text(corrupt(ckpt.read_text()))
        out = tmp_path / "o"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data,
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("tamper,message", [
        (lambda d: d["config"].update(hidden="16"), "hidden must be of type int"),
        (lambda d: d["config"].update(hidden=2.5), "hidden must be of type int"),
        (lambda d: d["config"].update(depth=True), "depth must be of type int"),
        (lambda d: d["config"].update(dropout="x"),
         "dropout must be of type float"),
        (lambda d: d["config"].update(dilations=1),
         "dilations must be of type bool"),
        (lambda d: d["normalization"].pop("y_scale"), "'y_scale'"),
        (lambda d: d.update(normalization="x"), "'normalization' is not a mapping"),
        (lambda d: d["normalization"].update(u_mean=[0.0, 0.0]),
         "'u_mean' must be a list of 1 finite numbers"),
        (lambda d: d["normalization"].update(y_mean=["1"]), "'y_mean'"),
        (lambda d: d["normalization"].update(y_mean=[float("nan")]), "'y_mean'"),
        (lambda d: d["normalization"].update(u_scale=[0.0]), "'u_scale'"),
        # an int past the float range; math.isfinite would overflow on it
        (lambda d: d["normalization"].update(u_mean=[10 ** 400]), "'u_mean'"),
        # numpy refuses the first weight array (29 TiB) outright
        (lambda d: d["config"].update(hidden=10 ** 12), "too large to build"),
    ], ids=["hidden_str", "hidden_float", "depth_bool", "dropout_str",
            "dilations_int", "norm_missing_key", "norm_not_a_mapping",
            "norm_wrong_length", "norm_str_value", "norm_nan", "norm_zero_scale",
            "norm_int_past_float_range", "hidden_too_large_to_build"])
    def test_bad_checkpoint_field_exit_2(self, tmp_path, capsys, tamper, message):
        ckpt, data = self._oracle_setup(tmp_path)
        doc = json.loads(ckpt.read_text())
        doc["normalization"] = {"u_mean": [0.0], "u_scale": [1.0],
                                "y_mean": [0.0], "y_scale": [1.0]}
        tamper(doc)
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data,
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not list(out.iterdir())

    def test_valid_normalization_accepted(self, tmp_path):
        ckpt, data = self._oracle_setup(tmp_path)
        doc = json.loads(ckpt.read_text())
        doc["normalization"] = {"u_mean": [0.5], "u_scale": [2],
                                "y_mean": [0.5], "y_scale": [2.0]}
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data,
                       "--mode", "one-step", "--warmup", 1, "--out", out) == 0
        report = json.loads((out / "report_one_step.json").read_text())
        # yhat[0] is the mean 0.5 against y[0] = 0, so skip it
        assert report["rmse_mean"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("sidecar,message", [
        ('{"segments": [[0, 100]]}', "0 <= start < stop <= 40"),
        ("{broken", "not a JSON document"),
        ('[[0, 40]]', "not a JSON object"),
        ('{"sample_rate": "fast"}', "sample_rate must be"),
        ('{"sample_rate": -5}', "sample_rate must be"),
        ('{"sample_rate": 0}', "sample_rate must be"),
        ('{"sample_rate": NaN}', "sample_rate must be"),
        (NESTED_JSON, "not a JSON document"),
    ], ids=["segment_past_end", "not_json", "not_a_mapping", "rate_not_a_number",
            "rate_negative", "rate_zero", "rate_nan", "nested_too_deep"])
    def test_malformed_sidecar_exit_2(self, tmp_path, capsys, sidecar, message):
        ckpt, _ = self._oracle_setup(tmp_path)
        data = tmp_path / "one.csv"
        write_linear_dataset(data, 1, 40, seed=17)
        (tmp_path / "one.csv.meta.json").write_text(sidecar)
        out = tmp_path / "o"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data,
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert "one.csv.meta.json" in err and message in err
        assert "Traceback" not in err and not list(out.iterdir())

    def test_predicts_each_record_once_per_mode(self, tmp_path, monkeypatch):
        model = u_channel_model()
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(model, ckpt)
        data = tmp_path / "three.csv"
        write_linear_dataset(data, 3, 40, seed=16)
        calls = {"simulate_free_run": 0, "_one_step": 0}
        records = dict(calls)
        for name in calls:
            original = getattr(models, name)

            def counted(net, x, *args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                # a (records, channels, time) free-run batch or a list of
                # equally long records
                records[_name] += len(x)
                return _fn(net, x, *args, **kwargs)
            for mod in (models, analysis, cli):
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data,
                       "--mode", "both", "--band", 0.1, 0.3,
                       "--out", tmp_path / "o") == 0
        # the three equal-length records are one batch in either mode
        assert calls == {"simulate_free_run": 1, "_one_step": 1}
        assert records == {"simulate_free_run": 3, "_one_step": 3}

        # an LSTM predicts each length group one step ahead in one forward
        lstm = build_model(ModelConfig(family="lstm", hidden=3, depth=2),
                           Rng(17))
        save_checkpoint(lstm, ckpt)
        rng = Rng(18)
        mixed = tmp_path / "mixed.csv"
        save_csv_dataset(Dataset(records=[
            SequenceRecord(u=rng.gaussian(n), y=rng.gaussian(n))
            for n in (40, 25, 40, 40)]), mixed)
        calls.update(simulate_free_run=0, _one_step=0)
        batches = []
        forward = models.SequenceNet.forward

        def counted_forward(net, x, training=False):
            batches.append(x.shape[0])
            return forward(net, x, training)
        monkeypatch.setattr(models.SequenceNet, "forward", counted_forward)
        assert run_cli("eval", "--checkpoint", ckpt, "--data", mixed,
                       "--mode", "one-step", "--out", tmp_path / "l") == 0
        assert sorted(batches) == [1, 3]
        assert calls == {"simulate_free_run": 0, "_one_step": 2}


class TestGridsearch:
    def test_six_config_grid(self, tmp_path):
        data = tmp_path / "train.csv"
        val = tmp_path / "val.csv"
        write_linear_dataset(data, 4, 40, seed=9)
        write_linear_dataset(val, 2, 40, seed=10)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "axes": {"hidden": [2, 3, 4], "kernel_size": [1, 2]},
            "base": {"family": "tcn", "depth": 1, "activation": "tanh"},
        }))
        out = tmp_path / "sweep"
        assert run_cli("gridsearch", "--grid", grid, "--data", data,
                       "--val", val, "--epochs", 3, "--seed", 11,
                       "--out", out) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 7   # header + 6 rows
        best = json.loads((out / "best.json").read_text())
        assert best["config"]["family"] == "tcn"

    @pytest.mark.parametrize("text,message", [
        ('{"axes": {"hidden": [2]}, "base": {"famly": "tcn"}}', "famly"),
        ('{"axes": {"hidden": [2]}, "base": ["tcn"]}', "must be a mapping"),
        ('{"axes": {"hiden": [2]}}', "hiden"),
        ('{"axes": {"hidden": 2}}', "non-empty list"),
        ('{"axes": ["hidden"]}', "must be a mapping"),
        ('{"base": {"family": "tcn"}}', "no 'axes'"),
        ('{"axes": {"hidden": [2]', "not a JSON document"),
        ('{"axes": {"hidden": ["4"]}}', "hidden must be of type int"),
        ('{"axes": {"hidden": [3]}, "bse": {"family": "lstm"}}',
         "unknown keys: ['bse']"),
        ('{"axes": {"hidden": [2]}, "base": {"norm": "layer"}}',
         "unknown norm kind 'layer'"),
        ('{"axes": {"hidden": [2]}, "base": {"activation": "gelu"}}',
         "unknown activation 'gelu'"),
        (NESTED_JSON, "not a JSON document"),
    ], ids=["unknown_base_field", "base_not_a_mapping", "unknown_axis",
            "axis_not_a_list", "axes_not_a_mapping", "missing_axes",
            "not_json", "axis_value_str", "unknown_top_level_key",
            "unknown_norm", "unknown_activation", "nested_too_deep"])
    def test_malformed_grid_file_exit_2(self, tmp_path, capsys, text, message):
        data = tmp_path / "train.csv"
        write_linear_dataset(data, 2, 30, seed=9)
        grid = tmp_path / "grid.json"
        grid.write_text(text)
        out = tmp_path / "sweep"
        assert run_cli("gridsearch", "--grid", grid, "--data", data,
                       "--val", data, "--epochs", 1, "--seed", 11,
                       "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_mlp_grid_file_runs_the_mlp_sweep(self, tmp_path, monkeypatch):
        class Expanded(Exception):
            pass

        def capture(configs, *args, **kwargs):
            raise Expanded(configs, kwargs)
        monkeypatch.setattr(cli, "run_grid", capture)
        grid = Path(__file__).resolve().parents[1] / "grids" / "chen_mlp.json"
        data = tmp_path / "train.csv"
        write_linear_dataset(data, 2, 30, seed=9)
        with pytest.raises(Expanded) as exc:
            run_cli("gridsearch", "--grid", grid, "--data", data,
                    "--val", data, "--out", tmp_path / "sweep")
        configs, kwargs = exc.value.args
        assert len(configs) == 70
        assert {(c.family, c.nu, c.ny) for c in configs} == {("mlp", 1, 1)}
        assert kwargs["jobs"] == 1      # by keyword, as the benchmark reads it

    def _sweep_args(self, tmp_path):
        data = tmp_path / "train.csv"
        write_linear_dataset(data, 2, 30, seed=9)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "axes": {"hidden": [2, 3]},
            "base": {"family": "tcn", "depth": 1, "activation": "tanh"},
        }))
        return ("gridsearch", "--grid", grid, "--data", data, "--epochs", 1,
                "--seed", 11)

    def test_validation_channel_mismatch_exit_2(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(cli, "run_grid", refuse_training)
        val = write_two_input_dataset(tmp_path / "val.csv")
        out = tmp_path / "sweep"
        assert run_cli(*self._sweep_args(tmp_path), "--val", val,
                       "--out", out) == 2
        assert ("the training data has 1 inputs / 1 outputs but the "
                "validation data has 2 / 1") in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("grid", [
        {"axes": {"nu": [2]}},
        {"axes": {"hidden": [2]}, "base": {"ny": 2}},
    ], ids=["nu_axis", "ny_base"])
    def test_channel_counts_other_than_the_data_exit_2(self, tmp_path, capsys,
                                                       grid):
        args = self._sweep_args(tmp_path)
        args[2].write_text(json.dumps(grid))
        out = tmp_path / "sweep"
        assert run_cli(*args, "--val", tmp_path / "train.csv",
                       "--out", out) == 2
        assert "training data has 1 / 1" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("flag,value", [
        ("--jobs", 0), ("--jobs", -3), ("--repetitions", 0),
        ("--repetitions", -1)],
        ids=["jobs_0", "jobs_negative", "repetitions_0", "repetitions_negative"])
    def test_bad_run_counts_exit_2(self, tmp_path, capsys, flag, value):
        val = tmp_path / "val.csv"
        write_linear_dataset(val, 1, 30, seed=10)
        out = tmp_path / "sweep"
        assert run_cli(*self._sweep_args(tmp_path), "--val", val, flag, value,
                       "--out", out) == 2
        name = flag.lstrip("-")
        assert f"{name} must be >= 1, got {value}" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_non_finite_lr_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_grid", refuse_training)
        out = tmp_path / "sweep"
        assert run_cli(*self._sweep_args(tmp_path), "--val",
                       tmp_path / "train.csv", "--lr", "nan", "--out", out) == 2
        assert "lr must be finite" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_normalize_is_not_a_grid_flag(self, tmp_path, capsys, monkeypatch):
        # the grid trains on the data as given, so it takes no --normalize
        monkeypatch.setattr(cli, "run_grid", refuse_training)
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            run_cli(*self._sweep_args(tmp_path), "--val",
                    tmp_path / "train.csv", "--normalize", "--out", out)
        assert exc.value.code == 2
        assert "unrecognized arguments: --normalize" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [("--epochs", 3), ("--lr", 0.05)],
                             ids=["epochs", "lr"])
    def test_changed_training_flags_rerun_every_config(self, tmp_path, flags):
        # --epochs 2 first, then the changed flag into the same --out
        args = (*self._sweep_args(tmp_path), "--val", tmp_path / "train.csv",
                "--epochs", 2)
        assert run_cli(*args, "--out", tmp_path / "a") == 0
        assert run_cli(*args, *flags, "--out", tmp_path / "a") == 0
        assert run_cli(*args, *flags, "--out", tmp_path / "b") == 0

        def rows(name):
            with open(tmp_path / name / "results.csv", newline="") as fh:
                return [row[:-1] for row in csv.reader(fh)]   # no wall_clock
        assert rows("a") == rows("b")
        assert len((tmp_path / "a" / "journal.csv").read_text().splitlines()) == 4

    def test_corrupt_journal_exit_2(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        val = tmp_path / "val.csv"
        write_linear_dataset(data, 2, 30, seed=9)
        write_linear_dataset(val, 1, 30, seed=10)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "axes": {"hidden": [2, 3]},
            "base": {"family": "tcn", "depth": 1, "activation": "tanh"},
        }))
        out = tmp_path / "sweep"
        args = ("gridsearch", "--grid", grid, "--data", data, "--val", val,
                "--epochs", 2, "--seed", 11, "--out", out)
        assert run_cli(*args) == 0
        journal = out / "journal.csv"
        journal.write_text("0,0,{torn\n" + journal.read_text())
        assert run_cli(*args) == 2
        assert "malformed journal line 1" in capsys.readouterr().err


class TestVolterra:
    def _fir_checkpoint(self, tmp_path, activation="tanh"):
        cfg = ModelConfig(family="mlp", narx=False, hidden=5, depth=1,
                          order=3, activation=activation)
        model = build_model(cfg, Rng(12))
        rng = Rng(13)
        for _, p in model.named_parameters():
            p[...] = rng.uniform(-0.5, 0.5, p.shape)
        path = tmp_path / "fir.json"
        save_checkpoint(model, path)
        return path

    def test_kernels_with_verification(self, tmp_path):
        ckpt = self._fir_checkpoint(tmp_path)
        out = tmp_path / "volterra"
        assert run_cli("volterra", "--checkpoint", ckpt, "--degree", 2,
                       "--verify", "--out", out) == 0
        h1 = (out / "h1.csv").read_text().strip().splitlines()
        assert len(h1) == 4          # header + 3 lags
        h2 = (out / "h2.csv").read_text().strip().splitlines()
        assert len(h2) == 4          # header + 3 rows

    def test_degree_1_verifies(self, tmp_path):
        ckpt = self._fir_checkpoint(tmp_path)
        out = tmp_path / "volterra"
        assert run_cli("volterra", "--checkpoint", ckpt, "--degree", 1,
                       "--verify", "--out", out) == 0
        assert (out / "h1.csv").exists() and not (out / "h2.csv").exists()

    @pytest.mark.parametrize("degree,code", [(0, 2), (-1, 2), (3, 3)])
    def test_degree_out_of_range(self, tmp_path, capsys, degree, code):
        ckpt = self._fir_checkpoint(tmp_path)
        out = tmp_path / "o"
        assert run_cli("volterra", "--checkpoint", ckpt, "--degree", degree,
                       "--out", out) == code
        assert "degree" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_failed_verification_exit_4(self, tmp_path, capsys, monkeypatch):
        def shifted_oracle(model, degree=2):
            # an oracle one lag off: its h1 disagrees with the extraction
            kernels = analysis.fd_volterra_oracle(model, degree=degree)
            return dataclasses.replace(kernels, h1=np.roll(kernels.h1, 1))

        monkeypatch.setattr(cli, "fd_volterra_oracle", shifted_oracle)
        ckpt = self._fir_checkpoint(tmp_path)
        out = tmp_path / "volterra"
        assert run_cli("volterra", "--checkpoint", ckpt, "--verify",
                       "--out", out) == 4
        err = capsys.readouterr().err
        assert "deviate from the finite-difference oracle" in err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_relu_checkpoint_exit_3(self, tmp_path, capsys):
        ckpt = self._fir_checkpoint(tmp_path, activation="relu")
        assert run_cli("volterra", "--checkpoint", ckpt, "--verify",
                       "--out", tmp_path / "o") == 3

    def test_fir_tcn_kernels_verify(self, tmp_path):
        cfg = ModelConfig(family="tcn", narx=False, hidden=4, depth=2,
                          kernel_size=2, dilations=True, norm="batch",
                          activation="tanh")
        model = build_model(cfg, Rng(14))
        rng = Rng(15)
        for _, p in model.named_parameters():
            p[...] = rng.uniform(-1.0, 1.0, p.shape)
        ckpt = tmp_path / "tcn.json"
        save_checkpoint(model, ckpt)
        out = tmp_path / "volterra"
        assert run_cli("volterra", "--checkpoint", ckpt, "--verify",
                       "--out", out) == 0
        memory = model.receptive_field           # 1 + 2 * (1 + 2) = 7
        h2 = (out / "h2.csv").read_text().strip().splitlines()
        assert len(h2) == 1 + memory
        assert all(len(row.split(",")) == memory for row in h2)

    @pytest.mark.parametrize("config", [
        dict(family="lstm", narx=False, hidden=4),
        dict(family="tcn", narx=False, hidden=4, depth=2, activation="relu"),
    ], ids=["lstm", "relu-tcn"])
    def test_unsupported_checkpoint_exit_3(self, tmp_path, capsys, config):
        ckpt = tmp_path / "model.json"
        save_checkpoint(build_model(ModelConfig(**config), Rng(16)), ckpt)
        out = tmp_path / "o"
        assert run_cli("volterra", "--checkpoint", ckpt, "--verify",
                       "--out", out) == 3
        assert "error:" in capsys.readouterr().err
        assert not list(out.glob("h*.csv"))


def test_eval_numeric_outputs_reproducible(tmp_path):
    model = u_channel_model()
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(model, ckpt)
    rng = Rng(14)
    u = rng.gaussian(30)
    y = np.zeros(30)
    y[1:] = u[:-1]
    data = tmp_path / "d.csv"
    save_csv_dataset(Dataset(records=[SequenceRecord(u=u, y=y)]), data)
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        run_cli("eval", "--checkpoint", ckpt, "--data", data, "--mode",
                "one-step", "--seed", 0, "--out", out)
        outs.append((out / "predictions_one_step.csv").read_bytes())
    assert outs[0] == outs[1]


class TestFlagsComeFromConfigTypes:
    def _subcommand_actions(self, name):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return {a.dest: a for a in sub.choices[name]._actions}

    def test_train_defaults_are_config_defaults(self):
        args = cli.build_parser().parse_args(["train", "--data", "d.csv"])
        assert cli._model_config_from_args(args, 1, 1) == ModelConfig()
        assert cli._train_config_from_args(args, 17) == TrainConfig(seed=17)

    def test_gridsearch_defaults_are_config_defaults(self):
        args = cli.build_parser().parse_args(
            ["gridsearch", "--grid", "g.json", "--data", "d.csv",
             "--val", "v.csv"])
        assert cli._train_config_from_args(args, 17) == TrainConfig(seed=17)

    @pytest.mark.parametrize("command,dest,owner", [
        ("train", "family", FAMILIES), ("train", "norm", NORM_KINDS),
        ("train", "activation", ACTIVATIONS),
        ("train", "optimizer", tuple(OPTIMIZERS)),
        ("gridsearch", "optimizer", tuple(OPTIMIZERS)),
        ("gridsearch", "metric", MODES), ("eval", "mode", (*MODES, "both"))])
    def test_choices_are_the_owning_tuple(self, command, dest, owner):
        assert tuple(self._subcommand_actions(command)[dest].choices) == owner
