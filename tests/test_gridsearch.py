import csv
import json
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from sysident import (GridRow, ModelConfig, NoiseSpec, Rng, TrainConfig,
                      derive_seed, grid_expand, load_grid, make_chen_dataset,
                      marginal_quartiles, run_grid, select_best)
from sysident import analysis, gridsearch
from sysident.data import write_csv
from sysident.errors import ConfigError, DataError

GRIDS = Path(__file__).resolve().parents[1] / "grids"


class TestGridExpand:
    def test_product_count(self):
        configs = grid_expand({"hidden": [1, 2], "order": [3, 4, 5]},
                              ModelConfig(family="mlp"))
        assert len(configs) == 6
        assert {c.family for c in configs} == {"mlp"}

    def test_toy_tcn_space_size(self):
        # 5 hidden x 4 dropout x 4 blocks x 4 kernel x 2 dilation x 3 norm
        configs = load_grid(GRIDS / "chen_tcn.json", 1, 1)
        assert len(configs) == 1920
        assert {c.family for c in configs} == {"tcn"}

    def test_other_canned_spaces(self):
        for name, nu, ny, size, family in [
                ("chen_mlp", 1, 1, 5 * 7 * 2, "mlp"),
                ("chen_lstm", 1, 1, 4 * 3 * 4, "lstm"),
                ("f16_tcn", 2, 3, 4 * 4 * 4 * 4 * 2 * 3, "tcn")]:
            configs = load_grid(GRIDS / f"{name}.json", nu, ny)
            assert len(configs) == size, name
            assert {(c.family, c.nu, c.ny) for c in configs} == \
                {(family, nu, ny)}, name

    def test_single_value_axes(self):
        assert len(grid_expand({"hidden": [8]})) == 1

    def test_lexicographic_axis_order(self):
        configs = grid_expand({"hidden": [1, 2], "depth": [3, 4]})
        # axes sorted by name: depth varies slowest
        assert [ (c.depth, c.hidden) for c in configs ] == \
            [(3, 1), (3, 2), (4, 1), (4, 2)]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="non-empty list"):
            grid_expand({"hidden": []})

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="hiden"):
            grid_expand({"hidden": [2], "hiden": [4]})


def tiny_datasets():
    train = make_chen_dataset(6, 60, NoiseSpec(0.2, 0.2), seed=30)
    valid = make_chen_dataset(2, 60, NoiseSpec(0.2, 0.2), seed=31,
                              role="validation")
    return train, valid


def tiny_train_config(seed=5):
    return TrainConfig(max_epochs=4, batch_size=4, subseq_len=60, seed=seed,
                       early_stop_patience=4)


class TestRunGrid:
    def test_two_config_grid(self, tmp_path):
        train, valid = tiny_datasets()
        axes = {"hidden": [3, 4]}
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        configs = grid_expand(axes, base)
        rows = run_grid(configs, train, valid, tiny_train_config())
        assert len(rows) == 2
        assert all(r.status == "ok" for r in rows)
        assert all(r.rmse_one_step > 0 for r in rows)
        again = run_grid(configs, train, valid, tiny_train_config())
        assert [r.rmse_one_step for r in again] == [r.rmse_one_step for r in rows]

    def test_journal_resume_skips_completed(self, tmp_path):
        train, valid = tiny_datasets()
        axes = {"hidden": [3, 4]}
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        configs = grid_expand(axes, base)
        journal = tmp_path / "journal.csv"
        sentinel = GridRow(index=0, repetition=0,
                           config=configs[0].to_dict(),
                           train_config=asdict(tiny_train_config()),
                           seed=derive_seed(tiny_train_config().seed, 0, 0),
                           status="ok", rmse_one_step=42.0,
                           rmse_free_run=43.0, best_epoch=0, wall_clock=0.0)
        from sysident.gridsearch import _journal_append
        _journal_append(journal, sentinel)
        rows = run_grid(configs, train, valid, tiny_train_config(),
                        journal_path=journal)
        assert len(rows) == 2
        assert rows[0].rmse_one_step == 42.0   # replayed, not retrained
        assert rows[1].rmse_one_step != 42.0

    def test_changed_grid_reruns_instead_of_reusing_rows(self, tmp_path):
        train, valid = tiny_datasets()
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        journal = tmp_path / "journal.csv"
        run_grid(grid_expand({"hidden": [2, 3]}, base), train, valid,
                 tiny_train_config(), journal_path=journal)
        changed = grid_expand({"hidden": [5, 6]}, base)
        rows = run_grid(changed, train, valid, tiny_train_config(),
                        journal_path=journal)
        fresh = run_grid(changed, train, valid, tiny_train_config())
        assert [r.config["hidden"] for r in rows] == [5, 6]
        assert [r.rmse_one_step for r in rows] == \
               [r.rmse_one_step for r in fresh]
        # the journal now holds both grids, and a rerun appends nothing
        again = run_grid(changed, train, valid, tiny_train_config(),
                         journal_path=journal)
        assert [r.rmse_one_step for r in again] == \
               [r.rmse_one_step for r in rows]
        assert len(journal.read_text().splitlines()) == 4

    def test_torn_final_journal_line_reruns_that_config(self, tmp_path):
        train, valid = tiny_datasets()
        axes = {"hidden": [3, 4]}
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        configs = grid_expand(axes, base)
        journal = tmp_path / "journal.csv"
        rows = run_grid(configs, train, valid, tiny_train_config(),
                        journal_path=journal)
        text = journal.read_bytes()
        journal.write_bytes(text[:-25])     # a crash cut the last append
        resumed = run_grid(configs, train, valid, tiny_train_config(),
                           journal_path=journal)
        assert [(r.index, r.rmse_one_step) for r in resumed] == \
               [(r.index, r.rmse_one_step) for r in rows]
        lines = journal.read_bytes().splitlines(keepends=True)
        assert len(lines) == 2 and all(
            line.endswith(b"\n") and not line.endswith(b"\r\n") for line in lines)

    def test_crlf_journal_resumes_without_retraining(self, tmp_path,
                                                     monkeypatch):
        # journals written before lines ended in a bare newline used CRLF
        train, valid = tiny_datasets()
        axes = {"hidden": [3, 4]}
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        configs = grid_expand(axes, base)
        journal = tmp_path / "journal.csv"
        rows = run_grid(configs, train, valid, tiny_train_config(),
                        journal_path=journal)
        crlf = journal.read_bytes().replace(b"\n", b"\r\n")
        journal.write_bytes(crlf)

        def refuse_training(*args, **kwargs):
            raise AssertionError("training ran")
        monkeypatch.setattr(gridsearch, "train", refuse_training)
        resumed = run_grid(configs, train, valid, tiny_train_config(),
                           journal_path=journal)
        assert [(r.index, r.seed, r.status, r.rmse_one_step, r.rmse_free_run,
                 r.best_epoch) for r in resumed] == \
               [(r.index, r.seed, r.status, r.rmse_one_step, r.rmse_free_run,
                 r.best_epoch) for r in rows]
        assert journal.read_bytes() == crlf

    def test_malformed_earlier_journal_line_rejected(self, tmp_path):
        train, valid = tiny_datasets()
        axes = {"hidden": [3, 4]}
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        configs = grid_expand(axes, base)
        journal = tmp_path / "journal.csv"
        run_grid(configs, train, valid, tiny_train_config(),
                 journal_path=journal)
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(lines[0][:-25] + b"\r\n" + lines[1])
        with pytest.raises(DataError, match="line 1"):
            run_grid(configs, train, valid, tiny_train_config(),
                     journal_path=journal)

    def test_changed_training_settings_rerun_every_config(self, tmp_path,
                                                           monkeypatch):
        train, valid = tiny_datasets()
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        configs = grid_expand({"hidden": [3, 4]}, base)
        journal = tmp_path / "journal.csv"
        run_grid(configs, train, valid, tiny_train_config(),
                 journal_path=journal)
        trained = []
        original = gridsearch.train

        def counted(model, train_set, valid_set, config):
            trained.append(config)
            return original(model, train_set, valid_set, config)
        monkeypatch.setattr(gridsearch, "train", counted)
        for changed in (replace(tiny_train_config(), max_epochs=3),
                        replace(tiny_train_config(), lr=0.05)):
            trained.clear()
            rows = run_grid(configs, train, valid, changed,
                            journal_path=journal)
            fresh = run_grid(configs, train, valid, changed)
            assert len(trained) == 2 * len(configs)
            assert [(r.rmse_one_step, r.train_config) for r in rows] == \
                   [(r.rmse_one_step, asdict(changed)) for r in fresh]
        trained.clear()
        run_grid(configs, train, valid, changed, journal_path=journal)
        assert trained == []                # now journaled: replayed
        assert len(journal.read_text().splitlines()) == 6

    def _old_journal(self, tmp_path, lines):
        # journal rows written before rows held the training settings
        configs = grid_expand({"hidden": [3, 4]},
                              ModelConfig(family="tcn", depth=1, kernel_size=2,
                                          activation="tanh"))
        journal = tmp_path / "journal.csv"
        with journal.open("w", newline="") as fh:
            for i, cfg in enumerate(configs[:lines]):
                row = GridRow(index=i, repetition=0, config=cfg.to_dict(),
                              train_config={},
                              seed=derive_seed(tiny_train_config().seed, i, 0),
                              status="ok", rmse_one_step=42.0,
                              rmse_free_run=43.0, best_epoch=0,
                              wall_clock=0.0).to_csv_row()
                del row[3]
                csv.writer(fh, lineterminator="\n").writerow(row)
        return configs, journal

    def test_nine_cell_journal_row_rejected(self, tmp_path):
        train, valid = tiny_datasets()
        configs, journal = self._old_journal(tmp_path, 2)
        with pytest.raises(DataError, match="malformed journal line 1"):
            run_grid(configs, train, valid, tiny_train_config(),
                     journal_path=journal)

    def test_nine_cell_final_journal_row_reruns(self, tmp_path):
        train, valid = tiny_datasets()
        configs, journal = self._old_journal(tmp_path, 1)
        rows = run_grid(configs, train, valid, tiny_train_config(),
                        journal_path=journal)
        assert 42.0 not in [r.rmse_one_step for r in rows]
        lines = journal.read_text().splitlines()
        assert len(lines) == 2
        assert [len(next(csv.reader([line]))) for line in lines] == [10, 10]

    def test_parallel_matches_serial(self, tmp_path):
        train, valid = tiny_datasets()
        axes = {"hidden": [3, 4], "kernel_size": [2, 3]}
        base = ModelConfig(family="tcn", depth=1, activation="tanh")
        configs = grid_expand(axes, base)
        serial = run_grid(configs, train, valid, tiny_train_config(),
                          jobs=1)
        parallel = run_grid(configs, train, valid, tiny_train_config(),
                            jobs=4)
        assert [(r.index, r.seed, r.rmse_one_step, r.rmse_free_run)
                for r in serial] == \
               [(r.index, r.seed, r.rmse_one_step, r.rmse_free_run)
                for r in parallel]

    def test_failed_config_recorded_and_sweep_continues(self):
        train, valid = tiny_datasets()
        # dropout close to 1 scales survivors enormously; the huge lr then
        # drives the loss to overflow for the first config only
        axes = {"dropout": [0.97, 0.0]}
        base = ModelConfig(family="tcn", depth=1, kernel_size=2, hidden=4,
                           activation="relu")
        configs = grid_expand(axes, base)
        tc = TrainConfig(max_epochs=12, batch_size=2, subseq_len=60, seed=2,
                         lr=5.0, optimizer="sgd_momentum")
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = run_grid(configs, train, valid, tc)
        statuses = {r.config["dropout"]: r.status for r in rows}
        assert len(rows) == 2
        assert "failed" in statuses.values()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_validation_rmse_recorded_failed(self, monkeypatch,
                                                        bad):
        # an overflowing free-run can leave a trained model with such
        # predictions; the real evaluate scores them
        real = analysis.predict_records

        def free_run_blows_up(model, records, mode):
            preds = real(model, records, mode)
            if mode == "free-run":
                preds[0][0, -1] = bad
            return preds
        monkeypatch.setattr(analysis, "predict_records", free_run_blows_up)
        train, valid = tiny_datasets()
        configs = grid_expand({"hidden": [3]}, ModelConfig(
            family="tcn", depth=1, kernel_size=2, activation="tanh"))
        row, = run_grid(configs, train, valid, tiny_train_config())
        assert row.status == "failed"
        assert row.rmse_one_step is None and row.rmse_free_run is None

    def test_repetitions(self):
        train, valid = tiny_datasets()
        axes = {"hidden": [3]}
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        configs = grid_expand(axes, base)
        rows = run_grid(configs, train, valid, tiny_train_config(),
                        repetitions=2)
        assert len(rows) == 2
        assert rows[0].seed != rows[1].seed


    @pytest.mark.parametrize("kw,message", [
        (dict(jobs=0), "jobs must be >= 1, got 0"),
        (dict(jobs=-2), "jobs must be >= 1, got -2"),
        (dict(repetitions=0), "repetitions must be >= 1, got 0"),
        (dict(repetitions=-1), "repetitions must be >= 1, got -1"),
    ], ids=["jobs_0", "jobs_negative", "repetitions_0", "repetitions_negative"])
    def test_bad_run_counts_rejected(self, tmp_path, kw, message):
        train, valid = tiny_datasets()
        journal = tmp_path / "journal.csv"
        with pytest.raises(ConfigError, match=message):
            run_grid(grid_expand({"hidden": [3]}), train, valid,
                     tiny_train_config(), journal_path=journal, **kw)
        assert not journal.exists()

    @pytest.mark.parametrize("axes,base", [
        ({"nu": [1, 2]}, {}),
        ({"hidden": [3]}, {"ny": 2}),
    ], ids=["nu_axis", "ny_base"])
    def test_channel_counts_other_than_the_data_rejected(
            self, tmp_path, monkeypatch, axes, base):
        def refuse(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(gridsearch, "train", refuse)
        train, valid = tiny_datasets()
        journal = tmp_path / "journal.csv"
        with pytest.raises(ConfigError, match="training data has 1 / 1"):
            run_grid(grid_expand(axes, ModelConfig(**base)), train, valid,
                     tiny_train_config(), journal_path=journal)
        assert not journal.exists()


class TestSelectBest:
    def _row(self, index, rmse, hidden=4, depth=1):
        cfg = ModelConfig(family="tcn", hidden=hidden, depth=depth,
                          kernel_size=2)
        return GridRow(index=index, repetition=0, config=cfg.to_dict(),
                       train_config=asdict(TrainConfig()),
                       seed=0, status="ok", rmse_one_step=rmse,
                       rmse_free_run=rmse + 0.1, best_epoch=0, wall_clock=1.0)

    def test_single_row(self):
        row = self._row(0, 0.5)
        config, score = select_best([row])
        assert score == 0.5
        assert config.hidden == 4

    def test_planted_minimum(self):
        rows = [self._row(i, r) for i, r in enumerate([0.9, 0.2, 0.5, 0.7])]
        _, score = select_best(rows)
        assert score == 0.2

    def test_tie_breaks_toward_fewer_parameters(self):
        small = self._row(0, 0.5, hidden=2)
        big = self._row(1, 0.5, hidden=16)
        config, _ = select_best([big, small])
        assert config.hidden == 2

    def test_parameters_counted_only_for_ties(self, monkeypatch):
        counted = []

        def counter(config):
            counted.append(config.hidden)
            return config.hidden
        monkeypatch.setattr(gridsearch, "count_parameters", counter)
        rows = [self._row(i, r, hidden=i + 2)
                for i, r in enumerate([0.9, 0.2, 0.5, 0.7])]
        assert select_best(rows)[0].hidden == 3
        assert counted == []
        rows += [self._row(4, 0.2, hidden=1), self._row(5, 0.2, hidden=8)]
        assert select_best(rows)[0].hidden == 1
        assert sorted(counted) == [1, 3, 8]

    def test_metric_selection(self):
        rows = [self._row(0, 0.5), self._row(1, 0.4)]
        rows[0].rmse_free_run = 0.1     # best free-run belongs to row 0
        _, score = select_best(rows, metric="free-run")
        assert score == 0.1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rows_skipped_in_either_order(self, bad):
        rows = [self._row(0, bad, hidden=2), self._row(1, 0.2, hidden=3)]
        for order in (rows, rows[::-1]):
            config, score = select_best(order)
            assert (config.hidden, score) == (3, 0.2)

    def test_only_non_finite_rows(self):
        with pytest.raises(DataError):
            select_best([self._row(0, float("nan"))])

    def test_all_failed(self):
        row = self._row(0, 0.5)
        row.status = "failed"
        with pytest.raises(DataError):
            select_best([row])


class TestMarginalQuartiles:
    def test_matches_reference_quantile_oracle(self):
        rng = Rng(40)
        rows = []
        for i in range(40):
            hidden = [4, 8][i % 2]
            cfg = ModelConfig(family="tcn", hidden=hidden, kernel_size=2)
            rows.append(GridRow(index=i, repetition=0, config=cfg.to_dict(),
                                train_config=asdict(TrainConfig()),
                                seed=0, status="ok",
                                rmse_one_step=float(rng.random(())),
                                rmse_free_run=1.0, best_epoch=0, wall_clock=0.0))
        out = marginal_quartiles(rows, "hidden")
        for hidden in (4, 8):
            vals = np.sort([r.rmse_one_step for r in rows
                            if r.config["hidden"] == hidden])
            n = vals.size
            for q, got in zip((0.25, 0.5, 0.75), out[hidden]):
                # median-unbiased definition: h = (n + 1/3) q + 1/3
                h = (n + 1.0 / 3.0) * q + 1.0 / 3.0
                lo = int(np.floor(h)) - 1
                frac = h - np.floor(h)
                ref = vals[lo] + frac * (vals[lo + 1] - vals[lo])
                assert abs(got - ref) < 1e-12


    def test_non_finite_rows_left_out_in_either_order(self):
        rows = []
        for i, (hidden, rmse) in enumerate([(4, float("nan")), (4, 0.3),
                                            (4, 0.1), (8, float("inf")),
                                            (8, 0.2), (8, 0.4)]):
            cfg = ModelConfig(family="tcn", hidden=hidden, kernel_size=2)
            rows.append(GridRow(index=i, repetition=0, config=cfg.to_dict(),
                                train_config=asdict(TrainConfig()),
                                seed=0, status="ok", rmse_one_step=rmse,
                                rmse_free_run=1.0, best_epoch=0, wall_clock=0.0))
        finite = marginal_quartiles([r for r in rows
                                     if np.isfinite(r.rmse_one_step)], "hidden")
        for order in (rows, rows[::-1]):
            assert marginal_quartiles(order, "hidden") == finite
        assert all(np.isfinite(q).all() for q in finite.values())


def test_results_csv_round_trip(tmp_path):
    cfg = ModelConfig(family="mlp", hidden=4, order=2)
    settings = asdict(TrainConfig(lr=0.01, seed=3))
    rows = [GridRow(index=0, repetition=0, config=cfg.to_dict(),
                    train_config=settings, seed=7,
                    status="ok", rmse_one_step=0.25, rmse_free_run=0.5,
                    best_epoch=3, wall_clock=1.25),
            GridRow(index=1, repetition=0, config=cfg.to_dict(),
                    train_config=settings, seed=8,
                    status="failed", rmse_one_step=None, rmse_free_run=None,
                    best_epoch=None, wall_clock=0.5)]
    path = tmp_path / "results.csv"
    write_csv(path, [f.name for f in fields(GridRow)],
              [row.to_csv_row() for row in rows])
    with open(path, newline="", encoding="utf-8") as fh:
        header, *raw = csv.reader(fh)
    assert header == ["index", "repetition", "config", "train_config",
                      "seed", "status",
                      "rmse_one_step", "rmse_free_run", "best_epoch",
                      "wall_clock"]
    back = [GridRow.from_csv_row(r) for r in raw]
    assert len(back) == 2
    assert back[0].rmse_one_step == 0.25
    assert back[1].status == "failed"
    assert back[1].rmse_one_step is None
    assert back[0].config == cfg.to_dict()
    assert back[0].train_config == settings
