import csv
import json

import numpy as np
import pytest

from sysident import (GridRow, GridSpace, ModelConfig, NoiseSpec, Rng,
                      TrainConfig, chen_lstm_space, chen_mlp_space,
                      chen_tcn_space, derive_seed, f16_tcn_space, grid_expand,
                      make_chen_dataset, marginal_quartiles, run_grid,
                      select_best)
from sysident.errors import ConfigError, DataError
from sysident.gridsearch import write_results_csv


class TestGridExpand:
    def test_product_count(self):
        space = GridSpace(axes={"hidden": [1, 2], "order": [3, 4, 5]})
        configs = grid_expand(space, ModelConfig(family="mlp"))
        assert len(configs) == 6
        assert space.size == 6

    def test_toy_tcn_space_size(self):
        # 5 hidden x 4 dropout x 4 blocks x 4 kernel x 2 dilation x 3 norm
        assert chen_tcn_space().size == 1920
        assert len(grid_expand(chen_tcn_space())) == 1920

    def test_other_canned_spaces(self):
        assert chen_mlp_space().size == 5 * 7 * 2
        assert chen_lstm_space().size == 4 * 3 * 4
        assert f16_tcn_space().size == 4 * 4 * 4 * 4 * 2 * 3

    def test_single_value_axes(self):
        space = GridSpace(axes={"hidden": [8]})
        assert len(grid_expand(space)) == 1

    def test_lexicographic_axis_order(self):
        space = GridSpace(axes={"hidden": [1, 2], "depth": [3, 4]})
        configs = grid_expand(space)
        # axes sorted by name: depth varies slowest
        assert [ (c.depth, c.hidden) for c in configs ] == \
            [(3, 1), (3, 2), (4, 1), (4, 2)]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            GridSpace(axes={"hidden": []})

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="hiden"):
            grid_expand(GridSpace(axes={"hidden": [2], "hiden": [4]}))


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
        space = GridSpace(axes={"hidden": [3, 4]})
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        rows = run_grid(space, train, valid, tiny_train_config(), base=base)
        assert len(rows) == 2
        assert all(r.status == "ok" for r in rows)
        assert all(r.rmse_one_step > 0 for r in rows)
        again = run_grid(space, train, valid, tiny_train_config(), base=base)
        assert [r.rmse_one_step for r in again] == [r.rmse_one_step for r in rows]

    def test_journal_resume_skips_completed(self, tmp_path):
        train, valid = tiny_datasets()
        space = GridSpace(axes={"hidden": [3, 4]})
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        journal = tmp_path / "journal.csv"
        sentinel = GridRow(index=0, repetition=0,
                           config=grid_expand(space, base)[0].to_dict(),
                           seed=derive_seed(tiny_train_config().seed, 0, 0),
                           status="ok", rmse_one_step=42.0,
                           rmse_free_run=43.0, best_epoch=0, wall_clock=0.0)
        from sysident.gridsearch import _journal_append
        _journal_append(journal, sentinel)
        rows = run_grid(space, train, valid, tiny_train_config(), base=base,
                        journal_path=journal)
        assert len(rows) == 2
        assert rows[0].rmse_one_step == 42.0   # replayed, not retrained
        assert rows[1].rmse_one_step != 42.0

    def test_changed_grid_reruns_instead_of_reusing_rows(self, tmp_path):
        train, valid = tiny_datasets()
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        journal = tmp_path / "journal.csv"
        run_grid(GridSpace(axes={"hidden": [2, 3]}), train, valid,
                 tiny_train_config(), base=base, journal_path=journal)
        changed = GridSpace(axes={"hidden": [5, 6]})
        rows = run_grid(changed, train, valid, tiny_train_config(), base=base,
                        journal_path=journal)
        fresh = run_grid(changed, train, valid, tiny_train_config(), base=base)
        assert [r.config["hidden"] for r in rows] == [5, 6]
        assert [r.rmse_one_step for r in rows] == \
               [r.rmse_one_step for r in fresh]
        # the journal now holds both grids, and a rerun appends nothing
        again = run_grid(changed, train, valid, tiny_train_config(),
                         base=base, journal_path=journal)
        assert [r.rmse_one_step for r in again] == \
               [r.rmse_one_step for r in rows]
        assert len(journal.read_text().splitlines()) == 4

    def test_torn_final_journal_line_reruns_that_config(self, tmp_path):
        train, valid = tiny_datasets()
        space = GridSpace(axes={"hidden": [3, 4]})
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        journal = tmp_path / "journal.csv"
        rows = run_grid(space, train, valid, tiny_train_config(), base=base,
                        journal_path=journal)
        text = journal.read_bytes()
        journal.write_bytes(text[:-25])     # a crash cut the last append
        resumed = run_grid(space, train, valid, tiny_train_config(), base=base,
                           journal_path=journal)
        assert [(r.index, r.rmse_one_step) for r in resumed] == \
               [(r.index, r.rmse_one_step) for r in rows]
        lines = journal.read_bytes().splitlines(keepends=True)
        assert len(lines) == 2 and all(line.endswith(b"\r\n") for line in lines)

    def test_malformed_earlier_journal_line_rejected(self, tmp_path):
        train, valid = tiny_datasets()
        space = GridSpace(axes={"hidden": [3, 4]})
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        journal = tmp_path / "journal.csv"
        run_grid(space, train, valid, tiny_train_config(), base=base,
                 journal_path=journal)
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(lines[0][:-25] + b"\r\n" + lines[1])
        with pytest.raises(DataError, match="line 1"):
            run_grid(space, train, valid, tiny_train_config(), base=base,
                     journal_path=journal)

    def test_parallel_matches_serial(self, tmp_path):
        train, valid = tiny_datasets()
        space = GridSpace(axes={"hidden": [3, 4], "kernel_size": [2, 3]})
        base = ModelConfig(family="tcn", depth=1, activation="tanh")
        serial = run_grid(space, train, valid, tiny_train_config(), base=base,
                          jobs=1)
        parallel = run_grid(space, train, valid, tiny_train_config(), base=base,
                            jobs=4)
        assert [(r.index, r.seed, r.rmse_one_step, r.rmse_free_run)
                for r in serial] == \
               [(r.index, r.seed, r.rmse_one_step, r.rmse_free_run)
                for r in parallel]

    def test_failed_config_recorded_and_sweep_continues(self):
        train, valid = tiny_datasets()
        # dropout close to 1 scales survivors enormously; the huge lr then
        # drives the loss to overflow for the first config only
        space = GridSpace(axes={"dropout": [0.97, 0.0]})
        base = ModelConfig(family="tcn", depth=1, kernel_size=2, hidden=4,
                           activation="relu")
        tc = TrainConfig(max_epochs=12, batch_size=2, subseq_len=60, seed=2,
                         lr=5.0, optimizer="sgd_momentum")
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = run_grid(space, train, valid, tc, base=base)
        statuses = {r.config["dropout"]: r.status for r in rows}
        assert len(rows) == 2
        assert "failed" in statuses.values()

    def test_repetitions(self):
        train, valid = tiny_datasets()
        space = GridSpace(axes={"hidden": [3]})
        base = ModelConfig(family="tcn", depth=1, kernel_size=2,
                           activation="tanh")
        rows = run_grid(space, train, valid, tiny_train_config(), base=base,
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
            run_grid(GridSpace(axes={"hidden": [3]}), train, valid,
                     tiny_train_config(), journal_path=journal, **kw)
        assert not journal.exists()


class TestSelectBest:
    def _row(self, index, rmse, hidden=4, depth=1):
        cfg = ModelConfig(family="tcn", hidden=hidden, depth=depth,
                          kernel_size=2)
        return GridRow(index=index, repetition=0, config=cfg.to_dict(),
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

    def test_metric_selection(self):
        rows = [self._row(0, 0.5), self._row(1, 0.4)]
        rows[0].rmse_free_run = 0.1     # best free-run belongs to row 0
        _, score = select_best(rows, metric="free-run")
        assert score == 0.1

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


def test_results_csv_round_trip(tmp_path):
    cfg = ModelConfig(family="mlp", hidden=4, order=2)
    rows = [GridRow(index=0, repetition=0, config=cfg.to_dict(), seed=7,
                    status="ok", rmse_one_step=0.25, rmse_free_run=0.5,
                    best_epoch=3, wall_clock=1.25),
            GridRow(index=1, repetition=0, config=cfg.to_dict(), seed=8,
                    status="failed", rmse_one_step=None, rmse_free_run=None,
                    best_epoch=None, wall_clock=0.5)]
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *raw = csv.reader(fh)
    assert tuple(header) == GridRow._FIELDS
    back = [GridRow.from_csv_row(r) for r in raw]
    assert len(back) == 2
    assert back[0].rmse_one_step == 0.25
    assert back[1].status == "failed"
    assert back[1].rmse_one_step is None
    assert back[0].config == cfg.to_dict()
