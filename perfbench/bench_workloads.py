"""The benchmark's workloads: one per model family.

Each workload runs the operations a sysident user waits on, in a closed loop
(one caller; each call starts when the previous one has returned), on inputs
made from the workload seed:

* ``train``   -- ``train()`` for a fixed number of epochs on the paper's toy
  setting (Chen system, 20x100 training and 2x100 validation samples,
  sigma_v = sigma_w = 0.3, batch 8, subsequences of 100);
* ``freerun`` / ``onestep`` -- ``evaluate()`` of a fixed, committed model on a
  10-record held-Gaussian Chen test set;
* ``grid_j1`` / ``grid_j2`` -- ``sysident gridsearch`` at ``--jobs 1`` and 2;
* ``cli_eval`` -- ``sysident eval --mode both --band``.

The CLI is called in-process through ``sysident.cli.main``, so interpreter
start-up stays out of the figures. One cycle runs every operation once or,
for short calls, repeatedly for a time slice; the run repeats cycles until its
time is up. The family decides which layers carry the
time: the TCN loads the dilated causal convolutions, batch norm and relu; the
MLP a kernel-16 convolution and the sigmoid; the LSTM the cell step, its
backward pass and the sigmoid.
"""

import contextlib
import csv
import io
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from bench_env import BENCH_DIR

SIGMA = 0.3
MODEL_DIR = BENCH_DIR / "models"
TRAIN_RECORDS, VALID_RECORDS, TEST_RECORDS, RECORD_LEN = 20, 2, 10, 100
BATCH = 8
GRID_EPOCHS = 2
CLI_EPOCHS = 5
MIN_EVAL_SAMPLES = 40       # p75 of 40 samples leaves 10 beyond it
NAIVE_PREFIX = 32           # samples compared against free_run_naive
EVAL_BAND = ("0.05", "0.25")
# the timed operations, in cycle order, and the seconds each repeats for
# within one cycle (at least one call)
OPS = ("train", "freerun", "onestep", "grid_j1", "grid_j2", "cli_eval")
SLICES = {"train": 0.25, "freerun": 0.5, "onestep": 0.25, "grid_j1": 0.25,
          "grid_j2": 0.25, "cli_eval": 0.25}


@dataclass(frozen=True)
class FamilySpec:
    train_config: dict        # ModelConfig fields of the model train() fits
    train_epochs: int
    sim_config: dict          # ModelConfig fields of the committed model
    freerun_rmse_bound: float  # output std is ~2.5, so zeros fail it
    grid: dict                # gridsearch file: base config and axes
    cli_flags: tuple          # `sysident train` flags of the eval checkpoint


FAMILIES = {
    "tcn": FamilySpec(
        train_config=dict(family="tcn", hidden=32, depth=4, kernel_size=4,
                          dilations=True, norm="batch", dropout=0.3),
        train_epochs=1,
        sim_config=dict(family="tcn", hidden=32, depth=4, kernel_size=4,
                        dilations=True),
        freerun_rmse_bound=2.0,
        grid={"base": {"family": "tcn", "hidden": 8, "kernel_size": 2,
                       "dropout": 0.3},
              "axes": {"depth": [1, 2], "norm": ["none", "batch"]}},
        cli_flags=("--family", "tcn", "--hidden", "16", "--depth", "2",
                   "--kernel-size", "2")),
    "mlp": FamilySpec(
        train_config=dict(family="mlp", hidden=64, order=16,
                          activation="sigmoid"),
        train_epochs=4,
        sim_config=dict(family="mlp", hidden=64, order=16,
                        activation="sigmoid"),
        freerun_rmse_bound=1.5,
        grid={"base": {"family": "mlp", "hidden": 16, "activation": "sigmoid"},
              "axes": {"order": [4, 8], "activation": ["relu", "sigmoid"]}},
        cli_flags=("--family", "mlp", "--hidden", "32", "--order", "8",
                   "--activation", "sigmoid")),
    "lstm": FamilySpec(
        train_config=dict(family="lstm", hidden=32, depth=2, dropout=0.3),
        train_epochs=1,
        sim_config=dict(family="lstm", hidden=32, depth=2),
        freerun_rmse_bound=1.5,
        grid={"base": {"family": "lstm", "hidden": 4},
              "axes": {"depth": [1, 2]}},
        cli_flags=("--family", "lstm", "--hidden", "16")),
}


def derive(seed, k):
    """The k-th input seed of a workload seed."""
    return seed * 16 + k


def make_test_set(sy, seed):
    """The 10-record held-Gaussian Chen test set of a workload seed."""
    return sy.make_chen_dataset(TEST_RECORDS, RECORD_LEN,
                                sy.NoiseSpec(SIGMA, SIGMA),
                                seed=derive(seed, 3), role="test")


class Ledger:
    """Counts operations attempted and failed; a check is an operation too."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label, fn, *args):
        """Run one operation; returns (result, seconds), result None on a raise."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            print(f"operation {label} raised:", file=sys.stderr)
            traceback.print_exc()
            return None, time.perf_counter() - t0
        return result, time.perf_counter() - t0

    def check(self, label, passed, detail=""):
        self.attempted += 1
        if not passed:
            self.failed += 1
            print(f"check failed: {label} {detail}", file=sys.stderr)
        return passed


class CliFailed(Exception):
    pass


def _no_span(kind):
    return contextlib.nullcontext()


class Workload:
    """Set-up, timed operations and output checks of one family's workload."""

    def __init__(self, sy, family, seed, work_dir):
        self.sy = sy
        self.family = family
        self.spec = FAMILIES[family]
        self.seed = seed
        self.work_dir = work_dir
        self.ledger = Ledger()
        self.span = _no_span          # replaced by Tracer.op when tracing
        self.samples = {k: [] for k in OPS}    # in the metric's unit
        self.seconds = {k: [] for k in OPS}    # seconds per call
        self.setup_s = []
        self._histories = []
        self._rmse = {"free-run": [], "one-step": []}
        self._grid_rows = {1: [], 2: []}
        self._last_trained = None
        self._dirs = 0

    def _record(self, kind, seconds, value):
        self.seconds[kind].append(seconds)
        self.samples[kind].append(value)

    # -- helpers --------------------------------------------------------------

    def _cli(self, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.sy.cli.main([str(a) for a in args])
        if code != 0:
            raise CliFailed(f"sysident {args[0]} exited {code}")
        return out.getvalue()

    def _timed(self, kind, fn, *args):
        with self.span(kind):
            result, seconds = self.ledger.run(kind, fn, *args)
        return result, seconds

    def _fresh_dir(self, name):
        self._dirs += 1
        path = self.work_dir / f"{name}{self._dirs}"
        path.mkdir()
        return path

    # -- set-up -----------------------------------------------------------------

    def set_up(self):
        """Make every input the timed operations need, timed as ``setup_s``."""
        seconds, _ = self._timed("setup", self._set_up)
        if seconds is not None:     # None when the set-up raised
            self.setup_s.append(seconds)

    def _set_up(self):
        sy, seed = self.sy, self.seed
        t0 = time.perf_counter()
        noise = sy.NoiseSpec(SIGMA, SIGMA)
        self.train_set = sy.make_chen_dataset(TRAIN_RECORDS, RECORD_LEN, noise,
                                              seed=derive(seed, 1))
        self.valid_set = sy.make_chen_dataset(VALID_RECORDS, RECORD_LEN, noise,
                                              seed=derive(seed, 2),
                                              role="validation")
        self.test_set = make_test_set(sy, seed)
        self.sim_model, _ = sy.load_checkpoint(MODEL_DIR / f"{self.family}.json")
        d = self._fresh_dir("setup")
        self.data_dir = d / "data"
        self._cli("generate", "chen", "--records", TRAIN_RECORDS,
                  "--val-records", VALID_RECORDS, "--length", RECORD_LEN,
                  "--sigma-v", SIGMA, "--sigma-w", SIGMA, "--seed", seed,
                  "--out", self.data_dir)
        self.grid_path = d / "grid.json"
        self.grid_path.write_text(json.dumps(self.spec.grid), encoding="utf-8")
        common = ("--data", self.data_dir / "train.csv",
                  "--val", self.data_dir / "valid.csv",
                  "--epochs", CLI_EPOCHS, "--batch-size", BATCH, "--seed", seed)
        self.eval_run = d / "run"
        self._cli("train", *common, *self.spec.cli_flags, "--normalize",
                  "--out", self.eval_run)
        self.fir_run = d / "fir"
        self._cli("train", *common, "--family", "mlp", "--fir", "--hidden", 8,
                  "--order", 8, "--activation", "sigmoid", "--out", self.fir_run)
        self.eval_out = d / "eval"
        return time.perf_counter() - t0

    # -- timed operations --------------------------------------------------------

    def _train_once(self):
        sy, spec = self.sy, self.spec
        model = sy.build_model(sy.ModelConfig(**spec.train_config),
                               sy.Rng(derive(self.seed, 4)))
        epochs = spec.train_epochs
        config = sy.TrainConfig(max_epochs=epochs, batch_size=BATCH,
                                subseq_len=RECORD_LEN,
                                early_stop_patience=epochs + 1,
                                seed=derive(self.seed, 5))
        result, seconds = self._timed("train", sy.train, model, self.train_set,
                                      self.valid_set, config)
        if result is not None:
            model, history = result
            self._record("train", seconds,
                         TRAIN_RECORDS * RECORD_LEN * epochs / seconds)
            self._histories.append((list(history.train_loss),
                                    list(history.valid_loss)))
            self._last_trained = model

    def _evaluate_once(self, mode, kind):
        report, seconds = self._timed(kind, self.sy.evaluate, self.sim_model,
                                      self.test_set, mode)
        if report is not None:
            self._record(kind, seconds, TEST_RECORDS * RECORD_LEN / seconds)
            self._rmse[mode].append(report.rmse_mean)

    def _grid_once(self, jobs):
        out = self._fresh_dir(f"grid_j{jobs}_")
        kind = f"grid_j{jobs}"
        text, seconds = self._timed(
            kind, self._cli, "gridsearch", "--grid", self.grid_path,
            "--data", self.data_dir / "train.csv",
            "--val", self.data_dir / "valid.csv",
            "--epochs", GRID_EPOCHS, "--batch-size", BATCH,
            "--seed", self.seed, "--jobs", jobs, "--out", out)
        if text is not None:
            with open(out / "results.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            self._record(kind, seconds, 60.0 * len(rows) / seconds)
            self._grid_rows[jobs].append(rows)
        shutil.rmtree(out, ignore_errors=True)

    def _eval_cli_once(self):
        text, seconds = self._timed(
            "cli_eval", self._cli, "eval",
            "--checkpoint", self.eval_run / "checkpoint.json",
            "--data", self.data_dir / "valid.csv", "--mode", "both",
            "--band", *EVAL_BAND, "--seed", self.seed, "--out", self.eval_out)
        if text is not None:
            self._record("cli_eval", seconds, seconds)

    def _repeat(self, slice_s, fn, *args):
        t_end = time.perf_counter() + slice_s
        fn(*args)
        while time.perf_counter() < t_end:
            fn(*args)

    def measure(self, seconds):
        """Run cycles of every timed operation for ``seconds``.

        The first cycle always runs whole; after it, no operation starts once
        the time is up. Returns the number of cycles started.
        """
        ops = (("train", self._train_once, ()),
               ("freerun", self._evaluate_once, ("free-run", "freerun")),
               ("onestep", self._evaluate_once, ("one-step", "onestep")),
               ("grid_j1", self._grid_once, (1,)),
               ("grid_j2", self._grid_once, (2,)),
               ("cli_eval", self._eval_cli_once, ()))
        deadline = time.perf_counter() + seconds
        cycles = 0
        while cycles == 0 or time.perf_counter() < deadline:
            for kind, fn, args in ops:
                if cycles and time.perf_counter() >= deadline:
                    break
                self._repeat(SLICES[kind], fn, *args)
            cycles += 1
        return cycles

    def top_up(self, minimum):
        """At least ``minimum`` ``sysident eval`` samples."""
        tries = 0
        while len(self.samples["cli_eval"]) < minimum and tries < 2 * minimum:
            self._eval_cli_once()
            tries += 1

    # -- output checks -----------------------------------------------------------

    def _streaming_matches_naive(self, model):
        u = self.test_set.records[0].u[:, :NAIVE_PREFIX]
        fast = self.sy.simulate_free_run(model, u)
        slow = self.sy.free_run_naive(model, u)
        return bool(np.all(np.isfinite(fast))) and fast.tobytes() == slow.tobytes()

    def _eval_matches_direct(self):
        sy = self.sy
        model, norm = sy.load_checkpoint(self.eval_run / "checkpoint.json")
        norm = sy.NormConstants.from_dict(norm)
        data = sy.load_csv_dataset(self.data_dir / "valid.csv", role="test")
        for mode in ("one-step", "free-run"):
            path = self.eval_out / f"report_{mode.replace('-', '_')}.json"
            report = json.loads(path.read_text(encoding="utf-8"))
            direct = sy.evaluate(model, data, mode=mode, normalization=norm)
            if not (math.isfinite(report["rmse_mean"])
                    and report["rmse_mean"] == direct.rmse_mean
                    and report["rmse_per_channel"] == list(direct.rmse_per_channel)):
                return False
        return True

    def _volterra_verifies(self):
        text = self._cli("volterra", "--checkpoint", self.fir_run / "checkpoint.json",
                         "--degree", 2, "--verify", "--seed", self.seed,
                         "--out", self._fresh_dir("volterra"))
        return "verification passed" in text

    def _guarded(self, label, fn, *args):
        """A check whose own evaluation may raise; a raise fails the check."""
        try:
            return fn(*args) is True
        except Exception:
            print(f"check {label} raised:", file=sys.stderr)
            traceback.print_exc()
            return False

    def checks(self):
        led, spec = self.ledger, self.spec
        with self.span("checks"):
            led.check("streaming free-run equals free_run_naive (fixed model)",
                      self._guarded("naive", self._streaming_matches_naive,
                                    self.sim_model))
            led.check("streaming free-run equals free_run_naive (trained model)",
                      self._last_trained is not None and self._guarded(
                          "naive", self._streaming_matches_naive,
                          self._last_trained))
            free = self._rmse["free-run"]
            led.check("free-run RMSE finite, repeatable and below its bound",
                      bool(free) and len(set(free)) == 1
                      and math.isfinite(free[0])
                      and free[0] < spec.freerun_rmse_bound, f"{free[:1]}")
            one = self._rmse["one-step"]
            led.check("one-step RMSE finite and repeatable",
                      bool(one) and len(set(one)) == 1 and math.isfinite(one[0]),
                      f"{one[:1]}")
            hist = self._histories
            led.check("train() ran every epoch, finite and repeatable",
                      bool(hist) and all(h == hist[0] for h in hist)
                      and len(hist[0][0]) == spec.train_epochs
                      and all(math.isfinite(v) for v in hist[0][0] + hist[0][1]))
            led.check("grid rows at --jobs 1 and 2 equal apart from wall_clock",
                      self._grid_rows_agree())
            led.check("sysident eval RMSE equals a direct evaluate()",
                      self._guarded("eval-direct", self._eval_matches_direct))
            led.check("sysident volterra --verify passes",
                      self._guarded("volterra", self._volterra_verifies))

    def _grid_rows_agree(self):
        runs = self._grid_rows[1] + self._grid_rows[2]
        if not self._grid_rows[1] or not self._grid_rows[2]:
            return False
        stripped = [[{k: v for k, v in row.items() if k != "wall_clock"}
                     for row in rows] for rows in runs]
        return all(s == stripped[0] for s in stripped) \
            and all(row["status"] == "ok" for row in stripped[0])
