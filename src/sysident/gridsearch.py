"""Grid-search harness: Cartesian hyperparameter sweeps with journaling,
deterministic per-configuration seeds and parallel workers.

Results are invariant (as a set of rows) to the worker count because each
configuration trains from a seed derived only from the base seed and its own
index, never from scheduling order.
"""

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import dataclass, replace
from itertools import product
from typing import Optional

import numpy as np

from .analysis import evaluate
from .errors import ConfigError, DataError, SysidentError
from .models import MODES, ModelConfig, build_model, count_parameters
from .tensor import Rng, derive_seed
from .training import train


@dataclass
class GridSpace:
    """Named hyperparameter axes; expansion is their Cartesian product."""

    axes: dict

    def __post_init__(self):
        if not isinstance(self.axes, dict):
            raise ConfigError(f"grid axes must be a mapping, got {self.axes!r}")
        for name, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"grid axis '{name}' must be a non-empty list")

    @property
    def size(self):
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n


def grid_expand(space, base=None):
    """All axis combinations as ModelConfigs, in lexicographic axis order.

    An axis that is not a ModelConfig field raises ConfigError.
    """
    base = (base if base is not None else ModelConfig()).to_dict()
    names = sorted(space.axes)
    return [ModelConfig.from_dict({**base, **dict(zip(names, combo))})
            for combo in product(*(space.axes[n] for n in names))]


# Appendix-style sweep definitions for the toy problem and the aircraft
# benchmark (axis names match ModelConfig fields).

def chen_tcn_space():
    return GridSpace(axes={
        "hidden": [16, 32, 64, 128, 256],
        "dropout": [0.0, 0.3, 0.5, 0.8],
        "depth": [1, 2, 4, 8],
        "kernel_size": [2, 4, 8, 16],
        "dilations": [True, False],
        "norm": ["batch", "weight", "none"],
    })


def chen_mlp_space():
    return GridSpace(axes={
        "hidden": [16, 32, 64, 128, 256],
        "order": [2, 4, 8, 16, 32, 64, 128],
        "activation": ["relu", "sigmoid"],
    })


def chen_lstm_space():
    return GridSpace(axes={
        "hidden": [16, 32, 64, 128],
        "depth": [1, 2, 3],
        "dropout": [0.0, 0.3, 0.5, 0.8],
    })


def f16_tcn_space():
    return GridSpace(axes={
        "hidden": [16, 32, 64, 128],
        "dropout": [0.0, 0.3, 0.5, 0.8],
        "depth": [1, 2, 4, 8],
        "kernel_size": [2, 4, 8, 16],
        "dilations": [True, False],
        "norm": ["batch", "weight", "none"],
    })


# the GridRow field that holds each evaluation mode's validation RMSE
_METRIC_FIELDS = {mode: "rmse_" + mode.replace("-", "_") for mode in MODES}


@dataclass
class GridRow:
    index: int
    repetition: int
    config: dict
    seed: int
    status: str                      # "ok" or "failed"
    rmse_one_step: Optional[float]
    rmse_free_run: Optional[float]
    best_epoch: Optional[int]
    wall_clock: float

    def to_csv_row(self):
        # one cell per field, in field order; csv writes floats with repr()
        # and None as an empty cell
        return [self.index, self.repetition, json.dumps(self.config, sort_keys=True),
                self.seed, self.status, self.rmse_one_step, self.rmse_free_run,
                self.best_epoch, f"{self.wall_clock:.3f}"]

    @classmethod
    def from_csv_row(cls, row):
        return cls(index=int(row[0]), repetition=int(row[1]),
                   config=json.loads(row[2]), seed=int(row[3]), status=row[4],
                   rmse_one_step=float(row[5]) if row[5] else None,
                   rmse_free_run=float(row[6]) if row[6] else None,
                   best_epoch=int(row[7]) if row[7] else None,
                   wall_clock=float(row[8]))


def _run_single(payload):
    """Train and score one configuration (runs inside a worker process)."""
    index, repetition, config, seed, train_set, valid_set, train_config = payload
    t0 = time.perf_counter()
    try:
        model = build_model(config, Rng(seed))
        tc = replace(train_config, seed=seed)
        model, history = train(model, train_set, valid_set, tc)
        scores = {field: evaluate(model, valid_set, mode=mode).rmse_mean
                  for mode, field in _METRIC_FIELDS.items()}
        return GridRow(index=index, repetition=repetition,
                       config=config.to_dict(), seed=seed, status="ok",
                       **scores, best_epoch=history.best_epoch,
                       wall_clock=time.perf_counter() - t0)
    except SysidentError:
        return GridRow(index=index, repetition=repetition,
                       config=config.to_dict(), seed=seed, status="failed",
                       **dict.fromkeys(_METRIC_FIELDS.values()), best_epoch=None,
                       wall_clock=time.perf_counter() - t0)


def _journal_append(path, row):
    # the line format of data.write_csv, one row per append
    with open(path, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(row.to_csv_row())


def _task_key(index, repetition, config, seed):
    return index, repetition, json.dumps(config, sort_keys=True), seed


def _journal_load(path):
    """Journal rows keyed by task.

    A final line that a crash cut short is removed from the file, so its
    configuration runs again; a malformed line before it is corruption.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
    except FileNotFoundError:
        return {}
    rows = {}
    kept_bytes = 0
    for lineno, raw in enumerate(lines, start=1):
        # every append ends in a line terminator, so a torn one lacks it
        torn = lineno == len(lines) and not raw.endswith(b"\n")
        try:
            fields = next(csv.reader([raw.decode("utf-8")]), None)
            row = GridRow.from_csv_row(fields) if fields else None
        except (ValueError, IndexError, csv.Error) as exc:
            if lineno < len(lines):
                raise DataError(f"{path}: malformed journal line {lineno}") from exc
            torn = True
        if torn:
            with open(path, "r+b") as fh:
                fh.truncate(kept_bytes)
            break
        if row is not None:
            rows[_task_key(row.index, row.repetition, row.config, row.seed)] = row
        kept_bytes += len(raw)
    return rows


def run_grid(space, train_set, valid_set, train_config, base=None, jobs=1,
             journal_path=None, repetitions=1):
    """Train every configuration of the GridSpace ``space`` over ``base``;
    returns rows sorted by index.

    Per-configuration seeds derive from (train_config.seed, index, repetition)
    only, so results do not depend on worker count or on other axes being
    added. With ``journal_path`` completed rows survive interruption and are
    not re-run; a journal row is reused only when its index, repetition,
    configuration and seed all match the task. ``jobs`` and ``repetitions``
    below 1, and a configuration whose ``nu`` or ``ny`` differs from the
    training data's channel counts, raise ConfigError before anything runs.
    """
    for name, value in (("jobs", jobs), ("repetitions", repetitions)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    configs = grid_expand(space, base)
    nu, ny = train_set.channels
    for cfg in configs:
        if (cfg.nu, cfg.ny) != (nu, ny):
            raise ConfigError(f"grid configuration {cfg.to_dict()} has "
                              f"{cfg.nu} inputs / {cfg.ny} outputs but the "
                              f"training data has {nu} / {ny}")
    done = _journal_load(journal_path) if journal_path else {}
    reused, tasks = [], []
    for rep in range(repetitions):
        for i, cfg in enumerate(configs):
            seed = derive_seed(train_config.seed, i, rep)
            row = done.get(_task_key(i, rep, cfg.to_dict(), seed))
            if row is not None:
                reused.append(row)
            else:
                tasks.append((i, rep, cfg, seed, train_set, valid_set, train_config))
    fresh = []
    with ExitStack() as stack:
        if jobs <= 1 or not tasks:
            results = map(_run_single, tasks)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            futures = [pool.submit(_run_single, payload) for payload in tasks]
            results = (fut.result() for fut in as_completed(futures))
        for row in results:
            if journal_path:
                _journal_append(journal_path, row)
            fresh.append(row)
    rows = reused + fresh
    rows.sort(key=lambda r: (r.index, r.repetition))
    return rows


def select_best(rows, metric="one-step"):
    """Configuration with the lowest validation RMSE under the chosen metric.

    Ties break toward fewer parameters, then lexicographic configuration order.
    """
    attr = _METRIC_FIELDS[metric]
    ok = [r for r in rows if r.status == "ok" and getattr(r, attr) is not None]
    if not ok:
        raise DataError("no successful grid rows to select from")

    def key(row):
        cfg = ModelConfig.from_dict(row.config)
        return (getattr(row, attr), count_parameters(cfg),
                json.dumps(row.config, sort_keys=True))

    best = min(ok, key=key)
    return ModelConfig.from_dict(best.config), getattr(best, attr)


def marginal_quartiles(rows, axis, metric="one-step"):
    """Box-plot aggregation: quartiles of the metric per value of one axis,
    marginalizing over every other hyperparameter."""
    attr = _METRIC_FIELDS[metric]
    groups = {}
    for row in rows:
        if row.status != "ok" or getattr(row, attr) is None:
            continue
        groups.setdefault(row.config[axis], []).append(getattr(row, attr))
    out = {}
    for value, metrics in groups.items():
        q1, q2, q3 = np.quantile(np.asarray(metrics), [0.25, 0.5, 0.75],
                                 method="median_unbiased")
        out[value] = (float(q1), float(q2), float(q3))
    return out

