"""Grid-search harness: Cartesian hyperparameter sweeps with journaling,
deterministic per-configuration seeds and parallel workers. ``load_grid`` is
the one reader of the grid-file format.

Results are invariant (as a set of rows) to the worker count because each
configuration trains from a seed derived only from the base seed and its own
index, never from scheduling order.
"""

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields, replace
from itertools import product
from typing import Optional

import numpy as np

from .analysis import evaluate
from .errors import ConfigError, DataError, SysidentError
from .models import MODES, ModelConfig, build_model, count_parameters
from .tensor import Rng, derive_seed
from .training import train


def grid_expand(axes, base=None):
    """All combinations of the ``axes`` mapping (ModelConfig field -> non-empty
    list of values) over ``base``, as ModelConfigs in lexicographic axis order.

    Axes that are not a mapping of non-empty lists, and an axis that names no
    ModelConfig field, raise ConfigError.
    """
    if not isinstance(axes, dict):
        raise ConfigError(f"grid axes must be a mapping, got {axes!r}")
    for name, values in axes.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"grid axis '{name}' must be a non-empty list")
    base = (base if base is not None else ModelConfig()).to_dict()
    names = sorted(axes)
    return [ModelConfig.from_dict({**base, **dict(zip(names, combo))})
            for combo in product(*(axes[n] for n in names))]


def load_grid(path, nu, ny):
    """The expanded ModelConfigs of the grid file at ``path``.

    The file is a JSON object with the required ``axes`` and an optional
    ``base`` configuration; ``nu`` and ``ny`` (the data's channel counts)
    apply unless ``base`` sets them. Any other key raises ConfigError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:   # not JSON, or not UTF-8 text
            raise ConfigError(f"grid file {path} is not JSON: {exc}") from None
    if not isinstance(doc, dict) or "axes" not in doc:
        raise ConfigError(f"grid file {path} has no 'axes' entry")
    unknown = sorted(set(doc) - {"axes", "base"})
    if unknown:
        raise ConfigError(f"grid file {path} has unknown keys: {unknown}")
    given = doc.get("base", {})
    base = ModelConfig.from_dict(given)
    return grid_expand(doc["axes"], replace(base, nu=given.get("nu", nu),
                                            ny=given.get("ny", ny)))


# the GridRow field that holds each evaluation mode's validation RMSE
_METRIC_FIELDS = {mode: "rmse_" + mode.replace("-", "_") for mode in MODES}


@dataclass
class GridRow:
    index: int
    repetition: int
    config: dict
    train_config: dict               # the TrainConfig fields, base seed included
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
                json.dumps(self.train_config, sort_keys=True),
                self.seed, self.status, self.rmse_one_step, self.rmse_free_run,
                self.best_epoch, f"{self.wall_clock:.3f}"]

    @classmethod
    def from_csv_row(cls, row):
        if len(row) != len(fields(cls)):
            raise ValueError(f"a grid row has {len(fields(cls))} cells, "
                             f"got {len(row)}")
        return cls(index=int(row[0]), repetition=int(row[1]),
                   config=json.loads(row[2]), train_config=json.loads(row[3]),
                   seed=int(row[4]), status=row[5],
                   rmse_one_step=float(row[6]) if row[6] else None,
                   rmse_free_run=float(row[7]) if row[7] else None,
                   best_epoch=int(row[8]) if row[8] else None,
                   wall_clock=float(row[9]))


def _run_single(payload):
    """Train and score one configuration (runs inside a worker process)."""
    index, repetition, config, seed, train_set, valid_set, train_config = payload
    t0 = time.perf_counter()
    task = dict(index=index, repetition=repetition, config=config.to_dict(),
                train_config=asdict(train_config), seed=seed)
    try:
        model = build_model(config, Rng(seed))
        tc = replace(train_config, seed=seed)
        model, history = train(model, train_set, valid_set, tc)
        scores = {field: evaluate(model, valid_set, mode=mode).rmse_mean
                  for mode, field in _METRIC_FIELDS.items()}
        return GridRow(**task, status="ok", **scores,
                       best_epoch=history.best_epoch,
                       wall_clock=time.perf_counter() - t0)
    except SysidentError:
        return GridRow(**task, status="failed",
                       **dict.fromkeys(_METRIC_FIELDS.values()), best_epoch=None,
                       wall_clock=time.perf_counter() - t0)


def _journal_append(path, row):
    # the line format of data.write_csv, one row per append
    with open(path, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(row.to_csv_row())


def _task_key(index, repetition, config, train_config, seed):
    return (index, repetition, json.dumps(config, sort_keys=True),
            json.dumps(train_config, sort_keys=True), seed)


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
            cells = next(csv.reader([raw.decode("utf-8")]), None)
            row = GridRow.from_csv_row(cells) if cells else None
        except (ValueError, IndexError, csv.Error) as exc:
            if lineno < len(lines):
                raise DataError(f"{path}: malformed journal line {lineno}") from exc
            torn = True
        if torn:
            with open(path, "r+b") as fh:
                fh.truncate(kept_bytes)
            break
        if row is not None:
            rows[_task_key(row.index, row.repetition, row.config,
                           row.train_config, row.seed)] = row
        kept_bytes += len(raw)
    return rows


def run_grid(configs, train_set, valid_set, train_config, jobs=1,
             journal_path=None, repetitions=1):
    """Train every ModelConfig of ``configs`` (see ``grid_expand`` and
    ``load_grid``); returns rows sorted by index.

    Per-configuration seeds derive from (train_config.seed, index, repetition)
    only, so results do not depend on worker count or on other axes being
    added. With ``journal_path`` completed rows survive interruption and are
    not re-run; a journal row is reused only when its index, repetition,
    configuration, training settings and seed all match the task. ``jobs``
    and ``repetitions`` below 1, and a configuration whose ``nu`` or ``ny``
    differs from the training data's channel counts, raise ConfigError before
    anything runs.
    """
    for name, value in (("jobs", jobs), ("repetitions", repetitions)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    nu, ny = train_set.channels
    for cfg in configs:
        if (cfg.nu, cfg.ny) != (nu, ny):
            raise ConfigError(f"grid configuration {cfg.to_dict()} has "
                              f"{cfg.nu} inputs / {cfg.ny} outputs but the "
                              f"training data has {nu} / {ny}")
    done = _journal_load(journal_path) if journal_path else {}
    settings = asdict(train_config)
    reused, tasks = [], []
    for rep in range(repetitions):
        for i, cfg in enumerate(configs):
            seed = derive_seed(train_config.seed, i, rep)
            row = done.get(_task_key(i, rep, cfg.to_dict(), settings, seed))
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


def _scored(rows, attr):
    # a NaN would compare false both ways, so only finite scores are ranked
    return [r for r in rows if r.status == "ok" and getattr(r, attr) is not None
            and math.isfinite(getattr(r, attr))]


def select_best(rows, metric="one-step"):
    """Configuration with the lowest finite validation RMSE under the chosen
    metric, among the ``ok`` rows.

    Ties break toward fewer parameters, then lexicographic configuration order;
    only the tied rows' models are counted.
    """
    attr = _METRIC_FIELDS[metric]
    ok = _scored(rows, attr)
    if not ok:
        raise DataError("no successful grid rows to select from")
    best = min(ok, key=lambda row: getattr(row, attr))
    tied = [r for r in ok if getattr(r, attr) == getattr(best, attr)]
    if len(tied) > 1:
        best = min(tied, key=lambda row: (
            count_parameters(ModelConfig.from_dict(row.config)),
            json.dumps(row.config, sort_keys=True)))
    return ModelConfig.from_dict(best.config), getattr(best, attr)


def marginal_quartiles(rows, axis, metric="one-step"):
    """Box-plot aggregation: quartiles of the metric per value of one axis,
    marginalizing over every other hyperparameter; only ``ok`` rows with a
    finite metric count."""
    attr = _METRIC_FIELDS[metric]
    groups = {}
    for row in _scored(rows, attr):
        groups.setdefault(row.config[axis], []).append(getattr(row, attr))
    out = {}
    for value, metrics in groups.items():
        q1, q2, q3 = np.quantile(np.asarray(metrics), [0.25, 0.5, 0.75],
                                 method="median_unbiased")
        out[value] = (float(q1), float(q2), float(q3))
    return out

