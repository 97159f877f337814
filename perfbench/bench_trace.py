"""Opt-in tracing: spans and counters around calls into sysident's modules.

An untraced run never installs anything from here. ``Tracer.install``
replaces public functions and methods of the sysident modules, wherever they
are imported, and ``numpy.einsum`` with wrappers that record a span (name,
start, end, parent, run id) or bump a counter; ``uninstall`` puts the
originals back. Every span opened inside one benchmark operation carries that
operation's run id. Spans are kept in memory in columnar arrays and written
out by ``write``. A span's self time is its duration minus the time its child
spans cover; it is summed as spans close, per (benchmark operation, parent
span name, span name), so the aggregates cover every span even when the kept
span list is capped.
"""

import functools
import os
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from bench_workloads import OPS

MAX_KEPT_SPANS = 400_000

# (module, function, span name, index of the path argument whose file size
# is counted as "<span name>.bytes", or None)
FUNCTIONS = (
    ("sysident.models", "lstm_cell_step", "models.lstm_cell_step", None),
    ("sysident.models", "lstm_cell_backward", "models.lstm_cell_backward", None),
    ("sysident.models", "simulate_free_run", "models.simulate_free_run", None),
    ("sysident.models", "predict_one_step", "models.predict_one_step", None),
    ("sysident.models", "load_checkpoint", "models.checkpoint_load", 0),
    ("sysident.models", "save_checkpoint", "models.checkpoint_save", 1),
    ("sysident.layers", "_sigmoid", "layers.sigmoid", None),
    ("sysident.training", "train", "training.train", None),
    ("sysident.training", "validation_loss", "training.validation", None),
    ("sysident.data", "load_csv_dataset", "data.load_csv", 0),
    ("sysident.data", "save_csv_dataset", "data.save_csv", 1),
    ("sysident.data", "normalize_dataset", "data.normalize", None),
    ("sysident.data", "simulate_chen", "data.simulate_chen", None),
    ("sysident.analysis", "evaluate", "analysis.evaluate", None),
    ("sysident.analysis", "error_spectrum", "analysis.error_spectrum", None),
    ("sysident.gridsearch", "run_grid", "gridsearch.run_grid", None),
    ("sysident.gridsearch", "_journal_append", "gridsearch.journal_append", None),
    ("sysident.cli", "cmd_generate", "cli.generate", None),
    ("sysident.cli", "cmd_train", "cli.train", None),
    ("sysident.cli", "cmd_eval", "cli.eval", None),
    ("sysident.cli", "cmd_gridsearch", "cli.gridsearch", None),
    ("sysident.cli", "cmd_volterra", "cli.volterra", None),
)

# (module, class, methods, span name)
METHODS = (
    ("sysident.tensor", "Rng",
     ("gaussian", "uniform", "random", "integers", "permutation"),
     "tensor.rng_draw"),
    ("sysident.layers", "CausalConv1d", ("forward",), "layers.conv_forward"),
    ("sysident.layers", "CausalConv1d", ("backward",), "layers.conv_backward"),
    ("sysident.layers", "CausalConv1d", ("step",), "layers.conv_step"),
    ("sysident.layers", "Activation", ("forward", "backward", "step"),
     "layers.activation"),
    ("sysident.layers", "BatchNorm", ("forward", "backward", "step"),
     "layers.batchnorm"),
    ("sysident.layers", "Dropout", ("forward", "backward", "step"),
     "layers.dropout"),
)

# model-level methods of every class defined in sysident.models
MODEL_METHODS = {"forward": "models.forward", "backward": "models.backward",
                 "step": "models.model_step"}
OPTIMIZER_SPAN = "training.optimizer_step"


def _classes_of(mod_name):
    """The classes defined in a module, if it is loaded."""
    mod = sys.modules.get(mod_name)
    if mod is None:
        return []
    return [c for c in vars(mod).values()
            if isinstance(c, type) and c.__module__ == mod_name]


class Tracer:
    """In-memory spans, per-span-name aggregates and counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.kept = {col: array(code) for col, code in (
            ("span", "q"), ("parent", "q"), ("run", "q"), ("name", "i"),
            ("start", "d"), ("end", "d"))}
        self.spans = 0
        self.stats = {}         # (op, parent name, name) -> [calls, total, self]
        self.counts = {}        # (op, name) -> value
        self.grid_calls = []    # (jobs, seconds, [(status, wall_clock)])
        self.stack = []         # open spans: [name, span id, start, child time]
        self.op_name = "-"
        self.run_id = -1
        self._patches = []

    # -- recording --------------------------------------------------------------

    def enter(self, name):
        self.stack.append([name, self.spans, time.perf_counter(), 0.0])
        self.spans += 1

    def exit(self):
        end = time.perf_counter()
        name, span_id, start, child = self.stack.pop()
        seconds = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += seconds
        key = (self.op_name, parent[0] if parent else "-", name)
        agg = self.stats.get(key)
        if agg is None:
            self.stats[key] = [1, seconds, seconds - child]
        else:
            agg[0] += 1
            agg[1] += seconds
            agg[2] += seconds - child
        if span_id < MAX_KEPT_SPANS:
            kept = self.kept
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            kept["span"].append(span_id)
            kept["parent"].append(parent[1] if parent else -1)
            kept["run"].append(self.run_id)
            kept["name"].append(self._name_ids[name])
            kept["start"].append(start)
            kept["end"].append(end)
        return seconds

    def count(self, name, n=1):
        key = (self.op_name, name)
        self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def op(self, kind):
        """Root span of one benchmark operation; its spans share a run id."""
        self.run_id += 1
        outer = self.op_name
        self.op_name = kind
        self.enter("op." + kind)
        try:
            yield
        finally:
            self.exit()
            self.op_name = outer

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        k = self.kept
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,run,name,start_s,end_s\n")
            for i in range(len(k["span"])):
                fh.write(f"{k['span'][i]},{k['parent'][i]},{k['run'][i]},"
                         f"{self.names[k['name'][i]]},{k['start'][i]!r},"
                         f"{k['end'][i]!r}\n")

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, name, fn, path_arg=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == name:    # super() chains: one span
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit()
                raise
            seconds = tracer.exit()
            if path_arg is not None and len(args) > path_arg:
                try:
                    tracer.count(name + ".bytes", os.path.getsize(args[path_arg]))
                except (OSError, TypeError):
                    pass
            if after is not None:
                after(seconds, args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _record_grid(self, seconds, args, kwargs, rows):
        jobs = kwargs.get("jobs", args[5] if len(args) > 5 else 1)
        self.grid_calls.append((jobs, seconds,
                                [(r.status, r.wall_clock) for r in rows]))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new):
        """Replace ``original`` in every sysident module that imported it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sysident"
                                   or mod_name.startswith("sysident.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self):
        """Wrap the traced functions; names a version lacks are skipped."""
        for mod_name, fn_name, span, path_arg in FUNCTIONS:
            fn = getattr(sys.modules.get(mod_name), fn_name, None)
            if fn is None:
                continue
            after = self._record_grid if span == "gridsearch.run_grid" else None
            self._patch_everywhere(fn, self._span_wrapper(span, fn, path_arg,
                                                          after))
        for mod_name, cls_name, methods, span in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            for meth in methods:
                if cls is not None and meth in vars(cls):
                    self._patch(cls, meth,
                                self._span_wrapper(span, vars(cls)[meth]))
        for cls in _classes_of("sysident.models"):
            for meth, span in MODEL_METHODS.items():
                if meth in vars(cls):
                    self._patch(cls, meth, self._span_wrapper(span, vars(cls)[meth]))
        for cls in _classes_of("sysident.training"):    # the optimizers
            if "step" in vars(cls):
                self._patch(cls, "step",
                            self._span_wrapper(OPTIMIZER_SPAN, vars(cls)["step"]))
        self._patch(np, "einsum", self._count_wrapper("layers.einsum", np.einsum))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- queries ----------------------------------------------------------------

    def _sum(self, col, name, op=None, parent=None):
        return sum(agg[col] for (o, p, n), agg in self.stats.items()
                   if n == name and (op is None or o == op)
                   and (parent is None or p == parent))

    def calls(self, name, op=None, parent=None):
        return self._sum(0, name, op, parent)

    def total(self, name, op=None, parent=None):
        return self._sum(1, name, op, parent)

    def self_time(self, name, op=None):
        return self._sum(2, name, op)

    def counted(self, name, op=None):
        return sum(v for (o, n), v in self.counts.items()
                   if n == name and (op is None or o == op))

    def per_cycle(self, value_in_op):
        """Sum over the timed operations of a value per call of each.

        One call of every timed operation is one nominal cycle; a figure per
        nominal cycle does not depend on how many calls fit into the run.
        """
        out = 0.0
        for op in OPS:
            n = self.calls("op." + op, op=op)
            if n:
                out += value_in_op(op) / n
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, freerun_samples_per_call, eval_predictions_per_call):
    """Every per-layer metric, as {name: (value, unit)}.

    ``freerun_samples_per_call`` is the number of samples one free-run
    operation simulates; ``eval_predictions_per_call`` is records x modes of
    one ``sysident eval`` call.
    """
    t = tracer
    m = {}

    def calls_and_self(name, metric):
        m[metric + ".calls"] = (t.per_cycle(lambda op: t.calls(name, op)), "count")
        m[metric + ".self_s"] = (t.per_cycle(lambda op: t.self_time(name, op)), "s")

    def per_call(name, metric):
        m[metric] = (_ratio(t.total(name), t.calls(name)), "s")

    freerun_samples = t.calls("op.freerun", "freerun") * freerun_samples_per_call
    train_batches = t.calls(OPTIMIZER_SPAN, "train")

    calls_and_self("tensor.rng_draw", "tensor.rng_draw")
    calls_and_self("layers.conv_forward", "layers.conv_forward")
    calls_and_self("layers.conv_backward", "layers.conv_backward")
    m["layers.conv_step.calls_per_sample"] = (
        _ratio(t.calls("layers.conv_step", "freerun"), freerun_samples), "1/sample")
    m["layers.conv_step.self_s"] = (
        t.per_cycle(lambda op: t.self_time("layers.conv_step", op)), "s")
    m["layers.einsum.calls_per_sample"] = (
        _ratio(t.counted("layers.einsum", "freerun"), freerun_samples), "1/sample")
    m["layers.einsum.calls_per_batch"] = (
        _ratio(t.counted("layers.einsum", "train"), train_batches), "1/batch")
    calls_and_self("layers.sigmoid", "layers.sigmoid")
    for layer in ("activation", "batchnorm", "dropout"):
        m[f"layers.{layer}.self_s"] = (
            t.per_cycle(lambda op, n=f"layers.{layer}": t.self_time(n, op)), "s")

    calls_and_self("models.lstm_cell_step", "models.lstm_cell_step")
    calls_and_self("models.lstm_cell_backward", "models.lstm_cell_backward")
    m["models.model_step.calls_per_sample"] = (
        _ratio(t.calls("models.model_step", "freerun"), freerun_samples), "1/sample")
    for fn in ("simulate_free_run", "predict_one_step"):
        name = "models." + fn
        m[name + ".calls"] = (t.per_cycle(lambda op, n=name: t.calls(n, op)), "count")
        per_call(name, name + ".s")
    per_call("models.checkpoint_load", "models.checkpoint_load.s")
    per_call("models.checkpoint_save", "models.checkpoint_save.s")
    m["models.checkpoint.bytes"] = (_ratio(
        t.counted("models.checkpoint_load.bytes")
        + t.counted("models.checkpoint_save.bytes"),
        t.calls("models.checkpoint_load") + t.calls("models.checkpoint_save")),
        "bytes")

    n_train = t.calls("training.train", "train")
    parts = {}
    for metric, name in (("forward_s", "models.forward"),
                         ("backward_s", "models.backward"),
                         ("optimizer_s", OPTIMIZER_SPAN),
                         ("validation_s", "training.validation")):
        parts[metric] = _ratio(t.total(name, "train", "training.train"), n_train)
        m["training." + metric] = (parts[metric], "s")
    m["training.optimizer_step.calls"] = (_ratio(train_batches, n_train), "count")
    m["training.loop_self_s"] = (
        _ratio(t.total("training.train", "train"), n_train) - sum(parts.values())
        if n_train else 0.0, "s")

    for fn in ("load_csv", "save_csv"):
        name = "data." + fn
        per_call(name, name + ".s")
        m[name + ".bytes"] = (_ratio(t.counted(name + ".bytes"), t.calls(name)),
                              "bytes")
    m["data.normalize.calls"] = (
        t.per_cycle(lambda op: t.calls("data.normalize", op)), "count")
    per_call("data.normalize", "data.normalize.s")
    per_call("data.simulate_chen", "data.simulate_chen.s")

    m["analysis.evaluate.calls"] = (
        t.per_cycle(lambda op: t.calls("analysis.evaluate", op)), "count")
    per_call("analysis.evaluate", "analysis.evaluate.s")
    per_call("analysis.error_spectrum", "analysis.error_spectrum.s")

    grids = tracer.grid_calls
    rows = [r for _, _, rs in grids for r in rs]
    m["gridsearch.rows_ok"] = (
        _ratio(sum(s == "ok" for s, _ in rows), len(grids)), "count")
    m["gridsearch.rows_failed"] = (
        _ratio(sum(s != "ok" for s, _ in rows), len(grids)), "count")
    j1_walls = [w for jobs, _, rs in grids if jobs == 1 for s, w in rs if s == "ok"]
    m["gridsearch.config_s"] = (
        statistics.median(j1_walls) if j1_walls else 0.0, "s")
    for jobs in (1, 2):
        shares = [sum(w for _, w in rs) / (jobs * sec)
                  for j, sec, rs in grids if j == jobs]
        m[f"gridsearch.busy_share.j{jobs}"] = (
            statistics.median(shares) if shares else 0.0, "share")
    m["gridsearch.journal_append.calls"] = (
        _ratio(t.calls("gridsearch.journal_append"), len(grids)), "count")
    per_call("gridsearch.journal_append", "gridsearch.journal_append.s")

    predictions = (t.calls("models.simulate_free_run", "cli_eval")
                   + t.calls("models.predict_one_step", "cli_eval"))
    m["cli.eval.simulations_per_record"] = (_ratio(
        predictions, t.calls("op.cli_eval", "cli_eval") * eval_predictions_per_call),
        "1/record")
    for sub in ("generate", "train", "eval", "gridsearch", "volterra"):
        name = "cli." + sub
        m[name + ".self_s"] = (_ratio(t.self_time(name), t.calls(name)), "s")

    m["trace.spans"] = (t.per_cycle(
        lambda op: sum(a[0] for (o, _, _), a in t.stats.items() if o == op)),
        "count")
    return m
