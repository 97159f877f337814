"""Command-line entry point for reproducible identification runs.

Subcommands: generate, train, eval, gridsearch, volterra. Every run writes a
manifest (resolved arguments, seed, input digests, outputs, timestamps) next
to its outputs. Exit codes: 0 success, 2 input error, 3 unsupported
operation, 4 numeric failure.
"""

import argparse
import hashlib
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .analysis import (error_spectrum, evaluate, extract_volterra_kernels,
                       fd_volterra_oracle, volterra_deviation)
from .data import (NoiseSpec, NormConstants, compute_norm_constants,
                   load_csv_dataset, make_chen_dataset, normalize_dataset,
                   save_csv_dataset, write_csv, write_json)
from .errors import DataError, NumericError, SysidentError, UnsupportedError
from .gridsearch import GridRow, load_grid, run_grid, select_best
from .layers import ACTIVATIONS
from .models import (FAMILIES, MODES, NORM_KINDS, ModelConfig, build_model,
                     load_checkpoint, save_checkpoint)
from .tensor import Rng, derive_seed
from .training import OPTIMIZERS, TrainConfig, train

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_NUMERIC = 4


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_dataset(path, args, role):
    u_cols = args.u_cols.split(",") if getattr(args, "u_cols", None) else None
    y_cols = args.y_cols.split(",") if getattr(args, "y_cols", None) else None
    return load_csv_dataset(path, u_cols=u_cols, y_cols=y_cols, role=role)


def cmd_generate(args, seed):
    noise = NoiseSpec(sigma_v=args.sigma_v, sigma_w=args.sigma_w)
    train_ds = make_chen_dataset(args.records, args.length, noise,
                                 seed=derive_seed(seed, "train"),
                                 hold=args.hold, role="training")
    valid_ds = make_chen_dataset(args.val_records, args.length, noise,
                                 seed=derive_seed(seed, "validation"),
                                 hold=args.hold, role="validation")
    train_path = os.path.join(args.out, "train.csv")
    valid_path = os.path.join(args.out, "valid.csv")
    save_csv_dataset(train_ds, train_path)
    save_csv_dataset(valid_ds, valid_path)
    print(f"wrote {train_ds.num_samples} training and "
          f"{valid_ds.num_samples} validation samples to {args.out}")
    return [], [train_path, valid_path]


def _check_channels(dataset, nu, ny, source):
    """Raise DataError unless ``dataset`` has the ``nu`` inputs and ``ny``
    outputs of ``source`` (the checkpoint or the training data)."""
    got_nu, got_ny = dataset.channels
    if (got_nu, got_ny) != (nu, ny):
        raise DataError(f"{source} has {nu} inputs / {ny} outputs but the "
                        f"{dataset.role} data has {got_nu} / {got_ny}")


def _load_train_valid(args):
    """The ``--data`` training set and the ``--val`` validation set (None
    without ``--val``), whose channels must match the training set's."""
    train_ds = _load_dataset(args.data, args, "training")
    valid_ds = _load_dataset(args.val, args, "validation") if args.val else None
    if valid_ds is not None:
        _check_channels(valid_ds, *train_ds.channels, "the training data")
    return train_ds, valid_ds


# the config fields that model and training flags set; a flag is named after
# its field (max_epochs: --epochs), has the field's type and default, and
# takes its choices from the tuple that the owning module validates against
_MODEL_FIELDS = ("family", "hidden", "depth", "kernel_size", "order",
                 "dropout", "norm", "activation")
_TRAIN_FIELDS = ("lr", "max_epochs", "batch_size", "subseq_len",
                 "plateau_patience", "lr_factor", "early_stop_patience",
                 "optimizer")
_DESTS = {"max_epochs": "epochs"}
_CHOICES = {"family": FAMILIES, "norm": NORM_KINDS, "activation": ACTIVATIONS,
            "optimizer": tuple(OPTIMIZERS)}


def _add_config_flags(parser, config_type, names):
    defaults = config_type()
    types = {f.name: f.type for f in fields(config_type)}
    for name in names:
        parser.add_argument("--" + _DESTS.get(name, name).replace("_", "-"),
                            type=types[name], default=getattr(defaults, name),
                            choices=_CHOICES.get(name))


def _config_from_args(config_type, names, args, **fixed):
    return config_type(**{n: getattr(args, _DESTS.get(n, n)) for n in names},
                       **fixed)


def _model_config_from_args(args, nu, ny):
    return _config_from_args(ModelConfig, _MODEL_FIELDS, args, nu=nu, ny=ny,
                             narx=not args.fir, dilations=args.dilations)


def _train_config_from_args(args, seed):
    return _config_from_args(TrainConfig, _TRAIN_FIELDS, args, seed=seed)


def cmd_train(args, seed):
    train_config = _train_config_from_args(args, seed)
    train_ds, valid_ds = _load_train_valid(args)
    config = _model_config_from_args(args, *train_ds.channels)
    norm = None
    if args.normalize:
        norm = compute_norm_constants(train_ds)
        train_ds = normalize_dataset(train_ds, norm)
        if valid_ds is not None:
            valid_ds = normalize_dataset(valid_ds, norm)
    model = build_model(config, Rng(seed))
    model, history = train(model, train_ds, valid_ds, train_config)
    ckpt_path = os.path.join(args.out, "checkpoint.json")
    hist_path = os.path.join(args.out, "history.csv")
    save_checkpoint(model, ckpt_path,
                    normalization=norm.to_dict() if norm else None)
    history.to_csv(hist_path)
    print(f"trained {args.family} for {len(history)} epochs; "
          f"best epoch {history.best_epoch}; checkpoint at {ckpt_path}")
    return [args.data] + ([args.val] if args.val else []), [ckpt_path, hist_path]


def cmd_eval(args, seed):
    model, norm_dict = load_checkpoint(args.checkpoint)
    dataset = _load_dataset(args.data, args, "test")
    _check_channels(dataset, model.config.nu, model.config.ny, "the checkpoint")
    norm = NormConstants.from_dict(norm_dict) if norm_dict else None
    first = dataset.records[0]
    rate = 1.0 if first.sample_rate is None else first.sample_rate
    if args.band is not None:   # reject a bad band before writing any file
        error_spectrum(np.zeros(first.length), sample_rate=rate, band=args.band)
    modes = MODES if args.mode == "both" else [args.mode]
    # every mode is scored before any file is written, so a failing one
    # leaves none behind
    reports = [evaluate(model, dataset, mode=mode, warmup=args.warmup,
                        normalization=norm) for mode in modes]
    outputs = []
    for report in reports:
        tag = report.mode.replace("-", "_")
        report_path = os.path.join(args.out, f"report_{tag}.json")
        write_json(report_path, report.to_dict())
        outputs.append(report_path)
        pred_path = os.path.join(args.out, f"predictions_{tag}.csv")
        _write_predictions(dataset, report.predictions, pred_path)
        outputs.append(pred_path)
        if args.band is not None:
            spec_path = os.path.join(args.out, f"spectrum_{tag}.csv")
            _write_spectrum(first, report.predictions[0], rate, args.band,
                            spec_path)
            outputs.append(spec_path)
        print(f"{report.mode}: mean RMSE {report.rmse_mean:.6g} over "
              f"{report.sample_count} samples")
    return [args.checkpoint, args.data], outputs


def _write_predictions(dataset, predictions, path):
    ny = dataset.channels[1]
    header = (["record", "k"] + [f"y{i + 1}" for i in range(ny)]
              + [f"yhat{i + 1}" for i in range(ny)])
    write_csv(path, header, (
        [ri, k] + row
        for ri, (record, yhat) in enumerate(zip(dataset.records, predictions))
        for k, row in enumerate(np.concatenate([record.y, yhat]).T.tolist())))


def _write_spectrum(record, yhat, rate, band, path):
    ny = record.y.shape[0]
    err = yhat - record.y
    spectra = [error_spectrum(e, sample_rate=rate, band=band) for e in err]
    write_csv(path, ["frequency"] + [f"mag_y{i + 1}" for i in range(ny)],
              np.column_stack([spectra[0][0]] + [m for _, m in spectra]).tolist())


def cmd_gridsearch(args, seed):
    tc = _train_config_from_args(args, seed)
    train_ds, valid_ds = _load_train_valid(args)
    configs = load_grid(args.grid, *train_ds.channels)
    journal = os.path.join(args.out, "journal.csv")
    rows = run_grid(configs, train_ds, valid_ds, tc, jobs=args.jobs,
                    journal_path=journal, repetitions=args.repetitions)
    results_path = os.path.join(args.out, "results.csv")
    write_csv(results_path, [f.name for f in fields(GridRow)],
              (row.to_csv_row() for row in rows))
    best_config, best_score = select_best(rows, metric=args.metric)
    best_path = os.path.join(args.out, "best.json")
    write_json(best_path, {"config": best_config.to_dict(),
                           "metric": args.metric, "rmse": best_score})
    print(f"{len(rows)} grid rows; best {args.metric} RMSE {best_score:.6g}")
    return [args.grid, args.data, args.val], [results_path, journal, best_path]


def cmd_volterra(args, seed):
    model, _ = load_checkpoint(args.checkpoint)
    kernels = extract_volterra_kernels(model, degree=args.degree)
    h0_path = os.path.join(args.out, "h0.csv")
    write_csv(h0_path, ["h0"], [[kernels.h0]])
    h1_path = os.path.join(args.out, "h1.csv")
    write_csv(h1_path, ["tau", "h1"], enumerate(kernels.h1.tolist()))
    outputs = [h0_path, h1_path]
    if args.degree >= 2:
        h2_path = os.path.join(args.out, "h2.csv")
        write_csv(h2_path, [f"tau{t}" for t in range(kernels.memory)],
                  kernels.h2.tolist())
        outputs.append(h2_path)
    if args.verify:
        dev = volterra_deviation(kernels,
                                 fd_volterra_oracle(model, degree=args.degree))
        if not dev < 1.0:   # a NaN deviation fails too
            raise NumericError(
                f"extracted kernels deviate from the finite-difference oracle "
                f"by {dev:.3g}x the tolerance")
        print(f"verification passed (worst deviation {dev:.3g}x tolerance)")
    print(f"kernels written to {args.out} (memory {kernels.memory})")
    return [args.checkpoint], outputs


def _add_column_flags(parser):
    parser.add_argument("--u-cols", help="comma-separated input column names")
    parser.add_argument("--y-cols", help="comma-separated output column names")


def _add_model_flags(parser):
    _add_config_flags(parser, ModelConfig, _MODEL_FIELDS)
    parser.add_argument("--dilations", action="store_true")
    parser.add_argument("--fir", action="store_true",
                        help="input-only model (no output feedback)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sysident",
        description="Nonlinear system identification with TCN/MLP/LSTM models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate a toy-system dataset")
    p.add_argument("system", choices=["chen"])
    p.add_argument("--records", type=int, default=20)
    p.add_argument("--val-records", type=int, default=2)
    p.add_argument("--length", type=int, default=100)
    p.add_argument("--hold", type=int, default=5)
    p.add_argument("--sigma-v", type=float, default=0.3)
    p.add_argument("--sigma-w", type=float, default=0.3)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="out_generate")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--val")
    _add_column_flags(p)
    _add_model_flags(p)
    _add_config_flags(p, TrainConfig, _TRAIN_FIELDS)
    p.add_argument("--normalize", action="store_true",
                   help="standardize channels with training statistics")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="out_train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    _add_column_flags(p)
    p.add_argument("--mode", choices=[*MODES, "both"], default="both")
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--band", type=float, nargs=2, metavar=("F_LO", "F_HI"))
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="out_eval")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gridsearch", help="hyperparameter sweep")
    p.add_argument("--grid", required=True, help="JSON file listing axes")
    p.add_argument("--data", required=True)
    p.add_argument("--val", required=True)
    _add_column_flags(p)
    _add_config_flags(p, TrainConfig, _TRAIN_FIELDS)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--metric", choices=MODES, default="one-step")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="out_grid")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("volterra", help="extract Volterra kernels")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the finite-difference oracle")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="out_volterra")
    p.set_defaults(func=cmd_volterra)
    return parser


def main(argv=None):
    """Run one subcommand; its outputs and manifest go to ``--out``."""
    args = build_parser().parse_args(argv)
    seed = args.seed
    if seed is None:    # unseeded runs draw a seed and record it in the manifest
        seed = int.from_bytes(os.urandom(4), "little")
    try:
        os.makedirs(args.out, exist_ok=True)
        inputs, outputs = args.func(args, seed)
        write_json(os.path.join(args.out, "manifest.json"), {
            "command": args.command,
            "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
            "seed": seed,
            "version": __version__,
            "inputs": {os.fspath(p): _digest(p) for p in inputs},
            "outputs": [os.fspath(p) for p in outputs],
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        })
    except UnsupportedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SysidentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
