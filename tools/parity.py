"""Seeded-output digests for checking that a refactor changes no bits.

    python3 tools/parity.py

prints one ``<case> <sha256>`` line per case. Each model case trains a small
seeded model on the Chen toy system and digests, one line each, the trained
parameters and state with the history (losses, learning rates, best epoch;
not the wall-clock seconds), one-step predictions, batched free-run,
warm-started batched free-run and the checkpoint file bytes. The
``tcn_bench_epoch`` case digests the same trained items after one epoch of
the benchmark's TCN training (h32, d4, k4, dilated, batch norm, dropout 0.3,
20x100 Chen records in batches of 8, so the last batch has 4 rows), whose
matrix sizes the small cases do not reach. The ``perfbench.*`` cases digest
batched and warm-started free-run of the committed benchmark models, and their
``evaluate`` one-step predictions on a 10-record set (one 10-row forward for
the LSTM). The ``cli.*`` cases run seeded ``sysident`` commands (generate,
train --normalize, eval of both modes with a band and a warm-up, volterra
--verify of a FIR MLP, gridsearch over two repetitions) in a temporary
directory, with relative paths, and digest every file each command writes. Only what varies between identical runs is masked:
the manifest ``timestamp``, the ``seconds`` column of ``history.csv``, the
``wall_clock`` column of ``results.csv`` and ``journal.csv``, and the order of
the journal's lines. The script imports sysident from the ``src/`` next to
it, so running it in two checkouts and diffing the output compares their
code.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sysident import (ModelConfig, NoiseSpec, Rng, TrainConfig,  # noqa: E402
                      build_model, evaluate, load_checkpoint, make_chen_dataset,
                      predict_one_step, save_checkpoint, simulate_free_run,
                      train)
from sysident.cli import main as cli_main  # noqa: E402

MODEL_CASES = {
    "lstm_d3_dropout": dict(family="lstm", hidden=8, depth=3, dropout=0.3),
    "lstm_fir": dict(family="lstm", narx=False, hidden=6, depth=2),
    "tcn_bn_dropout_dilated": dict(family="tcn", hidden=6, depth=3,
                                   kernel_size=3, dilations=True,
                                   norm="batch", dropout=0.2),
    "mlp_d2": dict(family="mlp", hidden=8, depth=2, order=4,
                   activation="tanh"),
}
BENCH_TCN = dict(family="tcn", hidden=32, depth=4, kernel_size=4,
                 dilations=True, norm="batch", dropout=0.3)
BENCH_MODELS = ("tcn", "mlp", "lstm")
WARM = 6    # measured output samples that warm-started free-run is given


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def free_run_digests(model, records):
    u = np.stack([r.u for r in records])
    y = np.stack([r.y for r in records])
    return {"free_run_batched": digest(simulate_free_run(model, u)),
            "free_run_warm": digest(simulate_free_run(model, u, y[:, :, :WARM]))}


def trained_digest(model, history):
    hist = [history.epochs, history.train_loss,
            [np.nan if v is None else v for v in history.valid_loss],
            history.lr, [history.best_epoch]]
    return digest(*[p for _, p in model.named_parameters()],
                  *[s for _, s in model.named_state()],
                  *[np.asarray(col, dtype=np.float64) for col in hist])


def model_case(kw, train_set, valid_set, tmp):
    model = build_model(ModelConfig(**kw), Rng(11))
    tc = TrainConfig(lr=0.01, max_epochs=4, batch_size=4, subseq_len=20,
                     early_stop_patience=2, plateau_patience=1, seed=12)
    model, history = train(model, train_set, valid_set, tc)
    out = {"trained": trained_digest(model, history)}
    out["one_step"] = digest(*[predict_one_step(model, r) for r in valid_set.records])
    out.update(free_run_digests(model, valid_set.records))
    path = os.path.join(tmp, "ckpt.json")
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        out["checkpoint"] = hashlib.sha256(fh.read()).hexdigest()
    return out


GRID = {"axes": {"hidden": [3, 4]},
        "base": {"family": "tcn", "depth": 1, "kernel_size": 2,
                 "activation": "tanh"}}
DATA = ("--data", "gen/train.csv", "--val", "gen/valid.csv")
CLI_RUNS = (
    ("generate", "chen", "--records", 4, "--val-records", 2, "--length", 60,
     "--seed", 21, "--out", "gen"),
    ("train", *DATA, "--family", "tcn", "--hidden", 6, "--depth", 2,
     "--kernel-size", 3, "--dilations", "--norm", "batch", "--epochs", 6,
     "--batch-size", 4, "--subseq-len", 20, "--plateau-patience", 1,
     "--normalize", "--seed", 22, "--out", "train"),
    ("eval", "--checkpoint", "train/checkpoint.json", "--data", "gen/valid.csv",
     "--mode", "both", "--band", 0.05, 0.3, "--warmup", 2, "--seed", 23,
     "--out", "eval"),
    # no --val: history.csv gets empty valid_loss cells
    ("train", "--data", "gen/train.csv", "--family", "mlp", "--fir",
     "--hidden", 5, "--order", 3,
     "--activation", "tanh", "--epochs", 3, "--seed", 24, "--out", "fir"),
    ("volterra", "--checkpoint", "fir/checkpoint.json", "--verify",
     "--seed", 25, "--out", "volterra"),
    ("gridsearch", "--grid", "grid.json", *DATA, "--epochs", 2,
     "--repetitions", 2, "--seed", 26, "--out", "grid"),
)


def drop_last_column(data):
    return re.sub(rb",[^,\r\n]*(\r?\n)", rb"\1", data)


MASKS = {
    "manifest.json": lambda b: re.sub(rb'"timestamp": "[^"]*"',
                                      b'"timestamp": ""', b),
    "history.csv": drop_last_column,
    "results.csv": drop_last_column,
    "journal.csv": lambda b: b"".join(
        sorted(drop_last_column(b).splitlines(keepends=True))),
}


def cli_digests():
    """Exit code and masked output-file digests of each seeded CLI run."""
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("grid.json", "w", encoding="utf-8") as fh:
                json.dump(GRID, fh)
            for args in CLI_RUNS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main([str(a) for a in args])
                run = args[-1]
                out[f"{run}.exit"] = str(code)
                for name in sorted(os.listdir(run)):
                    with open(os.path.join(run, name), "rb") as fh:
                        data = MASKS.get(name, bytes)(fh.read())
                    out[f"{run}.{name}"] = hashlib.sha256(data).hexdigest()
        finally:
            os.chdir(cwd)
    return out


def main():
    noise = NoiseSpec(sigma_w=0.05)
    train_set = make_chen_dataset(4, 60, noise, seed=1)
    valid_set = make_chen_dataset(3, 50, noise, seed=2, role="validation")
    with tempfile.TemporaryDirectory() as tmp:
        for name, kw in MODEL_CASES.items():
            for item, hexdigest in model_case(kw, train_set, valid_set, tmp).items():
                print(f"{name}.{item} {hexdigest}")
    bench_noise = NoiseSpec(0.3, 0.3)
    model = build_model(ModelConfig(**BENCH_TCN), Rng(13))
    model, history = train(model, make_chen_dataset(20, 100, bench_noise, seed=4),
                           make_chen_dataset(2, 100, bench_noise, seed=5,
                                             role="validation"),
                           TrainConfig(max_epochs=1, batch_size=8, seed=14))
    print(f"tcn_bench_epoch.trained {trained_digest(model, history)}")
    bench_set = make_chen_dataset(3, 300, noise, seed=3, role="test")
    one_step_set = make_chen_dataset(10, 100, bench_noise, seed=6, role="test")
    for name in BENCH_MODELS:
        model, _ = load_checkpoint(os.path.join(ROOT, "perfbench", "models",
                                                f"{name}.json"))
        for item, hexdigest in free_run_digests(model, bench_set.records).items():
            print(f"perfbench.{name}.{item} {hexdigest}")
        report = evaluate(model, one_step_set, mode="one-step")
        print(f"perfbench.{name}.one_step {digest(*report.predictions)}")
    for item, value in cli_digests().items():
        print(f"cli.{item} {value}")


if __name__ == "__main__":
    main()
