"""Seeded-output digests for checking that a refactor changes no bits.

    python3 tools/parity.py

prints one ``<case> <sha256>`` line per case. Each model case trains a small
seeded model on the Chen toy system and digests, one line each, the trained
parameters and state with the history (losses, learning rates, best epoch;
not the wall-clock seconds), one-step predictions, batched free-run and the
checkpoint file bytes. The ``tcn_bench_epoch`` case digests the same trained
items after one epoch of the benchmark's TCN training (h32, d4, k4, dilated,
batch norm, dropout 0.3, 20x100 Chen records in batches of 8, so the last
batch has 4 rows), whose matrix sizes the small cases do not reach. The
``volterra.tcn_fir`` case digests the Volterra kernels (h0, h1, h2) of a
seeded FIR tanh TCN (dilated, batch norm, dropout) trained like the model
cases. The
``conv_backward`` case digests the parameter and input gradients of one
seeded causal conv backward over a (3, 16, 300) input (kernel 3, dilation
4), without and with weight norm, whose weight gradient sums over several
time chunks. The
``data.load_csv`` case digests the records ``load_csv_dataset`` reads from a
dataset file written by ``save_csv_dataset`` and from a hand-written file of
awkward cells (spaces, quotes, signed zero, a subnormal, CRLF and blank
lines, an unselected text column, columns selected out of header order). The
``perfbench.*`` cases digest batched free-run of the committed benchmark
models, their one-record (B = 1) free-run of a 400-sample record (over
four times the TCN's receptive field of 91, so every ring buffer wraps),
the sliding-window oracle ``free_run_naive`` over the first 40 samples of
that record, their ``evaluate`` one-step predictions on a 10-record set
(one 10-row forward), and, as ``one_step_mixed``, on records of lengths
1, 37, 100 and 37 (three length groups, one of them one sample long). The
``cli.*`` cases run seeded ``sysident`` commands
(generate, train --normalize, eval of both modes with a band and a warm-up,
volterra --verify of a FIR MLP, gridsearch over two repetitions) in a
temporary directory, with relative paths, and digest every file each
command writes. Only what varies between identical runs is masked: the
manifest ``timestamp``, the ``seconds`` column of ``history.csv``, the
``wall_clock`` column of ``results.csv`` and ``journal.csv``, and the order
of the journal's lines. The script imports sysident from the ``src/`` next to
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

from sysident import (Dataset, ModelConfig, NoiseSpec, Rng,  # noqa: E402
                      SequenceRecord, TrainConfig, build_model, evaluate, extract_volterra_kernels,
                      free_run_naive, load_checkpoint, load_csv_dataset,
                      make_chen_dataset, predict_one_step, save_checkpoint,
                      save_csv_dataset, simulate_free_run, train)
from sysident.cli import main as cli_main  # noqa: E402
from sysident.layers import CausalConv1d  # noqa: E402

MODEL_CASES = {
    "lstm_d3_dropout": dict(family="lstm", hidden=8, depth=3, dropout=0.3),
    "lstm_fir": dict(family="lstm", narx=False, hidden=6, depth=2),
    "tcn_bn_dropout_dilated": dict(family="tcn", hidden=6, depth=3,
                                   kernel_size=3, dilations=True,
                                   norm="batch", dropout=0.2),
    "mlp_d2": dict(family="mlp", hidden=8, depth=2, order=4,
                   activation="tanh"),
}
VOLTERRA_TCN = dict(family="tcn", narx=False, hidden=5, depth=2,
                    kernel_size=3, dilations=True, norm="batch", dropout=0.2,
                    activation="tanh")
BENCH_TCN = dict(family="tcn", hidden=32, depth=4, kernel_size=4,
                 dilations=True, norm="batch", dropout=0.3)
BENCH_MODELS = ("tcn", "mlp", "lstm")


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def free_run_digest(model, records):
    return digest(simulate_free_run(model, np.stack([r.u for r in records])))


def trained_digest(model, history):
    hist = [history.epochs, history.train_loss,
            [np.nan if v is None else v for v in history.valid_loss],
            history.lr, [history.best_epoch]]
    return digest(*[p for _, p in model.named_parameters()],
                  *[s for _, s in model.named_state()],
                  *[np.asarray(col, dtype=np.float64) for col in hist])


def train_case(kw, train_set, valid_set):
    model = build_model(ModelConfig(**kw), Rng(11))
    tc = TrainConfig(lr=0.01, max_epochs=4, batch_size=4, subseq_len=20,
                     early_stop_patience=2, plateau_patience=1, seed=12)
    return train(model, train_set, valid_set, tc)


def model_case(kw, train_set, valid_set, tmp):
    model, history = train_case(kw, train_set, valid_set)
    out = {"trained": trained_digest(model, history)}
    out["one_step"] = digest(*[predict_one_step(model, r) for r in valid_set.records])
    out["free_run_batched"] = free_run_digest(model, valid_set.records)
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


def conv_backward_digest():
    grads = []
    for weight_norm in (False, True):
        conv = CausalConv1d(16, 16, 3, 4, Rng(15), weight_norm=weight_norm)
        out = conv.forward(Rng(16).gaussian((3, 16, 300)), training=True)
        d_x = conv.backward(Rng(17).gaussian(out.shape))
        grads += [g for _, g in conv.named_grads()] + [d_x]
    return digest(*grads)


AWKWARD_CSV = ('"y1", u2 ,note,u1\r\n'
               ' 1.5 ,"-0.0",x,+1.5\r\n'
               '\r\n'
               '1e-320,1.,"a,b",.5\r\n'
               '\n'
               '"  2.25 ",-1e-5, ,7\n')


def load_csv_digest(dataset, tmp):
    """Every record ``load_csv_dataset`` reads back from ``dataset`` written
    by ``save_csv_dataset``, then from the awkward-cell file."""
    written = os.path.join(tmp, "written.csv")
    save_csv_dataset(dataset, written)
    awkward = os.path.join(tmp, "awkward.csv")
    with open(awkward, "wb") as fh:
        fh.write(AWKWARD_CSV.encode())
    records = (load_csv_dataset(written).records
               + load_csv_dataset(awkward, u_cols=["u1", "u2"],
                                  y_cols=["y1"]).records)
    return digest(*[a for r in records for a in (r.u, r.y)])


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
    kernels = extract_volterra_kernels(
        train_case(VOLTERRA_TCN, train_set, valid_set)[0])
    print(f"volterra.tcn_fir {digest(kernels.h0, kernels.h1, kernels.h2)}")
    print(f"conv_backward {conv_backward_digest()}")
    with tempfile.TemporaryDirectory() as tmp:
        print(f"data.load_csv {load_csv_digest(valid_set, tmp)}")
    bench_noise = NoiseSpec(0.3, 0.3)
    model = build_model(ModelConfig(**BENCH_TCN), Rng(13))
    model, history = train(model, make_chen_dataset(20, 100, bench_noise, seed=4),
                           make_chen_dataset(2, 100, bench_noise, seed=5,
                                             role="validation"),
                           TrainConfig(max_epochs=1, batch_size=8, seed=14))
    print(f"tcn_bench_epoch.trained {trained_digest(model, history)}")
    bench_set = make_chen_dataset(3, 300, noise, seed=3, role="test")
    long_record = make_chen_dataset(1, 400, noise, seed=7, role="test").records[0]
    one_step_set = make_chen_dataset(10, 100, bench_noise, seed=6, role="test")
    mixed_set = Dataset(records=[
        SequenceRecord(r.u[:, :n], r.y[:, :n]) for r, n in zip(
            make_chen_dataset(4, 100, bench_noise, seed=8).records,
            (1, 37, 100, 37))], role="test")
    for name in BENCH_MODELS:
        model, _ = load_checkpoint(os.path.join(ROOT, "perfbench", "models",
                                                f"{name}.json"))
        print(f"perfbench.{name}.free_run_batched "
              f"{free_run_digest(model, bench_set.records)}")
        print(f"perfbench.{name}.free_run_single "
              f"{digest(simulate_free_run(model, long_record.u))}")
        print(f"perfbench.{name}.free_run_naive "
              f"{digest(free_run_naive(model, long_record.u[:, :40]))}")
        report = evaluate(model, one_step_set, mode="one-step")
        print(f"perfbench.{name}.one_step {digest(*report.predictions)}")
        report = evaluate(model, mixed_set, mode="one-step")
        print(f"perfbench.{name}.one_step_mixed {digest(*report.predictions)}")
    for item, value in cli_digests().items():
        print(f"cli.{item} {value}")


if __name__ == "__main__":
    main()
