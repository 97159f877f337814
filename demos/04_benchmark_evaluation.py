"""Benchmark evaluation on externally supplied datasets.

The electronic-circuit (Silverbox) and aircraft ground-vibration (F-16)
benchmark signals are distributed by nonlinearbenchmark.org and are not
bundled here. Convert them to the toolkit's CSV layout (one sample per row,
header naming channels u1..., y1...; optional <file>.meta.json sidecar with
"sample_rate" and "segments") and point SYSIDENT_DATA_DIR at the directory:

    $SYSIDENT_DATA_DIR/silverbox_train.csv
    $SYSIDENT_DATA_DIR/silverbox_test.csv
    $SYSIDENT_DATA_DIR/f16_train.csv
    $SYSIDENT_DATA_DIR/f16_valid.csv
    $SYSIDENT_DATA_DIR/f16_test.csv

Run:  SYSIDENT_DATA_DIR=... python demos/04_benchmark_evaluation.py
"""

import os
import sys

from sysident import (ModelConfig, Rng, TrainConfig, build_model,
                      compute_norm_constants, evaluate, load_csv_dataset,
                      normalize_dataset, train)

data_dir = os.environ.get("SYSIDENT_DATA_DIR")
if not data_dir or not os.path.exists(os.path.join(data_dir, "silverbox_train.csv")):
    print(__doc__)
    print("benchmark files not found; set SYSIDENT_DATA_DIR to run")
    sys.exit(0)

train_set = load_csv_dataset(os.path.join(data_dir, "silverbox_train.csv"),
                             role="training")
test_set = load_csv_dataset(os.path.join(data_dir, "silverbox_test.csv"),
                            role="test")
print(f"training samples: {train_set.num_samples}, "
      f"test samples: {test_set.num_samples}")

# taken as the best sweep configuration for this circuit, which is
# unverified: no sweep here has run on Silverbox data or a surrogate of it.
# 2 blocks of 8 units, kernel size 2, no dropout or normalization;
# near-noiseless data, so train to convergence without a validation split
norm = compute_norm_constants(train_set)
config = ModelConfig(family="tcn", hidden=8, depth=2, kernel_size=2)
model = build_model(config, Rng(0))
train_config = TrainConfig(max_epochs=150, batch_size=32, subseq_len=100,
                           seed=0)
model, history = train(model, normalize_dataset(train_set, norm), None,
                       train_config)
print(f"final training MSE {history.train_loss[-1]:.3e}")

for mode in ("one-step", "free-run"):
    report = evaluate(model, test_set, mode=mode, normalization=norm)
    print(f"{mode:>9} RMSE: {report.rmse_mean * 1000.0:.3f} mV")
