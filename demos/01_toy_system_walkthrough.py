"""End-to-end walkthrough on the nonlinear toy system.

Simulates the second-order toy process with held-Gaussian excitation and
process/measurement noise, trains a small temporal convolutional network
one-step-ahead, then evaluates both one-step prediction and free-run
simulation on a fresh validation set.

Run:  python demos/01_toy_system_walkthrough.py
"""

import numpy as np

from sysident import (ModelConfig, NoiseSpec, Rng, TrainConfig, build_model,
                      evaluate, make_chen_dataset, train)

# The training set mirrors the toy-problem recipe: 20 records of 100 samples,
# standard-normal input held for 5 samples, noise std 0.3 on both the process
# and the measurement.
noise = NoiseSpec(sigma_v=0.3, sigma_w=0.3)
train_set = make_chen_dataset(20, 100, noise, seed=1)
valid_set = make_chen_dataset(2, 100, noise, seed=2, role="validation")
print(f"training samples: {train_set.num_samples}, "
      f"validation samples: {valid_set.num_samples}")

# A small TCN: kernel size 2, no dilations (the system has order 2, so long
# memory buys nothing), no dropout or normalization.
config = ModelConfig(family="tcn", hidden=16, depth=2, kernel_size=2,
                     dilations=False, dropout=0.0, norm="none",
                     activation="relu")
model = build_model(config, Rng(3))
print(f"model: {config.family}, {model.num_parameters()} parameters, "
      f"receptive field {model.receptive_field} samples")

train_config = TrainConfig(max_epochs=80, batch_size=8, subseq_len=100,
                           seed=3, plateau_patience=10,
                           early_stop_patience=25)
model, history = train(model, train_set, valid_set, train_config)
print(f"trained {len(history)} epochs; best epoch {history.best_epoch}; "
      f"best validation MSE {min(history.valid_loss):.4f}")

# One-step-ahead prediction uses the measured past; free-run simulation feeds
# the model its own predictions, the harder test of the learned dynamics.
for mode in ("one-step", "free-run"):
    report = evaluate(model, valid_set, mode=mode)
    print(f"{mode:>9} RMSE: {report.rmse_mean:.4f} "
          f"(noise floor ~ {np.sqrt(noise.sigma_v**2 + noise.sigma_w**2):.4f})")
