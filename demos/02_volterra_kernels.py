"""Volterra kernels of trained input-only (FIR) networks.

A feed-forward network driven by inputs alone, with smooth activations, is a
finite-memory polynomial series: walking a second-order Taylor expansion
(a jet) through its layers turns the weights into the constant, first-order
(impulse response) and second-order kernels. This holds for a one-layer MLP
and for a dilated TCN alike. The finite-difference oracle recovers the same
kernels purely from probing the network with pulses.

Run:  python demos/02_volterra_kernels.py
"""

import numpy as np

from sysident import (ModelConfig, Rng, SequenceRecord, TrainConfig,
                      build_model, extract_volterra_kernels, fd_volterra_oracle,
                      train, volterra_deviation)
from sysident.data import Dataset

# A mildly nonlinear FIR system: y[k] = u[k-1] + 0.4 u[k-2] - 0.3 u[k-1]^2
rng = Rng(0)
records = []
for _ in range(10):
    u = rng.gaussian(200, std=0.5)
    y = np.zeros(200)
    y[1:] += u[:-1]
    y[2:] += 0.4 * u[:-2]
    y[1:] -= 0.3 * u[:-1] ** 2
    records.append(SequenceRecord(u=u, y=y))
train_set = Dataset(records=records[:8])
valid_set = Dataset(records=records[8:], role="validation")
# a model predicts y[k] from u up to k-1, so its lag tau is the system's lag
# tau + 1: h1 is 1 at model lag 0 and 0.4 at lag 1, and h2[0, 0] is -0.3.
# The MLP trains at lr 0.01: at the default 0.001 its loss is still falling
# after 300 epochs, and h2[0, 0] stays near -0.06.
truth_h1 = [1.0, 0.4]
truth_h2 = [-0.3]


def show_kernels(title, config, seed, max_epochs, lr=TrainConfig.lr):
    model = build_model(config, Rng(seed))
    train_config = TrainConfig(lr=lr, max_epochs=max_epochs, batch_size=4,
                               subseq_len=200, seed=seed, plateau_patience=20,
                               lr_factor=0.5, early_stop_patience=120)
    model, history = train(model, train_set, valid_set, train_config)
    kernels = extract_volterra_kernels(model, degree=2)
    oracle = fd_volterra_oracle(model, degree=2)
    print(f"\n{title}: validation MSE {min(history.valid_loss):.2e} at "
          f"epoch {history.best_epoch} of 0-{len(history) - 1}, "
          f"memory {kernels.memory}")
    print(f"h0 (weights) = {kernels.h0:+.5f}   h0 (probe) = {oracle.h0:+.5f}")
    print("lag   h1 weights   h1 probe    true   h2[tau,tau] weights   true")
    for tau in range(kernels.memory):
        true1 = truth_h1[tau] if tau < len(truth_h1) else 0.0
        true2 = truth_h2[tau] if tau < len(truth_h2) else 0.0
        print(f"{tau:>3}   {kernels.h1[tau]:+.5f}     {oracle.h1[tau]:+.5f}   "
              f"{true1:+.2f}   {kernels.h2[tau, tau]:+.5f}              "
              f"{true2:+.2f}")
    dev = volterra_deviation(kernels, oracle)
    print(f"worst extractor/oracle deviation: {dev:.3g}x the tolerance "
          f"(agreement below 1)")


show_kernels("one-layer MLP h16, order 3",
             ModelConfig(family="mlp", narx=False, hidden=16, depth=1, order=3,
                         activation="tanh"), seed=1, max_epochs=300, lr=0.01)
show_kernels("dilated TCN h8, depth 2, kernel 2",
             ModelConfig(family="tcn", narx=False, hidden=8, depth=2,
                         kernel_size=2, dilations=True, activation="tanh"),
             seed=2, max_epochs=200)
