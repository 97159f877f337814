"""Volterra kernels of a trained input-only (FIR) network.

A single-hidden-layer network driven by inputs alone is an explicit
finite-memory polynomial series: Taylor-expanding each hidden activation
around its bias turns the weights into the constant, first-order (impulse
response) and second-order kernels. The finite-difference oracle recovers
the same kernels purely from probing the network with pulses.

Run:  python demos/02_volterra_kernels.py
"""

import numpy as np

from sysident import (ModelConfig, NoiseSpec, Rng, SequenceRecord, TrainConfig,
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

config = ModelConfig(family="mlp", narx=False, hidden=16, depth=1, order=3,
                     activation="tanh")
model = build_model(config, Rng(1))
train_config = TrainConfig(max_epochs=300, batch_size=4, subseq_len=200,
                           seed=1, plateau_patience=20, lr_factor=0.5,
                           early_stop_patience=120)
model, history = train(model, train_set, valid_set, train_config)
print(f"trained to validation MSE {min(history.valid_loss):.2e}")

kernels = extract_volterra_kernels(model, degree=2)
oracle = fd_volterra_oracle(model, degree=2)
print(f"\nh0 (weights) = {kernels.h0:+.5f}   h0 (probe) = {oracle.h0:+.5f}")
print("lag   h1 weights   h1 probe    true")
truth = [0.0, 1.0, 0.4]
for tau in range(kernels.memory):
    print(f"{tau:>3}   {kernels.h1[tau]:+.5f}     {oracle.h1[tau]:+.5f}   "
          f"{truth[tau]:+.2f}")
print("\nh2 diagonal (true second-order kernel is -0.3 at lag 1):")
for tau in range(kernels.memory):
    print(f"{tau:>3}   {kernels.h2[tau, tau]:+.5f}     "
          f"{oracle.h2[tau, tau]:+.5f}")
dev = volterra_deviation(kernels, oracle)
print(f"\nworst extractor/oracle deviation: {dev:.3g}x the tolerance "
      f"(agreement below 1)")
