"""A small hyperparameter grid sweep with box-plot style aggregation.

Expands a Cartesian grid over hidden size and depth, trains every
configuration with a deterministic per-configuration seed, then marginalizes
the validation RMSE over each axis (the aggregation behind box plots of
hyperparameter effects). The full-size sweep definitions used for the toy
problem and the aircraft benchmark are available as chen_tcn_space(),
chen_mlp_space(), chen_lstm_space() and f16_tcn_space().

Run:  python demos/03_hyperparameter_grid.py
"""

from sysident import (GridSpace, ModelConfig, NoiseSpec, TrainConfig,
                      chen_tcn_space, grid_expand, make_chen_dataset,
                      marginal_quartiles, run_grid, select_best)

print(f"full toy-problem TCN sweep would cover {chen_tcn_space().size} "
      f"configurations; running a 6-point slice instead\n")

train_set = make_chen_dataset(10, 100, NoiseSpec(0.3, 0.3), seed=5)
valid_set = make_chen_dataset(2, 100, NoiseSpec(0.3, 0.3), seed=6,
                              role="validation")

space = GridSpace(axes={"hidden": [8, 16, 32], "depth": [1, 2]})
base = ModelConfig(family="tcn", kernel_size=2, activation="relu")
train_config = TrainConfig(max_epochs=40, batch_size=8, subseq_len=100,
                           seed=7, early_stop_patience=15)

rows = run_grid(space, train_set, valid_set, train_config, base=base)
print("hidden  depth  one-step RMSE  free-run RMSE")
for row in rows:
    print(f"{row.config['hidden']:>6}  {row.config['depth']:>5}  "
          f"{row.rmse_one_step:>13.4f}  {row.rmse_free_run:>13.4f}")

best_config, best_score = select_best(rows, metric="one-step")
print(f"\nbest configuration: hidden={best_config.hidden}, "
      f"depth={best_config.depth} (RMSE {best_score:.4f})")

print("\nvalidation RMSE quartiles marginalized over the other axis:")
for axis in ("hidden", "depth"):
    quartiles = marginal_quartiles(rows, axis)
    for value, (q1, q2, q3) in sorted(quartiles.items()):
        print(f"  {axis}={value}: q1={q1:.4f} median={q2:.4f} q3={q3:.4f}")
