"""A small hyperparameter grid sweep with box-plot style aggregation.

Expands a Cartesian grid over hidden size and depth, trains every
configuration with a deterministic per-configuration seed, then marginalizes
the validation RMSE over each axis (the aggregation behind box plots of
hyperparameter effects). The full-size sweeps for the toy problem and the
aircraft benchmark are grid files in grids/ (chen_tcn.json, chen_mlp.json,
chen_lstm.json, f16_tcn.json), each run by `sysident gridsearch --grid`.

Run:  python demos/03_hyperparameter_grid.py
"""

from pathlib import Path

from sysident import (ModelConfig, NoiseSpec, TrainConfig, grid_expand,
                      load_grid, make_chen_dataset, marginal_quartiles,
                      run_grid, select_best)

paper_grid = Path(__file__).resolve().parents[1] / "grids" / "chen_tcn.json"
print(f"the full toy-problem TCN sweep grids/chen_tcn.json covers "
      f"{len(load_grid(paper_grid, 1, 1))} configurations; "
      f"running a 6-point slice instead\n")

train_set = make_chen_dataset(10, 100, NoiseSpec(0.3, 0.3), seed=5)
valid_set = make_chen_dataset(2, 100, NoiseSpec(0.3, 0.3), seed=6,
                              role="validation")

configs = grid_expand({"hidden": [8, 16, 32], "depth": [1, 2]},
                      ModelConfig(family="tcn", kernel_size=2, activation="relu"))
train_config = TrainConfig(max_epochs=40, batch_size=8, subseq_len=100,
                           seed=7, early_stop_patience=15)

rows = run_grid(configs, train_set, valid_set, train_config)
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
