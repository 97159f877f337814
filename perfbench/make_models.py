"""Train the three fixed models that the free-run and one-step ops load.

Run once from the root of the repository:

    python3 perfbench/make_models.py

It trains a dilated TCN, a NARX-MLP and an LSTM on the Chen toy system from a
fixed seed, writes their JSON checkpoints to ``perfbench/models/`` and checks
that each model's free-run output stays bounded on held-out records drawn
with several benchmark seeds. The workloads only load these files, so their
set-up time measures loading, and their simulation figures do not move when
training speed or training results do.
"""

import sys

import bench_env

sy = bench_env.import_sysident()

import numpy as np  # noqa: E402  (after bench_env pins the thread pools)

import bench_workloads as bw  # noqa: E402

TRAIN_SEED = 101
EPOCHS = 200
OUTPUT_BOUND = 25.0     # |yhat| bound, about twice the largest |y|


def main():
    noise = sy.NoiseSpec(bw.SIGMA, bw.SIGMA)
    train_set = sy.make_chen_dataset(bw.TRAIN_RECORDS, bw.RECORD_LEN, noise,
                                     seed=TRAIN_SEED)
    valid_set = sy.make_chen_dataset(bw.VALID_RECORDS, bw.RECORD_LEN, noise,
                                     seed=TRAIN_SEED + 1, role="validation")
    bw.MODEL_DIR.mkdir(exist_ok=True)
    ok = True
    for family, spec in bw.FAMILIES.items():
        model = sy.build_model(sy.ModelConfig(**spec.sim_config),
                               sy.Rng(TRAIN_SEED))
        config = sy.TrainConfig(max_epochs=EPOCHS, batch_size=bw.BATCH,
                                seed=TRAIN_SEED)
        model, history = sy.train(model, train_set, valid_set, config)
        path = bw.MODEL_DIR / f"{family}.json"
        sy.save_checkpoint(model, path)
        worst = 0.0
        for seed in range(1, 11):
            test_set = bw.make_test_set(sy, seed)
            for record in test_set.records:
                yhat = sy.simulate_free_run(model, record.u)
                worst = max(worst, float(np.max(np.abs(yhat))))
            rmse = sy.evaluate(model, test_set, mode="free-run").rmse_mean
            bounded = np.isfinite(rmse) and rmse < spec.freerun_rmse_bound \
                and worst < OUTPUT_BOUND
            ok &= bool(bounded)
            print(f"{family} seed {seed}: free-run RMSE {rmse:.4f} "
                  f"(bound {spec.freerun_rmse_bound}), max |yhat| {worst:.3f}")
        print(f"{family}: {len(history)} epochs, best {history.best_epoch}, "
              f"wrote {path}")
    if not ok:
        print("a model's free-run output is out of bounds", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
