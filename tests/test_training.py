import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sysident import (Adam, ModelConfig, NoiseSpec, RMSprop, Rng, SGDMomentum,
                      TrainConfig, build_model, make_chen_dataset, mse_loss,
                      predict_one_step, train, training, validation_loss)
from sysident.data import Dataset, SequenceRecord
from sysident.errors import (ConfigError, DimensionError, NumericError,
                             TrainingDiverged)
from sysident.models import predict_records

from gradcheck import numerical_gradient, relative_error


class TestMseLoss:
    def test_perfect_fit(self):
        y = Rng(0).gaussian((2, 5))
        loss, grad = mse_loss(y, y)
        assert loss == 0.0
        assert not grad.any()

    def test_direct_evaluation(self):
        # (9 + 16) / 2 = 12.5
        loss, _ = mse_loss(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert loss == 12.5

    def test_gradient_matches_finite_differences(self):
        rng = Rng(1)
        yhat = rng.gaussian((3, 4))
        y = rng.gaussian((3, 4))
        _, grad = mse_loss(yhat, y)
        num = numerical_gradient(lambda: mse_loss(yhat, y)[0], yhat)
        assert relative_error(grad, num) < 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse_loss(np.zeros(3), np.zeros(4))


def _single_param(value):
    p = np.array(value, dtype=np.float64)
    return [("w", p)], p


class TestOptimizers:
    @pytest.mark.parametrize("cls", [Adam, RMSprop, SGDMomentum])
    def test_zero_gradient_leaves_parameters(self, cls):
        params, p = _single_param([1.0, -2.0, 3.0])
        opt = cls(params, lr=0.01)
        opt.step([("w", np.zeros(3))])
        assert np.array_equal(p, [1.0, -2.0, 3.0])

    def test_adam_first_step_is_lr_times_sign(self):
        params, p = _single_param([0.0, 0.0, 0.0])
        opt = Adam(params, lr=0.001)
        g = np.array([0.5, -1.2, 3.0])
        opt.step([("w", g)])
        assert np.all(np.abs(np.abs(p) - 0.001) < 1e-6 * 0.001 + 1e-10)
        assert np.array_equal(np.sign(p), -np.sign(g))

    def test_adam_constant_gradient_limit(self):
        params, p = _single_param([0.0])
        opt = Adam(params, lr=0.001)
        g = np.array([0.37])
        prev = p.copy()
        for _ in range(1000):
            prev = p.copy()
            opt.step([("w", g)])
        step = p - prev
        assert abs(step[0] + 0.001) < 1e-6   # -> -lr * sign(g)

    def test_adam_update_magnitude_bounded(self):
        # per-coordinate bound lr*(1-b1)/sqrt(1-b2) for arbitrary gradients;
        # the tight lr bound holds at t=1 and for constant gradients
        rng = Rng(2)
        params, p = _single_param(rng.gaussian(50))
        opt = Adam(params, lr=0.003)
        hard = 0.003 * (1.0 - 0.9) / np.sqrt(1.0 - 0.999)
        for t in range(25):
            before = p.copy()
            opt.step([("w", rng.gaussian(50, std=3.0))])
            step = np.abs(p - before)
            assert np.all(step <= hard * (1.0 + 1e-9))
            if t == 0:
                assert np.all(step <= 0.003 * (1.0 + 1e-9))

    def test_nan_gradient_refused(self):
        params, p = _single_param([1.0])
        opt = Adam(params, lr=0.01)
        bad = np.array([np.nan])
        with pytest.raises(NumericError):
            opt.step([("w", bad)])
        assert p[0] == 1.0   # step refused, parameter untouched

    def test_rmsprop_scales_by_gradient_history(self):
        params, p = _single_param([0.0])
        opt = RMSprop(params, lr=0.01)
        opt.step([("w", np.array([2.0]))])
        # v = 0.1 * 4; step = lr * 2 / (sqrt(0.4) + eps)
        assert np.isclose(p[0], -0.01 * 2.0 / (np.sqrt(0.4) + 1e-8))

    def test_momentum_low_pass(self):
        params, p = _single_param([0.0])
        opt = SGDMomentum(params, lr=0.1)
        opt.step([("w", np.array([1.0]))])
        assert np.isclose(p[0], -0.1 * 0.1)    # vel = (1-mu) g, mu = 0.9
        opt.step([("w", np.array([1.0]))])
        assert np.isclose(p[0], -0.1 * 0.1 - 0.1 * 0.19)   # vel = 0.09 + 0.1


def plateau_lrs(monkeypatch, losses, lr=0.001, patience=10):
    """The learning rate of each epoch of train() when validation scores
    ``losses`` in turn (early stopping off)."""
    scripted = iter(losses)
    monkeypatch.setattr(training, "validation_loss",
                        lambda model, dataset: next(scripted))
    data = make_chen_dataset(1, 10, NoiseSpec(0.1, 0.1), seed=3)
    model = build_model(ModelConfig(family="mlp", hidden=2), Rng(4))
    config = TrainConfig(lr=lr, plateau_patience=patience, lr_factor=0.1,
                         early_stop_patience=len(losses) + 1,
                         max_epochs=len(losses), seed=5)
    _, history = train(model, data, data, config)
    return history.lr


class TestPlateauScheduler:
    """The plateau schedule inside train()."""

    def test_improving_loss_keeps_lr(self, monkeypatch):
        assert plateau_lrs(monkeypatch, np.linspace(1.0, 0.1, 30)) == [0.001] * 30

    def test_fires_after_exactly_ten_stagnant_epochs(self, monkeypatch):
        lrs = plateau_lrs(monkeypatch, [1.0] * 12)
        # epoch 0 sets the best, epochs 1-10 stagnate; the cut applies from 11
        assert lrs[:11] == [0.001] * 11
        assert lrs[11] == pytest.approx(0.0001)

    def test_counter_resets_after_reduction(self, monkeypatch):
        lrs = plateau_lrs(monkeypatch, [1.0] * 8, patience=3)
        assert lrs[:4] == [0.001] * 4
        assert lrs[4:7] == pytest.approx([1e-4] * 3)   # 3 fresh stagnant epochs
        assert lrs[7] == pytest.approx(1e-5)

    def test_new_best_resets_counter(self, monkeypatch):
        # the new best at epoch 2 restarts the count: no cut after epoch 3
        lrs = plateau_lrs(monkeypatch, [1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5],
                          patience=3)
        assert lrs[:6] == [0.001] * 6
        assert lrs[6] == pytest.approx(1e-4)

    def test_min_lr_floor(self, monkeypatch):
        lrs = plateau_lrs(monkeypatch, [1.0] * 4, lr=1e-5, patience=1)
        assert lrs[:2] == [1e-5] * 2
        assert lrs[2] == pytest.approx(1e-6)
        assert lrs[3] == 1e-6


def linear_gain_dataset(num_records, length, seed, gain=0.5, role="training"):
    """Records obeying y[k+1] = gain * u[k] exactly (y[0] = 0)."""
    rng = Rng(seed)
    records = []
    for _ in range(num_records):
        u = rng.gaussian(length)
        y = np.zeros(length)
        y[1:] = gain * u[:-1]
        records.append(SequenceRecord(u=u, y=y))
    return Dataset(records=records, role=role)


def test_one_sample_tail_window_skipped():
    # 41 samples in windows of 20 leave a 1-sample tail: nothing to learn
    rec = linear_gain_dataset(1, 41, seed=30).records[0]
    windows = training.build_windows(Dataset(records=[rec]), True, 20)
    assert [x.shape for x, _ in windows] == [(2, 20), (2, 20)]
    assert np.array_equal(windows[1][1], rec.y[:, 20:40])


class TestTrain:
    def test_recovers_linear_gain(self):
        train_ds = linear_gain_dataset(8, 60, seed=3)
        valid_ds = linear_gain_dataset(2, 60, seed=4, role="validation")
        cfg = ModelConfig(family="tcn", narx=False, hidden=8, depth=1,
                          kernel_size=1, activation="tanh")
        model = build_model(cfg, Rng(5))
        tc = TrainConfig(max_epochs=500, batch_size=2, subseq_len=60, seed=5,
                         plateau_patience=25, lr_factor=0.5,
                         early_stop_patience=200)
        model, _ = train(model, train_ds, valid_ds, tc)
        probe_hi = model.forward(np.full((1, 1, 2), 1.0), training=False)[0, 0, -1]
        probe_lo = model.forward(np.full((1, 1, 2), -1.0), training=False)[0, 0, -1]
        assert abs((probe_hi - probe_lo) / 2.0 - 0.5) < 1e-3

    def test_two_seeded_runs_identical(self):
        ds = make_chen_dataset(4, 50, NoiseSpec(0.2, 0.2), seed=6)
        vs = make_chen_dataset(2, 50, NoiseSpec(0.2, 0.2), seed=7,
                               role="validation")
        cfg = ModelConfig(family="tcn", hidden=4, depth=1, kernel_size=2,
                          dropout=0.2, norm="batch")
        hists = []
        for _ in range(2):
            model = build_model(cfg, Rng(8))
            tc = TrainConfig(max_epochs=8, batch_size=2, subseq_len=50, seed=8)
            _, hist = train(model, ds, vs, tc)
            hists.append(hist)
        assert hists[0].train_loss == hists[1].train_loss
        assert hists[0].valid_loss == hists[1].valid_loss
        assert hists[0].lr == hists[1].lr

    def test_early_stopping_restores_best_epoch(self):
        # one tiny record: the model overfits and validation loss turns up
        ds = make_chen_dataset(1, 30, NoiseSpec(0.5, 0.5), seed=9)
        vs = make_chen_dataset(2, 60, NoiseSpec(0.5, 0.5), seed=10,
                               role="validation")
        cfg = ModelConfig(family="mlp", hidden=32, order=4)
        model = build_model(cfg, Rng(11))
        tc = TrainConfig(max_epochs=400, batch_size=1, subseq_len=30, seed=11,
                         early_stop_patience=12, lr=0.01)
        model, hist = train(model, ds, vs, tc)
        assert len(hist) < 400
        assert hist.best_epoch == int(np.argmin(hist.valid_loss))
        assert validation_loss(model, vs) == pytest.approx(
            min(hist.valid_loss), rel=1e-12)

    def test_validation_scores_every_sample_of_every_record(self):
        # records of unequal length, warm-up samples included: the mean over
        # all samples, not over records, and no receptive-field mask
        records = [r for n, seed in ((30, 31), (45, 32), (60, 33))
                   for r in make_chen_dataset(1, n, NoiseSpec(0.2, 0.2),
                                              seed=seed).records]
        vs = Dataset(records=records, role="validation")
        cfg = ModelConfig(family="tcn", hidden=4, depth=2, kernel_size=3,
                          dilations=True, norm="batch")
        model = build_model(cfg, Rng(34))
        sq = np.concatenate([(predict_one_step(model, r) - r.y).ravel() ** 2
                             for r in records])
        assert sq.size == 135
        assert validation_loss(model, vs) == pytest.approx(np.mean(sq),
                                                           rel=1e-15)

    def test_lstm_validation_runs_one_forward_per_length(self, monkeypatch):
        records = [r for n, seed in ((30, 35), (45, 36), (30, 37))
                   for r in make_chen_dataset(1, n, NoiseSpec(0.2, 0.2),
                                              seed=seed).records]
        vs = Dataset(records=records, role="validation")
        model = build_model(ModelConfig(family="lstm", hidden=4, depth=2),
                            Rng(38))
        sq = np.concatenate([(p - r.y).ravel() ** 2 for r, p in zip(
            records, predict_records(model, records, "one-step"))])
        batches = []
        forward = type(model).forward

        def counted(net, x, training=False):
            batches.append(x.shape[0])
            return forward(net, x, training)
        monkeypatch.setattr(type(model), "forward", counted)
        assert validation_loss(model, vs) == pytest.approx(np.mean(sq),
                                                           rel=1e-15)
        assert batches == [2, 1]

    def test_descent_on_first_epochs_with_small_lr(self):
        ds = make_chen_dataset(4, 50, NoiseSpec(0.1, 0.1), seed=12)
        cfg = ModelConfig(family="tcn", hidden=6, depth=1, kernel_size=2,
                          activation="tanh")
        model = build_model(cfg, Rng(13))
        tc = TrainConfig(max_epochs=5, batch_size=4, subseq_len=50, seed=13,
                         lr=1e-4)
        _, hist = train(model, ds, None, tc)
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_full_batch_gradient_permutation_invariant(self):
        ds = make_chen_dataset(6, 40, NoiseSpec(0.1, 0.1), seed=14)
        cfg = ModelConfig(family="tcn", hidden=4, depth=1, kernel_size=2,
                          activation="tanh")
        from sysident.models import stack_model_input, shift_right
        from sysident.training import mse_loss as _mse

        def full_gradient(order):
            model = build_model(cfg, Rng(15))
            xs = [shift_right(stack_model_input(r, True)) for r in ds.records]
            ys = [r.y for r in ds.records]
            x = np.stack([xs[i] for i in order])
            y = np.stack([ys[i] for i in order])
            model.zero_grads()
            out = model.forward(x, training=True)
            _, grad = _mse(out, y)
            model.backward(grad)
            return dict(model.named_grads())

        a = full_gradient([0, 1, 2, 3, 4, 5])
        b = full_gradient([3, 0, 5, 1, 4, 2])
        for name in a:
            scale = max(1.0, np.max(np.abs(a[name])))
            assert np.max(np.abs(a[name] - b[name])) < 1e-12 * scale

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_history(self):
        ds = linear_gain_dataset(2, 30, seed=16)
        cfg = ModelConfig(family="mlp", hidden=8, order=2, activation="relu")
        model = build_model(cfg, Rng(17))
        # absurd learning rate forces the loss to overflow
        tc = TrainConfig(max_epochs=50, batch_size=2, subseq_len=30, seed=17,
                         lr=1e25, optimizer="sgd_momentum")
        with pytest.raises(TrainingDiverged) as err:
            train(model, ds, None, tc)
        assert err.value.history is not None

    def test_no_validation_mode_keeps_last_epoch(self):
        ds = linear_gain_dataset(3, 40, seed=18)
        cfg = ModelConfig(family="tcn", narx=False, hidden=4, depth=1,
                          kernel_size=1, activation="tanh")
        model = build_model(cfg, Rng(19))
        tc = TrainConfig(max_epochs=6, batch_size=2, subseq_len=40, seed=19)
        _, hist = train(model, ds, None, tc)
        assert len(hist) == 6
        assert hist.best_epoch == 5
        assert all(v is None for v in hist.valid_loss)


class TestHistoryCsv:
    def test_round_trip_format(self, tmp_path):
        ds = linear_gain_dataset(2, 30, seed=20)
        vs = linear_gain_dataset(1, 30, seed=21, role="validation")
        cfg = ModelConfig(family="tcn", narx=False, hidden=3, depth=1,
                          kernel_size=1)
        model = build_model(cfg, Rng(22))
        tc = TrainConfig(max_epochs=4, batch_size=2, subseq_len=30, seed=22)
        _, hist = train(model, ds, vs, tc)
        path = tmp_path / "history.csv"
        hist.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,valid_loss,lr,seconds"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == hist.train_loss[0]
        assert float(first[3]) == 0.001

    def test_deterministic_columns_exclude_seconds(self, tmp_path):
        ds = linear_gain_dataset(2, 30, seed=23)
        cfg = ModelConfig(family="tcn", narx=False, hidden=3, depth=1,
                          kernel_size=1)
        runs = []
        for name in ("a.csv", "b.csv"):
            model = build_model(cfg, Rng(24))
            tc = TrainConfig(max_epochs=3, batch_size=2, subseq_len=30, seed=24)
            _, hist = train(model, ds, None, tc)
            hist.to_csv(tmp_path / name)
            lines = (tmp_path / name).read_text().strip().splitlines()
            assert lines[0].split(",")[-1] == "seconds"
            runs.append([line.rsplit(",", 1)[0] for line in lines])
        assert runs[0] == runs[1]
        assert runs[0][0] == "epoch,train_loss,valid_loss,lr"


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(lr_factor=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="adagrad")
    with pytest.raises(ConfigError, match="max epochs"):
        TrainConfig(max_epochs=0)
    with pytest.raises(ConfigError, match="subsequence length"):
        TrainConfig(subseq_len=1)


@pytest.mark.parametrize("kw,message", [
    (dict(batch_size=2.5), "batch_size must be of type int, got 2.5"),
    (dict(seed=1.5), "seed must be of type int, got 1.5"),
    (dict(max_epochs=2.0), "max_epochs must be of type int, got 2.0"),
    (dict(subseq_len=20.0), "subseq_len must be of type int, got 20.0"),
    (dict(lr="0.1"), "lr must be of type float, got '0.1'"),
    (dict(optimizer=["adam"]), "optimizer must be of type str"),
    (dict(early_stop_patience=True), "early_stop_patience must be of type int"),
], ids=["batch_size_float", "seed_float", "max_epochs_float",
        "subseq_len_float", "lr_str", "optimizer_list", "patience_bool"])
def test_train_config_field_types(kw, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        TrainConfig(**kw)


# one training-mode forward and backward per family, at matrix sizes where a
# threaded BLAS splits the work between threads; prints one sha256 per model
_THREADED_GRADS = """
import hashlib
from sysident import ModelConfig, Rng, build_model

TCN = dict(family="tcn", hidden=64, depth=3, kernel_size=3, dilations=True)
MLP = dict(family="mlp", hidden=64, order=16, depth=2)
# the 1 000-sample windows reduce each weight gradient over many time chunks
for seed, (kw, t_len) in enumerate((
        (TCN, 100), (MLP, 100), (dict(family="lstm", hidden=64, depth=2), 100),
        (TCN, 1000), (MLP, 1000))):
    model = build_model(ModelConfig(**kw), Rng(seed))
    x = Rng(seed + 10).gaussian((4, model.config.in_channels, t_len))
    out = model.forward(x, training=True)
    model.backward(Rng(seed + 20).gaussian(out.shape))
    h = hashlib.sha256(out.tobytes())
    for name, grad in model.named_grads():
        h.update(name.encode())
        h.update(grad.tobytes())
    print(kw["family"], t_len, h.hexdigest())
"""


# LSTM one-step evaluation of three equally long records, which runs as one
# (3, C, T) forward whose gate products go to a many-row BLAS kernel
_THREADED_ONE_STEP = """
import hashlib
from sysident import (ModelConfig, NoiseSpec, Rng, build_model, evaluate,
                      make_chen_dataset)

model = build_model(ModelConfig(family="lstm", hidden=64, depth=2), Rng(3))
data = make_chen_dataset(3, 100, NoiseSpec(0.3, 0.3), seed=4, role="test")
report = evaluate(model, data, mode="one-step")
h = hashlib.sha256()
for pred in report.predictions:
    h.update(pred.tobytes())
print("lstm", h.hexdigest())
"""


def _digests_at_thread_counts(script):
    """The script's output lines at 1 and at 2 BLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", script],
                                env=env, capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.splitlines())
    return digests


def test_gradients_independent_of_blas_thread_count():
    digests = _digests_at_thread_counts(_THREADED_GRADS)
    assert len(digests[0]) == 5
    assert digests[0] == digests[1]


def test_lstm_one_step_independent_of_blas_thread_count():
    digests = _digests_at_thread_counts(_THREADED_ONE_STEP)
    assert len(digests[0]) == 1
    assert digests[0] == digests[1]
