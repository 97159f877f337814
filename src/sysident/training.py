"""Loss, optimizers and the full training loop.

Training minimizes the one-step-ahead mean squared error over shuffled
mini-batches of fixed-length subsequences. Each subsequence is treated as an
independent zero-history sequence (inputs shifted right by one with a zero
first column), matching the evaluation-time padding convention. The learning
rate drops when the validation loss plateaus, early stopping ends the run,
and the parameters from the best validation epoch are restored at the end.
"""

import time
from dataclasses import dataclass

import numpy as np

from .data import write_csv
from .errors import (ConfigError, DataError, DimensionError, NumericError,
                     TrainingDiverged)
from .models import predict_records, shift_right, stack_model_input
from .tensor import Rng


@dataclass
class TrainConfig:
    lr: float = 0.001
    plateau_patience: int = 10
    lr_factor: float = 0.1
    early_stop_patience: int = 30
    max_epochs: int = 300
    batch_size: int = 32
    subseq_len: int = 100
    seed: int = 0
    optimizer: str = "adam"
    shuffle: bool = True

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0.0 < self.lr_factor < 1.0:
            raise ConfigError(f"lr factor must lie in (0, 1), got {self.lr_factor}")
        if self.plateau_patience < 1 or self.early_stop_patience < 1:
            raise ConfigError("patience values must be >= 1")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max epochs must be >= 1, got {self.max_epochs}")
        if self.subseq_len < 2:
            raise ConfigError(
                f"subsequence length must be >= 2, got {self.subseq_len}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer '{self.optimizer}'")


def mse_loss(yhat, y):
    """Mean squared error over all elements and its gradient w.r.t. yhat."""
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if yhat.shape != y.shape:
        raise DimensionError(f"loss shape mismatch: {yhat.shape} vs {y.shape}")
    diff = yhat - y
    loss = float(np.mean(diff * diff))
    grad = (2.0 / diff.size) * diff
    return loss, grad


class _Optimizer:
    """Shared bookkeeping: per-parameter state keyed by name, in-place updates."""

    def __init__(self, named_params, lr):
        self.named_params = list(named_params)
        self.lr = lr

    def step(self, named_grads):
        grads = dict(named_grads)
        for name, _ in self.named_params:
            if not np.all(np.isfinite(grads[name])):
                raise NumericError(f"non-finite gradient for parameter '{name}'")
        for name, param in self.named_params:
            self._update(name, param, grads[name])

    def _update(self, name, param, grad):
        raise NotImplementedError


class Adam(_Optimizer):
    def __init__(self, named_params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        super().__init__(named_params, lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {n: np.zeros_like(p) for n, p in self.named_params}
        self.v = {n: np.zeros_like(p) for n, p in self.named_params}
        self.t = 0

    def step(self, named_grads):
        self.t += 1
        super().step(named_grads)

    def _update(self, name, param, grad):
        m = self.m[name]
        v = self.v[name]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / (1.0 - self.beta1 ** self.t)
        v_hat = v / (1.0 - self.beta2 ** self.t)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class RMSprop(_Optimizer):
    def __init__(self, named_params, lr=0.001, decay=0.9, eps=1e-8):
        super().__init__(named_params, lr)
        self.decay, self.eps = decay, eps
        self.v = {n: np.zeros_like(p) for n, p in self.named_params}

    def _update(self, name, param, grad):
        v = self.v[name]
        v *= self.decay
        v += (1.0 - self.decay) * grad * grad
        param -= self.lr * grad / (np.sqrt(v) + self.eps)


class SGDMomentum(_Optimizer):
    """Gradient descent with a first-order low-pass filter on the gradients."""

    def __init__(self, named_params, lr=0.001, momentum=0.9):
        super().__init__(named_params, lr)
        self.momentum = momentum
        self.vel = {n: np.zeros_like(p) for n, p in self.named_params}

    def _update(self, name, param, grad):
        vel = self.vel[name]
        vel *= self.momentum
        vel += (1.0 - self.momentum) * grad
        param -= self.lr * vel


OPTIMIZERS = {"adam": Adam, "rmsprop": RMSprop, "sgd_momentum": SGDMomentum}


def make_optimizer(model, config):
    return OPTIMIZERS[config.optimizer](model.named_parameters(), config.lr)


MIN_LR = 1e-6   # floor of the plateau schedule


class TrainHistory:
    """Per-epoch record of the run: losses, learning rate and wall-clock."""

    def __init__(self):
        self.epochs = []
        self.train_loss = []
        self.valid_loss = []
        self.lr = []
        self.seconds = []
        self.best_epoch = None

    def append(self, epoch, train_loss, valid_loss, lr, seconds):
        self.epochs.append(epoch)
        self.train_loss.append(train_loss)
        self.valid_loss.append(valid_loss)
        self.lr.append(lr)
        self.seconds.append(seconds)

    def __len__(self):
        return len(self.epochs)

    def to_csv(self, path):
        write_csv(path, ["epoch", "train_loss", "valid_loss", "lr", "seconds"],
                  zip(self.epochs, self.train_loss, self.valid_loss, self.lr,
                      [f"{s:.3f}" for s in self.seconds]))


def build_windows(dataset, narx, subseq_len):
    """Chop records into zero-history subsequences: (input, target) pairs."""
    windows = []
    for record in dataset.records:
        x = stack_model_input(record, narx)
        t_len = x.shape[1]
        for start in range(0, t_len, subseq_len):
            stop = min(start + subseq_len, t_len)
            if stop - start < 2:
                continue
            windows.append((shift_right(x[:, start:stop]),
                            record.y[:, start:stop]))
    if not windows:
        raise DataError("dataset yields no training subsequences")
    return windows


def _batches(windows, order, batch_size):
    """Group shuffled windows into batches of equal sequence length."""
    pending = {}
    for idx in order:
        t_len = windows[idx][0].shape[1]
        pending.setdefault(t_len, []).append(idx)
        if len(pending[t_len]) == batch_size:
            yield pending.pop(t_len)
    for t_len in sorted(pending):
        yield pending[t_len]


def validation_loss(model, dataset):
    """One-step-ahead MSE over every sample of every record (evaluation mode).

    Training scores every sample of its subsequences too, warm-up included.
    """
    total = 0.0
    count = 0
    preds = predict_records(model, dataset.records, "one-step")
    for record, yhat in zip(dataset.records, preds):
        diff = yhat - record.y
        total += float(np.sum(diff * diff))
        count += diff.size
    if count == 0:
        raise DataError("validation dataset is empty")
    return total / count


def _snapshot(model):
    params = {n: p.copy() for n, p in model.named_parameters()}
    state = {n: s.copy() for n, s in model.named_state()}
    return params, state


def _restore(model, snapshot):
    params, state = snapshot
    for name, p in model.named_parameters():
        p[...] = params[name]
    for name, s in model.named_state():
        s[...] = state[name]


def train(model, train_set, valid_set, config):
    """Run the full training protocol; returns (model at best epoch, history).

    The learning rate is multiplied by ``lr_factor`` (floored at ``MIN_LR``)
    after every ``plateau_patience`` consecutive epochs without a new best
    monitored loss. With ``valid_set=None`` the training loss is monitored,
    early stopping is disabled and the final-epoch parameters are kept
    (training until convergence).
    """
    windows = build_windows(train_set, model.config.narx, config.subseq_len)
    shuffle_rng = Rng(config.seed).split()
    optimizer = make_optimizer(model, config)
    history = TrainHistory()
    best_loss = np.inf
    best_snapshot = None
    since_best = 0

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        if config.shuffle:
            order = shuffle_rng.permutation(len(windows))
        else:
            order = np.arange(len(windows))
        sq_sum = 0.0
        n_elems = 0
        for batch_idx in _batches(windows, order, config.batch_size):
            x = np.stack([windows[i][0] for i in batch_idx])
            target = np.stack([windows[i][1] for i in batch_idx])
            model.zero_grads()
            out = model.forward(x, training=True)
            loss, grad = mse_loss(out, target)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"training loss became non-finite at epoch {epoch}", history)
            model.backward(grad)
            optimizer.step(model.named_grads())
            sq_sum += loss * out.size
            n_elems += out.size
        train_loss = sq_sum / n_elems
        valid = validation_loss(model, valid_set) if valid_set is not None else None
        monitored = train_loss if valid is None else valid
        if not np.isfinite(monitored):
            raise TrainingDiverged(
                f"validation loss became non-finite at epoch {epoch}", history)
        history.append(epoch, train_loss, valid, optimizer.lr,
                       time.perf_counter() - t0)
        if monitored < best_loss:
            best_loss = monitored
            best_snapshot = _snapshot(model)
            history.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best % config.plateau_patience == 0:
                optimizer.lr = max(optimizer.lr * config.lr_factor, MIN_LR)
        if valid_set is not None and since_best >= config.early_stop_patience:
            break

    if valid_set is not None and best_snapshot is not None:
        _restore(model, best_snapshot)
    else:
        history.best_epoch = len(history) - 1
    return model, history
