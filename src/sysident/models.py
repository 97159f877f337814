"""Model families (TCN, NARX-MLP, LSTM) over a shared sequence interface.

Every model maps an input sequence x (batch, channels, time) to an output
sequence of the same length, where the column at time k is the prediction of
the measured output one step ahead. In NARX mode x stacks the input and
output channels, x[k] = (u[k], y[k]); in FIR mode x carries u only.

``predict_one_step`` feeds measured data shifted right by one sample (zero
history at the start), so its output aligns index-for-index with y.
``simulate_free_run`` replaces the measured outputs in the feedback channels
with the model's own past predictions, evaluating one time step at a time for
a whole batch of records; each layer keeps only the state that step needs.
``layers.CausalConv1d`` alone owns the einsum layout rules that keep its
streaming step bitwise equal to ``forward``, the bias included: it is the
step einsum's last term, where ``forward`` adds it after its einsum. The
streamed columns are plain C-order arrays.

All three families are one ``SequenceNet``: a chain of stages (TCN residual
blocks, MLP dense layers or stacked ``LstmLayer``s) and a 1x1 output map.
"""

import base64
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import SequenceRecord, write_json
from .errors import (ConfigError, DataError, DimensionError, ParameterError,
                     UnsupportedError)
from .layers import (ACTIVATIONS, NORM_KINDS, Activation, CausalConv1d,
                     Dropout, Layer, ResidualBlock, _init_weight, _sigmoid,
                     chain_backward, chain_forward, chain_receptive_field,
                     chain_step)
from .tensor import Rng

FAMILIES = ("tcn", "mlp", "lstm")
MODES = ("one-step", "free-run")     # the evaluation modes
# the Python types each annotated config field accepts; bool, although an
# int subclass, is neither a size nor a rate
_ACCEPTED_TYPES = {int: int, bool: bool, float: (int, float), str: str}


def check_field_types(config):
    """Raise ConfigError unless each field of the dataclass ``config`` holds
    a value its annotated type accepts."""
    for f in fields(config):
        value = getattr(config, f.name)
        if not isinstance(value, _ACCEPTED_TYPES[f.type]) or (
                f.type is not bool and isinstance(value, bool)):
            raise ConfigError(f"{f.name} must be of type {f.type.__name__}, "
                              f"got {value!r}")


@dataclass
class ModelConfig:
    """Architecture hyperparameters; parameter count is a pure function of this."""

    family: str = "tcn"
    nu: int = 1
    ny: int = 1
    narx: bool = True          # feed y back as input channels; False = FIR (x = u)
    hidden: int = 16
    depth: int = 1             # residual blocks / hidden layers / stacked cells
    kernel_size: int = 2
    dilations: bool = False    # d_l = 2**(l-1) when on, 1 when off
    order: int = 2             # MLP window length (lags of the regression vector)
    dropout: float = 0.0
    norm: str = "none"
    activation: str = "relu"

    def __post_init__(self):
        check_field_types(self)
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family '{self.family}'")
        if self.norm not in NORM_KINDS:
            raise ConfigError(f"unknown norm kind '{self.norm}'")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation '{self.activation}'")
        for name in ("nu", "ny", "hidden", "depth", "kernel_size", "order"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def in_channels(self):
        return self.nu + self.ny if self.narx else self.nu

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"a model configuration must be a mapping, got {d!r}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown model configuration keys: {unknown}")
        return cls(**d)


class SequenceNet(Layer):
    """A chain of sequence stages followed by a 1x1 output map.

    The TCN's stages are residual blocks of dilated causal convolutions
    (``model.blocks``). The NARX-MLP's first stage is a kernel-n causal
    convolution, which is exactly a dense layer on the window of the last n
    regression vectors; its deeper hidden layers are 1x1 convolutions, i.e.
    per-time-step dense maps (``model.layers``). The LSTM's stages are
    stacked recurrent layers (``model.cells``).

    ``begin_stream`` resets every stage's ring buffers or recurrent state;
    ``step`` then advances the whole model one time step, computing only
    each stage's new output column.
    """

    def __init__(self, config, group, stages, head):
        super().__init__()
        self.config = config
        setattr(self, group, stages)     # model.blocks, .layers or .cells
        self.head = head
        self.children = [(f"{group}.{i}", s) for i, s in enumerate(stages)]
        self.children.append(("head", head))
        self.chain = [*stages, head]

    def num_parameters(self):
        return sum(p.size for _, p in self.named_parameters())

    @property
    def receptive_field(self):
        return chain_receptive_field(self.chain)

    def forward(self, x, training=False):
        return chain_forward(self.chain, x, training)

    def backward(self, grad):
        return chain_backward(self.chain, grad)

    def step(self, col):
        return chain_step(self.chain, col)


def _tcn_blocks(c, rng):
    blocks = []
    cin = c.in_channels
    for l in range(c.depth):
        d = 2 ** l if c.dilations else 1
        blocks.append(ResidualBlock(
            cin, c.hidden, c.kernel_size, d, norm=c.norm,
            dropout=c.dropout, activation=c.activation, rng=rng))
        cin = c.hidden
    return blocks


def _mlp_layers(c, rng):
    init = "he" if c.activation == "relu" else "glorot"
    layers = [CausalConv1d(c.in_channels, c.hidden, c.order, 1, rng, init=init),
              Activation(c.activation)]
    for _ in range(c.depth - 1):
        layers.append(CausalConv1d(c.hidden, c.hidden, 1, 1, rng, init=init))
        layers.append(Activation(c.activation))
    return layers


def _lstm_cells(c, rng):
    sizes = [c.in_channels] + [c.hidden] * (c.depth - 1)
    cells = [LstmLayer(n, c.hidden, rng) for n in sizes]
    # dropout between stacked layers only (none after the last one); its
    # streams split off after every cell's weights are drawn
    for cell in cells[:-1]:
        cell.drop = Dropout(c.dropout, rng.split())
    return cells


def _output_map(c, rng):
    return CausalConv1d(c.hidden, c.ny, 1, 1, rng, init="glorot")


def lstm_cell_step(x_t, h_prev, c_prev, w_x, w_h, b):
    """One LSTM cell update; returns (h, c, cache) with gate order i, f, g, o."""
    hidden = h_prev.shape[1]
    z = x_t @ w_x.T + h_prev @ w_h.T + b
    s = _sigmoid(z)   # one call over all 4H; the g slice goes unused
    i = s[:, :hidden]
    f = s[:, hidden:2 * hidden]
    g = np.tanh(z[:, 2 * hidden:3 * hidden])
    o = s[:, 3 * hidden:]
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    cache = (x_t, h_prev, c_prev, s, g, tc)
    return h, c, cache


def lstm_cell_backward(cache, d_h, d_c, w_x, w_h):
    """Adjoint of one cell step.

    Returns (d_x, d_h_prev, d_c_prev, d_wx, d_wh, d_b) where d_h/d_c are the
    gradients flowing into this step's outputs.
    """
    x_t, h_prev, c_prev, s, g, tc = cache
    hidden = g.shape[1]
    i = s[:, :hidden]
    f = s[:, hidden:2 * hidden]
    o = s[:, 3 * hidden:]
    d_c_total = d_c + d_h * o * (1.0 - tc * tc)
    # dL/d(gate) in gate order i, f, g, o; the sigmoid adjoint then runs once
    # over the contiguous (B, 4H) block, and the tanh adjoint replaces the g slot
    d_s = np.empty_like(s)
    np.multiply(d_c_total, g, out=d_s[:, :hidden])
    np.multiply(d_c_total, c_prev, out=d_s[:, hidden:2 * hidden])
    np.multiply(d_c_total, i, out=d_s[:, 2 * hidden:3 * hidden])
    np.multiply(d_h, tc, out=d_s[:, 3 * hidden:])
    dz = d_s * s * (1.0 - s)
    dz[:, 2 * hidden:3 * hidden] = d_s[:, 2 * hidden:3 * hidden] * (1.0 - g * g)
    d_wx = dz.T @ x_t
    d_wh = dz.T @ h_prev
    d_b = dz.sum(axis=0)
    d_x = dz @ w_x
    d_h_prev = dz @ w_h
    d_c_prev = d_c_total * f
    return d_x, d_h_prev, d_c_prev, d_wx, d_wh, d_b


class LstmLayer(Layer):
    """One LSTM layer over (batch, channels, time), run one step at a time.

    ``drop``, set on every layer but the top one of a stack, is inverted
    dropout on the layer's output, drawn once as a (time, batch, hidden)
    mask; the recurrence carries the unmasked h. Streaming keeps (h, c).
    The memory is unbounded, so there is no receptive field.
    """

    def __init__(self, in_size, hidden, rng):
        super().__init__()
        self.in_size = in_size
        self.hidden = hidden
        self._register("Wx", _init_weight(rng, (4 * hidden, in_size),
                                          in_size, hidden, "glorot"))
        self._register("Wh", _init_weight(rng, (4 * hidden, hidden),
                                          hidden, hidden, "glorot"))
        self._register("b", np.zeros(4 * hidden))
        self.drop = None
        self._steps = None     # cell cache per step
        self._state = None

    @property
    def receptive_field(self):
        raise UnsupportedError("receptive field is unbounded for recurrent models")

    def forward(self, x, training=False):
        if x.ndim != 3 or x.shape[1] != self.in_size:
            raise DimensionError(
                f"lstm expects (batch, {self.in_size}, time), got {x.shape}"
            )
        b_sz, _, t_len = x.shape
        h = np.zeros((b_sz, self.hidden))
        c = np.zeros((b_sz, self.hidden))
        hs = np.empty((t_len, b_sz, self.hidden))
        self._steps = [] if training else None     # the cell caches BPTT reads
        for t in range(t_len):
            h, c, cache = lstm_cell_step(x[:, :, t], h, c, self.params["Wx"],
                                         self.params["Wh"], self.params["b"])
            hs[t] = h
            if training:
                self._steps.append(cache)
        if self.drop is not None:
            # one (T, B, H) draw fills the stream as T (B, H) draws would
            hs = self.drop.forward(hs, training)
        return np.ascontiguousarray(hs.transpose(1, 2, 0))

    def backward(self, grad):
        steps = self._training_cache(self._steps)
        b_sz, _, t_len = grad.shape
        d_h = np.zeros((b_sz, self.hidden))
        d_c = np.zeros((b_sz, self.hidden))
        d_x = np.zeros((b_sz, self.in_size, t_len))
        down = grad.transpose(2, 0, 1)
        if self.drop is not None:
            down = self.drop.backward(down)
        for t in range(t_len - 1, -1, -1):
            d_xt, d_h, d_c, d_wx, d_wh, d_b = lstm_cell_backward(
                steps[t], d_h + down[t], d_c, self.params["Wx"],
                self.params["Wh"])
            self.grads["Wx"] += d_wx
            self.grads["Wh"] += d_wh
            self.grads["b"] += d_b
            d_x[:, :, t] = d_xt
        return d_x

    def begin_stream(self, batch_size=1):
        self._state = (np.zeros((batch_size, self.hidden)),
                       np.zeros((batch_size, self.hidden)))

    def step(self, col):
        if self._state is None:
            raise ParameterError("step called before begin_stream")
        if col.shape != (self._state[0].shape[0], self.in_size, 1):
            raise DimensionError(
                f"lstm step expects ({self._state[0].shape[0]}, {self.in_size}, 1), "
                f"got {col.shape}")
        h, c, _ = lstm_cell_step(col[:, :, 0], *self._state, self.params["Wx"],
                                 self.params["Wh"], self.params["b"])
        self._state = (h, c)
        return h[:, :, None]


_STAGES = {"tcn": ("blocks", _tcn_blocks), "mlp": ("layers", _mlp_layers),
           "lstm": ("cells", _lstm_cells)}


def build_model(config, rng):
    """Instantiate a model family from its configuration; deterministic in rng."""
    group, make_stages = _STAGES[config.family]
    stages = make_stages(config, rng)
    return SequenceNet(config, group, stages, _output_map(config, rng))


def count_parameters(config):
    return build_model(config, Rng(0)).num_parameters()


def stack_model_input(record, narx):
    """Input channels for a record: (u, y) stacked in NARX mode, u alone in FIR."""
    if narx:
        return np.concatenate([record.u, record.y], axis=0)
    return record.u


def shift_right(x):
    """Prepend a zero column and drop the last one: x'[k] = x[k-1]."""
    out = np.zeros_like(x)
    out[:, 1:] = x[:, :-1]
    return out


def _one_step(model, records):
    """One evaluation forward over equally long records: (B, ny, T)."""
    xs = np.stack([shift_right(stack_model_input(r, model.config.narx))
                   for r in records])
    return model.forward(xs, training=False)


def predict_one_step(model, record):
    """One-step-ahead predictions aligned with the measured output.

    yhat[k] is the model's prediction of y[k] from measured data up to k-1;
    the earliest predictions see zero-padded history.
    """
    return _one_step(model, [record])[0]


def predict_records(model, records, mode):
    """Per-record predictions in model units, in record order.

    ``mode`` is "one-step" or "free-run". This is the one place records are
    grouped, by length (padding would simulate a tail the shorter records do
    not have): free-run simulates each group as one batch, and one-step runs
    each group as one (B, C, T) evaluation forward, which keeps no backward
    caches. A batched conv row equals the one-record prediction bit for bit;
    as with free-run, a batched LSTM row may differ in the last bits.
    """
    if mode not in MODES:
        raise DataError(f"unknown evaluation mode '{mode}'")
    groups = {}
    for i, rec in enumerate(records):
        groups.setdefault(rec.length, []).append(i)
    preds = [None] * len(records)
    for group in groups.values():
        recs = [records[i] for i in group]
        if mode == "free-run":
            out = simulate_free_run(model, np.stack([r.u for r in recs]))
        else:
            out = _one_step(model, recs)
        for i, row in zip(group, out):
            preds[i] = row
    return preds


def simulate_free_run(model, u):
    """Free-run simulation: past measured outputs replaced by past predictions.

    ``u`` is one record, (nu, T) or 1-D, or a batch of equally long records,
    (B, nu, T); the output, (ny, T) or (B, ny, T), has the same rank. One
    streaming time step advances every record of the batch, from zero
    history. A batched row equals the one-record run bit for bit, except for
    the LSTM: BLAS may sum a one-row gate product in another order than a
    many-row one.
    """
    c = model.config
    u = np.asarray(u, dtype=np.float64)
    batched = u.ndim == 3
    if u.ndim == 1:
        u = u[None, :]
    if u.ndim == 2:
        u = u[None]
    if u.ndim != 3 or u.shape[1] != c.nu:
        raise DimensionError(f"u must have shape ({c.nu}, time) or "
                             f"(batch, {c.nu}, time), got {u.shape}")
    b_sz, _, t_len = u.shape
    yhat = np.zeros((b_sz, c.ny, t_len))
    model.begin_stream(b_sz)
    col = np.zeros((b_sz, c.in_channels, 1))
    for k in range(t_len):
        # feed x[k-1]; the model emits the prediction of y[k]
        if k > 0:
            col[:, :c.nu, 0] = u[:, :, k - 1]
            if c.narx:
                col[:, c.nu:, 0] = yhat[:, :, k - 1]
        yhat[:, :, k] = model.step(col)[:, :, 0]
    return yhat if batched else yhat[0]


def free_run_naive(model, u):
    """Sliding-window re-evaluation oracle for ``simulate_free_run``.

    Free-run is one-step prediction fed back: yhat[k] is the last one-step
    prediction over the record (u[:k+1], yhat[:k+1]), whose unknown yhat[k]
    the one-sample shift drops. A whole forward pass per step; O(T^2) and
    only meant for cross-checking.
    """
    u = np.atleast_2d(u)
    yhat = np.zeros((model.config.ny, u.shape[1]))
    for k in range(u.shape[1]):
        history = SequenceRecord(u[:, :k + 1], yhat[:, :k + 1])
        yhat[:, k] = predict_one_step(model, history)[:, k]
    return yhat


# ---------------------------------------------------------------------------
# checkpoints: single JSON document, bit-exact float64 payloads
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "sysident-checkpoint-v1"


def _encode_array(arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape),
            "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}


def _decode_array(entry):
    raw = base64.b64decode(entry["data"])
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(entry["shape"])


def save_checkpoint(model, path, normalization=None):
    doc = {
        "format": CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "params": {name: _encode_array(p) for name, p in model.named_parameters()},
        "state": {name: _encode_array(s) for name, s in model.named_state()},
    }
    if normalization is not None:
        doc["normalization"] = normalization
    write_json(path, doc)


def load_checkpoint(path):
    """Rebuild a model (plus optional normalization dict) from a checkpoint file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:   # not JSON, or not UTF-8 text
            raise DataError(f"checkpoint {path} is not a JSON document: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"not a model checkpoint: {path}")
    for key in ("config", "params"):
        if key not in doc:
            raise DataError(f"checkpoint {path} has no '{key}' entry")
    for key in ("params", "state"):
        if not isinstance(doc.get(key, {}), dict):
            raise DataError(f"checkpoint {path}: '{key}' is not a mapping")
    model = build_model(ModelConfig.from_dict(doc["config"]), Rng(0))
    _load_arrays("parameter", dict(model.named_parameters()), doc["params"])
    _load_arrays("state", dict(model.named_state()), doc.get("state", {}))
    norm = doc.get("normalization")
    if norm is not None:
        _check_normalization(norm, model.config, path)
    return model, norm


def _check_normalization(norm, config, path):
    """Per-channel means and scales: finite numbers, one per channel, scales > 0."""
    if not isinstance(norm, dict):
        raise DataError(f"checkpoint {path}: 'normalization' is not a mapping")
    for key, size in (("u_mean", config.nu), ("u_scale", config.nu),
                      ("y_mean", config.ny), ("y_scale", config.ny)):
        vec = norm.get(key)
        ok = (isinstance(vec, list) and len(vec) == size
              and all(type(v) in (int, float) and math.isfinite(v) for v in vec))
        if not ok or (key.endswith("scale") and min(vec) <= 0):
            raise DataError(f"checkpoint {path}: normalization '{key}' must be "
                            f"a list of {size} finite numbers (scales > 0), "
                            f"got {vec!r}")


def _load_arrays(kind, arrays, entries):
    """Copy saved arrays into a model's own, by name; names and shapes must match."""
    if set(arrays) != set(entries):
        raise DataError(f"checkpoint {kind} names do not match the configuration")
    for name, entry in entries.items():
        try:
            arr = _decode_array(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"checkpoint {kind} '{name}' cannot be decoded: "
                            f"{exc}") from None
        if arr.shape != arrays[name].shape:
            raise DataError(f"checkpoint {kind} '{name}' has shape "
                            f"{arr.shape}, expected {arrays[name].shape}")
        arrays[name][...] = arr
