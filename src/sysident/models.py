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
``layers.CausalConv1d`` alone owns the GEMM layout rules that keep its
streaming step bitwise equal to ``forward``: both run the same GEMM on the
same kernel matrix, rows of records in place of rows of time, and add the
bias after it. The streamed columns are plain C-order arrays.

All three families are one ``SequenceNet``, built here by one recipe per
family: a chain of stages (TCN residual blocks, each a ``layers.Residual``,
MLP dense layers or stacked ``LstmLayer``s, whose forward and streaming step
share one cell update) and a 1x1 output map. An LSTM layer takes and returns
(batch, channels, time) like every stage, but runs feature-major inside: its
gates are contiguous (hidden, batch) blocks.
"""

import base64
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import SequenceRecord, read_json, write_json
from .errors import (ConfigError, DataError, DimensionError, ParameterError,
                     UnsupportedError)
from .layers import (ACTIVATIONS, Activation, BatchNorm, CausalConv1d, Dropout,
                     Layer, Residual, _init_weight, _sigmoid, chain_backward,
                     chain_forward, chain_receptive_field, chain_step)
from .tensor import Rng

FAMILIES = ("tcn", "mlp", "lstm")
NORM_KINDS = ("batch", "weight", "none")     # the TCN's normalization
MODES = ("one-step", "free-run")     # the evaluation modes
_TIME_CHUNK = 16     # LSTM steps per stacked GEMM outside the recurrence
# the Python types each annotated config field accepts; bool, although an
# int subclass, is neither a size nor a rate
_ACCEPTED_TYPES = {int: int, bool: bool, float: (int, float), str: str}


def check_fields(config, lower_bounds):
    """Raise ConfigError unless each field of the dataclass ``config`` holds
    a value its annotated type accepts and, if ``lower_bounds`` names the
    field, at least its bound there."""
    for f in fields(config):
        value = getattr(config, f.name)
        if not isinstance(value, _ACCEPTED_TYPES[f.type]) or (
                f.type is not bool and isinstance(value, bool)):
            raise ConfigError(f"{f.name} must be of type {f.type.__name__}, "
                              f"got {value!r}")
        bound = lower_bounds.get(f.name)
        if bound is not None and value < bound:
            raise ConfigError(f"{f.name} must be >= {bound}, got {value}")


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
        check_fields(self, dict.fromkeys(
            ("nu", "ny", "hidden", "depth", "kernel_size", "order"), 1))
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family '{self.family}'")
        if self.norm not in NORM_KINDS:
            raise ConfigError(f"unknown norm kind '{self.norm}'")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation '{self.activation}'")
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


def _init(c):
    """He initialization for relu networks, Glorot for smooth activations."""
    return "he" if c.activation == "relu" else "glorot"


def _tcn_block(c, cin, dilation, rng):
    """Body: [conv -> norm -> activation -> dropout] x 2, both convolutions
    dilated alike. Skip: identity when the channel counts match, otherwise a
    learned 1x1 channel projection."""
    body = []
    for i, n in enumerate((cin, c.hidden), 1):
        conv = CausalConv1d(n, c.hidden, c.kernel_size, dilation, rng,
                            init=_init(c), weight_norm=c.norm == "weight")
        bn = BatchNorm(c.hidden) if c.norm == "batch" else None
        body += [(f"conv{i}", conv), (f"bn{i}", bn),
                 (f"act{i}", Activation(c.activation)),
                 (f"drop{i}", Dropout(c.dropout, rng.split()))]
    skip = (CausalConv1d(cin, c.hidden, 1, 1, rng, init="glorot")
            if cin != c.hidden else None)
    return Residual(body, skip)


def _tcn_blocks(c, rng):
    # block l dilates by 2**l when dilations are on
    return [_tcn_block(c, c.hidden if l else c.in_channels,
                       2 ** l if c.dilations else 1, rng)
            for l in range(c.depth)]


def _mlp_layers(c, rng):
    init = _init(c)
    layers = [CausalConv1d(c.in_channels, c.hidden, c.order, 1, rng, init=init),
              Activation(c.activation)]
    for _ in range(c.depth - 1):
        layers.append(CausalConv1d(c.hidden, c.hidden, 1, 1, rng, init=init))
        layers.append(Activation(c.activation))
    return layers


def _lstm_cells(c, rng):
    # dropout between stacked layers only, none after the last one
    sizes = [c.in_channels] + [c.hidden] * (c.depth - 1)
    return [LstmLayer(n, c.hidden, rng, c.dropout if l < c.depth - 1 else None)
            for l, n in enumerate(sizes)]


def _output_map(c, rng):
    return CausalConv1d(c.hidden, c.ny, 1, 1, rng, init="glorot")


def _lstm_cell(z, c_prev, s, g, c, tc, h):
    """One LSTM cell update from the (4H, B) pre-activation z, gate blocks
    i, f, g, o: writes the sigmoids of z, g, c, tanh(c) and h into the given
    arrays. ``c`` may be ``c_prev``."""
    hid = len(g)
    _sigmoid(z, out=s)   # one call over all 4H; the g block goes unused
    np.tanh(z[2 * hid:3 * hid], out=g)
    np.multiply(s[:hid], g, out=tc)     # i * g, with tc as scratch
    np.multiply(s[hid:2 * hid], c_prev, out=c)
    c += tc
    np.multiply(s[3 * hid:], np.tanh(c, out=tc), out=h)


class LstmLayer(Layer):
    """One LSTM layer over (batch, channels, time).

    Inside, the layer is feature-major: a step's pre-activation is
    z = Wh @ h + Wx @ x + b, a (4H, B) array whose gates i, f, g, o are
    contiguous (H, B) blocks, and h and c are (H, B). The Python time loop
    holds only what depends on the previous step: ``Wh @ h``, the gates and
    the cell update going forward, ``Wh.T @ dz`` and the elementwise adjoint
    going backward, all written into arrays allocated once per call. All
    else runs once per time chunk of at most ``_TIME_CHUNK`` steps: the input
    projection (one stacked matmul over a contiguous (n, C, B) block), the
    ``Wx``, ``Wh`` and ``b`` gradients, the input gradient and the adjoint's
    elementwise factors. The bits do not depend on the chunk length: a
    stacked matmul runs each step's GEMM as a per-step call would, each
    weight gradient adds its per-step products in reverse time order (one
    sequential reduce over [running sum, newest, ..., oldest]), and the
    factors are elementwise. ``forward``'s loop and ``step`` share the cell
    update ``_lstm_cell`` and sum its pre-activation alike, so ``forward``
    equals ``step`` over its columns bit for bit. A training forward keeps
    (T, ., B) arrays of inputs, states and gates for BPTT; an evaluation
    forward keeps none, and writes the inputs one chunk and the gates and c
    one step at a time.

    With a ``dropout`` rate (every layer but the top one of a stack), the
    child ``drop`` is inverted dropout on the layer's output, drawn once as a
    (time, batch, hidden) mask; the recurrence carries the unmasked h.
    Streaming keeps (h, c). The memory is unbounded, so there is no
    receptive field.
    """

    def __init__(self, in_size, hidden, rng, dropout=None):
        super().__init__()
        self.in_size = in_size
        self.hidden = hidden
        self._register("Wx", _init_weight(rng, (4 * hidden, in_size),
                                          in_size, hidden, "glorot"))
        self._register("Wh", _init_weight(rng, (4 * hidden, hidden),
                                          hidden, hidden, "glorot"))
        self._register("b", np.zeros(4 * hidden))
        self.drop = None if dropout is None else Dropout(dropout, rng.split())
        self.children = [] if dropout is None else [("drop", self.drop)]
        self._steps = None     # the arrays BPTT reads, each (T, ., B)
        self._state = None

    @property
    def receptive_field(self):
        raise UnsupportedError("receptive field is unbounded for recurrent models")

    def forward(self, x, training=False):
        self._check_input(x, self.in_size)
        b_sz, _, t_len = x.shape
        hid = self.hidden
        self._steps = None
        rows = t_len if training else 1     # evaluation reuses row 0
        xs = np.empty((t_len if training else _TIME_CHUNK, self.in_size, b_sz))
        hs = np.zeros((t_len + 1, hid, b_sz))     # h before each step, and after
        cs = np.zeros((rows + training, hid, b_sz))   # c likewise; row 0 in evaluation
        s_all, g_all, tc_all = (np.empty((rows, n, b_sz)) for n in (4 * hid, hid, hid))
        # b as a (4H, B) array: a plain add is faster than a broadcast one
        w_h, b = self.params["Wh"], np.repeat(self.params["b"][:, None], b_sz, 1)
        z = np.empty((4 * hid, b_sz))
        xw = np.empty((_TIME_CHUNK, 4 * hid, b_sz))
        for t0 in range(0, t_len, _TIME_CHUNK):
            n = min(_TIME_CHUNK, t_len - t0)
            x_c = xs[t0:t0 + n] if training else xs[:n]
            np.copyto(x_c, x[:, :, t0:t0 + n].transpose(2, 1, 0))
            np.matmul(self.params["Wx"], x_c, out=xw[:n])
            for t, xw_t in enumerate(xw[:n], t0):
                j, k = (t, t + 1) if training else (0, 0)
                np.dot(w_h, hs[t], out=z)    # dot: less call overhead than matmul
                z += xw_t
                z += b
                _lstm_cell(z, cs[j], s_all[j], g_all[j], cs[k], tc_all[j], hs[t + 1])
        if training:
            self._steps = (xs, hs, cs, s_all, g_all, tc_all)
        out = hs[1:].transpose(0, 2, 1)     # (T, B, H)
        if self.drop is not None:
            # one (T, B, H) draw fills the stream as T (B, H) draws would
            out = self.drop.forward(out, training)
        return out.transpose(1, 2, 0).copy()    # never a view of what BPTT reads

    def backward(self, grad):
        xs, hs, cs, s_all, g_all, tc_all = self._training_cache(self._steps)
        t_len, hid, b_sz = g_all.shape
        w_x, w_h_t = self.params["Wx"], np.ascontiguousarray(self.params["Wh"].T)
        down = grad.transpose(2, 0, 1)      # (T, B, H), as the dropout mask
        if self.drop is not None:
            down = self.drop.backward(down)
        d_xs = np.empty_like(xs)
        d_h, d_c, d_ht, d_ct = np.zeros((4, hid, b_sz))
        down_c = np.empty((_TIME_CHUNK, hid, b_sz))
        dz = np.empty((_TIME_CHUNK, 4 * hid, b_sz))    # newest step first
        dz4 = dz.reshape(_TIME_CHUNK, 4, hid, b_sz)
        stacks = {k: np.empty((_TIME_CHUNK + 1, *g.shape))
                  for k, g in self.grads.items()}
        for hi in range(t_len, 0, -_TIME_CHUNK):
            lo = max(hi - _TIME_CHUNK, 0)
            n = hi - lo
            np.copyto(down_c[:n], down[lo:hi].transpose(0, 2, 1))
            s4 = s_all[lo:hi].reshape(n, 4, hid, b_sz)     # gate blocks i, f, g, o
            g_c, tc_c = g_all[lo:hi], tc_all[lo:hi]
            # dz is d_c * (g, c_prev, i) in the i, f and g blocks and d_h * tc
            # in the o block, times the gate's slope: s * (1 - s), or
            # 1 - g*g in the g block
            coef = s4 * (1.0 - s4)
            np.subtract(1.0, g_c * g_c, out=coef[:, 2])
            coef[:, 0] *= g_c
            coef[:, 1] *= cs[lo:hi]
            coef[:, 2] *= s4[:, 0]
            coef[:, 3] *= tc_c
            o_slope = s4[:, 3] * (1.0 - tc_c * tc_c)    # d_c gains d_h * o_slope
            for t in range(hi - 1, lo - 1, -1):
                k, r = t - lo, hi - 1 - t
                np.add(d_h, down_c[k], out=d_ht)
                np.multiply(d_ht, o_slope[k], out=d_ct)
                d_ct += d_c
                np.multiply(d_ct, coef[k, :3], out=dz4[r, :3])
                np.multiply(d_ht, coef[k, 3], out=dz4[r, 3])
                np.dot(w_h_t, dz[r], out=d_h)
                np.multiply(d_ct, s4[k, 1], out=d_c)
            dz_c = dz[:n]
            for name, inputs in (("Wx", xs), ("Wh", hs), ("b", None)):
                stack = stacks[name][:n + 1]
                stack[0] = self.grads[name]
                if inputs is None:
                    np.add.reduce(dz_c, axis=2, out=stack[1:])
                else:
                    np.matmul(dz_c, inputs[lo:hi][::-1].transpose(0, 2, 1),
                              out=stack[1:])
                np.add.reduce(stack, axis=0, out=self.grads[name])
            np.matmul(w_x.T, dz_c, out=d_xs[lo:hi][::-1])
        return np.ascontiguousarray(d_xs.transpose(2, 1, 0))

    def begin_stream(self, batch_size=1):
        # h and c, then room for the input column, Wx @ x, z, the gates, g
        # and tanh(c); a step writes all but h in place
        hid = self.hidden
        self._state = (*np.zeros((2, hid, batch_size)),
                       np.empty((self.in_size, batch_size)),
                       *np.empty((3, 4 * hid, batch_size)),
                       *np.empty((2, hid, batch_size)))

    def step(self, col):
        if self._state is None:
            raise ParameterError("step called before begin_stream")
        h_prev, c, x, xw, z, s, g, tc = self._state
        b_sz = h_prev.shape[1]
        if col.shape != (b_sz, self.in_size, 1):
            raise DimensionError(f"lstm step expects ({b_sz}, "
                                 f"{self.in_size}, 1), got {col.shape}")
        # forward's sums, on x laid out as its inputs; np.dot costs less per
        # call than matmul and gives the bits of forward's stacked matmul
        np.copyto(x, col[:, :, 0].T)
        np.dot(self.params["Wh"], h_prev, out=z)
        z += np.dot(self.params["Wx"], x, out=xw)
        z += self.params["b"][:, None]
        h = np.empty_like(h_prev)   # new, so a returned column is never rewritten
        _lstm_cell(z, c, s, g, c, tc, h)
        self._state = (h, *self._state[1:])
        return h.T[:, :, None]


_STAGES = {"tcn": ("blocks", _tcn_blocks), "mlp": ("layers", _mlp_layers),
           "lstm": ("cells", _lstm_cells)}


def build_model(config, rng):
    """Instantiate a model family from its configuration, deterministic in
    rng; ConfigError if its arrays cannot be allocated."""
    group, make_stages = _STAGES[config.family]
    try:
        stages = make_stages(config, rng)
        return SequenceNet(config, group, stages, _output_map(config, rng))
    except MemoryError as exc:
        raise ConfigError(f"configuration too large to build: {exc}") from None


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
    doc = read_json(path, "checkpoint")
    if doc.get("format") != CHECKPOINT_FORMAT:
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
              and all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                      for v in vec))
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
