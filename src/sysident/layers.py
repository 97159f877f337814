"""Differentiable sequence-model building blocks with hand-written backward passes.

Sequence tensors are (batch, channels, time) float64 arrays. A training-mode
forward keeps what ``backward`` needs (see ``Layer``); ``backward`` accumulates
parameter gradients into ``grads`` and returns the gradient w.r.t. the layer
input.

The causal convolution contracts a flattened (tap, channel) axis of gathered
tap slices with ``np.einsum`` (default, non-optimized kernels) whose inner
loop is a stride-1 output axis, so each output is summed over (tap, channel)
in order: time in ``forward`` (one column is contracted as the first of two;
a long record chunk by chunk through one reused gather, each chunk at least
two columns wide), output channels in the streaming ``step`` (one channel
gets a zero second one). ``forward`` adds the bias after its einsums; ``step``
makes the bias its einsum's last term, 1.0 * b, which is the same last
addition. So full-sequence and streaming evaluation agree bit for bit.
Its backward pass keeps one contraction per tap. The input gradient uses
``np.matmul``, which reduces over the output channels only. The weight
gradient reduces over batch and time as a sum of BLAS GEMMs, one per record
and time chunk of at most ``_GRAD_CHUNK`` samples: each chunk's per-record
products are added over records in order, and the chunks in time order. A
GEMM whose reduction is shorter than one of its blocks sums it in the same
order at any thread count, so trained weights depend on the seeds alone.
"""

import math

import numpy as np

from .errors import DataError, DimensionError, ParameterError

ACTIVATIONS = ("relu", "sigmoid", "tanh")
NORM_KINDS = ("batch", "weight", "none")
# columns per contraction of the conv forward's reused (tap, channel) gather
_FORWARD_CHUNK = 1024
# time samples per weight-gradient GEMM: within one BLAS reduction block, so
# the GEMM sums in the same order at any thread count
_GRAD_CHUNK = 128


def _init_weight(rng, shape, fan_in, fan_out, init):
    """Uniform draw in [-limit, limit]: He, sqrt(6 / fan_in), or Glorot,
    sqrt(6 / (fan_in + fan_out))."""
    if init == "he":
        limit = math.sqrt(6.0 / fan_in)
    elif init == "glorot":
        limit = math.sqrt(6.0 / (fan_in + fan_out))
    else:
        raise ParameterError(f"unknown init kind '{init}'")
    return rng.uniform(-limit, limit, shape)


def weight_norm_forward(v, g):
    """Effective weight g * v / ||v||, row-wise over the first axis."""
    flat = v.reshape(v.shape[0], -1)
    norms = np.sqrt(np.sum(flat * flat, axis=1))
    if np.any(norms == 0.0):
        raise ParameterError("weight norm direction has a zero-norm row")
    scale = (g / norms).reshape((-1,) + (1,) * (v.ndim - 1))
    return v * scale


def weight_norm_backward(v, g, d_w):
    """Chain rule from dL/dW to (dL/dv, dL/dg) for W = g * v / ||v||."""
    rows = v.shape[0]
    v_flat = v.reshape(rows, -1)
    dw_flat = d_w.reshape(rows, -1)
    norms = np.sqrt(np.sum(v_flat * v_flat, axis=1))
    dots = np.sum(dw_flat * v_flat, axis=1)
    d_g = dots / norms
    coef = (g / norms)[:, None]
    d_v_flat = coef * (dw_flat - (dots / (norms * norms))[:, None] * v_flat)
    return d_v_flat.reshape(v.shape), d_g


class Layer:
    """Base: parameter/grad/state dicts, named children and the stream protocol.

    ``children`` lists the child layers once, as (name, layer) pairs, in the
    order in which their parameters and state are named and saved.
    ``receptive_field`` counts the input samples, the current one included,
    that can move one output sample: 1 for a layer without memory.

    A forward keeps what ``backward`` needs only when ``training=True``; an
    evaluation forward, and so streaming, keeps nothing and drops what a
    training forward kept. ``backward`` without a training forward since
    then raises ParameterError.
    """

    receptive_field = 1

    def __init__(self):
        self.params = {}
        self.grads = {}
        self.state = {}
        self.children = []

    def _register(self, name, value):
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)

    def _named(self, table, prefix):
        for name, value in getattr(self, table).items():
            yield prefix + name, value
        for name, child in self.children:
            yield from child._named(table, f"{prefix}{name}.")

    def named_parameters(self):
        return self._named("params", "")

    def named_grads(self):
        return self._named("grads", "")

    def named_state(self):
        return self._named("state", "")

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0
        for _, child in self.children:
            child.zero_grads()

    @staticmethod
    def _training_cache(cache):
        """``cache`` as the last training forward kept it; None raises."""
        if cache is None:
            raise ParameterError("backward called before forward (in training mode)")
        return cache

    def begin_stream(self, batch_size=1):
        for _, child in self.children:
            child.begin_stream(batch_size)

    def step(self, col):
        """Evaluation-mode streaming: one (batch, channels, 1) column in and out.

        A layer without memory of past columns runs its own ``forward``.
        """
        return self.forward(col, training=False)


# layers applied in turn: the body of a residual block, a feed-forward model
def chain_forward(layers, x, training=False):
    for layer in layers:
        x = layer.forward(x, training)
    return x


def chain_backward(layers, grad):
    for layer in reversed(layers):
        grad = layer.backward(grad)
    return grad


def chain_step(layers, col):
    for layer in layers:
        col = layer.step(col)
    return col


def chain_receptive_field(layers):
    # each layer reaches rf - 1 samples further back than its input does
    return 1 + sum(layer.receptive_field - 1 for layer in layers)


class CausalConv1d(Layer):
    """Dilated causal convolution over (batch, channels, time).

    Tap i reads the input i*dilation samples in the past (tap 0 is the current
    sample); times before the sequence start are zero. Output length equals
    input length. With ``weight_norm`` the kernel is reparameterized per output
    channel as W = g * v / ||v||.
    """

    def __init__(self, in_channels, out_channels, kernel_size, dilation, rng,
                 init="glorot", weight_norm=False):
        super().__init__()
        if kernel_size < 1:
            raise ParameterError(f"kernel size must be >= 1, got {kernel_size}")
        if dilation < 1:
            raise ParameterError(f"dilation must be >= 1, got {dilation}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.weight_norm = weight_norm
        shape = (out_channels, in_channels, kernel_size)
        fan_in = in_channels * kernel_size
        fan_out = out_channels * kernel_size
        w = _init_weight(rng, shape, fan_in, fan_out, init)
        if weight_norm:
            flat = w.reshape(out_channels, -1)
            self._register("v", w)
            self._register("g", np.sqrt(np.sum(flat * flat, axis=1)))
        else:
            self._register("W", w)
        self._register("b", np.zeros(out_channels))
        self._cache = None
        self._ring = None     # streaming state, set by begin_stream

    @property
    def receptive_field(self):
        return (self.kernel_size - 1) * self.dilation + 1

    def effective_weight(self):
        if self.weight_norm:
            return weight_norm_forward(self.params["v"], self.params["g"])
        return self.params["W"]

    def _check_input(self, x):
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise DimensionError(
                f"conv expects (batch, {self.in_channels}, time), got {x.shape}"
            )

    def forward(self, x, training=False):
        self._check_input(x)
        b_sz, _, t_len = x.shape
        pad = (self.kernel_size - 1) * self.dilation
        if pad:
            xpad = np.concatenate(
                [np.zeros((b_sz, self.in_channels, pad)), x], axis=2
            )
        else:
            xpad = x
        w = self.effective_weight()
        self._cache = (xpad, w, t_len) if training else None
        if t_len == 1:
            # one column is contracted as the first of two, with an inert zero
            # right column (the conv is causal), so time stays the inner loop
            xpad = np.concatenate([xpad, np.zeros_like(x)], axis=2)
        cols = max(t_len, 2)
        w_flat = w.transpose(0, 2, 1).reshape(self.out_channels, -1)
        out = np.empty((b_sz, self.out_channels, cols))
        if self.kernel_size == 1:
            np.einsum("om,bmt->bot", w_flat, xpad, out=out)
        else:
            # near-equal chunks of at most _FORWARD_CHUNK columns, each >= 2
            # wide, so time stays the einsum's inner loop
            n_chunks = -(-cols // _FORWARD_CHUNK)
            bounds = [cols * j // n_chunks for j in range(n_chunks + 1)]
            c = self.in_channels
            buf = np.empty((b_sz, self.kernel_size * c, -(-cols // n_chunks)))
            for s, e in zip(bounds[:-1], bounds[1:]):
                # tap i's slice fills rows i*C to (i+1)*C of the gather
                gather = buf[:, :, :e - s]
                for i in range(self.kernel_size):
                    start = pad - i * self.dilation + s
                    gather[:, i * c:(i + 1) * c] = xpad[:, :, start:start + e - s]
                np.einsum("om,bmt->bot", w_flat, gather, out=out[:, :, s:e])
        out += self.params["b"][None, :, None]
        return out[:, :, :t_len]

    def backward(self, grad):
        xpad, w, t_len = self._training_cache(self._cache)
        if grad.shape != (xpad.shape[0], self.out_channels, t_len):
            raise DimensionError(
                f"upstream grad shape {grad.shape} does not match forward output"
            )
        pad = (self.kernel_size - 1) * self.dilation
        d_w = np.zeros_like(w)
        d_xpad = np.zeros_like(xpad)
        for i in range(self.kernel_size):
            start = pad - i * self.dilation
            xi = xpad[:, :, start:start + t_len]
            d_wi = d_w[:, :, i]
            for s in range(0, t_len, _GRAD_CHUNK):
                e = s + _GRAD_CHUNK
                per_record = np.matmul(grad[:, :, s:e],
                                       xi[:, :, s:e].transpose(0, 2, 1))
                d_wi += np.add.reduce(per_record, axis=0)
            d_xpad[:, :, start:start + t_len] += np.matmul(w[:, :, i].T, grad)
        self.grads["b"] += grad.sum(axis=(0, 2))
        if self.weight_norm:
            d_v, d_g = weight_norm_backward(self.params["v"], self.params["g"], d_w)
            self.grads["v"] += d_v
            self.grads["g"] += d_g
        else:
            self.grads["W"] += d_w
        return d_xpad[:, :, pad:] if pad else d_xpad

    def begin_stream(self, batch_size):
        """Zero history for ``batch_size`` records: a ring buffer of the last
        RF input columns, (B, RF, C), and a (RF, K) table of the slots taps
        0..K-1 read when the newest column is in slot p. The kernel and the
        bias are frozen as a C-order (K*C+1, O) matrix whose last row is the
        bias, read against a constant 1.0 at the end of a flat (B, K*C+1)
        gather; a zero second column when O == 1 keeps the output channels
        the einsum's inner loop."""
        rf = self.receptive_field
        m = self.kernel_size * self.in_channels
        w_cols = np.zeros((m + 1, max(self.out_channels, 2)))
        w_cols[:m, :self.out_channels] = self.effective_weight().transpose(
            2, 1, 0).reshape(-1, self.out_channels)
        w_cols[m, :self.out_channels] = self.params["b"]
        self._w_cols = w_cols
        self._ring = np.zeros((batch_size, rf, self.in_channels))
        self._pos = 0
        taps = self.dilation * np.arange(self.kernel_size)
        self._slots = (np.arange(rf)[:, None] - taps) % rf
        self._flat = np.ones((batch_size, m + 1))
        self._gather = self._flat[:, :m].reshape(
            batch_size, self.kernel_size, self.in_channels)

    def step(self, col):
        """One (B, O, 1) output column per (B, C, 1) input column: one
        ``take`` gathers the K taps from the ring, one einsum contracts them
        and adds the bias as its last term, 1.0 * b, so the sum is the
        ``forward`` sum followed by ``+= b``."""
        ring = self._ring
        if ring is None:
            raise ParameterError("step called before begin_stream")
        if col.shape != (ring.shape[0], self.in_channels, 1):
            raise DimensionError(
                f"conv step expects ({ring.shape[0]}, {self.in_channels}, 1), "
                f"got {col.shape}")
        self._pos = pos = (self._pos + 1) % ring.shape[1]
        ring[:, pos] = col[:, :, 0]
        # the slots are in range; unlike "raise", "clip" makes take write
        # into a contiguous out (the whole gather when B == 1) unbuffered
        ring.take(self._slots[pos], axis=1, out=self._gather, mode="clip")
        out = np.einsum("mo,bm->bo", self._w_cols, self._flat)
        return out[:, :self.out_channels, None]


def _sigmoid(x):
    # stable logistic without branches: with e = exp(-|x|), 1 / (1 + e) for
    # x >= 0 and e / (1 + e) for x < 0. Negation is exact and addition
    # commutes, so every element gets the bits of the two-branch formula
    # (the oracle in tests/conftest.py); exp runs on a contiguous array
    e = np.empty(np.shape(x))   # an array even for 0-d x, so out= works
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.where(x >= 0, 1.0, e)
    return np.divide(num, np.add(e, 1.0, out=e), out=num)


class Activation(Layer):
    """Elementwise nonlinearity: relu, sigmoid or tanh."""

    def __init__(self, kind):
        super().__init__()
        if kind not in ACTIVATIONS:
            raise ParameterError(f"unknown activation '{kind}'")
        self.kind = kind
        self._out = None

    def apply(self, x):
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "sigmoid":
            return _sigmoid(x)
        return np.tanh(x)

    def forward(self, x, training=False):
        out = self.apply(x)
        self._out = None
        if training:
            # relu backward needs the input sign; the others only the output
            self._out = (x > 0.0) if self.kind == "relu" else out
        return out

    def backward(self, grad):
        out = self._training_cache(self._out)
        if self.kind == "relu":
            return grad * out
        if self.kind == "sigmoid":
            return grad * out * (1.0 - out)
        return grad * (1.0 - out * out)


class Dropout(Layer):
    """Inverted dropout: train-time masking with 1/(1-p) rescale, eval identity."""

    def __init__(self, rate, rng):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng
        self.mask = None

    def forward(self, x, training=False):
        if not training or self.rate == 0.0:
            self.mask = None
            return x
        keep = self.rng.random(x.shape) >= self.rate
        self.mask = keep / (1.0 - self.rate)
        return x * self.mask

    def backward(self, grad):
        if self.mask is None:
            return grad
        return grad * self.mask


class BatchNorm(Layer):
    """Per-channel standardization over batch x time with learned scale/shift.

    Training mode normalizes with batch statistics (biased variance) and
    updates running statistics by exponential moving average; evaluation mode
    normalizes with the stored running statistics.
    """

    eps = 1e-5         # added to the variance
    momentum = 0.1     # weight of the newest batch in the running statistics

    def __init__(self, channels):
        super().__init__()
        self.channels = channels
        self._register("gamma", np.ones(channels))
        self._register("beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        # updated in place, so these entries always alias the attributes
        self.state = {"running_mean": self.running_mean,
                      "running_var": self.running_var}
        self._cache = None

    def _check_input(self, x):
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise DimensionError(
                f"batch norm expects (batch, {self.channels}, time), got {x.shape}"
            )

    def forward(self, x, training=False):
        self._check_input(x)
        if training:
            if x.shape[0] * x.shape[2] < 2:
                raise DataError(
                    "batch norm needs at least 2 samples per channel in training mode"
                )
            mu = x.mean(axis=(0, 2))
            var = x.var(axis=(0, 2))
            self.running_mean *= 1.0 - self.momentum
            self.running_mean += self.momentum * mu
            self.running_var *= 1.0 - self.momentum
            self.running_var += self.momentum * var
        else:
            mu, var = self.running_mean, self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu[None, :, None]) * inv[None, :, None]
        self._cache = (xhat, inv) if training else None
        return self.params["gamma"][None, :, None] * xhat + self.params["beta"][None, :, None]

    def backward(self, grad):
        xhat, inv = self._training_cache(self._cache)
        self.grads["beta"] += grad.sum(axis=(0, 2))
        self.grads["gamma"] += (grad * xhat).sum(axis=(0, 2))
        dxhat = grad * self.params["gamma"][None, :, None]
        m1 = dxhat.mean(axis=(0, 2))
        m2 = (dxhat * xhat).mean(axis=(0, 2))
        return inv[None, :, None] * (dxhat - m1[None, :, None] - xhat * m2[None, :, None])


class ResidualBlock(Layer):
    """Two causal convolutions with norm/activation/dropout, plus a skip path.

    Body: [conv -> norm -> activation -> dropout] x 2, both convolutions
    sharing the block dilation. Skip: identity when the channel counts match,
    otherwise a learned 1x1 channel projection.
    """

    def __init__(self, in_channels, out_channels, kernel_size, dilation,
                 rng, norm="none", dropout=0.0, activation="relu"):
        super().__init__()
        if norm not in NORM_KINDS:
            raise ParameterError(f"unknown norm kind '{norm}'")
        self.dilation = dilation
        init = "he" if activation == "relu" else "glorot"
        wn = norm == "weight"
        self.conv1 = CausalConv1d(in_channels, out_channels, kernel_size,
                                  dilation, rng, init=init, weight_norm=wn)
        self.conv2 = CausalConv1d(out_channels, out_channels, kernel_size,
                                  dilation, rng, init=init, weight_norm=wn)
        self.bn1 = BatchNorm(out_channels) if norm == "batch" else None
        self.bn2 = BatchNorm(out_channels) if norm == "batch" else None
        self.act1 = Activation(activation)
        self.act2 = Activation(activation)
        self.drop1 = Dropout(dropout, rng.split())
        self.drop2 = Dropout(dropout, rng.split())
        if in_channels != out_channels:
            self.skip = CausalConv1d(in_channels, out_channels, 1, 1, rng,
                                     init="glorot")
        else:
            self.skip = None
        self.children = [(name, layer) for name, layer in (
            ("conv1", self.conv1), ("bn1", self.bn1), ("act1", self.act1),
            ("drop1", self.drop1), ("conv2", self.conv2), ("bn2", self.bn2),
            ("act2", self.act2), ("drop2", self.drop2), ("skip", self.skip))
            if layer is not None]
        self.body = [layer for name, layer in self.children if name != "skip"]

    @property
    def receptive_field(self):
        return chain_receptive_field(self.body)   # the skip path is 1x1

    def forward(self, x, training=False):
        h = chain_forward(self.body, x, training)
        return h + (x if self.skip is None else self.skip.forward(x, training))

    def backward(self, grad):
        dx = chain_backward(self.body, grad)
        return dx + (grad if self.skip is None else self.skip.backward(grad))

    def step(self, col):
        h = chain_step(self.body, col)
        return h + (col if self.skip is None else self.skip.step(col))
