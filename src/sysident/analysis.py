"""Evaluation metrics, Volterra kernel extraction and error spectra.

Kernel extraction turns any trained FIR feed-forward network with smooth
activations (a TCN or an MLP of any depth) into the constant, first- and
second-order kernels of its truncated Volterra series, by walking a
second-order jet through the network's layers. ``fd_volterra_oracle``
recovers the same kernels from input-pulse finite differences and serves as
the independent cross-check.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, DimensionError, NumericError, ParameterError,
                     UnsupportedError)
from .layers import Activation, BatchNorm, CausalConv1d, Dropout, Residual
from .models import predict_records
from .data import denormalize_output, normalize_dataset


def rmse(yhat, y):
    """Root mean square error per channel plus the mean across channels."""
    yhat = np.atleast_2d(np.asarray(yhat, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if yhat.shape != y.shape:
        raise DimensionError(f"rmse shape mismatch: {yhat.shape} vs {y.shape}")
    if yhat.shape[1] == 0:
        raise DataError("rmse of an empty sequence")
    diff = yhat - y
    per_channel = np.sqrt(np.mean(diff * diff, axis=1))
    return per_channel, float(per_channel.mean())


@dataclass
class EvalReport:
    mode: str
    rmse_per_channel: list
    rmse_mean: float
    sample_count: int
    warmup_skipped: int
    # per-record predictions over whole records, in data units; not saved
    predictions: list = field(default_factory=list, repr=False, compare=False)

    def to_dict(self):
        """The report's saved fields, without the predictions."""
        return {"mode": self.mode, "rmse_per_channel": self.rmse_per_channel,
                "rmse_mean": self.rmse_mean, "sample_count": self.sample_count,
                "warmup_skipped": self.warmup_skipped}


def evaluate(model, dataset, mode="one-step", warmup=0, normalization=None):
    """RMSE of a model over a dataset in one-step or free-run mode.

    With ``normalization`` the records are transformed into model units for
    prediction and the predictions mapped back, so the report stays in the
    data's original units. ``warmup`` samples are dropped from the start of
    each record before scoring; the report keeps the whole-record predictions,
    which come from ``predict_records`` (see there how records are batched).
    An RMSE that is not finite, as from a diverging free-run, raises
    NumericError.
    """
    if warmup < 0:
        raise ParameterError(f"warmup must be >= 0, got {warmup}")
    model_data = dataset
    if normalization is not None:
        model_data = normalize_dataset(dataset, normalization)
    preds = predict_records(model, model_data.records, mode)
    if normalization is not None:
        preds = [denormalize_output(p, normalization) for p in preds]
    scored = [p[:, warmup:] for p in preds]
    per_channel, mean = rmse(
        np.concatenate(scored, axis=1),
        np.concatenate([r.y[:, warmup:] for r in dataset.records], axis=1))
    if not np.isfinite(mean):
        raise NumericError(f"{mode} RMSE is not finite: {mean}")
    return EvalReport(mode=mode, rmse_per_channel=list(per_channel),
                      rmse_mean=mean,
                      sample_count=sum(p.shape[1] for p in scored),
                      warmup_skipped=warmup, predictions=preds)


# ---------------------------------------------------------------------------
# Volterra kernels of FIR feed-forward networks
# ---------------------------------------------------------------------------

@dataclass
class VolterraKernels:
    h0: float
    h1: np.ndarray          # over lag tau in [0, memory)
    h2: np.ndarray          # symmetric over (tau1, tau2)
    memory: int
    degree: int = 2


def _fir_memory(model):
    """Receptive field of a FIR single-input single-output model."""
    if model.config.narx:
        raise UnsupportedError("kernel extraction needs a FIR model (x = u)")
    if model.config.nu != 1 or model.config.ny != 1:
        raise UnsupportedError("kernel extraction is single-input single-output")
    return model.receptive_field    # raises for the LSTM: unbounded memory


def _activation_derivatives(kind, b):
    """sigma(b), sigma'(b) and sigma''(b), with the network's own sigma."""
    if kind not in ("tanh", "sigmoid"):
        raise UnsupportedError(
            f"kernel extraction needs a smooth activation, got '{kind}'")
    s = Activation(kind).apply(b)
    if kind == "tanh":
        return s, 1.0 - s * s, -2.0 * s * (1.0 - s * s)
    return s, s * (1.0 - s), s * (1.0 - s) * (1.0 - 2.0 * s)


def _delay(x, s):
    """x with every lag axis (all but the last) s lags later; the lags past
    the memory drop off."""
    out = np.zeros_like(x)
    lags = x.ndim - 1
    out[(slice(s, None),) * lags] = x[(slice(None, len(x) - s),) * lags]
    return out


def _jet(layers, jet):
    """A signal's jet (v, h1, h2) pushed through ``layers`` applied in turn:
    its value at zero input, (C,), and its kernels over input lags, (M, C)
    and (M, M, C)."""
    for layer in layers:
        v, h1, h2 = jet
        if isinstance(layer, Residual):
            skip = jet if layer.skip is None else _jet([layer.skip], jet)
            jet = tuple(a + b for a, b in zip(_jet(layer.chain, jet), skip))
        elif isinstance(layer, CausalConv1d):
            w = layer.effective_weight()
            jet = tuple(sum(_delay(x, i * layer.dilation) @ w[:, :, i].T
                            for i in range(layer.kernel_size)) for x in jet)
            jet = (jet[0] + layer.params["b"], *jet[1:])
        elif isinstance(layer, Activation):
            s0, s1, s2 = _activation_derivatives(layer.kind, v)
            jet = (s0, s1 * h1, s1 * h2 + 0.5 * s2 * h1[:, None] * h1[None])
        elif isinstance(layer, BatchNorm):
            scale = layer.params["gamma"] / np.sqrt(layer.running_var + layer.eps)
            jet = (scale * (v - layer.running_mean) + layer.params["beta"],
                   scale * h1, scale * h2)
        elif not isinstance(layer, Dropout):
            raise UnsupportedError(
                f"kernel extraction cannot expand a {type(layer).__name__}")
    return jet


def extract_volterra_kernels(model, degree=2):
    """Kernels from the network weights: the jet of the input (v = 0, h1 = 1
    at lag 0) walked through ``model.chain`` over the receptive field's lags.

    Conv tap i shifts lags by i * dilation; an activation maps h1 -> s' h1
    and h2 -> s' h2 + 1/2 s'' h1 (x) h1 at its value v; evaluation-mode batch
    norm scales by gamma / sqrt(var + eps); dropout is the identity; a
    residual layer adds its skip path's jet. With the receptive field as the
    memory, no zero padding enters what the last output reads. A degree-1
    series has no second-order term: its h2 is zero.
    """
    if degree < 1:
        raise ParameterError(f"kernel degree must be >= 1, got {degree}")
    if degree > 2:
        raise UnsupportedError("kernel extraction is truncated at degree 2")
    m = _fir_memory(model)
    v, h1, h2 = _jet(model.chain, (np.zeros(1), np.eye(m, 1), np.zeros((m, m, 1))))
    h2 = h2[:, :, 0]
    # exactly symmetric, as addition commutes
    h2 = 0.5 * (h2 + h2.T) if degree == 2 else np.zeros_like(h2)
    return VolterraKernels(h0=float(v[0]), h1=h1[:, 0], h2=h2, memory=m,
                           degree=degree)


def fd_volterra_oracle(model, degree=2, amplitude=1e-3):
    """Kernels from central finite differences of the network response.

    Independent of the weight-based extraction: only forward evaluations of
    pulse inputs are used. ``amplitude`` is the probe pulse height.
    """
    memory = _fir_memory(model)
    a = amplitude

    def f(*pulses):
        """Last output for an input window of (lag, height) pulses."""
        window = np.zeros(memory)
        for t, height in pulses:
            window[t] = height
        return float(model.forward(window[None, None, ::-1].copy(),
                                   training=False)[0, 0, -1])

    f0 = f()
    h1 = np.zeros(memory)
    h2 = np.zeros((memory, memory))
    for t in range(memory):
        fp, fm = f((t, a)), f((t, -a))
        h1[t] = (fp - fm) / (2.0 * a)
        if degree >= 2:
            h2[t, t] = (fp - 2.0 * f0 + fm) / (2.0 * a * a)
            for s in range(t + 1, memory):
                h2[t, s] = h2[s, t] = (
                    f((t, a), (s, a)) - f((t, a), (s, -a))
                    - f((t, -a), (s, a)) + f((t, -a), (s, -a))) / (8.0 * a * a)
    return VolterraKernels(h0=f0, h1=h1, h2=h2, memory=memory, degree=degree)


def volterra_deviation(kernels, oracle):
    """Worst deviation of ``kernels`` from ``oracle`` in units of each
    order's tolerance, 1e-4 * max(|oracle|, 1); below 1 they agree."""
    devs = [np.max(np.abs(got - ref), initial=0.0)
            / (1e-4 * max(np.max(np.abs(ref), initial=0.0), 1.0))
            for got, ref in ((kernels.h0, oracle.h0), (kernels.h1, oracle.h1),
                             (kernels.h2, oracle.h2))]
    return float(np.max(devs))   # NaN if any order is NaN


def error_spectrum(err, sample_rate=1.0, band=None):
    """Discrete Fourier magnitude of an error sequence.

    Returns (frequencies in Hz, magnitudes) over all DFT bins; ``band``
    restricts the output to frequencies in [f_lo, f_hi] and must keep at
    least one bin.
    """
    err = np.asarray(err, dtype=np.float64).reshape(-1)
    if err.size < 2:
        raise DataError("error spectrum needs at least 2 samples")
    if not 0 < sample_rate < np.inf:     # NaN fails it too
        raise ParameterError(f"sample_rate must be a finite number > 0, "
                             f"got {sample_rate!r}")
    spectrum = np.fft.fft(err)
    freqs = np.fft.fftfreq(err.size, d=1.0 / sample_rate)
    mags = np.abs(spectrum)
    if band is not None:
        f_lo, f_hi = band
        if not (np.isfinite(f_lo) and np.isfinite(f_hi) and f_lo <= f_hi):
            raise ParameterError(f"band [{f_lo}, {f_hi}] needs finite bounds "
                                 f"with f_lo <= f_hi")
        keep = (freqs >= f_lo) & (freqs <= f_hi)
        if not keep.any():
            raise ParameterError(f"band [{f_lo}, {f_hi}] Hz holds no DFT bin "
                                 f"of a {err.size}-sample record at "
                                 f"{sample_rate} Hz")
        return freqs[keep], mags[keep]
    return freqs, mags
