"""Evaluation metrics, Volterra kernel extraction and error spectra.

Kernel extraction turns a trained single-hidden-layer FIR network into the
constant, first- and second-order kernels of the equivalent polynomial series
with memory, by Taylor-expanding the hidden activations around their bias
values. ``fd_volterra_oracle`` recovers the same kernels from input-pulse
finite differences and serves as the independent cross-check.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError, ParameterError, UnsupportedError
from .layers import Activation
from .models import predict_records, receptive_field
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
    return EvalReport(mode=mode, rmse_per_channel=list(per_channel),
                      rmse_mean=mean,
                      sample_count=sum(p.shape[1] for p in scored),
                      warmup_skipped=warmup, predictions=preds)


# ---------------------------------------------------------------------------
# Volterra kernels of single-hidden-layer FIR networks
# ---------------------------------------------------------------------------

@dataclass
class VolterraKernels:
    h0: float
    h1: np.ndarray          # over lag tau in [0, memory)
    h2: np.ndarray          # symmetric over (tau1, tau2)
    memory: int
    degree: int = 2


def _activation_derivatives(kind, b):
    """sigma(b), sigma'(b) and sigma''(b), with the network's own sigma."""
    if kind not in ("tanh", "sigmoid"):
        raise UnsupportedError(
            f"kernel extraction needs a smooth activation, got '{kind}'")
    s = Activation(kind).apply(b)
    if kind == "tanh":
        return s, 1.0 - s * s, -2.0 * s * (1.0 - s * s)
    return s, s * (1.0 - s), s * (1.0 - s) * (1.0 - 2.0 * s)


def _fir_weights(model):
    """Pull (W1, b1, w2, b_out) out of a single-hidden-layer FIR network."""
    cfg = model.config
    if cfg.family != "mlp" or cfg.depth != 1:
        raise UnsupportedError(
            "kernel extraction supports single-hidden-layer networks only")
    if cfg.narx:
        raise UnsupportedError("kernel extraction needs a FIR model (x = u)")
    if cfg.nu != 1 or cfg.ny != 1:
        raise UnsupportedError("kernel extraction is single-input single-output")
    first = model.layers[0]
    w1 = first.effective_weight()[:, 0, :]      # (hidden, memory), tap = lag
    b1 = first.params["b"]
    w2 = model.head.effective_weight()[0, :, 0]
    b_out = float(model.head.params["b"][0])
    return w1, b1, w2, b_out


def extract_volterra_kernels(model, degree=2):
    """Kernels from the network weights, expanding activations at the biases.

    h0       = b_out + sum_j w2[j] sigma(b[j])
    h1[t]    = sum_j w2[j] sigma'(b[j]) W1[j,t]
    h2[t,s]  = 1/2 sum_j w2[j] sigma''(b[j]) W1[j,t] W1[j,s]

    A degree-1 series has no second-order term: its h2 is zero.
    """
    if degree < 1:
        raise ParameterError(f"kernel degree must be >= 1, got {degree}")
    if degree > 2:
        raise UnsupportedError("kernel extraction is truncated at degree 2")
    w1, b1, w2, b_out = _fir_weights(model)
    s0, s1, s2 = _activation_derivatives(model.config.activation, b1)
    memory = w1.shape[1]
    h0 = b_out + float(np.sum(w2 * s0))
    h1 = np.einsum("j,jt->t", w2 * s1, w1)
    h2 = np.zeros((memory, memory))
    if degree == 2:
        # per-unit outer products are exactly symmetric, so the sum is too
        outer = w1[:, :, None] * w1[:, None, :]
        h2 = 0.5 * np.sum((w2 * s2)[:, None, None] * outer, axis=0)
    return VolterraKernels(h0=h0, h1=h1, h2=h2, memory=memory, degree=degree)


def _fir_response(model, window):
    """Model output for one input window; window[tau] is the lag-tau sample."""
    x = window[::-1].copy()[None, None, :]
    return float(model.forward(x, training=False)[0, 0, -1])


def fd_volterra_oracle(model, degree=2, amplitude=1e-3):
    """Kernels from central finite differences of the network response.

    Independent of the weight-based extraction: only forward evaluations of
    pulse inputs are used. ``amplitude`` is the probe pulse height.
    """
    memory = receptive_field(model)
    a = amplitude

    def f(window):
        return _fir_response(model, window)

    zero = np.zeros(memory)
    f0 = f(zero)
    h0 = f0
    h1 = np.zeros(memory)
    h2 = np.zeros((memory, memory))
    for t in range(memory):
        pulse = np.zeros(memory)
        pulse[t] = a
        fp = f(pulse)
        fm = f(-pulse)
        h1[t] = (fp - fm) / (2.0 * a)
        if degree >= 2:
            h2[t, t] = (fp - 2.0 * f0 + fm) / (2.0 * a * a)
    if degree >= 2:
        for t in range(memory):
            for s in range(t + 1, memory):
                pp = np.zeros(memory); pp[t] = a; pp[s] = a
                pm = np.zeros(memory); pm[t] = a; pm[s] = -a
                mp = np.zeros(memory); mp[t] = -a; mp[s] = a
                mm = np.zeros(memory); mm[t] = -a; mm[s] = -a
                mixed = (f(pp) - f(pm) - f(mp) + f(mm)) / (8.0 * a * a)
                h2[t, s] = mixed
                h2[s, t] = mixed
    return VolterraKernels(h0=h0, h1=h1, h2=h2, memory=memory, degree=degree)


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
