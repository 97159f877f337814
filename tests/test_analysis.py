import numpy as np
import pytest

from sysident import (Dataset, ModelConfig, NoiseSpec, Rng, SequenceRecord,
                      build_model, error_spectrum, evaluate,
                      extract_volterra_kernels, fd_volterra_oracle,
                      make_chen_dataset, rmse,
                      simulate_free_run, volterra_deviation)
from sysident.data import write_json
from sysident.layers import Activation
from sysident.errors import (DataError, DimensionError, NumericError,
                             ParameterError, UnsupportedError)

from test_models import diverging_mlp, narx_record


class TestRmse:
    def test_perfect_fit(self):
        y = Rng(0).gaussian((2, 30))
        per_channel, mean = rmse(y, y)
        assert np.array_equal(per_channel, [0.0, 0.0])
        assert mean == 0.0

    def test_direct_evaluation(self):
        # sqrt((9 + 16) / 2) = sqrt(12.5)
        per_channel, mean = rmse(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert per_channel[0] == pytest.approx(np.sqrt(12.5), abs=1e-15)
        assert mean == pytest.approx(3.5355339059327378, abs=1e-12)

    def test_constant_offset(self):
        y = Rng(1).gaussian((1, 100))
        per_channel, _ = rmse(y + 0.75, y)
        assert per_channel[0] == pytest.approx(0.75, abs=1e-12)

    def test_permutation_invariance(self):
        rng = Rng(2)
        yhat = rng.gaussian((2, 50))
        y = rng.gaussian((2, 50))
        perm = Rng(3).permutation(50)
        a = rmse(yhat, y)
        b = rmse(yhat[:, perm], y[:, perm])
        assert a[1] == pytest.approx(b[1], rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            rmse(np.zeros((1, 0)), np.zeros((1, 0)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="rmse shape mismatch"):
            rmse(np.zeros((1, 5)), np.zeros((2, 5)))

    def test_mean_is_average_over_channels(self):
        yhat = np.array([[1.0, 1.0], [2.0, 2.0]])
        y = np.zeros((2, 2))
        per_channel, mean = rmse(yhat, y)
        assert np.allclose(per_channel, [1.0, 2.0])
        assert mean == pytest.approx(1.5)


def fir_tanh_model(seed, memory=4, hidden=6, scale=0.5, activation="tanh",
                   zero_bias=False):
    """Single-hidden-layer FIR network with weights drawn in [-scale, scale]."""
    cfg = ModelConfig(family="mlp", narx=False, nu=1, ny=1, hidden=hidden,
                      depth=1, order=memory, activation=activation)
    model = build_model(cfg, Rng(seed))
    rng = Rng(seed + 1000)
    for _, p in model.named_parameters():
        p[...] = rng.uniform(-scale, scale, p.shape)
    if zero_bias:
        model.layers[0].params["b"][...] = 0.0
    return model


def randomized_fir_model(seed, **config):
    """FIR model with every parameter drawn in [-1, 1] and randomized
    batch-norm running statistics (means in [-0.5, 0.5], variances in
    [0.5, 2])."""
    model = build_model(ModelConfig(narx=False, **config), Rng(seed))
    rng = Rng(seed + 1000)
    for _, p in model.named_parameters():
        p[...] = rng.uniform(-1.0, 1.0, p.shape)
    for name, s in model.named_state():
        low, high = (-0.5, 0.5) if name.endswith("mean") else (0.5, 2.0)
        s[...] = rng.uniform(low, high, s.shape)
    return model


def closed_form_kernels(model):
    """h0, h1 and h2 of a depth-1 MLP, expanding each hidden unit at its bias:
    h0 = b_out + sum_j w2[j] sigma(b[j]), h1[t] = sum_j w2[j] sigma'(b[j])
    W1[j, t] and h2[t, s] = 1/2 sum_j w2[j] sigma''(b[j]) W1[j, t] W1[j, s]."""
    w1 = model.layers[0].effective_weight()[:, 0, :]   # (hidden, lags)
    b1 = model.layers[0].params["b"]
    w2 = model.head.effective_weight()[0, :, 0]
    s = Activation(model.config.activation).apply(b1)
    if model.config.activation == "tanh":
        s1, s2 = 1.0 - s * s, -2.0 * s * (1.0 - s * s)
    else:
        s1, s2 = s * (1.0 - s), s * (1.0 - s) * (1.0 - 2.0 * s)
    h0 = float(model.head.params["b"][0] + np.sum(w2 * s))
    h1 = np.einsum("j,jt->t", w2 * s1, w1)
    h2 = 0.5 * np.einsum("j,jt,js->ts", w2 * s2, w1, w1)
    return h0, h1, h2


# FIR architectures beyond the depth-1 MLP: deep MLPs, and TCNs of depth
# 1-3 with and without dilations, every norm kind, dropout, and identity
# (hidden=1) as well as 1x1 (hidden>1) skips
FIR_ARCHS = {
    "mlp-d2": dict(family="mlp", hidden=4, depth=2, order=4),
    "mlp-d3": dict(family="mlp", hidden=3, depth=3, order=6),
    "tcn-d1-k3-h1": dict(family="tcn", hidden=1, depth=1, kernel_size=3),
    "tcn-d2-k2-dil-batch": dict(family="tcn", hidden=3, depth=2,
                                kernel_size=2, dilations=True, norm="batch",
                                dropout=0.2),
    "tcn-d3-k2-dil-weight-h1": dict(family="tcn", hidden=1, depth=3,
                                    kernel_size=2, dilations=True,
                                    norm="weight", dropout=0.2),
    "tcn-d3-k3-batch": dict(family="tcn", hidden=2, depth=3, kernel_size=3,
                            norm="batch", dropout=0.1),
    "tcn-d2-k3-dil-weight": dict(family="tcn", hidden=4, depth=2,
                                 kernel_size=3, dilations=True, norm="weight"),
}
# the depth-1 MLP cases keep the bare activation as their id
FD_CASES = [pytest.param(act, None, id=act) for act in ("tanh", "sigmoid")] + [
    pytest.param(act, arch, id=f"{name}-{act}")
    for name, arch in FIR_ARCHS.items() for act in ("tanh", "sigmoid")]


class TestVolterraExtraction:
    def test_constant_network(self):
        model = fir_tanh_model(1)
        first = model.layers[0]
        first.params["W"][...] = 0.0
        kernels = extract_volterra_kernels(model)
        assert not kernels.h1.any()
        assert not kernels.h2.any()
        b = first.params["b"]
        w2 = model.head.params["W"][0, :, 0]
        expected = float(model.head.params["b"][0] + np.sum(w2 * np.tanh(b)))
        assert kernels.h0 == pytest.approx(expected, abs=1e-15)

    def test_single_unit_zero_bias(self):
        # odd activation at zero bias: h2 vanishes, h1 = w2 * W1 exactly
        model = fir_tanh_model(2, memory=3, hidden=1, zero_bias=True)
        kernels = extract_volterra_kernels(model)
        assert np.linalg.norm(kernels.h2) < 1e-12
        w1 = model.layers[0].params["W"][0, 0, :]
        w2 = float(model.head.params["W"][0, 0, 0])
        assert np.allclose(kernels.h1, w2 * w1, atol=1e-15)

    @pytest.mark.parametrize("activation,arch", FD_CASES)
    def test_matches_fd_oracle(self, activation, arch):
        if arch is None:
            models = [fir_tanh_model(10 + seed, memory=3 + seed % 3,
                                     hidden=2 + seed, activation=activation)
                      for seed in range(5)]
        else:
            models = [randomized_fir_model(30 + seed, activation=activation,
                                           **arch) for seed in range(3)]
        for model in models:
            got = extract_volterra_kernels(model)
            assert got.memory == model.receptive_field
            # the oracle's own O(amplitude^2) error sets most of this
            assert volterra_deviation(got, fd_volterra_oracle(model)) < 0.1

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_depth_1_mlp_equals_closed_form(self, activation):
        for seed in range(5):
            model = fir_tanh_model(40 + seed, memory=2 + seed, hidden=3 + seed,
                                   activation=activation, scale=1.0)
            got = extract_volterra_kernels(model)
            for g, ref in zip((got.h0, got.h1, got.h2),
                              closed_form_kernels(model)):
                err = np.max(np.abs(g - ref)) / np.max(np.abs(ref))
                assert err <= 1e-14

    def test_h2_symmetric_exactly(self):
        tcn = randomized_fir_model(3, family="tcn", hidden=6, depth=3,
                                   kernel_size=3, dilations=True, norm="batch",
                                   activation="tanh")
        for model in (fir_tanh_model(3, memory=5), tcn):
            kernels = extract_volterra_kernels(model)
            assert np.array_equal(kernels.h2, kernels.h2.T)
            oracle = fd_volterra_oracle(model)
            assert np.array_equal(oracle.h2, oracle.h2.T)

    def test_relu_rejected(self):
        tcn = build_model(ModelConfig(family="tcn", narx=False, hidden=3,
                                      depth=2, activation="relu"), Rng(5))
        for model in (fir_tanh_model(4, activation="relu"), tcn):
            with pytest.raises(UnsupportedError, match="smooth"):
                extract_volterra_kernels(model)

    def test_narx_model_rejected(self):
        cfg = ModelConfig(family="mlp", narx=True, hidden=4, depth=1,
                          order=3, activation="tanh")
        with pytest.raises(UnsupportedError, match="FIR"):
            extract_volterra_kernels(build_model(cfg, Rng(6)))

    def test_lstm_rejected(self):
        # a FIR LSTM still has unbounded memory: no receptive field
        cfg = ModelConfig(family="lstm", narx=False, hidden=4, depth=2)
        with pytest.raises(UnsupportedError, match="unbounded"):
            extract_volterra_kernels(build_model(cfg, Rng(7)))


class TestFdOracle:
    def test_linear_fir_recovers_impulse_response(self):
        model = fir_tanh_model(7, memory=4, hidden=3)
        first = model.layers[0]
        # tiny weights keep the network effectively linear
        first.params["W"][...] *= 1e-3
        impulse = np.zeros(4)
        kernels = fd_volterra_oracle(model, amplitude=1e-2)
        for tau in range(4):
            pulse = np.zeros(4)
            pulse[tau] = 1e-6
            x = pulse[::-1].copy()[None, None, :]
            base = model.forward(np.zeros((1, 1, 4)), training=False)[0, 0, -1]
            out = model.forward(x, training=False)[0, 0, -1]
            impulse[tau] = (out - base) / 1e-6
        assert np.allclose(kernels.h1, impulse, atol=1e-6)
        assert np.max(np.abs(kernels.h2)) < 1e-4

    def test_quadratic_response(self):
        # network replaced by an exact polynomial: y = u[0]^2 via tanh is not
        # available, so check the oracle's convergence order instead
        model = fir_tanh_model(8, memory=3, hidden=4)
        k_a = fd_volterra_oracle(model, amplitude=1e-3)
        k_half = fd_volterra_oracle(model, amplitude=5e-4)
        # central differences converge at O(a^2): quartering the error
        assert np.max(np.abs(k_a.h1 - k_half.h1)) < 1e-5
        assert np.max(np.abs(k_a.h2 - k_half.h2)) < 1e-3

    def test_memory_matches_receptive_field(self):
        model = fir_tanh_model(9, memory=6)
        assert fd_volterra_oracle(model).memory == 6

    @pytest.mark.parametrize("config,match", [
        (dict(narx=True), "FIR"),
        (dict(narx=False, nu=2), "single-input"),
        (dict(narx=False, ny=2), "single-output"),
    ], ids=["narx-tcn", "two-inputs", "two-outputs"])
    def test_non_siso_fir_rejected(self, config, match):
        # the oracle used to raise DimensionError on the first two and read
        # output 0 alone of a two-output model
        model = build_model(ModelConfig(family="tcn", hidden=3,
                                        activation="tanh", **config), Rng(10))
        with pytest.raises(UnsupportedError, match=match):
            fd_volterra_oracle(model)
        with pytest.raises(UnsupportedError, match=match):
            extract_volterra_kernels(model)


class TestErrorSpectrum:
    def test_zero_error_zero_spectrum(self):
        freqs, mags = error_spectrum(np.zeros(64), sample_rate=10.0)
        assert not mags.any()
        assert freqs.size == 64

    def test_sinusoid_peaks_at_its_bin(self):
        fs = 100.0
        t = np.arange(200) / fs
        err = np.sin(2 * np.pi * 10.0 * t)
        freqs, mags = error_spectrum(err, sample_rate=fs)
        peak = np.abs(freqs[np.argmax(mags)])
        assert peak == pytest.approx(10.0, abs=fs / 200)

    def test_parseval(self):
        err = Rng(20).gaussian(256)
        _, mags = error_spectrum(err, sample_rate=1.0)
        lhs = np.sum(mags ** 2) / err.size
        rhs = np.sum(err ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_band_selection(self):
        freqs, _ = error_spectrum(Rng(21).gaussian(500), sample_rate=100.0,
                                  band=(4.7, 11.0))
        assert freqs.min() >= 4.7
        assert freqs.max() <= 11.0
        assert freqs.size > 0

    def test_short_input_rejected(self):
        with pytest.raises(DataError):
            error_spectrum(np.array([1.0]))

    def test_one_bin_band(self):
        freqs, _ = error_spectrum(np.ones(10), band=(0.1, 0.1))
        assert np.array_equal(freqs, [0.1])

    @pytest.mark.parametrize("band", [
        (0.3, 0.1),                 # reversed
        (0.11, 0.19),               # between the bins at 0.1 and 0.2
        (float("nan"), 0.2),
        (0.1, float("nan")),
        (0.1, float("inf")),
        (float("-inf"), 0.2),
    ])
    def test_bad_band_rejected(self, band):
        with pytest.raises(ParameterError, match="band"):
            error_spectrum(np.ones(10), band=band)

    @pytest.mark.parametrize("rate", [0.0, float("inf"), -1.0, float("nan")])
    def test_bad_sample_rate_rejected(self, rate):
        with pytest.raises(ParameterError, match="sample_rate"):
            error_spectrum(np.ones(10), sample_rate=rate)


class TestEvaluate:
    def test_report_fields_and_modes(self):
        ds = make_chen_dataset(2, 40, NoiseSpec(0.1, 0.1), seed=22,
                               role="validation")
        cfg = ModelConfig(family="tcn", hidden=4, depth=1, kernel_size=2,
                          activation="tanh")
        model = build_model(cfg, Rng(23))
        rep = evaluate(model, ds, mode="one-step", warmup=3)
        assert rep.mode == "one-step"
        assert rep.sample_count == 2 * (40 - 3)
        assert rep.warmup_skipped == 3
        assert rep.rmse_mean >= 0.0
        free = evaluate(model, ds, mode="free-run")
        assert free.mode == "free-run"
        assert free.sample_count == 80

    def test_free_run_of_unequal_records_in_record_order(self):
        rng = Rng(28)
        records = [SequenceRecord(u=rng.gaussian(n), y=rng.gaussian(n))
                   for n in (18, 11, 18)]
        cfg = ModelConfig(family="tcn", hidden=4, depth=2, kernel_size=2,
                          dilations=True, activation="tanh")
        model = build_model(cfg, Rng(29))
        rep = evaluate(model, Dataset(records=records, role="test"),
                       mode="free-run")
        assert rep.sample_count == 47
        assert [p.shape for p in rep.predictions] == [(1, 18), (1, 11), (1, 18)]
        for pred, rec in zip(rep.predictions, records):
            assert pred.tobytes() == simulate_free_run(model, rec.u).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_rmse_raises_numeric_error(self):
        model = diverging_mlp()
        ds = Dataset(records=[narx_record(4, 60)], role="test")
        assert np.isfinite(evaluate(model, ds, mode="one-step").rmse_mean)
        with pytest.raises(NumericError, match="free-run RMSE is not finite"):
            evaluate(model, ds, mode="free-run")

    def test_negative_warmup_rejected(self):
        ds = make_chen_dataset(1, 30, NoiseSpec(0.1, 0.1), seed=26)
        model = build_model(ModelConfig(family="mlp", hidden=4), Rng(27))
        with pytest.raises(ParameterError, match="warmup"):
            evaluate(model, ds, warmup=-5)

    def test_json_round_trip(self, tmp_path):
        import json
        ds = make_chen_dataset(1, 30, NoiseSpec(0.0, 0.0), seed=24)
        cfg = ModelConfig(family="mlp", hidden=4, order=2)
        model = build_model(cfg, Rng(25))
        rep = evaluate(model, ds, mode="one-step")
        write_json(tmp_path / "report.json", rep.to_dict())
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["mode"] == "one-step"
        assert len(doc["rmse_per_channel"]) == 1
