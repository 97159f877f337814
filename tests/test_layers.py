import numpy as np
import pytest

from sysident import Rng
from sysident.errors import DataError, DimensionError, ParameterError
from sysident.layers import (Activation, BatchNorm, CausalConv1d, Dropout,
                             ResidualBlock, _sigmoid, weight_norm_backward,
                             weight_norm_forward)
from sysident.models import LstmLayer

from gradcheck import check_model_gradients, numerical_gradient, relative_error

GRAD_TOL = 1e-6


def away_from_zero(rng, shape, margin=0.2):
    """Random values with |x| >= margin, so relu probes never cross the kink."""
    x = rng.gaussian(shape)
    return np.sign(x) * (np.abs(x) + margin)


class TestCausalConv:
    def test_identity_kernel(self):
        conv = CausalConv1d(1, 1, 1, 1, Rng(0))
        conv.params["W"][...] = 1.0
        conv.params["b"][...] = 0.0
        x = Rng(1).gaussian((2, 1, 7))
        assert np.array_equal(conv.forward(x), x)

    def test_two_tap_kernel(self):
        # naive loop oracle: out[t] = x[t] + x[t-1] -> [1, 3, 5]
        conv = CausalConv1d(1, 1, 2, 1, Rng(0))
        conv.params["W"][0, 0] = [1.0, 1.0]
        conv.params["b"][...] = 0.0
        out = conv.forward(np.array([[[1.0, 2.0, 3.0]]]))
        assert np.allclose(out, [[[1.0, 3.0, 5.0]]])

    def test_dilated_kernel(self):
        # out[t] = x[t] + x[t-2] -> [1, 2, 4, 6]
        conv = CausalConv1d(1, 1, 2, 2, Rng(0))
        conv.params["W"][0, 0] = [1.0, 1.0]
        conv.params["b"][...] = 0.0
        out = conv.forward(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        assert np.allclose(out, [[[1.0, 2.0, 4.0, 6.0]]])

    def test_matches_naive_loop_oracle(self):
        rng = Rng(3)
        for dilation in (1, 2, 3):
            conv = CausalConv1d(2, 3, 3, dilation, rng)
            x = rng.gaussian((2, 2, 12))
            out = conv.forward(x)
            w, b = conv.params["W"], conv.params["b"]
            expected = np.zeros_like(out)
            for bt in range(2):
                for co in range(3):
                    for t in range(12):
                        acc = b[co]
                        for ci in range(2):
                            for i in range(3):
                                tau = t - i * dilation
                                if tau >= 0:
                                    acc += w[co, ci, i] * x[bt, ci, tau]
                        expected[bt, co, t] = acc
            assert np.allclose(out, expected, rtol=1e-12)

    def test_zero_upstream_gives_zero_grads(self):
        conv = CausalConv1d(2, 2, 2, 1, Rng(0))
        out = conv.forward(Rng(1).gaussian((1, 2, 5)), training=True)
        dx = conv.backward(np.zeros_like(out))
        assert not dx.any()
        assert not conv.grads["W"].any() and not conv.grads["b"].any()

    def test_identity_kernel_adjoint(self):
        conv = CausalConv1d(1, 1, 1, 1, Rng(0))
        conv.params["W"][...] = 1.0
        conv.forward(Rng(1).gaussian((2, 1, 6)), training=True)
        g = Rng(2).gaussian((2, 1, 6))
        assert np.array_equal(conv.backward(g), g)

    @pytest.mark.parametrize("dilation,weight_norm", [(1, False), (2, False), (1, True)])
    def test_backward_matches_finite_differences(self, dilation, weight_norm):
        conv = CausalConv1d(2, 3, 2, dilation, Rng(4), weight_norm=weight_norm)
        x = Rng(5).gaussian((2, 2, 8))
        assert check_model_gradients(conv, x) < GRAD_TOL

    @pytest.mark.parametrize("kernel,dilation,weight_norm,t_len", [
        (3, 4, False, 300), (3, 4, True, 300), (1, 1, False, 300),
        (3, 4, True, 1), (1, 1, False, 1)])
    def test_backward_matches_finite_differences_across_time_chunks(
            self, kernel, dilation, weight_norm, t_len):
        # 300 samples reduce the weight gradient over chunks of 128 + 128 + 44
        conv = CausalConv1d(2, 3, kernel, dilation, Rng(4),
                            weight_norm=weight_norm)
        x = Rng(5).gaussian((2, 2, t_len))
        assert check_model_gradients(conv, x) < GRAD_TOL

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("kernel,dilation", [(1, 1), (1, 3), (3, 1), (3, 3)])
    @pytest.mark.parametrize("t_len", [1, 2, 9, 300])
    def test_backward_is_exact_adjoint(self, batch, kernel, dilation, t_len):
        # out - b is bilinear in (W, x), so <g, out - b> = <x, dx> = <W, dW>
        # up to rounding, judged against the sum of |g| |W| |x| and |g| |b|
        rng = Rng(8)
        conv = CausalConv1d(3, 2, kernel, dilation, rng)
        w, b = conv.params["W"], conv.params["b"]
        b[...] = rng.gaussian(2)
        x = rng.gaussian((batch, 3, t_len))
        g = rng.gaussian((batch, 2, t_len))
        lhs = np.sum(g * (conv.forward(x, training=True) - b[None, :, None]))
        mag = CausalConv1d(3, 2, kernel, dilation, rng)
        mag.params["W"][...] = np.abs(w)
        mag.params["b"][...] = np.abs(b)
        scale = np.sum(np.abs(g) * mag.forward(np.abs(x)))
        dx = conv.backward(g)
        assert abs(lhs - np.sum(x * dx)) <= 1e-12 * scale
        assert abs(lhs - np.sum(w * conv.grads["W"])) <= 1e-12 * scale
        assert abs(np.sum(g * b[None, :, None]) - np.sum(b * conv.grads["b"])) \
            <= 1e-12 * scale
        once = {name: grad.copy() for name, grad in conv.grads.items()}
        conv.backward(g)
        for name in ("W", "b"):
            assert np.array_equal(conv.grads[name], 2.0 * once[name])

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_one_column_is_first_of_two(self, kernel):
        # an einsum over one output column may sum in another order than over
        # two; the conv contracts two either way, so one-sample records see
        # the bits of longer ones and of streaming
        rng = Rng(12)
        for batch in (1, 4):
            conv = CausalConv1d(24, 5, kernel, 2, rng)
            conv.params["b"][...] = rng.gaussian(5)
            x = rng.gaussian((batch, 24, 1))
            two = conv.forward(np.concatenate([x, np.zeros_like(x)], axis=2))
            assert conv.forward(x).tobytes() == two[:, :, :1].tobytes()

    def test_chunked_forward_bytes_equal_one_einsum(self, monkeypatch):
        # 3 000 columns are contracted as three chunks of 1 000, and the
        # first 24 outputs of each later chunk read taps of the one before
        rng = Rng(15)
        conv = CausalConv1d(6, 4, 4, 8, rng)
        w, b = conv.params["W"], conv.params["b"]
        b[...] = rng.gaussian(4)
        x = rng.gaussian((2, 6, 3000))
        xpad = np.concatenate([np.zeros((2, 6, 24)), x], axis=2)
        gather = np.concatenate([xpad[:, :, 24 - 8 * i:3024 - 8 * i]
                                 for i in range(4)], axis=1)
        oracle = np.einsum("om,bmt->bot",
                           w.transpose(0, 2, 1).reshape(4, -1), gather)
        oracle += b[None, :, None]
        calls = []
        einsum = np.einsum

        def counted(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        assert conv.forward(x).tobytes() == oracle.tobytes()
        assert len(calls) == 3

    def test_output_length_equals_input_length(self):
        conv = CausalConv1d(1, 4, 5, 3, Rng(0))
        assert conv.forward(Rng(1).gaussian((1, 1, 17))).shape == (1, 4, 17)

    def test_first_output_depends_on_first_input_and_bias_only(self):
        conv = CausalConv1d(2, 3, 4, 2, Rng(6))
        x = Rng(7).gaussian((1, 2, 9))
        base = conv.forward(x.copy())
        probed = x.copy()
        probed[:, :, 1:] += 5.0     # everything except input[0]
        assert np.array_equal(conv.forward(probed)[:, :, 0], base[:, :, 0])

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            CausalConv1d(1, 1, 0, 1, Rng(0))
        with pytest.raises(ParameterError):
            CausalConv1d(1, 1, 2, 0, Rng(0))

    @staticmethod
    def _stream(conv, x):
        conv.begin_stream(x.shape[0])
        return np.concatenate([conv.step(x[:, :, t:t + 1])
                               for t in range(x.shape[2])], axis=2)

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("weight_norm", [False, True])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    @pytest.mark.parametrize("kernel", [1, 2, 4, 16])
    def test_stream_equals_forward_bytes(self, kernel, dilation, weight_norm,
                                         batch):
        rng = Rng(9)
        for out_channels in (1, 2, 3):
            conv = CausalConv1d(5, out_channels, kernel, dilation, rng,
                                weight_norm=weight_norm)
            conv.params["b"][...] = rng.gaussian(out_channels)
            # long enough for the ring buffer's slot pointer to wrap twice
            x = rng.gaussian((batch, 5, 2 * conv.receptive_field + 3))
            full = conv.forward(x)
            streamed = self._stream(conv, x)
            assert streamed.tobytes() == full.tobytes()
            for row in range(batch):
                alone = self._stream(conv, x[row:row + 1])
                assert alone.tobytes() == streamed[row:row + 1].tobytes()

    @pytest.mark.parametrize("kernel", [1, 4])
    def test_one_einsum_per_conv_call(self, monkeypatch, kernel):
        calls = []
        einsum = np.einsum

        def counted(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        conv = CausalConv1d(3, 2, kernel, 2, Rng(10))
        x = Rng(11).gaussian((2, 3, 6))
        conv.forward(x)
        assert len(calls) == 1
        conv.begin_stream(2)
        for t in range(6):
            conv.step(x[:, :, t:t + 1])
        assert len(calls) == 7

    @pytest.mark.parametrize("name", ["W", "b"])
    def test_parameters_frozen_at_begin_stream(self, name):
        conv = CausalConv1d(2, 3, 2, 1, Rng(12))
        conv.params["b"][...] = Rng(13).gaussian(3)
        x = Rng(14).gaussian((2, 2, 6))
        before = conv.forward(x)
        conv.begin_stream(2)
        cols = [conv.step(x[:, :, :1])]
        conv.params[name] += 1.0
        cols += [conv.step(x[:, :, t:t + 1]) for t in range(1, 6)]
        assert np.concatenate(cols, axis=2).tobytes() == before.tobytes()
        after = conv.forward(x)
        assert not np.array_equal(after, before)
        assert self._stream(conv, x).tobytes() == after.tobytes()

    def test_step_needs_begin_stream(self):
        conv = CausalConv1d(2, 3, 2, 1, Rng(0))
        with pytest.raises(ParameterError, match="before begin_stream"):
            conv.step(np.zeros((1, 2, 1)))

    @pytest.mark.parametrize("shape", [(1, 2, 1), (3, 1, 1), (3, 2, 2), (3, 2)])
    def test_step_rejects_a_misshaped_column(self, shape):
        # the stream holds 3 records of 2 channels: a (1, 2, 1) or a
        # 1-channel column used to broadcast into the history
        conv = CausalConv1d(2, 3, 2, 1, Rng(0))
        conv.begin_stream(3)
        with pytest.raises(DimensionError):
            conv.step(np.zeros(shape))
        assert conv.step(np.ones((3, 2, 1))).shape == (3, 3, 1)

    def test_shape_errors(self):
        conv = CausalConv1d(2, 1, 2, 1, Rng(0))
        with pytest.raises(DimensionError):
            conv.forward(np.zeros((1, 3, 5)))
        conv.forward(np.zeros((1, 2, 5)), training=True)
        with pytest.raises(DimensionError):
            conv.backward(np.zeros((1, 1, 4)))


class TestActivations:
    def test_relu_sign_cases(self):
        act = Activation("relu")
        assert np.array_equal(act.forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_symmetry_points(self):
        assert Activation("sigmoid").forward(np.array([0.0]))[0] == 0.5
        assert Activation("tanh").forward(np.array([0.0]))[0] == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            Activation("softplus")

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh"])
    def test_backward_matches_finite_differences(self, kind):
        act = Activation(kind)
        x = away_from_zero(Rng(6), (3, 7))
        assert check_model_gradients(act, x) < GRAD_TOL

    def test_relu_subgradient_zero_at_zero(self):
        act = Activation("relu")
        act.forward(np.array([0.0, 1.0]), training=True)
        assert np.array_equal(act.backward(np.ones(2)), [0.0, 1.0])


class TestSigmoid:
    MAGNITUDES = (1e-3, 1e-1, 1.0, 10.0, 40.0, 800.0)

    @staticmethod
    def assert_matches_oracle(x, oracle):
        before = x.copy()
        out = _sigmoid(x)
        expected = oracle(x)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("shape", [(1, 128), (10, 64, 1), (8, 64, 100)])
    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_bytes_equal_masked_form(self, shape, magnitude, masked_sigmoid):
        x = Rng(31).gaussian(shape) * magnitude
        self.assert_matches_oracle(x, masked_sigmoid)

    @pytest.mark.parametrize("magnitude", MAGNITUDES)
    def test_views_bytes_equal_masked_form(self, magnitude, masked_sigmoid):
        x = Rng(32).gaussian((8, 64, 100)) * magnitude
        for view in (x[:, ::2, 1::3], x[1:, 3:], x.transpose(2, 0, 1),
                     x[0].T, x[..., ::-1]):
            self.assert_matches_oracle(view, masked_sigmoid)

    def test_signed_zeros_and_infinities(self, masked_sigmoid):
        x = np.array([0.0, -0.0, np.inf, -np.inf, 745.2, -745.2, 1e-300, -1e-300])
        self.assert_matches_oracle(x, masked_sigmoid)
        assert np.array_equal(_sigmoid(x[:4]), [0.5, 0.5, 1.0, 0.0])

    def test_nan_in_nan_out(self):
        out = _sigmoid(np.array([np.nan, -1.0, np.nan, 2.0]))
        assert np.array_equal(np.isnan(out), [True, False, True, False])

    @pytest.mark.parametrize("value", [-3.5, 0.0, 2.25])
    def test_zero_dimensional_input(self, value, masked_sigmoid):
        expected = masked_sigmoid(np.array(value))
        for x in (np.array(value), np.float64(value)):
            out = _sigmoid(x)
            assert np.shape(out) == ()
            assert np.asarray(out).tobytes() == expected.tobytes()


class TestDropout:
    def test_p_zero_identity_both_modes(self):
        drop = Dropout(0.0, Rng(0))
        x = Rng(1).gaussian((3, 4))
        assert np.array_equal(drop.forward(x, training=True), x)
        assert np.array_equal(drop.forward(x, training=False), x)

    def test_eval_mode_identity(self):
        drop = Dropout(0.7, Rng(0))
        x = Rng(1).gaussian((3, 4))
        out = drop.forward(x, training=False)
        assert out is x
        assert drop.step(x) is x

    def test_training_expectation_matches_input(self):
        drop = Dropout(0.5, Rng(2))
        x = np.array([1.0, -2.0, 3.0, 1.5, -1.0, 2.5, -3.0, 0.8])
        total = np.zeros_like(x)
        n = 10 ** 5
        for _ in range(n):
            total += drop.forward(x, training=True)
        assert np.all(np.abs(total / n - x) < 0.01 * np.abs(x) + 1e-3)

    def test_rate_validation(self):
        with pytest.raises(ParameterError):
            Dropout(1.0, Rng(0))
        with pytest.raises(ParameterError):
            Dropout(-0.1, Rng(0))

    def test_backward_reuses_mask(self):
        drop = Dropout(0.4, Rng(3))
        x = Rng(4).gaussian((6, 5))
        out = drop.forward(x, training=True)
        grad = drop.backward(np.ones_like(x))
        # the same elements are zeroed, survivors share the 1/(1-p) scale
        assert np.array_equal(grad == 0.0, out == 0.0)
        assert np.allclose(grad[grad != 0.0], 1.0 / 0.6)

    def test_backward_matches_finite_differences_with_pinned_mask(self):
        drop = Dropout(0.3, Rng(5))
        x = Rng(6).gaussian((4, 6))
        state = drop.rng.get_state()
        err = check_model_gradients(
            drop, x, rng_state=state,
            restore_rng=lambda s: drop.rng.set_state(s))
        assert err < GRAD_TOL


class TestBatchNorm:
    def test_constant_channel_outputs_beta(self):
        bn = BatchNorm(2)
        bn.params["beta"][...] = 0.7
        x = np.full((3, 2, 5), 4.2)
        out = bn.forward(x, training=True)
        assert np.allclose(out, 0.7, atol=1e-12)

    def test_standardizes_per_channel(self):
        bn = BatchNorm(3)
        # large input scale keeps the epsilon bias below the tolerance
        x = Rng(7).gaussian((4, 3, 50), mean=5.0, std=1000.0)
        out = bn.forward(x, training=True)
        mean = out.mean(axis=(0, 2))
        var = out.var(axis=(0, 2))
        assert np.all(np.abs(mean) < 1e-10)
        assert np.all(np.abs(var - 1.0) < 1e-8)

    def test_single_sample_training_rejected(self):
        bn = BatchNorm(2)
        with pytest.raises(DataError):
            bn.forward(np.zeros((1, 2, 1)), training=True)

    def test_running_stats_drive_eval_mode(self):
        bn = BatchNorm(1)
        rng = Rng(8)
        for _ in range(200):
            bn.forward(rng.gaussian((4, 1, 25), mean=3.0, std=2.0), training=True)
        x = rng.gaussian((2, 1, 10), mean=3.0, std=2.0)
        out = bn.forward(x, training=False)
        manual = (x - bn.running_mean[None, :, None]) / np.sqrt(
            bn.running_var[None, :, None] + bn.eps)
        assert np.allclose(out, manual)
        assert abs(bn.running_mean[0] - 3.0) < 0.2
        assert abs(bn.running_var[0] - 4.0) < 0.5

    def test_backward_matches_finite_differences(self):
        bn = BatchNorm(3)
        bn.params["gamma"][...] = Rng(9).gaussian(3, mean=1.0, std=0.2)
        bn.params["beta"][...] = Rng(10).gaussian(3)
        x = Rng(13).gaussian((4, 3, 6))
        assert check_model_gradients(bn, x, training=True) < GRAD_TOL

    def test_backward_needs_training_forward(self):
        bn = BatchNorm(3)
        x = Rng(14).gaussian((4, 3, 6))
        grad = np.ones_like(x)
        with pytest.raises(ParameterError, match="backward called before forward"):
            bn.backward(grad)
        bn.forward(x, training=True)
        bn.forward(x, training=False)    # drops the training forward's cache
        with pytest.raises(ParameterError, match="backward called before forward"):
            bn.backward(grad)


class TestWeightNorm:
    def test_neutral_reparametrization(self):
        v = Rng(14).gaussian((3, 5))
        g = np.sqrt(np.sum(v * v, axis=1))
        assert np.array_equal(weight_norm_forward(v, g), v)

    def test_direction_scale_invariance(self):
        v = Rng(15).gaussian((3, 5))
        g = Rng(16).gaussian(3) ** 2 + 0.5
        w1 = weight_norm_forward(v, g)
        w2 = weight_norm_forward(10.0 * v, g)
        assert np.allclose(w1, w2, rtol=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ParameterError):
            weight_norm_forward(np.zeros((2, 3)), np.ones(2))

    def test_gradients_match_finite_differences(self):
        rng = Rng(17)
        v = rng.gaussian((3, 4))
        g = rng.gaussian(3) ** 2 + 0.5
        proj = rng.gaussian((3, 4))

        def objective():
            return float(np.sum(weight_norm_forward(v, g) * proj))

        d_v, d_g = weight_norm_backward(v, g, proj)
        assert relative_error(d_v, numerical_gradient(objective, v)) < GRAD_TOL
        assert relative_error(d_g, numerical_gradient(objective, g)) < GRAD_TOL


class TestResidualBlock:
    def _zero_body(self, block):
        for conv in (block.conv1, block.conv2):
            for grad_name in ("W", "v"):
                if grad_name in conv.params:
                    conv.params[grad_name][...] = 0.0
            conv.params["b"][...] = 0.0

    def test_pure_skip_when_body_is_zero(self):
        block = ResidualBlock(3, 3, 2, 1, norm="none", activation="relu", rng=Rng(18))
        self._zero_body(block)
        x = Rng(19).gaussian((2, 3, 6))
        assert np.array_equal(block.forward(x), x)

    def test_channel_projection_skip(self):
        block = ResidualBlock(2, 3, 2, 1, norm="none", activation="relu", rng=Rng(20))
        self._zero_body(block)
        block.skip.params["W"][...] = 0.0
        block.skip.params["W"][0, 0, 0] = 1.0   # row 0 picks channel 0
        block.skip.params["W"][1, 1, 0] = 1.0   # row 1 picks channel 1
        block.skip.params["b"][...] = 0.0
        x = Rng(21).gaussian((2, 2, 5))
        out = block.forward(x)
        # composed by hand: skip rows select channels, third row stays zero
        assert np.array_equal(out[:, 0], x[:, 0])
        assert np.array_equal(out[:, 1], x[:, 1])
        assert np.array_equal(out[:, 2], np.zeros_like(out[:, 2]))

    @pytest.mark.parametrize("norm", ["none", "batch", "weight"])
    def test_backward_matches_finite_differences(self, norm):
        block = ResidualBlock(2, 3, 2, 2, norm=norm, activation="tanh", rng=Rng(22))
        x = Rng(23).gaussian((2, 2, 7))
        assert check_model_gradients(block, x, training=True) < GRAD_TOL

    def test_causality_is_bitwise(self):
        block = ResidualBlock(2, 4, 3, 2, norm="none", activation="tanh", rng=Rng(24))
        x = Rng(25).gaussian((1, 2, 12))
        base = block.forward(x.copy())
        probed = x.copy()
        probed[:, :, 7] += 3.0
        out = block.forward(probed)
        assert np.array_equal(out[:, :, :7], base[:, :, :7])
        assert not np.array_equal(out[:, :, 7:], base[:, :, 7:])


def test_delay_commutes_with_static_nonlinearity():
    # shifting then applying the activation equals applying then shifting
    rng = Rng(26)
    z = rng.gaussian(40)
    for kind in ("relu", "sigmoid", "tanh"):
        act = Activation(kind)
        for s in (1, 3, 7):
            shifted_then_act = act.apply(np.concatenate([np.zeros(s), z]))
            act_then_shifted = np.concatenate([act.apply(np.zeros(s)), act.apply(z)])
            assert np.array_equal(shifted_then_act, act_then_shifted)


BACKWARD_LAYERS = {
    "conv": lambda: CausalConv1d(2, 3, 2, 1, Rng(27)),
    "activation": lambda: Activation("relu"),
    "batch_norm": lambda: BatchNorm(2),
    "lstm": lambda: LstmLayer(2, 3, Rng(27)),
}


@pytest.mark.parametrize("make", BACKWARD_LAYERS.values(),
                         ids=BACKWARD_LAYERS.keys())
def test_backward_needs_a_training_forward(make):
    x = Rng(28).gaussian((2, 2, 5))
    layer = make()
    grad = np.ones_like(layer.forward(x, training=True))
    layer.backward(grad)
    layer.forward(x, training=False)    # drops the training forward's cache
    for unprepared in (layer, make()):
        with pytest.raises(ParameterError,
                           match="backward called before forward"):
            unprepared.backward(grad)


@pytest.mark.parametrize("layer", [BatchNorm(2), LstmLayer(2, 3, Rng(29))],
                         ids=["batch_norm", "lstm"])
def test_wrong_channel_count_rejected(layer):
    with pytest.raises(DimensionError, match="expects"):
        layer.forward(np.zeros((1, 3, 4)))
