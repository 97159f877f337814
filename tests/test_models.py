import base64
import json

import numpy as np
import pytest

from sysident import (Dataset, ModelConfig, Rng, build_model, count_parameters,
                      evaluate, free_run_naive, load_checkpoint,
                      predict_one_step, save_checkpoint, simulate_free_run)
from sysident.data import SequenceRecord
from sysident.errors import (ConfigError, DataError, DimensionError,
                             ParameterError, UnsupportedError)
from sysident import models
from sysident.layers import CausalConv1d, Dropout, Layer, _sigmoid
from sysident.models import lstm_cell_step, predict_records

from gradcheck import check_model_gradients

GRAD_TOL = 1e-6


def narx_record(seed, length=20):
    rng = Rng(seed)
    return SequenceRecord(u=rng.gaussian(length), y=rng.gaussian(length))


def held_arrays(layer):
    """The arrays a layer, and every layer it references, hold directly or
    in lists, tuples and dicts."""
    held, todo, seen = [], [layer], set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            held.append(obj)
        elif isinstance(obj, Layer):
            todo.extend(vars(obj).values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
    return held


def u_channel_model():
    """One-block TCN wired to realize yhat[k+1] = u[k] exactly."""
    cfg = ModelConfig(family="tcn", hidden=1, depth=1, kernel_size=1)
    model = build_model(cfg, Rng(0))
    block = model.blocks[0]
    block.conv1.params["W"][...] = 0.0
    block.conv1.params["b"][...] = 0.0
    block.conv2.params["W"][...] = 0.0
    block.conv2.params["b"][...] = 0.0
    block.skip.params["W"][0, :, 0] = [1.0, 0.0]
    block.skip.params["b"][...] = 0.0
    model.head.params["W"][...] = 1.0
    model.head.params["b"][...] = 0.0
    return model


def diverging_mlp():
    """A NARX relu MLP whose free-run overflows: its weights scaled 50x."""
    model = build_model(ModelConfig(family="mlp", hidden=8, order=2), Rng(3))
    for _, p in model.named_parameters():
        p *= 50.0
    return model


def y_channel_model():
    model = u_channel_model()
    model.blocks[0].skip.params["W"][0, :, 0] = [0.0, 1.0]
    return model


class TestBuildModel:
    def test_tcn_dilation_factors(self):
        cfg = ModelConfig(family="tcn", depth=3, kernel_size=2, dilations=True)
        model = build_model(cfg, Rng(0))
        assert [b.dilation for b in model.blocks] == [1, 2, 4]

    def test_dilations_off(self):
        cfg = ModelConfig(family="tcn", depth=3, kernel_size=2, dilations=False)
        model = build_model(cfg, Rng(0))
        assert [b.dilation for b in model.blocks] == [1, 1, 1]

    def test_same_seed_same_parameters(self):
        cfg = ModelConfig(family="lstm", hidden=8, depth=2, dropout=0.2)
        a = dict(build_model(cfg, Rng(7)).named_parameters())
        b = dict(build_model(cfg, Rng(7)).named_parameters())
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name])

    @pytest.mark.parametrize("family,kw,names", [
        ("tcn", dict(hidden=3, depth=2, norm="batch"),
         ["blocks.0.conv1.W", "blocks.0.conv1.b", "blocks.0.bn1.gamma",
          "blocks.0.bn1.beta", "blocks.0.conv2.W", "blocks.0.conv2.b",
          "blocks.0.bn2.gamma", "blocks.0.bn2.beta", "blocks.0.skip.W",
          "blocks.0.skip.b", "blocks.1.conv1.W", "blocks.1.conv1.b",
          "blocks.1.bn1.gamma", "blocks.1.bn1.beta", "blocks.1.conv2.W",
          "blocks.1.conv2.b", "blocks.1.bn2.gamma", "blocks.1.bn2.beta",
          "head.W", "head.b"]),
        ("mlp", dict(hidden=3, depth=2, order=4),
         ["layers.0.W", "layers.0.b", "layers.2.W", "layers.2.b",
          "head.W", "head.b"]),
        ("lstm", dict(hidden=3, depth=2),
         ["cells.0.Wx", "cells.0.Wh", "cells.0.b", "cells.1.Wx",
          "cells.1.Wh", "cells.1.b", "head.W", "head.b"]),
    ])
    def test_parameter_names_and_order_are_pinned(self, family, kw, names):
        # checkpoints store parameters under these names, in this order
        model = build_model(ModelConfig(family=family, **kw), Rng(0))
        assert [n for n, _ in model.named_parameters()] == names
        assert [n for n, _ in model.named_grads()] == names

    def test_mlp_window_arithmetic(self):
        # order 2 with (u, y) channels stacks 4 values per regression vector
        cfg = ModelConfig(family="mlp", nu=1, ny=1, order=2, hidden=16)
        model = build_model(cfg, Rng(0))
        w = model.layers[0].params["W"]
        assert w.shape == (16, 2, 2)
        assert w[0].size == 4

    def test_param_count_is_function_of_config(self):
        cfg = ModelConfig(family="tcn", hidden=8, depth=2, kernel_size=3)
        assert count_parameters(cfg) == build_model(cfg, Rng(99)).num_parameters()

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ModelConfig(family="gru")
        with pytest.raises(ConfigError):
            ModelConfig(hidden=0)
        with pytest.raises(ConfigError):
            ModelConfig(dropout=1.0)


class TestPredictOneStep:
    def test_u_channel_model_shifts_u(self):
        model = u_channel_model()
        rec = narx_record(1)
        yhat = predict_one_step(model, rec)
        assert yhat[0, 0] == 0.0
        assert np.array_equal(yhat[0, 1:], rec.u[0, :-1])

    def test_y_channel_model_shifts_y(self):
        model = y_channel_model()
        rec = narx_record(2)
        yhat = predict_one_step(model, rec)
        assert yhat[0, 0] == 0.0
        assert np.array_equal(yhat[0, 1:], rec.y[0, :-1])

    def test_future_samples_cannot_move_predictions(self):
        cfg = ModelConfig(family="tcn", hidden=6, depth=2, kernel_size=2,
                          dilations=True, activation="tanh")
        model = build_model(cfg, Rng(3))
        rec = narx_record(4)
        base = predict_one_step(model, rec)
        k = 9
        u2 = rec.u.copy()
        y2 = rec.y.copy()
        u2[0, k:] += 2.0
        y2[0, k:] -= 3.0
        probed = predict_one_step(model, SequenceRecord(u=u2, y=y2))
        assert np.array_equal(probed[:, :k + 1], base[:, :k + 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            SequenceRecord(u=np.zeros(5), y=np.zeros(6))


class TestPredictRecords:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("narx", [True, False], ids=["narx", "fir"])
    def test_lstm_rows_match_single_records(self, depth, narx):
        cfg = ModelConfig(family="lstm", hidden=5, depth=depth, narx=narx,
                          dropout=0.3)
        model = build_model(cfg, Rng(40))
        records = [narx_record(41 + i, length) for i, length in
                   enumerate((18, 18, 18, 1, 1))]
        batched = predict_records(model, records, "one-step")
        for rec, row in zip(records, batched):
            single = predict_one_step(model, rec)
            assert row.shape == single.shape == (1, rec.length)
            # a one-row gate product and a many-row one may go to different
            # BLAS kernels, which sum in a different order
            assert np.max(np.abs(row - single)) <= 1e-12 * np.max(np.abs(single))

    def test_unequal_lengths_come_back_in_record_order(self):
        model = build_model(ModelConfig(family="lstm", hidden=4, depth=2),
                            Rng(42))
        records = [narx_record(43 + i, length)
                   for i, length in enumerate((18, 11, 18))]
        preds = predict_records(model, records, "one-step")
        assert [p.shape for p in preds] == [(1, 18), (1, 11), (1, 18)]
        for rec, pred in zip(records, preds):
            single = predict_one_step(model, rec)
            assert np.max(np.abs(pred - single)) <= 1e-12 * np.max(np.abs(single))
        assert not np.allclose(preds[0], preds[2])

    @pytest.mark.parametrize("family,kw", [
        ("tcn", dict(hidden=5, depth=2, kernel_size=3, dilations=True,
                     activation="tanh")),
        ("mlp", dict(hidden=6, depth=2, order=4, activation="sigmoid")),
        ("tcn", dict(hidden=5, depth=3, kernel_size=2, dilations=True,
                     norm="batch", dropout=0.3)),
        ("tcn", dict(narx=False, hidden=4, kernel_size=4, norm="weight",
                     activation="sigmoid")),
        ("mlp", dict(hidden=6, depth=3, order=4, activation="tanh")),
        ("mlp", dict(narx=False, hidden=3, order=2)),
    ])
    def test_conv_one_step_bytes_equal_predict_one_step(self, family, kw):
        # one forward per length group: a conv sums each record's columns in
        # the same order at any batch size
        model = build_model(ModelConfig(family=family, **kw), Rng(44))
        # a training forward moves the batch-norm statistics off (0, 1)
        model.forward(Rng(49).gaussian((4, model.config.in_channels, 30)),
                      training=True)
        records = [narx_record(45 + i, length)
                   for i, length in enumerate((18, 11, 18, 1, 1, 7))]
        report = evaluate(model, Dataset(records=records, role="test"))
        for rec, pred in zip(records, report.predictions):
            assert pred.tobytes() == predict_one_step(model, rec).tobytes()

    @pytest.mark.parametrize("family,kw", [
        ("tcn", dict(hidden=4, depth=2, kernel_size=3, norm="batch",
                     dropout=0.3, activation="tanh")),
        ("mlp", dict(hidden=5, depth=2, order=3)),
        ("lstm", dict(hidden=4, depth=2, dropout=0.3)),
    ], ids=["tcn", "mlp", "lstm"])
    def test_evaluation_leaves_no_arrays_in_layers(self, family, kw):
        # an evaluation forward keeps nothing for backward and drops what
        # the training forward before it kept
        model = build_model(ModelConfig(family=family, **kw), Rng(55))
        own = {id(a): a for a in held_arrays(model)}    # params, grads, state
        model.forward(Rng(56).gaussian((3, 2, 12)), training=True)
        assert any(id(a) not in own for a in held_arrays(model))
        evaluate(model, Dataset(records=[
            narx_record(57 + i, length) for i, length in enumerate((30, 30, 9))
        ], role="test"))
        for layer in model.chain:
            assert all(id(a) in own for a in held_arrays(layer))

    def test_unknown_mode_rejected(self):
        model = build_model(ModelConfig(family="lstm", hidden=3), Rng(46))
        with pytest.raises(DataError, match="unknown evaluation mode"):
            predict_records(model, [narx_record(47)], "two-step")


class TestFreeRun:
    def test_feedback_free_model_matches_one_step(self):
        model = u_channel_model()
        rec = narx_record(5)
        assert np.array_equal(simulate_free_run(model, rec.u),
                              predict_one_step(model, rec))

    def test_pure_feedback_with_zero_history_stays_zero(self):
        model = y_channel_model()
        yhat = simulate_free_run(model, Rng(6).gaussian(15))
        assert not yhat.any()

    def test_fir_model_free_run_equals_one_step_bitwise(self):
        cfg = ModelConfig(family="tcn", narx=False, hidden=5, depth=2,
                          kernel_size=3, activation="tanh")
        model = build_model(cfg, Rng(7))
        for length in (25, 1):
            u = Rng(8).gaussian(length)
            rec = SequenceRecord(u=u, y=np.zeros(length))
            assert np.array_equal(simulate_free_run(model, u),
                                  predict_one_step(model, rec))

    @pytest.mark.parametrize("family,kw", [
        ("tcn", dict(hidden=5, depth=2, kernel_size=3, dilations=True,
                     norm="batch", activation="relu")),
        ("tcn", dict(hidden=4, depth=1, kernel_size=2, norm="weight",
                     activation="tanh")),
        ("mlp", dict(hidden=6, depth=2, order=4, activation="sigmoid")),
        ("lstm", dict(hidden=5, depth=2)),
        # streamed dropout is the identity of the evaluation-mode forward
        ("tcn", dict(hidden=5, depth=2, kernel_size=3, dilations=True,
                     norm="batch", dropout=0.3, activation="relu")),
    ])
    def test_streaming_equals_sliding_window_bitwise(self, family, kw):
        cfg = ModelConfig(family=family, **kw)
        model = build_model(cfg, Rng(9))
        if kw.get("norm") == "batch":
            model.forward(Rng(10).gaussian((4, 2, 30)), training=True)
        u = Rng(11).gaussian(18)
        assert np.array_equal(simulate_free_run(model, u),
                              free_run_naive(model, u))

    @pytest.mark.parametrize("family,kw", [
        ("tcn", dict(hidden=5, depth=2, kernel_size=3, dilations=True,
                     norm="batch", activation="relu")),
        ("tcn", dict(hidden=4, depth=1, kernel_size=2, norm="weight",
                     activation="tanh")),
        ("mlp", dict(hidden=6, depth=2, order=4, activation="sigmoid")),
        ("lstm", dict(hidden=5, depth=2)),
    ])
    def test_batch_equals_each_row(self, family, kw):
        cfg = ModelConfig(family=family, **kw)
        model = build_model(cfg, Rng(9))
        if kw.get("norm") == "batch":
            model.forward(Rng(10).gaussian((4, 2, 30)), training=True)
        u = Rng(31).gaussian((3, 1, 18))
        batch = simulate_free_run(model, u)
        rows = np.stack([simulate_free_run(model, row) for row in u])
        assert batch.shape == (3, 1, 18)
        if family == "lstm":
            # a one-row gate product and a three-row one may go to different
            # BLAS kernels, which sum in a different order
            assert np.max(np.abs(batch - rows)) <= 1e-12 * np.max(np.abs(rows))
        else:
            assert batch.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("u_shape", [
        (3, 2, 15),                     # u channel count
        (1, 3, 1, 15),                  # u of rank 4
    ])
    def test_batch_shapes_checked(self, u_shape):
        model = build_model(ModelConfig(family="tcn", hidden=4), Rng(35))
        with pytest.raises(DimensionError):
            simulate_free_run(model, np.zeros(u_shape))


class TestLstmCell:
    def test_zero_weights_zero_state(self):
        # gates sit at 0.5 and the candidate at 0, so h' = c' = 0 exactly
        h, c, _ = lstm_cell_step(np.ones((2, 3)), np.zeros((2, 4)),
                                 np.zeros((2, 4)), np.zeros((16, 3)),
                                 np.zeros((16, 4)), np.zeros(16))
        assert not h.any() and not c.any()

    def test_saturated_forget_gate_accumulates(self):
        rng = Rng(15)
        hidden = 3
        w_x = rng.gaussian((12, 2), std=0.3)
        w_h = rng.gaussian((12, 3), std=0.3)
        b = np.zeros(12)
        b[hidden:2 * hidden] = 40.0     # forget gate pinned at 1
        x = rng.gaussian((1, 2))
        c_prev = rng.gaussian((1, 3))
        _, c, cache = lstm_cell_step(x, np.zeros((1, 3)), c_prev, w_x, w_h, b)
        _, _, _, s, g, _ = cache
        i = s[:, :hidden]
        assert np.allclose(c, c_prev + i * g, atol=1e-12)

    def test_one_sigmoid_call_per_step(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x.shape)
            return _sigmoid(x)

        monkeypatch.setattr(models, "_sigmoid", counted)
        model = build_model(ModelConfig(family="lstm", hidden=5, depth=2), Rng(20))
        model.forward(Rng(21).gaussian((3, 2, 7)))
        assert calls == [(3, 20)] * 14     # depth 2 x 7 steps, all 4H at once

    def test_cached_gates_equal_masked_sigmoid(self, masked_sigmoid):
        rng = Rng(22)
        hidden = 6
        x = rng.gaussian((4, 3))
        h_prev = rng.gaussian((4, hidden))
        w_x = rng.gaussian((4 * hidden, 3), std=2.0)
        w_h = rng.gaussian((4 * hidden, hidden), std=2.0)
        b = rng.gaussian(4 * hidden)
        _, _, cache = lstm_cell_step(x, h_prev, rng.gaussian((4, hidden)),
                                     w_x, w_h, b)
        s = cache[3]
        z = x @ w_x.T + h_prev @ w_h.T + b
        for k in (0, 1, 3):     # gates i, f, o
            gate = s[:, k * hidden:(k + 1) * hidden]
            expected = masked_sigmoid(z[:, k * hidden:(k + 1) * hidden])
            assert gate.tobytes() == expected.tobytes()

    def test_bptt_matches_finite_differences_on_length_5(self):
        cfg = ModelConfig(family="lstm", hidden=4, depth=2)
        model = build_model(cfg, Rng(16))
        x = Rng(17).gaussian((2, 2, 5))
        assert check_model_gradients(model, x, training=True) < GRAD_TOL

    def test_bptt_with_dropout_matches_finite_differences(self):
        cfg = ModelConfig(family="lstm", hidden=3, depth=3, dropout=0.3)
        model = build_model(cfg, Rng(30))
        rngs = [cell.drop.rng for cell in model.cells[:-1]]
        x = Rng(31).gaussian((2, 2, 5))
        err = check_model_gradients(
            model, x, training=True, rng_state=[r.get_state() for r in rngs],
            restore_rng=lambda s: [r.set_state(v) for r, v in zip(rngs, s)])
        assert err < GRAD_TOL

    def test_dropout_draws_one_mask_per_step_in_time_order(self):
        # reference: the stack advanced one time step at a time, each
        # inter-layer dropout drawing a (batch, hidden) mask from its stream
        cfg = ModelConfig(family="lstm", hidden=4, depth=3, dropout=0.3)
        model = build_model(cfg, Rng(32))
        drops = []
        for cell in model.cells[:-1]:
            clone = Dropout(cell.drop.rate, Rng(0))
            clone.rng.set_state(cell.drop.rng.get_state())
            drops.append(clone)
        x = Rng(33).gaussian((3, 2, 6))
        out = model.forward(x, training=True)
        state = [(np.zeros((3, 4)), np.zeros((3, 4))) for _ in model.cells]
        tops = np.zeros((3, 4, 6))
        for t in range(6):
            h = x[:, :, t]
            for li, cell in enumerate(model.cells):
                h, c, _ = lstm_cell_step(h, *state[li], cell.params["Wx"],
                                         cell.params["Wh"], cell.params["b"])
                state[li] = (h, c)
                if li < len(drops):
                    h = drops[li].forward(h, training=True)
            tops[:, :, t] = h
        assert out.tobytes() == model.head.forward(tops).tobytes()
        assert not np.array_equal(out, model.forward(x, training=False))

    def test_eval_forward_keeps_no_step_caches(self):
        cfg = ModelConfig(family="lstm", hidden=4, depth=2, dropout=0.3)
        model = build_model(cfg, Rng(34))
        x = Rng(35).gaussian((3, 2, 6))
        model.forward(x, training=True)
        assert all(len(cell._steps) == 6 for cell in model.cells)
        model.forward(x, training=False)
        assert all(cell._steps is None for cell in model.cells)

    def test_backward_needs_training_forward(self):
        model = build_model(ModelConfig(family="lstm", hidden=4), Rng(36))
        cell = model.cells[0]
        grad = np.ones((1, 4, 5))
        with pytest.raises(ParameterError, match="backward called before forward"):
            cell.backward(grad)
        cell.forward(Rng(37).gaussian((1, 2, 5)), training=False)
        with pytest.raises(ParameterError, match="backward called before forward"):
            cell.backward(grad)

    def test_step_needs_begin_stream(self):
        cell = build_model(ModelConfig(family="lstm", hidden=4), Rng(36)).cells[0]
        with pytest.raises(ParameterError, match="before begin_stream"):
            cell.step(np.zeros((1, 2, 1)))

    @pytest.mark.parametrize("shape", [(1, 2, 1), (3, 1, 1), (3, 2, 2), (3, 2)])
    def test_step_rejects_a_misshaped_column(self, shape):
        # the stream holds 3 records of 2 channels: a (1, 2, 1) column used to
        # broadcast against the (3, H) state and return 3 rows
        cell = build_model(ModelConfig(family="lstm", hidden=4), Rng(36)).cells[0]
        cell.begin_stream(3)
        with pytest.raises(DimensionError):
            cell.step(np.zeros(shape))
        assert cell.step(np.ones((3, 2, 1))).shape == (3, 4, 1)

    def test_state_bounds(self):
        cfg = ModelConfig(family="lstm", hidden=6, depth=1)
        model = build_model(cfg, Rng(18))
        cell = model.cells[0]
        h = np.zeros((1, 6))
        c = np.zeros((1, 6))
        x = Rng(19).gaussian((40, 1, 2))
        for t in range(40):
            h, c, _ = lstm_cell_step(x[t], h, c, cell.params["Wx"],
                                     cell.params["Wh"], cell.params["b"])
            assert np.all(np.abs(c) <= t + 1 + 1e-12)  # |candidate| < 1 per step
            assert np.all(np.abs(h) < 1.0)


class TestReceptiveField:
    def test_single_conv_layer(self):
        assert CausalConv1d(1, 1, 2, 1, Rng(0)).receptive_field == 2

    def test_effective_memory_of_dilated_layer(self):
        # kernel 3 at dilation 4 reaches (n-1)*d = 8 samples behind the
        # current one
        conv = CausalConv1d(1, 1, 3, 4, Rng(0))
        assert conv.receptive_field - 1 == 8

    def test_dilated_tcn_formula(self):
        cfg = ModelConfig(family="tcn", depth=3, kernel_size=2, dilations=True)
        model = build_model(cfg, Rng(1))
        # two convolutions per block: 1 + 2*(1 + 2 + 4) = 15
        assert model.receptive_field == 15

    def test_mlp_field_is_model_order(self):
        for depth in (1, 3):    # deeper hidden layers are 1x1: no more memory
            cfg = ModelConfig(family="mlp", order=7, depth=depth)
            assert build_model(cfg, Rng(2)).receptive_field == 7

    def test_lstm_unsupported(self):
        cfg = ModelConfig(family="lstm")
        with pytest.raises(UnsupportedError):
            build_model(cfg, Rng(3)).receptive_field

    def test_impulse_probing_confirms_field(self):
        cfg = ModelConfig(family="tcn", hidden=3, depth=2, kernel_size=2,
                          dilations=True, activation="tanh")
        model = build_model(cfg, Rng(4))
        # positive weights guarantee every in-field path stays live
        for _, p in model.named_parameters():
            p[...] = np.abs(p) + 0.25
        field = model.receptive_field
        t_len = field + 4
        base = model.forward(np.zeros((1, 2, t_len)), training=False)
        inside = np.zeros((1, 2, t_len))
        inside[0, 0, t_len - field] = 1.0
        beyond = np.zeros((1, 2, t_len))
        beyond[0, 0, t_len - field - 1] = 1.0
        assert model.forward(inside)[0, 0, -1] != base[0, 0, -1]
        assert model.forward(beyond)[0, 0, -1] == base[0, 0, -1]


class TestTimeInvariance:
    def test_bias_free_tcn_shifts_exactly(self):
        cfg = ModelConfig(family="tcn", hidden=4, depth=2, kernel_size=2,
                          dilations=True, activation="tanh")
        model = build_model(cfg, Rng(5))
        for name, p in model.named_parameters():
            if name.endswith(".b"):
                p[...] = 0.0   # zero-preserving body: padding == quiescent state
        x = Rng(6).gaussian((1, 2, 20))
        base = model.forward(x, training=False)
        for s in (1, 4):
            shifted = np.concatenate([np.zeros((1, 2, s)), x], axis=2)
            out = model.forward(shifted, training=False)
            assert np.array_equal(out[:, :, s:], base)

    def test_general_tcn_shifts_exactly_in_the_interior(self):
        cfg = ModelConfig(family="tcn", hidden=4, depth=2, kernel_size=2,
                          activation="sigmoid")
        model = build_model(cfg, Rng(7))
        field = model.receptive_field
        x = Rng(8).gaussian((1, 2, 25))
        base = model.forward(x, training=False)
        s = 3
        shifted = np.concatenate([np.zeros((1, 2, s)), x], axis=2)
        out = model.forward(shifted, training=False)
        assert np.array_equal(out[:, :, s + field - 1:], base[:, :, field - 1:])


class TestGradients:
    @pytest.mark.parametrize("family,kw", [
        ("tcn", dict(hidden=4, depth=2, kernel_size=2, dilations=True,
                     norm="batch", activation="tanh")),
        ("tcn", dict(hidden=3, depth=1, kernel_size=3, norm="weight",
                     activation="sigmoid")),
        ("mlp", dict(hidden=5, depth=2, order=3, activation="tanh")),
    ])
    def test_full_model_matches_finite_differences(self, family, kw):
        cfg = ModelConfig(family=family, **kw)
        model = build_model(cfg, Rng(20))
        x = Rng(21).gaussian((2, 2, 8))
        assert check_model_gradients(model, x, training=True) < GRAD_TOL


class TestCheckpoint:
    @pytest.mark.parametrize("family,kw", [
        ("tcn", dict(hidden=5, depth=2, kernel_size=2, norm="batch")),
        ("mlp", dict(hidden=4, order=3, activation="tanh")),
        ("lstm", dict(hidden=4, depth=2, dropout=0.1)),
    ])
    def test_bit_exact_round_trip(self, tmp_path, family, kw):
        cfg = ModelConfig(family=family, **kw)
        model = build_model(cfg, Rng(22))
        if kw.get("norm") == "batch":
            model.forward(Rng(23).gaussian((4, 2, 20)), training=True)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        loaded, norm = load_checkpoint(path)
        assert norm is None
        for (na, pa), (nb, pb) in zip(sorted(model.named_parameters()),
                                      sorted(loaded.named_parameters())):
            assert na == nb and np.array_equal(pa, pb)
        for (na, sa), (nb, sb) in zip(sorted(model.named_state()),
                                      sorted(loaded.named_state())):
            assert na == nb and np.array_equal(sa, sb)
        rec = narx_record(24, 15)
        assert np.array_equal(predict_one_step(model, rec),
                              predict_one_step(loaded, rec))

    def test_normalization_payload(self, tmp_path):
        model = build_model(ModelConfig(family="tcn"), Rng(25))
        payload = {"u_mean": [0.5], "u_scale": [2.0],
                   "y_mean": [0.0], "y_scale": [1.5]}
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, normalization=payload)
        _, norm = load_checkpoint(path)
        assert norm == payload

    def _saved_batch_norm_doc(self, tmp_path):
        model = build_model(ModelConfig(family="tcn", hidden=4, norm="batch"),
                            Rng(26))
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        return path, json.loads(path.read_text())

    def test_unknown_state_entry_rejected(self, tmp_path):
        path, doc = self._saved_batch_norm_doc(tmp_path)
        doc["state"]["blocks.0.bn3.running_mean"] = \
            doc["state"]["blocks.0.bn1.running_mean"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="state names"):
            load_checkpoint(path)

    def test_state_shape_mismatch_rejected(self, tmp_path):
        path, doc = self._saved_batch_norm_doc(tmp_path)
        one = np.array([7.0], dtype="<f8")
        doc["state"]["blocks.0.bn1.running_mean"] = {
            "shape": [1], "data": base64.b64encode(one.tobytes()).decode()}
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"running_mean.*\(1,\)"):
            load_checkpoint(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(build_model(ModelConfig(family="tcn"), Rng(27)), path)
        path.write_text(path.read_text()[:100])
        with pytest.raises(DataError, match="ckpt.json"):
            load_checkpoint(path)

    def test_payload_length_mismatch_rejected(self, tmp_path):
        path, doc = self._saved_batch_norm_doc(tmp_path)
        entry = doc["params"]["blocks.0.conv1.b"]
        entry["data"] = base64.b64encode(b"\0" * 12).decode()
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="'blocks.0.conv1.b'"):
            load_checkpoint(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        path, doc = self._saved_batch_norm_doc(tmp_path)
        doc["config"]["widht"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="widht"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["params", "config"])
    def test_missing_entry_rejected(self, tmp_path, key):
        path, doc = self._saved_batch_norm_doc(tmp_path)
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"ckpt.json.*'{key}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["params", "state"])
    def test_array_table_not_a_mapping_rejected(self, tmp_path, key):
        path, doc = self._saved_batch_norm_doc(tmp_path)
        doc[key] = list(doc[key].values())
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"ckpt.json.*'{key}'"):
            load_checkpoint(path)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(DataError):
            load_checkpoint(path)
