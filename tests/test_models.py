import base64
import hashlib
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
from sysident.models import predict_records

from gradcheck import check_model_gradients

GRAD_TOL = 1e-6


def narx_record(seed, length=20):
    rng = Rng(seed)
    return SequenceRecord(u=rng.gaussian(length), y=rng.gaussian(length))


def lstm_cell_step(x_t, h_prev, c_prev, w_x, w_h, b):
    """Reference LSTM cell update, gate order i, f, g, o; returns (h, c)."""
    hidden = h_prev.shape[1]
    z = x_t @ w_x.T + h_prev @ w_h.T + b
    s = _sigmoid(z)
    i = s[:, :hidden]
    f = s[:, hidden:2 * hidden]
    g = np.tanh(z[:, 2 * hidden:3 * hidden])
    o = s[:, 3 * hidden:]
    c = f * c_prev + i * g
    return o * np.tanh(c), c


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
    block = dict(model.blocks[0].children)
    for name in ("conv1", "conv2"):
        block[name].params["W"][...] = 0.0
        block[name].params["b"][...] = 0.0
    block["skip"].params["W"][0, :, 0] = [1.0, 0.0]
    block["skip"].params["b"][...] = 0.0
    model.head.params["W"][...] = 1.0
    model.head.params["b"][...] = 0.0
    return model


def dropouts(layer):
    """The Dropout layers reached by walking ``children``, in order."""
    for _, child in layer.children:
        yield from ([child] if isinstance(child, Dropout) else dropouts(child))


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
        assert [[dict(b.children)[n].dilation for n in ("conv1", "conv2")]
                for b in model.blocks] == [[1, 1], [2, 2], [4, 4]]

    def test_dilations_off(self):
        cfg = ModelConfig(family="tcn", depth=3, kernel_size=2, dilations=False)
        model = build_model(cfg, Rng(0))
        assert [[dict(b.children)[n].dilation for n in ("conv1", "conv2")]
                for b in model.blocks] == [[1, 1]] * 3

    def test_same_seed_same_parameters(self):
        cfg = ModelConfig(family="lstm", hidden=8, depth=2, dropout=0.2)
        a = dict(build_model(cfg, Rng(7)).named_parameters())
        b = dict(build_model(cfg, Rng(7)).named_parameters())
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name])

    @pytest.mark.parametrize("kw,seed,expected", [
        (dict(family="tcn", hidden=5, depth=3, kernel_size=3, dilations=True,
              norm="batch", dropout=0.2), 40,
         "767e846f819a5f464bf22d11ee6b14bc764eaa6f9a5fe3902945710dddee1c30"),
        (dict(family="tcn", hidden=4, depth=2, norm="weight"), 41,
         "7bfc07c26516f1c7bd494719f361f5063a77066a433172dfa8fa058ea76c6f19"),
        (dict(family="mlp", hidden=6, depth=2, order=3), 42,
         "17c963d98fd038e47eb07b845542cb1853e71308dc0af876cd378fb16557ec82"),
        (dict(family="lstm", hidden=4, depth=3, dropout=0.3), 43,
         "07cdb0d3481a6fe8c562776fe5d52ad07b566c0181370501652a9882b56c4f6c"),
    ], ids=["tcn_batch_dropout", "tcn_weight", "mlp_d2", "lstm_d3_dropout"])
    def test_seeded_initialization_is_pinned(self, kw, seed, expected):
        # the names and bytes of every parameter and state array, then the
        # first draw of every dropout stream found through children; the
        # digests were recorded before the family recipes moved into
        # models.py. Initialization runs no GEMM, so BLAS cannot move them
        model = build_model(ModelConfig(**kw), Rng(seed))
        h = hashlib.sha256()
        for name, arr in (*model.named_parameters(), *model.named_state()):
            h.update(name.encode())
            h.update(arr.tobytes())
        for drop in dropouts(model):
            h.update(drop.rng.random(4).tobytes())
        assert h.hexdigest() == expected

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

    @pytest.mark.parametrize("family", ["tcn", "mlp", "lstm"])
    def test_zero_length_record_predicts_empty(self, family):
        # a 0-sample record gets a (ny, 0) prediction in both modes, and
        # the record next to it is predicted as it is alone
        model = build_model(ModelConfig(family=family, hidden=4), Rng(58))
        records = [narx_record(59, 0), narx_record(60, 5)]
        for mode in models.MODES:
            preds = predict_records(model, records, mode)
            assert [p.shape for p in preds] == [(1, 0), (1, 5)]
            alone = predict_records(model, records[1:], mode)[0]
            assert preds[1].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("family", ["tcn", "mlp", "lstm"])
    def test_all_empty_dataset_rejected(self, family):
        model = build_model(ModelConfig(family=family, hidden=4), Rng(61))
        data = Dataset(records=[narx_record(62, 0), narx_record(63, 0)],
                       role="test")
        for mode in models.MODES:
            with pytest.raises(DataError, match="empty"):
                evaluate(model, data, mode=mode)

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
        recs = [SequenceRecord(u=Rng(s).gaussian(25), y=np.zeros(25))
                for s in (9, 10, 11)]
        for cfg in (ModelConfig(family="tcn", narx=False, hidden=5, depth=2,
                                kernel_size=3, activation="tanh"),
                    ModelConfig(family="mlp", narx=False, hidden=5, depth=2,
                                order=4, activation="tanh"),
                    ModelConfig(family="lstm", narx=False, hidden=5, depth=2)):
            model = build_model(cfg, Rng(7))
            for length in (25, 1):
                u = Rng(8).gaussian(length)
                rec = SequenceRecord(u=u, y=np.zeros(length))
                assert (simulate_free_run(model, u).tobytes()
                        == predict_one_step(model, rec).tobytes())
            # one batch of 3 records in each mode
            free, one = (predict_records(model, recs, mode)
                         for mode in ("free-run", "one-step"))
            assert [r.tobytes() for r in free] == [r.tobytes() for r in one]

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
        cell = models.LstmLayer(3, 4, Rng(14))
        for p in cell.params.values():
            p[...] = 0.0
        x = np.ones((2, 3, 5))
        cell.forward(x, training=True)
        _, hs, cs, _, _, _ = cell._steps
        assert not hs.any() and not cs.any()
        cell.begin_stream(2)
        assert not cell.step(x[:, :, :1]).any() and not cell._state[1].any()

    def test_saturated_forget_gate_accumulates(self):
        hidden = 3
        cell = models.LstmLayer(2, hidden, Rng(15))
        cell.params["b"][hidden:2 * hidden] = 40.0     # forget gate pinned at 1
        cell.forward(Rng(16).gaussian((1, 2, 4)), training=True)
        _, _, cs, s, g, _ = cell._steps     # each (T, ., B)
        i = s[:, :hidden]
        assert np.allclose(cs[1:], cs[:-1] + i * g, atol=1e-12)

    def test_one_sigmoid_call_per_step(self, monkeypatch):
        calls = []

        def counted(x, out=None):
            calls.append(x.shape)
            return _sigmoid(x, out=out)

        monkeypatch.setattr(models, "_sigmoid", counted)
        model = build_model(ModelConfig(family="lstm", hidden=5, depth=2), Rng(20))
        model.forward(Rng(21).gaussian((3, 2, 7)))
        assert calls == [(20, 3)] * 14     # depth 2 x 7 steps, all 4H at once

    def test_cached_gates_equal_masked_sigmoid(self, masked_sigmoid):
        rng = Rng(22)
        hidden = 6
        cell = models.LstmLayer(3, hidden, rng)
        for p in cell.params.values():     # wide pre-activations of both signs
            p[...] = rng.gaussian(p.shape, std=2.0)
        cell.forward(rng.gaussian((4, 3, 5)), training=True)
        xs, hs, _, s, _, _ = cell._steps
        w_x, w_h, b = cell.params["Wx"], cell.params["Wh"], cell.params["b"]
        for t in range(5):
            z = w_h @ hs[t] + w_x @ xs[t] + b[:, None]
            for k in (0, 1, 3):     # gates i, f, o
                gate = s[t, k * hidden:(k + 1) * hidden]
                expected = masked_sigmoid(z[k * hidden:(k + 1) * hidden])
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
                h, c = lstm_cell_step(h, *state[li], cell.params["Wx"],
                                      cell.params["Wh"], cell.params["b"])
                state[li] = (h, c)
                if li < len(drops):
                    h = drops[li].forward(h, training=True)
            tops[:, :, t] = h
        assert out.tobytes() == model.head.forward(tops, training=True).tobytes()
        assert not np.array_equal(out, model.forward(x, training=False))

    def test_eval_forward_keeps_no_step_caches(self):
        cfg = ModelConfig(family="lstm", hidden=4, depth=2, dropout=0.3)
        model = build_model(cfg, Rng(34))
        x = Rng(35).gaussian((3, 2, 6))
        model.forward(x, training=True)
        # per time step, feature and batch column: the input, h and c before
        # the step (and after the last one), the gates, the candidate and
        # tanh(c)
        for cell, in_size in zip(model.cells, (2, 4)):
            steps = [(6, in_size, 3), (7, 4, 3), (7, 4, 3), (6, 16, 3),
                     (6, 4, 3), (6, 4, 3)]
            assert [a.shape for a in cell._steps] == steps
        model.forward(x, training=False)
        for cell in model.cells:
            assert cell._steps is None
            with pytest.raises(ParameterError, match="backward called before forward"):
                cell.backward(np.ones((3, 4, 6)))

    @staticmethod
    def _stepped_reference(cell, drop, x, training):
        """``cell.forward`` as a loop of ``lstm_cell_step`` and one dropout
        draw over the (T, B, H) outputs."""
        h = c = np.zeros((x.shape[0], cell.hidden))
        hs = []
        for t in range(x.shape[2]):
            h, c = lstm_cell_step(x[:, :, t], h, c, cell.params["Wx"],
                                  cell.params["Wh"], cell.params["b"])
            hs.append(h)
        return drop.forward(np.stack(hs), training).transpose(1, 2, 0)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("t_len", [1, 2 * models._TIME_CHUNK + 3])
    def test_forward_equals_stepped_cells_across_chunks(self, t_len, batch,
                                                        training):
        cell = models.LstmLayer(3, 5, Rng(50))
        cell.params["b"][...] = Rng(49).gaussian(20)    # zero at init
        cell.drop = Dropout(0.3, Rng(51))
        reference = Dropout(0.3, Rng(51))
        x = Rng(52).gaussian((batch, 3, t_len))
        out = cell.forward(x, training=training)
        expected = self._stepped_reference(cell, reference, x, training)
        assert out.tobytes() == np.ascontiguousarray(expected).tobytes()

    # one input channel makes the input projection an outer product
    @pytest.mark.parametrize("batch, in_size", [(1, 3), (3, 3), (1, 1), (3, 1)],
                             ids=["1", "3", "1-one_input", "3-one_input"])
    def test_step_stream_equals_eval_forward(self, batch, in_size):
        cell = models.LstmLayer(in_size, 5, Rng(60))
        cell.params["b"][...] = Rng(62).gaussian(20)    # zero at init
        x = Rng(61).gaussian((batch, in_size, 2 * models._TIME_CHUNK + 3))
        cell.begin_stream(batch)
        streamed = np.concatenate([cell.step(x[:, :, t:t + 1])
                                   for t in range(x.shape[2])], axis=2)
        assert streamed.tobytes() == cell.forward(x).tobytes()

    def test_training_output_shares_no_memory_with_the_bptt_arrays(self):
        # at B = H = 1 the (1, 1, T) output is contiguous however it is laid
        # out, so only a copy keeps a caller's edit out of BPTT
        cell = models.LstmLayer(2, 1, Rng(58))
        out = cell.forward(Rng(59).gaussian((1, 2, 7)), training=True)
        assert not any(np.shares_memory(out, a) for a in cell._steps)

    def test_bptt_matches_finite_differences_past_one_chunk(self):
        model = build_model(ModelConfig(family="lstm", hidden=3, depth=2), Rng(53))
        x = Rng(54).gaussian((2, 2, models._TIME_CHUNK + 5))
        assert check_model_gradients(model, x, training=True) < GRAD_TOL

    def test_gradients_independent_of_chunk_length(self, monkeypatch):
        t_len = 2 * models._TIME_CHUNK + 3
        x = Rng(55).gaussian((3, 2, t_len))
        grad = Rng(56).gaussian((3, 1, t_len))

        def grads_and_dx():
            cfg = ModelConfig(family="lstm", hidden=5, depth=2, dropout=0.3)
            model = build_model(cfg, Rng(57))
            model.forward(x, training=True)
            d_x = model.backward(grad)
            return [g.tobytes() for _, g in model.named_grads()] + [d_x.tobytes()]

        default = grads_and_dx()
        for chunk in (1, t_len):
            monkeypatch.setattr(models, "_TIME_CHUNK", chunk)
            assert grads_and_dx() == default

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
        cell = models.LstmLayer(2, 6, Rng(18))
        cell.forward(Rng(19).gaussian((1, 2, 40)), training=True)
        _, hs, cs, _, _, _ = cell._steps
        for t in range(1, 41):
            assert np.all(np.abs(cs[t]) <= t + 1e-12)  # |candidate| < 1 per step
            assert np.all(np.abs(hs[t]) < 1.0)


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


class TestLayout:
    # numpy reductions and BLAS operand strides set the order of summation,
    # so seeded bits depend on the layout of every array a layer hands on,
    # not only on its values
    @pytest.mark.parametrize("kw", [
        dict(family="tcn", hidden=8, depth=2, kernel_size=3, dilations=True,
             norm="batch", dropout=0.3),
        dict(family="tcn", hidden=8, depth=2, kernel_size=3, dilations=True,
             norm="weight", dropout=0.3),
        dict(family="mlp", hidden=8, depth=2, order=4),
        dict(family="lstm", hidden=8, depth=2, dropout=0.3),
    ], ids=["tcn_batch_norm", "tcn_weight_norm", "mlp", "lstm"])
    def test_training_passes_return_c_contiguous_arrays(self, kw):
        def layers(layer):
            yield layer
            for _, child in layer.children:
                yield from layers(child)

        # T = 1 100 runs the conv forward in more than one column chunk
        for t_len in (2, 100, 1100):
            model = build_model(ModelConfig(**kw), Rng(1))
            strided = []
            for layer in layers(model):
                for name in ("forward", "backward"):
                    def checked(*args, _pass=getattr(layer, name),
                                _what=f"{type(layer).__name__}.{name}",
                                **options):
                        out = _pass(*args, **options)
                        if not out.flags.c_contiguous:
                            strided.append((_what, out.strides))
                        return out
                    setattr(layer, name, checked)
            x = Rng(2).gaussian((3, model.config.in_channels, t_len))
            model.backward(np.ones_like(model.forward(x, training=True)))
            assert strided == [], t_len


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

    def test_lstm_dropout_child_saves_no_name(self, tmp_path):
        # each inter-layer dropout is a child of its LSTM layer, so a walk
        # over children finds it; it holds no parameters or state
        model = build_model(ModelConfig(family="lstm", hidden=3, depth=3,
                                        dropout=0.3), Rng(28))
        assert list(dropouts(model)) == [cell.drop for cell in model.cells[:-1]]
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        assert list(doc["params"]) == [
            f"cells.{i}.{name}" for i in range(3) for name in ("Wx", "Wh", "b")
        ] + ["head.W", "head.b"]
        assert doc["state"] == {}
        loaded, _ = load_checkpoint(path)
        assert len(list(dropouts(loaded))) == 2
        for (na, pa), (nb, pb) in zip(model.named_parameters(),
                                      loaded.named_parameters()):
            assert na == nb and pa.tobytes() == pb.tobytes()

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
