import math

import numpy as np
import pytest

from conftest import normwise_rel_error, numeric_grad, rel_error
from riskcast import DimensionError, ParameterError, SeededRng
from riskcast.layers import (
    Conv1DLayer,
    DenseLayer,
    DropoutSpec,
    LSTMCell,
    _sigmoid,
    dropout_backward,
    dropout_forward,
)

GRAD_TOL = 1e-4


class TestActivations:
    def test_sigmoid_stable_for_large_inputs(self):
        out = _sigmoid(np.array([-800.0, 800.0]))
        assert out[0] == 0.0 and out[1] == 1.0


class TestConv1D:
    def test_difference_kernel(self):
        layer = Conv1DLayer(np.array([[[1.0], [0.0], [-1.0]]]), np.zeros(1))
        y, _ = layer.forward(np.array([[[1.0], [2.0], [3.0], [4.0]]]))
        assert np.array_equal(y[0], [[-2.0], [-2.0]])

    def test_identity_kernel(self):
        layer = Conv1DLayer(np.array([[[1.0]]]), np.zeros(1))
        x = np.array([[1.5], [-2.0], [0.25]])
        y, _ = layer.forward(x[None])
        assert np.array_equal(y[0], x)

    def test_bias_only_output(self):
        layer = Conv1DLayer(np.zeros((1, 2, 3)), np.array([0.5]))
        y, _ = layer.forward(np.zeros((1, 5, 3)))
        assert np.all(y == 0.5)

    def test_window_error(self):
        layer = Conv1DLayer(np.zeros((1, 3, 1)), np.zeros(1))
        with pytest.raises(DimensionError):
            layer.forward(np.zeros((1, 2, 1)))

    def test_forward_matches_bruteforce_double_sum(self):
        rng = SeededRng(31)
        k, c_in, c_out, t_len = 3, 2, 4, 7
        layer = Conv1DLayer.initialize(c_in, c_out, k, rng)
        x = rng.normals(t_len * c_in).reshape(t_len, c_in)
        y, _ = layer.forward(x[None])
        for t in range(t_len - k + 1):
            for c in range(c_out):
                expected = layer.bias[c] + sum(
                    x[t + m, n] * layer.kernels[c, m, n]
                    for m in range(k) for n in range(c_in)
                )
                assert abs(y[0, t, c] - expected) < 1e-12

    def test_zero_upstream_gradient(self):
        rng = SeededRng(32)
        layer = Conv1DLayer.initialize(2, 3, 2, rng)
        x = rng.normals(10).reshape(1, 5, 2)
        y, cache = layer.forward(x)
        dx, dk, db = layer.backward(cache, np.zeros_like(y))
        assert not dx.any() and not dk.any() and not db.any()

    def test_gradients_match_finite_differences(self):
        rng = SeededRng(33)
        layer = Conv1DLayer.initialize(2, 3, 3, rng)
        x = rng.normals(12).reshape(6, 2)
        weights = rng.normals(4 * 3).reshape(4, 3)  # fixed loss projection

        def loss():
            out, _ = layer.forward(x[None])
            return float(np.sum(out[0] * weights))

        _, cache = layer.forward(x[None])
        dx, dk, db = layer.backward(cache, weights[None])
        assert rel_error(dk, numeric_grad(loss, layer.kernels)) < GRAD_TOL
        assert rel_error(db, numeric_grad(loss, layer.bias)) < GRAD_TOL
        assert rel_error(dx[0], numeric_grad(loss, x)) < GRAD_TOL

    def test_backward_rejects_mismatched_upstream(self):
        layer = Conv1DLayer(np.zeros((1, 2, 1)), np.zeros(1))
        _, cache = layer.forward(np.zeros((1, 4, 1)))
        with pytest.raises(DimensionError):
            layer.backward(cache, np.zeros((1, 5, 1)))


class TestLSTM:
    def test_zero_weights_force_zero_hidden_states(self):
        cell = LSTMCell(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
        xs = SeededRng(35).normals(15).reshape(1, 5, 3)
        hs, cache = cell.forward(xs, np.zeros((1, 2)), np.zeros((1, 2)))
        assert not hs.any()
        assert np.array_equal(cache.i[0], np.full((5, 2), 0.5))

    def test_scalar_recurrence_matches_hand_evaluation(self):
        """T=1, H=1, F=1 with hand-set weights, evaluated independently."""
        w_x = np.array([[0.5], [-0.3], [0.8], [0.2]])
        w_h = np.array([[0.1], [0.4], [-0.2], [0.3]])
        b = np.array([0.05, -0.05, 0.1, 0.0])
        cell = LSTMCell(w_x, w_h, b)
        x, h0, c0 = 0.7, 0.2, -0.3

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        i = sig(0.5 * x + 0.1 * h0 + 0.05)
        f = sig(-0.3 * x + 0.4 * h0 - 0.05)
        g = math.tanh(0.8 * x - 0.2 * h0 + 0.1)
        o = sig(0.2 * x + 0.3 * h0 + 0.0)
        c = f * c0 + i * g
        expected = o * math.tanh(c)

        hs, _ = cell.forward(np.array([[[x]]]), np.array([[h0]]), np.array([[c0]]))
        assert abs(hs[0, 0, 0] - expected) < 1e-14

    def test_fresh_state_makes_output_independent_of_history(self):
        rng = SeededRng(36)
        cell = LSTMCell.initialize(2, 3, rng)
        xs = rng.normals(8).reshape(1, 4, 2)
        hs1, _ = cell.forward(xs, np.zeros((1, 3)), np.zeros((1, 3)))
        hs2, _ = cell.forward(xs, np.zeros((1, 3)), np.zeros((1, 3)))
        assert np.array_equal(hs1, hs2)

    def test_zero_upstream_gradient(self):
        rng = SeededRng(37)
        cell = LSTMCell.initialize(2, 2, rng)
        xs = rng.normals(6).reshape(1, 3, 2)
        _, cache = cell.forward(xs, np.zeros((1, 2)), np.zeros((1, 2)))
        dxs, dwx, dwh, db = cell.backward(cache, np.zeros((1, 3, 2)))
        assert not dxs.any() and not dwx.any() and not dwh.any() and not db.any()

    def test_bptt_matches_finite_differences(self):
        rng = SeededRng(38)
        cell = LSTMCell.initialize(2, 2, rng)
        xs = rng.normals(6).reshape(3, 2)
        h0, c0 = np.zeros((1, 2)), np.zeros((1, 2))
        weights = rng.normals(6).reshape(3, 2)

        def loss():
            hs, _ = cell.forward(xs[None], h0, c0)
            return float(np.sum(hs[0] * weights))

        _, cache = cell.forward(xs[None], h0, c0)
        dxs, dwx, dwh, db = cell.backward(cache, weights[None])
        assert rel_error(dwx, numeric_grad(loss, cell.w_x)) < GRAD_TOL
        assert rel_error(dwh, numeric_grad(loss, cell.w_h)) < GRAD_TOL
        assert rel_error(db, numeric_grad(loss, cell.b)) < GRAD_TOL
        assert rel_error(dxs[0], numeric_grad(loss, xs)) < GRAD_TOL

    def test_later_inputs_get_no_gradient_from_earlier_losses(self):
        """A loss depending only on h_t cannot reach x at steps after t."""
        rng = SeededRng(39)
        cell = LSTMCell.initialize(2, 2, rng)
        xs = rng.normals(10).reshape(5, 2)
        _, cache = cell.forward(xs[None], np.zeros((1, 2)), np.zeros((1, 2)))
        dhs = np.zeros((1, 5, 2))
        dhs[0, 2] = 1.0
        dxs, _, _, _ = cell.backward(cache, dhs)
        assert not dxs[0, 3:].any()
        assert dxs[0, :3].any()

        def loss():
            hs, _ = cell.forward(xs[None], np.zeros((1, 2)), np.zeros((1, 2)))
            return float(np.sum(hs[0, 2]))

        assert rel_error(dxs[0], numeric_grad(loss, xs)) < GRAD_TOL

    def test_hidden_states_bounded_by_one(self):
        rng = SeededRng(40)
        for trial in range(5):
            cell = LSTMCell.initialize(3, 4, rng)
            xs = rng.normals(60, 0.0, 5.0).reshape(1, 20, 3)
            hs, _ = cell.forward(xs, np.zeros((1, 4)), np.zeros((1, 4)))
            assert np.all(np.abs(hs) <= 1.0)


class TestDense:
    def test_identity(self):
        layer = DenseLayer(np.eye(3), np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        y, _ = layer.forward(x[None])
        assert np.array_equal(y[0], x)

    def test_affine_example(self):
        layer = DenseLayer(np.array([[1.0, 2.0]]), np.array([3.0]))
        y, _ = layer.forward(np.array([[4.0, 5.0]]))
        assert np.array_equal(y[0], [17.0])

    def test_bias_gradient_is_upstream_gradient(self):
        rng = SeededRng(41)
        layer = DenseLayer.initialize(4, 2, rng)
        _, cache = layer.forward(rng.normals(4)[None])
        dy = rng.normals(2)
        _, _, db = layer.backward(cache, dy[None])
        assert np.array_equal(db, dy)

    def test_gradients_match_finite_differences(self):
        rng = SeededRng(42)
        layer = DenseLayer.initialize(3, 2, rng)
        x = rng.normals(3)
        weights = rng.normals(2)

        def loss():
            out, _ = layer.forward(x[None])
            return float(out[0] @ weights)

        _, cache = layer.forward(x[None])
        dx, dw, db = layer.backward(cache, weights[None])
        assert rel_error(dw, numeric_grad(loss, layer.w)) < GRAD_TOL
        assert rel_error(dx[0], numeric_grad(loss, x)) < GRAD_TOL


class TestDropout:
    def test_p_zero_is_identity_in_both_modes(self):
        spec = DropoutSpec(0.0)
        x = SeededRng(43).normals(100)
        y_train, mask = dropout_forward(spec, x, SeededRng(1), "train")
        y_infer, _ = dropout_forward(spec, x, None, "infer")
        assert np.array_equal(y_train, x)
        assert np.array_equal(y_infer, x)
        assert np.all(mask == 1.0)

    def test_infer_mode_is_bit_exact_identity(self):
        x = SeededRng(44).normals(50)
        y, mask = dropout_forward(DropoutSpec(0.7), x, None, "infer")
        assert np.array_equal(y, x)
        assert mask is None

    def test_inverted_scaling_preserves_expectation(self):
        y, _ = dropout_forward(DropoutSpec(0.5), np.ones(100_000), SeededRng(45), "train")
        assert abs(float(np.mean(y)) - 1.0) < 0.02

    def test_invalid_probability(self):
        with pytest.raises(ParameterError):
            DropoutSpec(1.0)

    def test_train_mode_requires_rng(self):
        with pytest.raises(ParameterError):
            dropout_forward(DropoutSpec(0.2), np.ones(3), None, "train")

    def test_backward_applies_the_same_mask(self):
        x = np.ones(1000)
        y, mask = dropout_forward(DropoutSpec(0.3), x, SeededRng(46), "train")
        dx = dropout_backward(mask, np.ones(1000))
        assert np.array_equal(dx, y)
        assert np.array_equal(dropout_backward(None, x), x)

    def test_one_draw_of_b_rows_equals_b_draws_of_one_row(self):
        batch = SeededRng(48).next_floats(5 * 7)
        rng = SeededRng(48)
        rows = np.concatenate([rng.next_floats(7) for _ in range(5)])
        assert np.array_equal(batch, rows)

    def test_batched_mask_follows_the_per_sample_stream(self):
        x = SeededRng(49).normals(5 * 7).reshape(5, 7)
        batch_rng, sample_rng = SeededRng(50), SeededRng(50)
        y, mask = dropout_forward(DropoutSpec(0.4), x, batch_rng, "train")
        for b in range(5):
            y_b, mask_b = dropout_forward(DropoutSpec(0.4), x[b], sample_rng, "train")
            assert np.array_equal(y_b, y[b])
            assert np.array_equal(mask_b, mask[b])
        assert batch_rng.state == sample_rng.state


def _assert_batch_is_stacked_samples(layer, xs, dys, states=()):
    """A [B x ...] call gives, bit for bit, the B outputs of batches of one;
    its input gradients match theirs and its parameter gradients match their
    sum, each to 1e-12 relative."""
    ys, cache = layer.forward(xs, *states)
    dx, *param_grads = layer.backward(cache, dys)
    totals = [np.zeros_like(g) for g in param_grads]
    for b in range(len(xs)):
        y_b, cache_b = layer.forward(xs[b][None], *(s[b][None] for s in states))
        assert np.array_equal(y_b[0], ys[b])
        dx_b, *grads_b = layer.backward(cache_b, dys[b][None])
        assert normwise_rel_error(dx[b], dx_b[0]) < 1e-12
        for total, g in zip(totals, grads_b):
            total += g
    for g, total in zip(param_grads, totals):
        assert normwise_rel_error(g, total) < 1e-12


class TestBatchAxis:
    def test_conv(self):
        rng = SeededRng(51)
        layer = Conv1DLayer.initialize(3, 4, 3, rng)
        xs = rng.normals(5 * 9 * 3).reshape(5, 9, 3)
        _assert_batch_is_stacked_samples(layer, xs, rng.normals(5 * 7 * 4).reshape(5, 7, 4))

    def test_lstm(self):
        rng = SeededRng(52)
        cell = LSTMCell.initialize(3, 32, rng)
        xs = rng.normals(5 * 6 * 3).reshape(5, 6, 3)
        h0, c0 = rng.normals(5 * 32).reshape(5, 32), rng.normals(5 * 32).reshape(5, 32)
        dhs = rng.normals(5 * 6 * 32).reshape(5, 6, 32)
        _assert_batch_is_stacked_samples(cell, xs, dhs, states=(h0, c0))

    def test_dense(self):
        rng = SeededRng(53)
        layer = DenseLayer.initialize(6, 2, rng)
        xs = rng.normals(5 * 6).reshape(5, 6)
        _assert_batch_is_stacked_samples(layer, xs, rng.normals(5 * 2).reshape(5, 2))

    def test_lstm_batched_bptt_matches_finite_differences(self):
        rng = SeededRng(54)
        cell = LSTMCell.initialize(2, 3, rng)
        xs = rng.normals(4 * 3 * 2).reshape(4, 3, 2)
        h0, c0 = np.zeros((4, 3)), np.zeros((4, 3))
        weights = rng.normals(4 * 3 * 3).reshape(4, 3, 3)

        def loss():
            hs, _ = cell.forward(xs, h0, c0)
            return float(np.sum(hs * weights))

        _, cache = cell.forward(xs, h0, c0)
        dxs, dwx, dwh, db = cell.backward(cache, weights)
        assert rel_error(dwx, numeric_grad(loss, cell.w_x)) < GRAD_TOL
        assert rel_error(dwh, numeric_grad(loss, cell.w_h)) < GRAD_TOL
        assert rel_error(db, numeric_grad(loss, cell.b)) < GRAD_TOL
        assert rel_error(dxs, numeric_grad(loss, xs)) < GRAD_TOL

    def test_mismatched_batch_state_rejected(self):
        cell = LSTMCell.initialize(2, 3, SeededRng(55))
        with pytest.raises(DimensionError):
            cell.forward(np.zeros((4, 3, 2)), np.zeros((3, 3)), np.zeros((4, 3)))
        with pytest.raises(DimensionError):
            cell.forward(np.zeros((4, 3, 2)), np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("kind", ["conv", "lstm", "dense"])
    def test_unbatched_sample_rejected(self, kind):
        """Layers take batches only; one sample without the batch axis is an error."""
        rng = SeededRng(56)
        with pytest.raises(DimensionError, match=r"must be \[B x"):
            if kind == "conv":
                Conv1DLayer.initialize(3, 4, 3, rng).forward(np.zeros((6, 3)))
            elif kind == "lstm":
                LSTMCell.initialize(3, 2, rng).forward(np.zeros((6, 3)), np.zeros(2), np.zeros(2))
            else:
                DenseLayer.initialize(3, 2, rng).forward(np.zeros(3))
