import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import normwise_rel_error, numeric_grad, random_samples, rel_error, tiny_dims
from riskcast import DimensionError, HybridModel, ParameterError, SeededRng, layers
from riskcast.layers import (
    Conv1DLayer,
    DenseLayer,
    DropoutSpec,
    LSTMCell,
    _block_matmul,
    dropout_backward,
    dropout_forward,
)
from riskcast.models import SCORE_CHUNK, linreg_fit, prediction_scores

GRAD_TOL = 1e-4


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
        dk, db = layer.backward(cache, np.zeros_like(y))
        assert not dk.any() and not db.any()

    def test_gradients_match_finite_differences(self):
        rng = SeededRng(33)
        layer = Conv1DLayer.initialize(2, 3, 3, rng)
        x = rng.normals(12).reshape(6, 2)
        weights = rng.normals(4 * 3).reshape(4, 3)  # fixed loss projection

        def loss():
            out, _ = layer.forward(x[None])
            return float(np.sum(out[0] * weights))

        _, cache = layer.forward(x[None])
        dk, db = layer.backward(cache, weights[None])
        assert rel_error(dk, numeric_grad(loss, layer.kernels)) < GRAD_TOL
        assert rel_error(db, numeric_grad(loss, layer.bias)) < GRAD_TOL

    @pytest.mark.parametrize("batch", [1, 7, 32])
    def test_backward_is_tensordot_bitwise(self, batch):
        """Each tap's kernel gradient is bitwise ``np.tensordot``'s
        contraction over the batch and time axes, at the model's conv dims."""
        rng = SeededRng(34 + batch)
        layer = Conv1DLayer.initialize(7, 8, 3, rng)
        x = rng.normals(batch * 22 * 7).reshape(batch, 22, 7)
        y, cache = layer.forward(x)
        dy = rng.normals(y.size).reshape(y.shape)
        dk, db = layer.backward(cache, dy)
        for m in range(3):
            want = np.tensordot(dy, x[:, m:m + 20], axes=([0, 1], [0, 1]))
            assert dk[:, m].tobytes() == want.tobytes(), m
        assert db.tobytes() == dy.sum(axis=(0, 1)).tobytes()

    def test_backward_rejects_mismatched_upstream(self):
        layer = Conv1DLayer(np.zeros((1, 2, 1)), np.zeros(1))
        _, cache = layer.forward(np.zeros((1, 4, 1)))
        with pytest.raises(DimensionError):
            layer.backward(cache, np.zeros((1, 5, 1)))


def _activations(cell, cache):
    """Batch-major views of what an ``LSTMCache`` holds: the gates i, f, g, o,
    and c_t, tanh(c_t) and h_t of every step."""
    f_in = cell.input_size
    n = cache.tanh_c.shape[1]
    i, f, o, g = cache.gates.transpose(1, 2, 0, 3)
    return {"i": i, "f": f, "g": g, "o": o,
            "c": cache.c[1:].transpose(1, 0, 2),
            "tanh_c": cache.tanh_c.transpose(1, 0, 2),
            "hs": cache.xh[1:, :n, f_in + 1:].transpose(1, 0, 2)}


class TestLSTM:
    def test_zero_weights_force_zero_hidden_states(self):
        cell = LSTMCell(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
        xs = SeededRng(35).normals(15).reshape(1, 5, 3)
        h_last, cache = cell.forward(xs)
        acts = _activations(cell, cache)
        assert not h_last.any() and not acts["hs"].any()
        assert np.array_equal(acts["i"][0], np.full((5, 2), 0.5))

    def test_scalar_recurrence_matches_hand_evaluation(self):
        """T=2, H=1, F=1 with hand-set weights, evaluated independently from a
        zero state, so the second step sees a nonzero h_{t-1} and c_{t-1}."""
        w_x = np.array([[0.5], [-0.3], [0.8], [0.2]])
        w_h = np.array([[0.1], [0.4], [-0.2], [0.3]])
        b = np.array([0.05, -0.05, 0.1, 0.0])
        cell = LSTMCell(w_x, w_h, b)
        xs = (0.7, -0.4)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h = c = 0.0
        for x in xs:
            i = sig(0.5 * x + 0.1 * h + 0.05)
            f = sig(-0.3 * x + 0.4 * h - 0.05)
            g = math.tanh(0.8 * x - 0.2 * h + 0.1)
            o = sig(0.2 * x + 0.3 * h + 0.0)
            c = f * c + i * g
            h = o * math.tanh(c)
            assert h != 0.0 and c != 0.0

        h_last, _ = cell.forward(np.array(xs).reshape(1, 2, 1))
        assert abs(h_last[0, 0] - h) < 1e-14

    def test_fresh_state_makes_output_independent_of_history(self):
        rng = SeededRng(36)
        cell = LSTMCell.initialize(2, 3, rng)
        xs = rng.normals(8).reshape(1, 4, 2)
        h1, _ = cell.forward(xs)
        h2, _ = cell.forward(xs)
        assert np.array_equal(h1, h2)

    def test_zero_upstream_gradient(self):
        rng = SeededRng(37)
        cell = LSTMCell.initialize(2, 2, rng)
        xs = rng.normals(6).reshape(1, 3, 2)
        _, cache = cell.forward(xs)
        dxs, dwx, dwh, db = cell.backward(cache, np.zeros((1, 2)))
        assert not dxs.any() and not dwx.any() and not dwh.any() and not db.any()

    def test_bptt_matches_finite_differences(self):
        rng = SeededRng(38)
        cell = LSTMCell.initialize(2, 2, rng)
        xs = rng.normals(6).reshape(3, 2)
        weights = rng.normals(2)

        def loss():
            h_last, _ = cell.forward(xs[None])
            return float(h_last[0] @ weights)

        _, cache = cell.forward(xs[None])
        dxs, dwx, dwh, db = cell.backward(cache, weights[None])
        assert rel_error(dwx, numeric_grad(loss, cell.w_x)) < GRAD_TOL
        assert rel_error(dwh, numeric_grad(loss, cell.w_h)) < GRAD_TOL
        assert rel_error(db, numeric_grad(loss, cell.b)) < GRAD_TOL
        assert rel_error(dxs[0], numeric_grad(loss, xs)) < GRAD_TOL

    def test_backward_rejects_mismatched_upstream(self):
        """The upstream gradient is that of the last hidden state, [B x H]."""
        cell = LSTMCell.initialize(2, 3, SeededRng(39))
        _, cache = cell.forward(np.zeros((4, 5, 2)))
        for shape in [(4, 5, 3), (3, 3), (4, 2), (3,)]:
            with pytest.raises(DimensionError):
                cell.backward(cache, np.zeros(shape))

    def test_saturated_gates_stay_finite_without_warnings(self):
        """Gate pre-activations near +-800 (where exp would overflow) give
        sigmoid gates of exactly 0 or 1 and finite states in [-1, 1]."""
        w_x = np.array([[800.0], [-800.0], [800.0], [-800.0],
                        [-800.0], [800.0], [800.0], [-800.0]])
        cell = LSTMCell(w_x, np.zeros((8, 2)), np.zeros(8))
        xs = np.array([[[1.0], [-1.0], [1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, cache = cell.forward(xs)
        acts = _activations(cell, cache)
        for name in ("i", "f", "o"):
            assert np.all((acts[name] == 0.0) | (acts[name] == 1.0))
        assert np.all(np.abs(acts["g"]) == 1.0)
        assert np.all(np.isfinite(acts["c"]))
        assert np.all(np.abs(acts["hs"]) <= 1.0) and np.all(np.abs(acts["tanh_c"]) <= 1.0)

    @pytest.mark.parametrize("batch", [1, 5, 9])
    def test_cached_gates_are_contiguous_blocks(self, batch):
        """The cache holds the gates gate-major: each gate of each step is
        one C-contiguous [B x H] array."""
        rng = SeededRng(41)
        cell = LSTMCell.initialize(3, 4, rng)
        _, cache = cell.forward(rng.normals(batch * 6 * 3).reshape(batch, 6, 3))
        assert cache.gates.shape == (6, 4, batch, 4)
        for t in range(6):
            for k in range(4):
                assert cache.gates[t, k].shape == (batch, 4)
                assert cache.gates[t, k].flags.c_contiguous, (t, k)

    @pytest.mark.parametrize("cache", [True, False])
    def test_step_weights_reach_the_product_f_ordered(self, monkeypatch, cache):
        """Every step multiplies by an F-contiguous ``[w_x^T; b; w_h^T]``: a
        C-ordered copy of the same values makes OpenBLAS sum in another order,
        which moves hidden states by about 1e-16 and model files' bytes."""
        seen = []

        def spy(x, w_t, out=None):
            seen.append(w_t.flags.f_contiguous and not w_t.flags.c_contiguous)
            return _block_matmul(x, w_t, out=out)

        monkeypatch.setattr(layers, "_block_matmul", spy)
        rng = SeededRng(44)
        cell = LSTMCell.initialize(15, 32, rng)
        cell.forward(rng.normals(9 * 20 * 15).reshape(9, 20, 15), cache=cache)
        assert seen == [True] * 20

    # The hybrid model's LSTM at bench dims (7 market columns of 15) and at
    # gradcheck's dims (2 of 4).
    @pytest.mark.parametrize("f_in, hid, dx_from", [(15, 32, 7), (4, 3, 2)])
    @pytest.mark.parametrize("batch", [1, 32, 33])
    def test_conv_column_input_gradient_is_the_bitwise_slice(self, f_in, hid, dx_from, batch):
        """``dx_from`` drops the leading input columns from the input
        gradient; at the model's dims the rest is bitwise the all-column
        gradient's slice, and the weight gradients do not change."""
        rng = SeededRng(42 + batch)
        cell = LSTMCell.initialize(f_in, hid, rng)
        _, cache = cell.forward(rng.normals(batch * 20 * f_in).reshape(batch, 20, f_in))
        dh = rng.normals(batch * hid).reshape(batch, hid)
        whole = cell.backward(cache, dh)
        part = cell.backward(cache, dh, dx_from=dx_from)
        assert part[0].shape == (batch, 20, f_in - dx_from)
        assert part[0].tobytes() == whole[0][:, :, dx_from:].tobytes()
        for got, want in zip(part[1:], whole[1:]):
            assert got.tobytes() == want.tobytes()

    def test_input_gradient_of_any_trailing_columns_matches_the_slice(self):
        """For other column counts the narrower product may round
        differently (the BLAS kernel picks its unrolling by width), so only
        rounding-level agreement holds."""
        rng = SeededRng(43)
        cell = LSTMCell.initialize(15, 32, rng)
        _, cache = cell.forward(rng.normals(9 * 20 * 15).reshape(9, 20, 15))
        dh = rng.normals(9 * 32).reshape(9, 32)
        whole = cell.backward(cache, dh)[0]
        for dx_from in range(1, 15):
            part = cell.backward(cache, dh, dx_from=dx_from)[0]
            assert normwise_rel_error(part, whole[:, :, dx_from:]) < 1e-14, dx_from

    def test_hidden_states_bounded_by_one(self):
        rng = SeededRng(40)
        for trial in range(5):
            cell = LSTMCell.initialize(3, 4, rng)
            xs = rng.normals(60, 0.0, 5.0).reshape(1, 20, 3)
            _, cache = cell.forward(xs)
            assert np.all(np.abs(_activations(cell, cache)["hs"]) <= 1.0)


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
        y_train, mask = dropout_forward(spec, x, SeededRng(1))
        y_infer, _ = dropout_forward(spec, x, None)
        assert np.array_equal(y_train, x)
        assert np.array_equal(y_infer, x)
        assert np.all(mask == 1.0)

    def test_infer_mode_is_bit_exact_identity(self):
        x = SeededRng(44).normals(50)
        y, mask = dropout_forward(DropoutSpec(0.7), x, None)
        assert np.array_equal(y, x)
        assert mask is None

    def test_inverted_scaling_preserves_expectation(self):
        y, _ = dropout_forward(DropoutSpec(0.5), np.ones(100_000), SeededRng(45))
        assert abs(float(np.mean(y)) - 1.0) < 0.02

    def test_invalid_probability(self):
        with pytest.raises(ParameterError):
            DropoutSpec(1.0)

    def test_backward_applies_the_same_mask(self):
        x = np.ones(1000)
        y, mask = dropout_forward(DropoutSpec(0.3), x, SeededRng(46))
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
        y, mask = dropout_forward(DropoutSpec(0.4), x, batch_rng)
        for b in range(5):
            y_b, mask_b = dropout_forward(DropoutSpec(0.4), x[b], sample_rng)
            assert np.array_equal(y_b, y[b])
            assert np.array_equal(mask_b, mask[b])
        assert batch_rng.state == sample_rng.state


def _reference_lstm_forward(cell, xs):
    """The batch-major (i, f, g, o) time loop that ``LSTMCell.forward``
    replaced, from zero states: per step it takes the 8-row block product of
    ``[x_t, 1, h_{t-1}]`` with the stored-order ``[w_x^T; b; w_h^T]``, scales
    all four gate blocks by an array, takes one tanh, then adds and scales
    again by arrays.  Returns the hidden states ``[B x T x H]`` and the
    activations by name, as ``_activations`` names them."""
    hid, (n, t_len) = cell.hidden_size, xs.shape[:2]
    gates = np.empty((n, t_len, 4 * hid))
    w_t = np.concatenate([cell.w_x.T, cell.b[None], cell.w_h.T])
    n_rows = -(-n // 8) * 8
    scale = np.full(4 * hid, 0.5)
    scale[2 * hid:3 * hid] = 1.0
    shift = np.ones(4 * hid)
    shift[2 * hid:3 * hid] = 0.0
    c_a = np.empty((n, t_len, hid))
    tc_a = np.empty((n, t_len, hid))
    hs = np.empty((n, t_len, hid))
    i_a, f_a, g_a, o_a = (gates[:, :, k * hid:(k + 1) * hid] for k in range(4))
    h, c = np.zeros((n, hid)), np.zeros((n, hid))
    for t in range(t_len):
        z = gates[:, t]
        rows = np.zeros((n_rows, w_t.shape[0]))
        rows[:n] = np.concatenate([xs[:, t], np.ones((n, 1)), h], axis=1)
        z[...] = (rows.reshape(-1, 8, w_t.shape[0]) @ w_t).reshape(n_rows, 4 * hid)[:n]
        z *= scale
        np.tanh(z, out=z)
        z += shift
        z *= scale
        c = np.multiply(f_a[:, t], c, out=c_a[:, t])
        c += i_a[:, t] * g_a[:, t]
        np.tanh(c, out=tc_a[:, t])
        h = np.multiply(o_a[:, t], tc_a[:, t], out=hs[:, t])
    return hs, {"i": i_a, "f": f_a, "g": g_a, "o": o_a, "c": c_a, "tanh_c": tc_a, "hs": hs}


def _reference_lstm_backward(cell, xs, acts, dh_last):
    """The batch-major BPTT that ``LSTMCell.backward`` replaced, on the
    activations of ``_reference_lstm_forward`` with a gradient on the last
    hidden state only.  It builds dw_x, dw_h and db in three separate sums
    over (b, t); returns (dxs, dw_x, dw_h, db)."""
    hid = cell.hidden_size
    n, t_len = xs.shape[:2]
    i, f, g, o, tc, hs = (acts[k] for k in ("i", "f", "g", "o", "tanh_c", "hs"))
    zero = np.zeros((n, 1, hid))
    c_prev = np.concatenate([zero, acts["c"][:, :-1]], axis=1)
    h_prev = np.concatenate([zero, hs[:, :-1]], axis=1)
    dhs = np.zeros((n, t_len, hid))
    dhs[:, -1] = dh_last
    dz = np.empty((n, t_len, 4 * hid))
    dz_blocks = dz.reshape(n, t_len, 4, hid)
    np.multiply(g, i * (1.0 - i), out=dz_blocks[:, :, 0])
    np.multiply(c_prev, f * (1.0 - f), out=dz_blocks[:, :, 1])
    np.multiply(i, 1.0 - g * g, out=dz_blocks[:, :, 2])
    np.multiply(tc, o * (1.0 - o), out=dz_blocks[:, :, 3])
    dc_dh = o * (1.0 - tc * tc)
    dh_next = np.zeros((n, hid))
    dc_next = np.zeros((n, hid))
    for t in range(t_len - 1, -1, -1):
        dh = dhs[:, t] + dh_next
        dc = dc_next + dh * dc_dh[:, t]
        dz_blocks[:, t, :3] *= dc[:, None]
        dz_blocks[:, t, 3] *= dh
        dh_next = dz[:, t] @ cell.w_h
        dc_next = dc * f[:, t]
    dz_flat = dz.reshape(n * t_len, 4 * hid)
    dw_x = dz_flat.T @ xs.reshape(n * t_len, -1)
    dw_h = dz_flat.T @ h_prev.reshape(n * t_len, hid)
    return dz @ cell.w_x, dw_x, dw_h, dz_flat.sum(axis=0)


class TestLSTMReference:
    """``LSTMCell.forward`` reorders and pre-scales the gates and runs
    time-major; its output and every cached activation stay bitwise those of
    the reference loop.  ``LSTMCell.backward`` runs time-major on the cache
    and sums the weight gradients in one contraction, so its four outputs
    match the reference BPTT to rounding."""

    def _assert_matches_reference(self, cell, xs, dh_last):
        h_last, cache = cell.forward(xs)
        ref_hs, ref = _reference_lstm_forward(cell, xs)
        assert h_last.tobytes() == ref_hs[:, -1].tobytes()
        acts = _activations(cell, cache)
        for name, want in ref.items():
            assert acts[name].tobytes() == want.tobytes(), name
        grads = cell.backward(cache, dh_last)
        for got, want in zip(grads, _reference_lstm_backward(cell, xs, ref, dh_last)):
            assert got.shape == want.shape
            assert normwise_rel_error(got, want) < 1e-12

    @pytest.mark.parametrize("batch", [1, 7, 32, 33, 64, 65])
    def test_random_weights_bias_and_states(self, batch):
        rng = SeededRng(57 + batch)
        f_in, hid, t_len = 11, 32, 20
        cell = LSTMCell(rng.normals(4 * hid * f_in, 0.0, 0.5).reshape(4 * hid, f_in),
                        rng.normals(4 * hid * hid, 0.0, 0.3).reshape(4 * hid, hid),
                        rng.normals(4 * hid))
        xs = rng.normals(batch * t_len * f_in).reshape(batch, t_len, f_in)
        self._assert_matches_reference(cell, xs, rng.normals(batch * hid).reshape(batch, hid))

    def test_saturated_gates(self):
        rng = SeededRng(58)
        batch, f_in, hid, t_len = 5, 3, 4, 6
        cell = LSTMCell(rng.normals(4 * hid * f_in, 0.0, 300.0).reshape(4 * hid, f_in),
                        rng.normals(4 * hid * hid, 0.0, 300.0).reshape(4 * hid, hid),
                        rng.normals(4 * hid, 0.0, 300.0))
        xs = rng.normals(batch * t_len * f_in).reshape(batch, t_len, f_in)
        self._assert_matches_reference(cell, xs, rng.normals(batch * hid).reshape(batch, hid))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_inputs_and_weights(self, zero):
        """Pins the sign of zero on the g block: the reference loop's ``+ 0.0``
        shift made it +0.0, and the g block no longer gets that shift."""
        batch, f_in, hid, t_len = 3, 2, 4, 5
        cell = LSTMCell(np.full((4 * hid, f_in), zero), np.full((4 * hid, hid), zero),
                        np.full(4 * hid, zero))
        xs = np.zeros((batch, t_len, f_in))
        self._assert_matches_reference(cell, xs, np.ones((batch, hid)))
        _, cache = cell.forward(xs)
        assert not np.signbit(_activations(cell, cache)["g"]).any()


class TestBlockInvariance:
    """Row-mixing products give every row, bit for bit, what it gives alone,
    whatever the batch size and wherever the row sits in the batch.  This is
    an empirical property of the BLAS kernel behind ``_block_matmul``."""

    # (batch size, index of its first row in a pool of POOL rows)
    WINDOWS = [(batch, offset) for batch in (5, 17, 32, 33, 64, 65) for offset in (0, 3)]
    POOL = 68

    # (K, M): an LSTM step's [x_t, 1, h_{t-1}] rows at bench dims, the dense
    # head, and the linear baseline's flattened sample.
    @pytest.mark.parametrize("k, m", [(48, 128), (43, 1), (211, 1)])
    def test_block_matmul_rows(self, k, m):
        rng = SeededRng(59 + k)
        x = rng.normals(self.POOL * k).reshape(self.POOL, k)
        w_t = rng.normals(k * m).reshape(k, m)
        alone = [_block_matmul(x[r:r + 1], w_t)[0] for r in range(self.POOL)]
        for batch, offset in self.WINDOWS:
            got = _block_matmul(x[offset:offset + batch], w_t)
            assert got.shape == (batch, m)
            for b, row in enumerate(got):
                assert row.tobytes() == alone[offset + b].tobytes(), (batch, offset, b)

    def test_lstm_hidden_states_and_cache(self):
        rng = SeededRng(61)
        f_in, hid, t_len = 15, 32, 20
        cell = LSTMCell.initialize(f_in, hid, rng)
        cell.b[:] = rng.normals(4 * hid, 0.0, 0.5)
        xs = rng.normals(self.POOL * t_len * f_in).reshape(self.POOL, t_len, f_in)
        alone = [_activations(cell, cell.forward(xs[r:r + 1])[1]) for r in range(self.POOL)]
        for batch, offset in self.WINDOWS:
            acts = _activations(cell, cell.forward(xs[offset:offset + batch])[1])
            for b in range(batch):
                for name, value in acts.items():
                    assert value[b].tobytes() == alone[offset + b][name][0].tobytes(), \
                        (batch, offset, b, name)

    @pytest.fixture(scope="class")
    def scoring_set(self):
        """More than two score chunks of windows: LSTM inputs at bench dims
        for a cell, and samples for a hybrid and a linear model."""
        rng = SeededRng(62)
        n, t_len, f_in = 2 * SCORE_CHUNK + 5, 20, 15
        cell = LSTMCell.initialize(f_in, 32, rng)
        xs = rng.normals(n * t_len * f_in).reshape(n, t_len, f_in)
        dims = tiny_dims(window=t_len, conv_channels=8, hidden_size=32)
        samples = random_samples(n, dims, seed=63)
        return cell, xs, samples, (HybridModel.initialize(dims, seed=64), linreg_fit(samples))

    @pytest.mark.parametrize("batch", [1, 7, 8, 9, 255, 256, 257, None],
                             ids=lambda b: "whole" if b is None else str(b))
    def test_cache_free_forward_matches_cached(self, scoring_set, batch):
        """Without a cache the LSTM's last hidden state and both models'
        scores are bitwise those of the cached run, and those of the same
        rows scored with the whole set."""
        cell, xs, samples, models = scoring_set
        rows = slice(batch)
        h_free, _ = cell.forward(xs[rows], cache=False)
        assert h_free.tobytes() == cell.forward(xs[rows])[0].tobytes()
        assert h_free.tobytes() == cell.forward(xs, cache=False)[0][rows].tobytes()
        for model in models:
            x_seq, x_static = samples.x_seq[rows], samples.x_static[rows]
            free, _ = model.forward(x_seq, x_static, cache=False)
            assert free.tobytes() == model.forward(x_seq, x_static)[0].tobytes(), model.kind
            whole, _ = model.forward(samples.x_seq, samples.x_static, cache=False)
            assert free.tobytes() == whole[rows].tobytes(), model.kind

    def test_cache_free_forward_returns_no_cache(self, scoring_set):
        cell, xs, samples, models = scoring_set
        assert cell.forward(xs[:9], cache=False)[1] is None
        for model in models:
            assert model.forward(samples.x_seq[:9], samples.x_static[:9], cache=False)[1] is None

    def test_scoring_peaks_below_one_chunk_of_gate_history(self, scoring_set):
        """``prediction_scores`` keeps no activation history: over more than
        two chunks it allocates less than one chunk's gates for all T steps."""
        _, _, samples, (hybrid, _) = scoring_set
        gate_history = hybrid.dims.window * SCORE_CHUNK * 4 * hybrid.dims.hidden_size * 8
        tracemalloc.start()
        try:
            prediction_scores(hybrid, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gate_history


def test_block_invariance_holds_on_one_blas_thread():
    """Tier-1 runs with the default BLAS thread count and the benchmark pins
    one thread; re-run the bitwise reference and block-invariance tests
    under the latter."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{os.path.abspath(__file__)}::TestLSTMReference",
         f"{os.path.abspath(__file__)}::TestBlockInvariance"],
        cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("23 passed"), proc.stdout


def _assert_batch_is_stacked_samples(layer, xs, dys, input_grad=True):
    """A [B x ...] call gives, bit for bit, the B outputs of batches of one;
    its input gradients (when the layer returns them, ahead of its parameter
    gradients) match theirs and its parameter gradients match their sum,
    each to 1e-12 relative."""
    ys, cache = layer.forward(xs)
    param_grads = list(layer.backward(cache, dys))
    dx = param_grads.pop(0) if input_grad else None
    totals = [np.zeros_like(g) for g in param_grads]
    for b in range(len(xs)):
        y_b, cache_b = layer.forward(xs[b][None])
        assert np.array_equal(y_b[0], ys[b])
        grads_b = list(layer.backward(cache_b, dys[b][None]))
        if input_grad:
            assert normwise_rel_error(dx[b], grads_b.pop(0)[0]) < 1e-12
        for total, g in zip(totals, grads_b):
            total += g
    for g, total in zip(param_grads, totals):
        assert normwise_rel_error(g, total) < 1e-12


class TestBatchAxis:
    def test_conv(self):
        rng = SeededRng(51)
        layer = Conv1DLayer.initialize(3, 4, 3, rng)
        xs = rng.normals(5 * 9 * 3).reshape(5, 9, 3)
        _assert_batch_is_stacked_samples(layer, xs, rng.normals(5 * 7 * 4).reshape(5, 7, 4),
                                         input_grad=False)

    def test_lstm(self):
        rng = SeededRng(52)
        cell = LSTMCell.initialize(3, 32, rng)
        xs = rng.normals(5 * 6 * 3).reshape(5, 6, 3)
        _assert_batch_is_stacked_samples(cell, xs, rng.normals(5 * 32).reshape(5, 32))

    def test_dense(self):
        rng = SeededRng(53)
        layer = DenseLayer.initialize(6, 2, rng)
        xs = rng.normals(5 * 6).reshape(5, 6)
        _assert_batch_is_stacked_samples(layer, xs, rng.normals(5 * 2).reshape(5, 2))

    def test_lstm_batched_bptt_matches_finite_differences(self):
        rng = SeededRng(54)
        cell = LSTMCell.initialize(2, 3, rng)
        xs = rng.normals(4 * 3 * 2).reshape(4, 3, 2)
        weights = rng.normals(4 * 3).reshape(4, 3)

        def loss():
            h_last, _ = cell.forward(xs)
            return float(np.sum(h_last * weights))

        _, cache = cell.forward(xs)
        dxs, dwx, dwh, db = cell.backward(cache, weights)
        assert rel_error(dwx, numeric_grad(loss, cell.w_x)) < GRAD_TOL
        assert rel_error(dwh, numeric_grad(loss, cell.w_h)) < GRAD_TOL
        assert rel_error(db, numeric_grad(loss, cell.b)) < GRAD_TOL
        assert rel_error(dxs, numeric_grad(loss, xs)) < GRAD_TOL

    @pytest.mark.parametrize("kind", ["conv", "lstm", "dense"])
    def test_unbatched_sample_rejected(self, kind):
        """Layers take batches only; one sample without the batch axis is an error."""
        rng = SeededRng(56)
        with pytest.raises(DimensionError, match=r"must be \[B x"):
            if kind == "conv":
                Conv1DLayer.initialize(3, 4, 3, rng).forward(np.zeros((6, 3)))
            elif kind == "lstm":
                LSTMCell.initialize(3, 2, rng).forward(np.zeros((6, 3)))
            else:
                DenseLayer.initialize(3, 2, rng).forward(np.zeros(3))
