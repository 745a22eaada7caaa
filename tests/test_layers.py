import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import normwise_rel_error, numeric_grad, rel_error
from riskcast import DimensionError, ParameterError, SeededRng
from riskcast.layers import (
    Conv1DLayer,
    DenseLayer,
    DropoutSpec,
    LSTMCache,
    LSTMCell,
    _block_matmul,
    dropout_backward,
    dropout_forward,
)

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

    def test_saturated_gates_stay_finite_without_warnings(self):
        """Gate pre-activations near +-800 (where exp would overflow) give
        sigmoid gates of exactly 0 or 1 and finite states in [-1, 1]."""
        w_x = np.array([[800.0], [-800.0], [800.0], [-800.0],
                        [-800.0], [800.0], [800.0], [-800.0]])
        cell = LSTMCell(w_x, np.zeros((8, 2)), np.zeros(8))
        xs = np.array([[[1.0], [-1.0], [1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hs, cache = cell.forward(xs, np.zeros((1, 2)), np.zeros((1, 2)))
        for gate in (cache.i, cache.f, cache.o):
            assert np.all((gate == 0.0) | (gate == 1.0))
        assert np.all(np.abs(cache.g) == 1.0)
        assert np.all(np.isfinite(cache.c))
        assert np.all(np.abs(hs) <= 1.0) and np.all(np.abs(cache.tanh_c) <= 1.0)

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


def _reference_lstm_forward(cell, xs, h0, c0):
    """The batch-major (i, f, g, o) time loop that ``LSTMCell.forward``
    replaced: per step it takes the 8-row block product of ``[x_t, 1, h_{t-1}]``
    with the stored-order ``[w_x^T; b; w_h^T]``, scales all four gate blocks by
    an array, takes one tanh, then adds and scales again by arrays."""
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
    h, c = h0, c0
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
    return hs, LSTMCache(xs=xs, h0=h0, c0=c0, i=i_a, f=f_a, g=g_a, o=o_a,
                         c=c_a, tanh_c=tc_a, hs=hs)


class TestLSTMReference:
    """``LSTMCell.forward`` reorders and pre-scales the gates and runs time-major;
    every forward output, cached activation and gradient stays bitwise that of
    the reference loop."""

    CACHED = ("i", "f", "g", "o", "c", "tanh_c", "hs")

    def _assert_bitwise(self, cell, xs, h0, c0, dhs):
        hs, cache = cell.forward(xs, h0, c0)
        ref_hs, ref_cache = _reference_lstm_forward(cell, xs, h0, c0)
        assert hs.tobytes() == ref_hs.tobytes()
        for name in self.CACHED:
            assert getattr(cache, name).tobytes() == getattr(ref_cache, name).tobytes(), name
        for got, want in zip(cell.backward(cache, dhs), cell.backward(ref_cache, dhs)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [1, 7, 32, 33, 64, 65])
    def test_random_weights_bias_and_states(self, batch):
        rng = SeededRng(57 + batch)
        f_in, hid, t_len = 11, 32, 20
        cell = LSTMCell(rng.normals(4 * hid * f_in, 0.0, 0.5).reshape(4 * hid, f_in),
                        rng.normals(4 * hid * hid, 0.0, 0.3).reshape(4 * hid, hid),
                        rng.normals(4 * hid))
        xs = rng.normals(batch * t_len * f_in).reshape(batch, t_len, f_in)
        h0 = rng.uniforms(batch * hid, -1.0, 1.0).reshape(batch, hid)
        c0 = rng.normals(batch * hid, 0.0, 2.0).reshape(batch, hid)
        dhs = rng.normals(batch * t_len * hid).reshape(batch, t_len, hid)
        self._assert_bitwise(cell, xs, h0, c0, dhs)

    def test_saturated_gates(self):
        rng = SeededRng(58)
        batch, f_in, hid, t_len = 5, 3, 4, 6
        cell = LSTMCell(rng.normals(4 * hid * f_in, 0.0, 300.0).reshape(4 * hid, f_in),
                        rng.normals(4 * hid * hid, 0.0, 300.0).reshape(4 * hid, hid),
                        rng.normals(4 * hid, 0.0, 300.0))
        xs = rng.normals(batch * t_len * f_in).reshape(batch, t_len, f_in)
        h0 = rng.uniforms(batch * hid, -1.0, 1.0).reshape(batch, hid)
        c0 = rng.normals(batch * hid).reshape(batch, hid)
        dhs = rng.normals(batch * t_len * hid).reshape(batch, t_len, hid)
        self._assert_bitwise(cell, xs, h0, c0, dhs)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_inputs_and_weights(self, zero):
        """Pins the sign of zero on the g block: the reference loop's ``+ 0.0``
        shift made it +0.0, and the g block no longer gets that shift."""
        batch, f_in, hid, t_len = 3, 2, 4, 5
        cell = LSTMCell(np.full((4 * hid, f_in), zero), np.full((4 * hid, hid), zero),
                        np.full(4 * hid, zero))
        xs = np.zeros((batch, t_len, f_in))
        h0, c0 = np.zeros((batch, hid)), np.zeros((batch, hid))
        self._assert_bitwise(cell, xs, h0, c0, np.ones((batch, t_len, hid)))
        _, cache = cell.forward(xs, h0, c0)
        assert not np.signbit(cache.g).any()


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
        h0 = rng.uniforms(self.POOL * hid, -1.0, 1.0).reshape(self.POOL, hid)
        c0 = rng.normals(self.POOL * hid).reshape(self.POOL, hid)
        alone = [cell.forward(xs[r:r + 1], h0[r:r + 1], c0[r:r + 1])[1]
                 for r in range(self.POOL)]
        for batch, offset in self.WINDOWS:
            rows = slice(offset, offset + batch)
            _, cache = cell.forward(xs[rows], h0[rows], c0[rows])
            for b in range(batch):
                for name in TestLSTMReference.CACHED:
                    got = getattr(cache, name)[b].tobytes()
                    assert got == getattr(alone[offset + b], name)[0].tobytes(), \
                        (batch, offset, b, name)


def test_block_invariance_holds_on_one_blas_thread():
    """Tier-1 runs with the default BLAS thread count and the benchmark pins
    one thread; re-run the block-invariance tests under the latter."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{os.path.abspath(__file__)}::TestBlockInvariance"],
        cwd=root, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("4 passed"), proc.stdout


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
