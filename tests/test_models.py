import numpy as np
import pytest

from conftest import (
    normwise_rel_error,
    numeric_grad,
    random_samples,
    rel_error,
    tiny_dims,
    tiny_hybrid,
)
from riskcast import (
    DataError,
    DimensionError,
    HybridModel,
    LinearRegressionModel,
    SeededRng,
    linreg_fit,
    predict_batch,
)
from riskcast.layers import Conv1DLayer, DenseLayer, DropoutSpec, LSTMCell
from riskcast.models import SCORE_CHUNK, linreg_objective, prediction_scores
from riskcast.training import mse_loss


def _sample_for(dims, seed=0):
    rng = SeededRng(seed)
    x_seq = rng.normals(dims.window * dims.f_seq).reshape(dims.window, dims.f_seq)
    x_static = rng.normals(dims.f_static)
    return x_seq, x_static


class TestHybridForward:
    def test_all_zero_weights_yield_head_bias(self):
        dims = tiny_dims()
        model = HybridModel(
            dims,
            Conv1DLayer(np.zeros((2, 3, 3)), np.zeros(2)),
            LSTMCell(np.zeros((12, 4)), np.zeros((12, 3)), np.zeros(12)),
            DenseLayer(np.zeros((1, 6)), np.array([0.37])),
            DropoutSpec(0.2),
        )
        x_seq, x_static = _sample_for(dims, seed=1)
        score, _ = model.forward(x_seq, x_static, mode="infer")
        assert score == 0.37

    def test_inference_is_deterministic(self):
        dims = tiny_dims()
        model = tiny_hybrid(seed=2, dropout_p=0.5)
        x_seq, x_static = _sample_for(dims, seed=3)
        s1, _ = model.forward(x_seq, x_static, mode="infer")
        s2, _ = model.forward(x_seq, x_static, mode="infer")
        assert s1 == s2

    def test_dimension_mismatch_rejected(self):
        model = tiny_hybrid(seed=4)
        with pytest.raises(DimensionError):
            model.forward(np.zeros((3, 5)), np.zeros(3))

    def test_score_matches_straight_line_reimplementation(self):
        """Independent step-by-step evaluation of the documented pipeline."""
        dims = tiny_dims()
        model = tiny_hybrid(seed=5)
        x_seq, x_static = _sample_for(dims, seed=6)
        score, _ = model.forward(x_seq, x_static, mode="infer")

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        pad = dims.kernel_width - 1
        sent = np.vstack([np.zeros((pad, dims.f_sentiment)), x_seq[:, dims.f_market:]])
        conv = np.zeros((dims.window, dims.conv_channels))
        for t in range(dims.window):
            for c in range(dims.conv_channels):
                acc = model.conv.bias[c]
                for m in range(dims.kernel_width):
                    for n in range(dims.f_sentiment):
                        acc += sent[t + m, n] * model.conv.kernels[c, m, n]
                conv[t, c] = max(acc, 0.0)
        h = np.zeros(dims.hidden_size)
        c_state = np.zeros(dims.hidden_size)
        hid = dims.hidden_size
        for t in range(dims.window):
            day = np.concatenate([x_seq[t, :dims.f_market], conv[t]])
            z = model.lstm.w_x @ day + model.lstm.w_h @ h + model.lstm.b
            i, f = sigmoid(z[:hid]), sigmoid(z[hid:2 * hid])
            g, o = np.tanh(z[2 * hid:3 * hid]), sigmoid(z[3 * hid:])
            c_state = f * c_state + i * g
            h = o * np.tanh(c_state)
        expected = float((model.head.w @ np.concatenate([h, x_static]) + model.head.b)[0])
        assert abs(score - expected) < 1e-12


class TestHybridBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        dims = tiny_dims()
        model = tiny_hybrid(seed=7)
        x_seq, x_static = _sample_for(dims, seed=8)
        _, cache = model.forward(x_seq, x_static, mode="infer")
        grads, dx_seq = model.backward(cache, 0.0)
        assert not dx_seq.any()
        for grad in grads.values():
            assert not grad.any()

    def test_full_model_gradients_match_finite_differences(self):
        from conftest import numeric_grad

        dims = tiny_dims()
        model = tiny_hybrid(seed=9)
        x_seq, x_static = _sample_for(dims, seed=10)
        target = 0.6

        def loss():
            score, _ = model.forward(x_seq, x_static, mode="infer")
            return mse_loss(np.array([target]), np.array([score]))[0]

        score, cache = model.forward(x_seq, x_static, mode="infer")
        _, dpred = mse_loss(np.array([target]), np.array([score]))
        grads, dx_seq = model.backward(cache, dpred[0])
        for name, param in model.params().items():
            assert rel_error(grads[name], numeric_grad(loss, param)) < 1e-4, name
        assert rel_error(dx_seq, numeric_grad(loss, x_seq)) < 1e-4

    def test_zeroed_sentiment_leaves_only_market_and_static_paths(self):
        """With conv bias zeroed, a zero sentiment block silences the conv
        branch entirely, so the score depends only on market/static inputs."""
        dims = tiny_dims()
        model = tiny_hybrid(seed=23)
        model.conv.bias[:] = 0.0
        x_seq, x_static = _sample_for(dims, seed=24)
        x_seq[:, dims.f_market:] = 0.0
        score_a, _ = model.forward(x_seq, x_static, mode="infer")
        other = x_seq.copy()
        other[:, dims.f_market:] = 0.0  # still zero; conv path unchanged
        score_b, _ = model.forward(other, x_static, mode="infer")
        assert score_a == score_b
        bumped = x_seq.copy()
        bumped[:, :dims.f_market] += 0.25
        score_c, _ = model.forward(bumped, x_static, mode="infer")
        assert score_c != score_a

    def test_market_columns_receive_gradient_only_via_lstm(self):
        """With the lstm blind to market inputs, the market block of the
        input gradient must be exactly zero while sentiment columns are not:
        the conv path never writes into market columns."""
        dims = tiny_dims()
        model = tiny_hybrid(seed=11)
        model.lstm.w_x[:, :dims.f_market] = 0.0
        x_seq, x_static = _sample_for(dims, seed=12)
        _, cache = model.forward(x_seq, x_static, mode="infer")
        grads, dx_seq = model.backward(cache, 1.0)
        assert not dx_seq[:, :dims.f_market].any()
        assert dx_seq[:, dims.f_market:].any()


class TestLinearRegression:
    def test_recovers_planted_coefficients(self):
        dims = tiny_dims(window=1, f_market=1, f_sentiment=1, f_static=1,
                         kernel_width=1)
        samples = random_samples(60, dims, seed=13)
        samples.y = 2.0 * samples.x_seq[:, 0, 0] + 3.0
        model = linreg_fit(samples)
        assert abs(model.weights[0] - 2.0) < 1e-6
        assert abs(model.bias[0] - 3.0) < 1e-6
        assert abs(model.weights[1]) < 1e-6 and abs(model.weights[2]) < 1e-6

    def test_constant_target_gives_intercept_only_fit(self):
        samples = random_samples(40, tiny_dims(), seed=14)
        samples.y = np.full(40, 0.8)
        model = linreg_fit(samples)
        assert np.all(np.abs(model.weights) < 1e-6)
        assert abs(model.bias[0] - 0.8) < 1e-6

    def test_matches_gradient_descent_oracle(self):
        """The exact solve must do at least as well as a long GD run."""
        dims = tiny_dims()
        samples = random_samples(50, dims, seed=15)
        samples.y = np.tanh(samples.x_static[:, 0]) * 0.4 + 0.5
        model = linreg_fit(samples)
        exact_mse = float(np.mean((samples.y - prediction_scores(model, samples)) ** 2))

        n = len(samples)
        design = np.hstack([samples.x_seq.reshape(n, -1), samples.x_static,
                            np.ones((n, 1))])
        beta = np.zeros(design.shape[1])
        lr = 1.0 / (np.linalg.norm(design, 2) ** 2)
        for _ in range(20_000):
            resid = design @ beta - samples.y
            beta -= lr * (2.0 * design.T @ resid + 2e-8 * beta)
        gd_mse = float(np.mean((design @ beta - samples.y) ** 2))
        assert exact_mse <= gd_mse + 1e-6

    def test_random_perturbations_never_reduce_the_objective(self):
        dims = tiny_dims()
        samples = random_samples(45, dims, seed=16)
        model = linreg_fit(samples)
        base = linreg_objective(model, samples)
        rng = SeededRng(17)
        dim = model.weights.size + 1
        for _ in range(200):
            delta = rng.normals(dim)
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed = LinearRegressionModel(
                model.weights + delta[:-1], model.bias[0] + delta[-1],
                model.ridge_lambda,
            )
            assert linreg_objective(perturbed, samples) >= base

    def test_input_gradient_matches_finite_differences(self):
        dims = tiny_dims()
        model = linreg_fit(random_samples(40, dims, seed=37))
        samples = random_samples(4, dims, seed=38)
        upstream = SeededRng(39).normals(4)

        def loss():
            scores, _ = model.forward(samples.x_seq, samples.x_static)
            return float(scores @ upstream)

        _, cache = model.forward(samples.x_seq, samples.x_static)
        _, dx_seq = model.backward(cache, upstream)
        assert rel_error(dx_seq, numeric_grad(loss, samples.x_seq)) < 1e-6

    def test_needs_at_least_two_samples(self):
        samples = random_samples(1, tiny_dims(), seed=18)
        with pytest.raises(DataError):
            linreg_fit(samples)


class TestPredictBatch:
    def test_empty_input_gives_empty_output(self):
        samples = random_samples(5, tiny_dims(), seed=19).subset(0, 0)
        assert predict_batch(tiny_hybrid(seed=19), samples) == []

    def test_batch_equals_per_sample(self):
        dims = tiny_dims()
        model = tiny_hybrid(seed=20)
        samples = random_samples(12, dims, seed=21)
        batch = predict_batch(model, samples)
        for i, (day, score) in enumerate(batch):
            solo, _ = model.forward(samples.x_seq[i], samples.x_static[i], mode="infer")
            assert score == solo
            assert day == samples.dates[i]

    def test_works_for_linear_models(self):
        dims = tiny_dims()
        samples = random_samples(10, dims, seed=22)
        model = linreg_fit(samples)
        preds = predict_batch(model, samples)
        assert len(preds) == 10
        assert all(np.isfinite(score) for _, score in preds)

    def test_scores_are_batch_invariant(self):
        """Each window's score is bitwise the same scored alone, in its
        chunk, and with the whole set, for a set size that is not a multiple
        of the chunk size."""
        dims = tiny_dims(window=10, conv_channels=8, hidden_size=32)
        n = 2 * SCORE_CHUNK + 5
        samples = random_samples(n, dims, seed=26)
        for model in (tiny_hybrid(seed=25, window=10, conv_channels=8, hidden_size=32),
                      linreg_fit(samples)):
            scored = prediction_scores(model, samples)
            whole, _ = model.forward(samples.x_seq, samples.x_static)
            for start in range(0, n, SCORE_CHUNK):
                chunk = slice(start, start + SCORE_CHUNK)
                in_chunk, _ = model.forward(samples.x_seq[chunk], samples.x_static[chunk])
                for j, score in enumerate(in_chunk):
                    alone, _ = model.forward(samples.x_seq[start + j],
                                             samples.x_static[start + j])
                    assert score == alone == scored[start + j] == whole[start + j]


class TestBatchedHybrid:
    B = 5

    def _batch(self, seed):
        return random_samples(self.B, tiny_dims(), seed=seed)

    def test_gradients_equal_sum_of_per_sample_gradients(self):
        model = tiny_hybrid(seed=27)
        samples = self._batch(28)
        upstream = SeededRng(29).normals(self.B)
        _, cache = model.forward(samples.x_seq, samples.x_static)
        grads, dx_seq = model.backward(cache, upstream)
        assert dx_seq.shape == samples.x_seq.shape
        totals = {name: np.zeros_like(p) for name, p in model.params().items()}
        for i in range(self.B):
            _, cache_i = model.forward(samples.x_seq[i], samples.x_static[i])
            grads_i, dx_i = model.backward(cache_i, upstream[i])
            assert normwise_rel_error(dx_seq[i], dx_i) < 1e-12
            for name in totals:
                totals[name] += grads_i[name]
        for name, total in totals.items():
            assert normwise_rel_error(grads[name], total) < 1e-12, name

    def test_batch_loss_gradients_match_finite_differences(self):
        model = tiny_hybrid(seed=30)
        samples = self._batch(31)

        def loss():
            scores, _ = model.forward(samples.x_seq, samples.x_static)
            return mse_loss(samples.y, scores)[0]

        scores, cache = model.forward(samples.x_seq, samples.x_static)
        _, dpred = mse_loss(samples.y, scores)
        grads, dx_seq = model.backward(cache, dpred)
        for name, param in model.params().items():
            assert rel_error(grads[name], numeric_grad(loss, param)) < 1e-4, name
        assert rel_error(dx_seq, numeric_grad(loss, samples.x_seq)) < 1e-4

    def test_train_mode_draws_dropout_in_per_sample_order(self):
        model = tiny_hybrid(seed=32, dropout_p=0.5)
        samples = self._batch(33)
        batch_rng, sample_rng = SeededRng(34), SeededRng(34)
        scores, _ = model.forward(samples.x_seq, samples.x_static, mode="train", rng=batch_rng)
        for i in range(self.B):
            solo, _ = model.forward(samples.x_seq[i], samples.x_static[i],
                                    mode="train", rng=sample_rng)
            assert solo == scores[i]
        assert batch_rng.state == sample_rng.state

    def test_mismatched_batch_sizes_rejected(self):
        model = tiny_hybrid(seed=35)
        samples = self._batch(36)
        with pytest.raises(DimensionError):
            model.forward(samples.x_seq, samples.x_static[:-1])
        _, cache = model.forward(samples.x_seq, samples.x_static)
        with pytest.raises(DimensionError):
            model.backward(cache, np.ones(self.B - 1))
