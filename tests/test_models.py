import os
import sys
import threading
import warnings

import numpy as np
import pytest

from conftest import (
    linreg_objective,
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
    NumericalError,
    SampleSet,
    SeededRng,
    linreg_fit,
    predict_batch,
)
from riskcast.layers import Conv1DLayer, DenseLayer, DropoutSpec, LSTMCell
from riskcast.models import (
    MAX_PARTS,
    MIN_PART,
    SCORE_CHUNK,
    prediction_scores,
)
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
        score, _ = model.forward(x_seq, x_static)
        assert score == 0.37

    def test_inference_is_deterministic(self):
        dims = tiny_dims()
        model = tiny_hybrid(seed=2, dropout_p=0.5)
        x_seq, x_static = _sample_for(dims, seed=3)
        s1, _ = model.forward(x_seq, x_static)
        s2, _ = model.forward(x_seq, x_static)
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
        score, _ = model.forward(x_seq, x_static)

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
        _, cache = model.forward(x_seq, x_static)
        grads = model.backward(cache, np.zeros(1))
        for grad in grads.values():
            assert not grad.any()

    def test_full_model_gradients_match_finite_differences(self):
        from conftest import numeric_grad

        dims = tiny_dims()
        model = tiny_hybrid(seed=9)
        x_seq, x_static = _sample_for(dims, seed=10)
        target = 0.6

        def loss():
            score, _ = model.forward(x_seq, x_static)
            return mse_loss(np.array([target]), np.array([score]))[0]

        score, cache = model.forward(x_seq, x_static)
        _, dpred = mse_loss(np.array([target]), np.array([score]))
        grads = model.backward(cache, dpred)
        for name, param in model.params().items():
            assert rel_error(grads[name], numeric_grad(loss, param)) < 1e-4, name

    def test_zeroed_sentiment_leaves_only_market_and_static_paths(self):
        """With conv bias zeroed, a zero sentiment block silences the conv
        branch entirely, so the score depends only on market/static inputs."""
        dims = tiny_dims()
        model = tiny_hybrid(seed=23)
        model.conv.bias[:] = 0.0
        x_seq, x_static = _sample_for(dims, seed=24)
        x_seq[:, dims.f_market:] = 0.0
        score_a, _ = model.forward(x_seq, x_static)
        other = x_seq.copy()
        other[:, dims.f_market:] = 0.0  # still zero; conv path unchanged
        score_b, _ = model.forward(other, x_static)
        assert score_a == score_b
        bumped = x_seq.copy()
        bumped[:, :dims.f_market] += 0.25
        score_c, _ = model.forward(bumped, x_static)
        assert score_c != score_a


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
            solo, _ = model.forward(samples.x_seq[i], samples.x_static[i])
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


def _allow_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _allow_parts(monkeypatch, count):
    monkeypatch.setattr("riskcast.models.MAX_PARTS", count)


def _expected_threads(model, cpus, n, max_parts=MAX_PARTS):
    if not isinstance(model, HybridModel):
        return 1
    return max(1, min(max_parts, cpus, n // MIN_PART))


class TestParallelScoring:
    """``prediction_scores`` splits a hybrid's set into ``min(MAX_PARTS,
    CPUs, n // MIN_PART)`` parts scored at the same time and never splits a
    linear model's; the CPU count is patched to 1, 2 and 3, and some tests
    raise ``MAX_PARTS`` to exercise more than two parts."""

    DIMS = dict(window=10, conv_channels=8, hidden_size=32)

    @pytest.fixture(scope="class")
    def scoring_set(self):
        samples = random_samples(2 * SCORE_CHUNK + 5, tiny_dims(**self.DIMS), seed=71)
        return samples, (tiny_hybrid(seed=72, **self.DIMS), linreg_fit(samples))

    @pytest.mark.parametrize("max_parts", [MAX_PARTS, 3])
    @pytest.mark.parametrize("n", [1, 9, MIN_PART - 1, MIN_PART, MIN_PART + 1, 257,
                                   2 * SCORE_CHUNK + 5])
    def test_scores_do_not_depend_on_the_cpu_count(self, monkeypatch, scoring_set, n,
                                                   max_parts):
        samples, models = scoring_set
        subset = samples.subset(0, n)
        for model in models:
            scored, callers = {}, {}
            original = model.forward

            def forward(*args, **kwargs):
                callers[cpus].add(threading.current_thread())
                return original(*args, **kwargs)

            monkeypatch.setattr(model, "forward", forward)
            _allow_parts(monkeypatch, max_parts)
            for cpus in (1, 2, 3):
                _allow_cpus(monkeypatch, cpus)
                callers[cpus] = set()
                threads = threading.active_count()
                scored[cpus] = prediction_scores(model, subset).tobytes()
                assert threading.active_count() == threads, (model.kind, cpus)
                assert len(callers[cpus]) == _expected_threads(model, cpus, n, max_parts), \
                    (model.kind, cpus)
            monkeypatch.undo()
            assert scored[1] == scored[2] == scored[3], model.kind

    @pytest.mark.parametrize("cpu_count", [None, 1, 2])
    def test_a_platform_without_an_affinity_mask_uses_the_cpu_count(self, monkeypatch,
                                                                    scoring_set, cpu_count):
        """Where ``os.sched_getaffinity`` does not exist (macOS, Windows),
        the part count comes from ``os.cpu_count()`` (1 when it is
        unknown), and the scores are the same bytes."""
        samples, (hybrid, _) = scoring_set
        _allow_cpus(monkeypatch, 1)
        serial = prediction_scores(hybrid, samples).tobytes()
        callers = set()
        original = hybrid.forward

        def forward(*args, **kwargs):
            callers.add(threading.current_thread())
            return original(*args, **kwargs)

        monkeypatch.setattr(hybrid, "forward", forward)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        threads = threading.active_count()
        assert prediction_scores(hybrid, samples).tobytes() == serial
        assert threading.active_count() == threads
        assert len(callers) == _expected_threads(hybrid, cpu_count or 1, len(samples))

    def test_a_thread_that_cannot_start_leaves_no_thread_running(self, monkeypatch,
                                                                scoring_set):
        """Three parts where the second worker fails to start: the caller
        gets that error, and the worker that did start has been joined."""
        samples, (hybrid, _) = scoring_set
        _allow_parts(monkeypatch, 3)
        _allow_cpus(monkeypatch, 3)
        started = []
        original_start = threading.Thread.start

        def start(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            original_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            prediction_scores(hybrid, samples)
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == threads

    def test_more_parts_than_cpus_under_fast_thread_switches(self, monkeypatch, scoring_set):
        """Four parts, switching threads every microsecond: each part still
        writes exactly its own slice."""
        samples, (hybrid, _) = scoring_set
        interval = sys.getswitchinterval()
        _allow_cpus(monkeypatch, 1)
        serial = prediction_scores(hybrid, samples).tobytes()
        _allow_parts(monkeypatch, len(samples) // MIN_PART)
        _allow_cpus(monkeypatch, len(samples) // MIN_PART)
        sys.setswitchinterval(1e-6)
        try:
            split = prediction_scores(hybrid, samples).tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert split == serial

    @pytest.mark.parametrize("cpus,last_too", [(2, False), (3, False), (3, True)],
                             ids=["2-part-1", "3-part-1", "3-parts-1-and-2"])
    def test_an_error_in_a_later_part_is_the_serial_error(self, monkeypatch, scoring_set,
                                                          cpus, last_too):
        """A forward that raises for a window of part 1 only (or also for
        one of part 2): the caller gets the serial path's exception, which
        names the earlier window, and every worker has ended."""
        samples, (hybrid, _) = scoring_set
        x_seq = np.array(samples.x_seq)
        x_seq[len(samples) // cpus + 1, 0, 0] = np.nan
        if last_too:
            x_seq[-1, 0, 0] = np.nan
        poisoned = SampleSet(x_seq, samples.x_static, samples.y, samples.days)
        raised_in = []
        original = hybrid.forward

        def forward(x_seq, x_static, **kwargs):
            bad = np.isnan(x_seq).any(axis=(1, 2))
            if bad.any():
                raised_in.append(threading.current_thread())
                raise NumericalError(f"non-finite window, static {x_static[bad][0].tolist()}")
            return original(x_seq, x_static, **kwargs)

        monkeypatch.setattr(hybrid, "forward", forward)
        _allow_parts(monkeypatch, cpus)
        _allow_cpus(monkeypatch, 1)
        with pytest.raises(NumericalError) as serial:
            prediction_scores(hybrid, poisoned)
        _allow_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        with pytest.raises(NumericalError) as split:
            prediction_scores(hybrid, poisoned)
        assert threading.active_count() == threads
        assert raised_in[-1] is not threading.current_thread()
        assert type(split.value) is type(serial.value)
        assert str(split.value) == str(serial.value)

    def test_numpy_error_state_reaches_every_part(self, monkeypatch):
        """Head weights that overflow every window: under ``np.errstate``
        no part warns, and without it every CPU count warns as one does."""
        model = tiny_hybrid(seed=73)
        model.head.w[...] = 1e308
        samples = random_samples(3 * MIN_PART + 7, tiny_dims(), seed=74)
        _allow_parts(monkeypatch, 3)
        raised, shown = {}, {}
        for cpus in (1, 2, 3):
            _allow_cpus(monkeypatch, cpus)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(over="ignore", invalid="ignore"):
                    assert not np.isfinite(prediction_scores(model, samples)).all()
                with pytest.raises(RuntimeWarning) as caught:
                    prediction_scores(model, samples)
            raised[cpus] = str(caught.value)
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("default")
                prediction_scores(model, samples)
            shown[cpus] = [(w.category, str(w.message), w.filename, w.lineno) for w in record]
        assert raised[1] == raised[2] == raised[3]
        assert shown[1] and shown[1] == shown[2] == shown[3]


class TestBatchedHybrid:
    B = 5

    def _batch(self, seed):
        return random_samples(self.B, tiny_dims(), seed=seed)

    def test_gradients_equal_sum_of_per_sample_gradients(self):
        model = tiny_hybrid(seed=27)
        samples = self._batch(28)
        upstream = SeededRng(29).normals(self.B)
        _, cache = model.forward(samples.x_seq, samples.x_static)
        grads = model.backward(cache, upstream)
        totals = {name: np.zeros_like(p) for name, p in model.params().items()}
        for i in range(self.B):
            _, cache_i = model.forward(samples.x_seq[i], samples.x_static[i])
            grads_i = model.backward(cache_i, upstream[i:i + 1])
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
        grads = model.backward(cache, dpred)
        for name, param in model.params().items():
            assert rel_error(grads[name], numeric_grad(loss, param)) < 1e-4, name

    def test_train_mode_draws_dropout_in_per_sample_order(self):
        model = tiny_hybrid(seed=32, dropout_p=0.5)
        samples = self._batch(33)
        batch_rng, sample_rng = SeededRng(34), SeededRng(34)
        scores, _ = model.forward(samples.x_seq, samples.x_static, rng=batch_rng)
        for i in range(self.B):
            solo, _ = model.forward(samples.x_seq[i], samples.x_static[i], rng=sample_rng)
            assert solo == scores[i]
        assert batch_rng.state == sample_rng.state

    def test_mismatched_batch_sizes_rejected(self):
        model = tiny_hybrid(seed=35)
        samples = self._batch(36)
        with pytest.raises(DimensionError):
            model.forward(samples.x_seq, samples.x_static[:-1])
        _, batch_cache = model.forward(samples.x_seq, samples.x_static)
        _, sample_cache = model.forward(samples.x_seq[0], samples.x_static[0])
        for cache, upstream in ((batch_cache, np.ones(self.B - 1)), (batch_cache, 1.0),
                                (sample_cache, 1.0)):
            with pytest.raises(DimensionError):
                model.backward(cache, upstream)
