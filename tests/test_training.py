import dataclasses

import numpy as np
import pytest

from conftest import random_samples, tiny_dims, tiny_hybrid
from riskcast import (
    AdamState,
    DataError,
    DimensionError,
    LinearRegressionModel,
    ParameterError,
    SeededRng,
    TrainConfig,
    adam_step,
    fit,
    gradient_check,
    grid_search,
    mse_loss,
)
from riskcast.tensor import derive_seed, float_bits
from riskcast.training import validation_mse


class TestMseLoss:
    def test_perfect_fit(self):
        loss, grad = mse_loss([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert loss == 0.0
        assert not grad.any()

    def test_direct_summation_example(self):
        loss, _ = mse_loss([1.0, 2.0], [0.0, 2.0])
        assert loss == 0.5

    def test_gradient_matches_finite_differences(self):
        rng = SeededRng(1)
        y = rng.normals(8)
        yhat = rng.normals(8)
        _, grad = mse_loss(y, yhat)
        eps = 1e-6
        for i in range(8):
            bumped = yhat.copy()
            bumped[i] += eps
            up, _ = mse_loss(y, bumped)
            bumped[i] -= 2 * eps
            down, _ = mse_loss(y, bumped)
            assert abs(grad[i] - (up - down) / (2 * eps)) < 1e-6

    def test_symmetry(self):
        rng = SeededRng(2)
        y, yhat = rng.normals(10), rng.normals(10)
        assert mse_loss(y, yhat)[0] == mse_loss(yhat, y)[0]

    def test_contract_errors(self):
        with pytest.raises(DataError):
            mse_loss([], [])
        with pytest.raises(DimensionError):
            mse_loss([1.0], [1.0, 2.0])


class TestAdam:
    def test_zero_gradient_leaves_param_unchanged(self):
        param = np.array([1.0, -2.0])
        state = AdamState.zeros_like(param)
        adam_step(state, param, np.zeros(2), TrainConfig())
        assert np.array_equal(param, [1.0, -2.0])
        assert state.t == 1

    def test_first_step_hand_value(self):
        """Scalar, g=1, lr=1e-3: m_hat = v_hat = 1, step = lr/(1+eps)."""
        param = np.array([0.0])
        state = AdamState.zeros_like(param)
        adam_step(state, param, np.array([1.0]), TrainConfig())
        expected = -1e-3 * 1.0 / (1.0 + 1e-8)
        assert abs(param[0] - expected) < 1e-15
        assert abs(param[0] - (-9.9999999e-4)) < 1e-12

    def test_constant_gradient_step_size_approaches_lr(self):
        cfg = TrainConfig(learning_rate=1e-3)
        param = np.array([0.0])
        state = AdamState.zeros_like(param)
        grad = np.array([3.7])
        previous = param[0]
        for _ in range(2000):
            previous = param[0]
            adam_step(state, param, grad, cfg)
        step = abs(param[0] - previous)
        assert abs(step - cfg.learning_rate) < 0.02 * cfg.learning_rate

    def test_update_commutes_with_flattening(self):
        rng = SeededRng(3)
        grad = rng.normals(6).reshape(2, 3)
        a = rng.normals(6).reshape(2, 3)
        b = a.copy().reshape(6)
        sa, sb = AdamState.zeros_like(a), AdamState.zeros_like(b)
        cfg = TrainConfig()
        for _ in range(5):
            adam_step(sa, a, grad, cfg)
            adam_step(sb, b, grad.reshape(6), cfg)
        assert np.array_equal(a.reshape(6), b)

    def test_shape_mismatch(self):
        param = np.zeros(3)
        with pytest.raises(DimensionError):
            adam_step(AdamState.zeros_like(param), param, np.zeros(4), TrainConfig())


def _linear_sets(n_train=40, n_val=20):
    """Train targets follow +x, validation targets follow -x, so validation
    loss rises monotonically as training progresses."""
    dims = tiny_dims()
    train = random_samples(n_train, dims, seed=10)
    val = random_samples(n_val, dims, seed=11)
    train.y = train.x_static[:, 0].copy()
    val.y = -val.x_static[:, 0].copy()
    return train, val, dims


class _TrainableLinear(LinearRegressionModel):
    """The linear model with a ``backward``, so that ``fit`` and
    ``gradient_check`` can run on a model whose gradient is exact.  The
    product fits the linear model by ``linreg_fit`` and needs none."""

    def forward(self, x_seq, x_static, rng=None, cache=True):
        """The product's scores, with the rows ``[x_seq flattened, x_static]``
        as the cache."""
        scores, _ = super().forward(x_seq, x_static, rng, cache)
        n = np.size(scores)
        return scores, np.hstack([np.reshape(x_seq, (n, -1)), np.reshape(x_static, (n, -1))])

    def backward(self, flat: np.ndarray, dscores) -> dict[str, np.ndarray]:
        """Parameter gradients from the ``[B]`` score gradient; ``flat`` is the cache."""
        dscores = np.asarray(dscores, dtype=np.float64)
        if dscores.shape != (flat.shape[0],):
            raise DimensionError(
                f"upstream score gradient must be [{flat.shape[0]}], got {list(dscores.shape)}"
            )
        return {"weights": dscores @ flat, "bias": np.array([dscores.sum()])}


def _fresh_linear_model(dims):
    n_features = dims.window * dims.f_seq + dims.f_static
    return _TrainableLinear(np.zeros(n_features), 0.0)


class TestFit:
    def test_planted_overfitting_stops_and_restores(self):
        train, val, dims = _linear_sets()
        model = _fresh_linear_model(dims)
        cfg = TrainConfig(learning_rate=0.05, max_epochs=50, batch_size=8,
                          patience=1, seed=5)
        model, log = fit(model, train, val, cfg)
        assert log.stopped_early
        assert log.best_epoch == 1
        assert log.n_epochs == 2
        assert log.val_mse[1] > log.val_mse[0]
        restored = validation_mse(model, val)
        assert restored == log.val_mse[0]

    def test_zero_epochs_is_a_no_op(self):
        train, val, dims = _linear_sets()
        model = _fresh_linear_model(dims)
        before = {k: v.copy() for k, v in model.params().items()}
        model, log = fit(model, train, val, TrainConfig(max_epochs=0))
        assert log.n_epochs == 0 and log.best_epoch == 0
        for name, value in model.params().items():
            assert np.array_equal(value, before[name])

    def test_same_seed_gives_bitwise_identical_parameters(self):
        dims = tiny_dims()
        train = random_samples(60, dims, seed=20)
        val = random_samples(20, dims, seed=21)
        cfg = TrainConfig(learning_rate=3e-3, max_epochs=6, batch_size=16,
                          patience=10, seed=99)
        m1, _ = fit(tiny_hybrid(seed=99), train, val, cfg)
        m2, _ = fit(tiny_hybrid(seed=99), train, val, cfg)
        for name in m1.params():
            assert np.array_equal(m1.params()[name], m2.params()[name])

    def test_restored_validation_equals_logged_minimum(self):
        dims = tiny_dims()
        train = random_samples(60, dims, seed=22)
        val = random_samples(25, dims, seed=23)
        cfg = TrainConfig(learning_rate=5e-3, max_epochs=20, batch_size=16,
                          patience=4, seed=7)
        model, log = fit(tiny_hybrid(seed=7), train, val, cfg)
        assert validation_mse(model, val) == min(log.val_mse)
        assert log.best_val_mse == min(log.val_mse)

    def test_empty_sets_rejected(self):
        dims = tiny_dims()
        samples = random_samples(10, dims, seed=1)
        empty = samples.subset(0, 0)
        with pytest.raises(DataError):
            fit(tiny_hybrid(), empty, samples, TrainConfig())
        with pytest.raises(DataError):
            fit(tiny_hybrid(), samples, empty, TrainConfig())

    def test_epoch_log_roundtrips_as_csv(self, tmp_path):
        train, val, dims = _linear_sets()
        _, log = fit(_fresh_linear_model(dims), train, val,
                     TrainConfig(learning_rate=0.01, max_epochs=3, patience=10, seed=1))
        path = tmp_path / "epochs.csv"
        log.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_mse,val_mse"
        assert len(lines) == 1 + log.n_epochs
        epoch, train_mse, val_mse = lines[1].split(",")
        assert int(epoch) == 1
        assert float(train_mse) == log.train_mse[0]
        assert float(val_mse) == log.val_mse[0]


class TestGridSearch:
    def _data(self):
        dims = tiny_dims()
        train = random_samples(50, dims, seed=30,
                               target_fn=lambda xs, xst: 0.5 + 0.3 * xst[0])
        val = random_samples(20, dims, seed=31,
                             target_fn=lambda xs, xst: 0.5 + 0.3 * xst[0])
        return train, val, dims

    def _factory(self, dims):
        def factory(hidden_size, seed):
            return tiny_hybrid(seed=seed, hidden_size=hidden_size)
        return factory

    def test_singleton_grid_matches_plain_fit(self):
        train, val, dims = self._data()
        cfg = TrainConfig(max_epochs=4, batch_size=16, patience=10, seed=12)
        result = grid_search(self._factory(dims), train, val, cfg, [(2e-3, 3)])
        point_seed = derive_seed(12, float_bits(2e-3), 3)
        direct_cfg = dataclasses.replace(cfg, learning_rate=2e-3, seed=point_seed)
        direct, _ = fit(tiny_hybrid(seed=point_seed, hidden_size=3), train, val, direct_cfg)
        for name in direct.params():
            assert np.array_equal(result.model.params()[name], direct.params()[name])

    def test_divergent_learning_rate_loses(self):
        train, val, dims = self._data()
        cfg = TrainConfig(max_epochs=5, batch_size=16, patience=10, seed=12)
        result = grid_search(self._factory(dims), train, val, cfg, [(1e-3, 3), (10.0, 3)])
        assert result.learning_rate == 1e-3
        assert len(result.trials) == 2
        assert result.trials[0].val_mse < result.trials[1].val_mse

    @pytest.mark.parametrize("first", [0, 1])
    def test_fully_diverged_point_loses_wherever_it_sits(self, first):
        """A point whose every epoch has a non-finite validation MSE ranks
        last, also when it is the first point of the grid."""
        train, val, dims = self._data()
        grid = [(1e300, 3), (1e-3, 3)]
        if first:
            grid.reverse()
        cfg = TrainConfig(max_epochs=2, batch_size=16, patience=10, seed=12)
        result = grid_search(self._factory(dims), train, val, cfg, grid)
        assert result.learning_rate == 1e-3
        assert result.log.best_epoch > 0
        assert [t.val_mse for t in result.trials if t.learning_rate == 1e300] == [np.inf]

    def test_selection_is_order_independent(self):
        train, val, dims = self._data()
        grid = [(1e-3, 3), (5e-3, 4)]
        cfg = TrainConfig(max_epochs=4, batch_size=16, patience=10, seed=12)
        res_a = grid_search(self._factory(dims), train, val, cfg, grid)
        res_b = grid_search(self._factory(dims), train, val, cfg, list(reversed(grid)))
        assert (res_a.learning_rate, res_a.hidden_size) == (res_b.learning_rate, res_b.hidden_size)
        for name in res_a.model.params():
            assert np.array_equal(res_a.model.params()[name], res_b.model.params()[name])

    def test_empty_grid_rejected(self):
        train, val, dims = self._data()
        with pytest.raises(ParameterError):
            grid_search(self._factory(dims), train, val, TrainConfig(), [])


class TestGradientCheck:
    def test_linear_model_is_exact_to_roundoff(self):
        rng = SeededRng(50)
        model = _TrainableLinear(rng.normals(9), 0.3)
        x_seq = rng.normals(6).reshape(3, 2)
        x_static = rng.normals(3)
        result = gradient_check(model, x_seq, x_static, target=0.4)
        assert result.max_rel_error < 1e-9

    def test_tiny_hybrid_passes(self):
        rng = SeededRng(51)
        dims = tiny_dims()
        model = tiny_hybrid(seed=51)
        x_seq = rng.normals(dims.window * dims.f_seq).reshape(dims.window, dims.f_seq)
        result = gradient_check(model, x_seq, rng.normals(dims.f_static), target=0.7)
        assert result.max_rel_error < 1e-4
        assert result.n_params == sum(p.size for p in model.params().values())

    def test_check_is_deterministic_despite_dropout(self):
        """Dropout is off during the check, which keeps the loss deterministic."""
        rng = SeededRng(52)
        dims = tiny_dims()
        model = tiny_hybrid(seed=52, dropout_p=0.5)
        x_seq = rng.normals(dims.window * dims.f_seq).reshape(dims.window, dims.f_seq)
        x_static = rng.normals(dims.f_static)
        r1 = gradient_check(model, x_seq, x_static, target=0.2)
        r2 = gradient_check(model, x_seq, x_static, target=0.2)
        assert r1.max_rel_error == r2.max_rel_error

    def test_oversized_model_rejected(self):
        model = LinearRegressionModel(np.zeros(20_000), 0.0)
        with pytest.raises(ParameterError):
            gradient_check(model, np.zeros((100, 100)), np.zeros(10_000), 0.0)


def test_small_lr_first_epoch_batches_mostly_improve():
    """With lr=1e-4 almost every Adam step lowers the loss on its own batch."""
    from riskcast.training import AdamState, adam_step

    dims = tiny_dims(hidden_size=4)
    samples = random_samples(160, dims, seed=60,
                             target_fn=lambda xs, xst: 0.4 + 0.2 * np.tanh(xst[0]))
    model = tiny_hybrid(seed=60, hidden_size=4, dropout_p=0.0)
    cfg = TrainConfig(learning_rate=1e-4, batch_size=16)
    params = model.params()
    states = {k: AdamState.zeros_like(v) for k, v in params.items()}
    rng = SeededRng(61)
    increased = 0
    n_batches = 0

    def batch_loss(idx):
        preds = np.array([model.forward(samples.x_seq[i], samples.x_static[i])[0]
                          for i in idx])
        return mse_loss(samples.y[idx], preds)

    for start in range(0, len(samples), cfg.batch_size):
        idx = list(range(start, min(start + cfg.batch_size, len(samples))))
        loss_before, dpred = batch_loss(idx)
        grads_total = {k: np.zeros_like(v) for k, v in params.items()}
        for j, i in enumerate(idx):
            _, cache = model.forward(samples.x_seq[i], samples.x_static[i], rng=rng)
            grads = model.backward(cache, dpred[j:j + 1])
            for name in grads_total:
                grads_total[name] += grads[name]
        for name in params:
            adam_step(states[name], params[name], grads_total[name], cfg)
        loss_after, _ = batch_loss(idx)
        n_batches += 1
        if loss_after > loss_before:
            increased += 1
    assert increased <= 0.05 * n_batches
