"""Loss, optimizer, training loop with early stopping, grid search, and the
gradient-check harness.

Training is deterministic end to end: weight initialization comes from the
model's own seed, while batch shuffling and dropout masks draw from streams
derived from ``TrainConfig.seed``, so data order never perturbs the init.
Grid search fits its points in worker processes (:mod:`riskcast.workers`);
each point has its own derived seed, so the result is the same for any
worker count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, DimensionError, NumericalError, ParameterError
from .features import SampleSet
from .models import prediction_scores
from .tensor import SeededRng, check_seed, derive_seed, float_bits
from .workers import run_tasks

_SHUFFLE_TAG = 0x53484446
_DROPOUT_TAG = 0x44524F50

# Adam's moment decay rates and denominator offset (Kingma & Ba 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def mse_loss(y, yhat) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient with respect to the predictions.

    ``L = (1/N) sum (y_i - yhat_i)^2`` and ``dL/dyhat_i = -2 (y_i - yhat_i) / N``.
    """
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.ndim != 1 or yhat.ndim != 1:
        raise DimensionError("mse_loss expects 1-d vectors")
    if y.size == 0:
        raise DataError("mse_loss over an empty vector")
    if y.shape != yhat.shape:
        raise DimensionError(f"mse_loss length mismatch: {y.size} vs {yhat.size}")
    diff = y - yhat
    loss = float(diff @ diff) / y.size
    return loss, -2.0 * diff / y.size


@dataclass
class AdamState:
    """First/second moment estimates and step counter for one parameter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param))


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 200
    batch_size: int = 32
    patience: int = 10
    seed: int = 42

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ParameterError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )
        if self.max_epochs < 0:
            raise ParameterError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ParameterError(f"patience must be >= 1, got {self.patience}")
        check_seed(self.seed)


def adam_step(state: AdamState, param: np.ndarray, grad: np.ndarray,
              cfg: TrainConfig) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; mutates ``state`` and ``param`` in place.

    ``param -= lr * m_hat / (sqrt(v_hat) + ADAM_EPSILON)``.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != param.shape or state.m.shape != param.shape:
        raise DimensionError(
            f"adam shapes disagree: param {list(param.shape)}, grad {list(grad.shape)}, "
            f"state {list(state.m.shape)}"
        )
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.t)
    param -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return state, param


@dataclass
class TrainLog:
    """Per-epoch losses plus where early stopping landed.

    ``best_epoch`` is 1-based; 0 means no epochs ran.
    """

    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False

    @property
    def n_epochs(self) -> int:
        return len(self.val_mse)

    @property
    def best_val_mse(self) -> float:
        if self.best_epoch == 0:
            raise DataError("no epochs were run")
        return self.val_mse[self.best_epoch - 1]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("epoch,train_mse,val_mse\n")
            for i, (tr, va) in enumerate(zip(self.train_mse, self.val_mse), start=1):
                handle.write(f"{i},{tr!r},{va!r}\n")


def _snapshot(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: value.copy() for name, value in params.items()}


def _restore(params: dict[str, np.ndarray], saved: dict[str, np.ndarray]) -> None:
    for name, value in params.items():
        np.copyto(value, saved[name])


def validation_mse(model, samples: SampleSet) -> float:
    return mse_loss(samples.y, prediction_scores(model, samples))[0]


def fit(model, train: SampleSet, val: SampleSet, cfg: TrainConfig):
    """Mini-batch Adam with early stopping on validation MSE.

    Each minibatch makes one batched forward and one backward call; its
    dropout masks draw from the stream in sample order.

    Stops once the validation MSE has failed to improve for ``cfg.patience``
    consecutive epochs, then restores the parameters of the best epoch.
    Returns ``(model, TrainLog)``.
    """
    if len(train) == 0 or len(val) == 0:
        raise DataError("fit requires nonempty train and validation sets")
    log = TrainLog()
    if cfg.max_epochs == 0:
        return model, log

    shuffle_rng = SeededRng(derive_seed(cfg.seed, _SHUFFLE_TAG))
    dropout_rng = SeededRng(derive_seed(cfg.seed, _DROPOUT_TAG))
    params = model.params()
    states = {name: AdamState.zeros_like(p) for name, p in params.items()}
    best_val = np.inf
    best_params: dict[str, np.ndarray] | None = None
    epochs_since_best = 0
    order = list(range(len(train)))

    # A diverging run overflows on the way and ends at an inf validation MSE,
    # which loses in grid search instead of raising; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            shuffle_rng.shuffle(order)
            epoch_sse = 0.0
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                preds, cache = model.forward(train.x_seq[batch], train.x_static[batch],
                                             rng=dropout_rng)
                batch_loss, dpred = mse_loss(train.y[batch], preds)
                epoch_sse += batch_loss * len(batch)
                grads = model.backward(cache, dpred)
                for name in params:
                    adam_step(states[name], params[name], grads[name], cfg)

            val_loss = validation_mse(model, val)
            if not np.isfinite(val_loss):
                val_loss = float("inf")
            log.train_mse.append(epoch_sse / len(train))
            log.val_mse.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best_params = _snapshot(params)
                log.best_epoch = epoch
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= cfg.patience:
                    log.stopped_early = True
                    break

    if best_params is not None:
        _restore(params, best_params)
    return model, log


@dataclass
class GridTrial:
    learning_rate: float
    hidden_size: int
    val_mse: float


@dataclass
class GridSearchResult:
    learning_rate: float
    hidden_size: int
    model: object
    log: TrainLog
    val_mse: float
    trials: list[GridTrial]


def grid_search(model_factory, train: SampleSet, val: SampleSet, cfg: TrainConfig,
                grid: list[tuple[float, int]]) -> GridSearchResult:
    """Train one model per (learning_rate, hidden_size) grid point and keep
    the lowest validation MSE; ties break toward the earliest ``grid`` entry,
    and a diverged point (an inf validation MSE) ranks last.

    Every point derives its own seed from ``cfg.seed`` and the point's
    values, so results do not depend on grid enumeration order.
    ``model_factory(hidden_size, seed)`` must return a fresh model.  The
    points are fitted in worker processes (:func:`~riskcast.workers.run_tasks`),
    which hand back each point's fitted model and ``TrainLog``; the result
    is bitwise the same for any worker count, and the exception of the
    earliest point that raises reaches the caller.
    """
    if not grid:
        raise ParameterError("grid search requires a nonempty grid")

    def fit_point(lr, hidden):
        seed = derive_seed(cfg.seed, float_bits(lr), hidden)
        model, log = fit(model_factory(hidden, seed), train, val,
                         replace(cfg, learning_rate=lr, seed=seed))
        val_mse = log.best_val_mse if log.best_epoch else validation_mse(model, val)
        if not np.isfinite(val_mse):
            val_mse = float("inf")  # a diverged point loses, wherever it sits in the grid
        return model, log, val_mse

    fitted = run_tasks([functools.partial(fit_point, lr, hidden) for lr, hidden in grid])
    trials = [GridTrial(lr, hidden, val_mse) for (lr, hidden), (_, _, val_mse) in zip(grid, fitted)]
    best = min(range(len(grid)), key=lambda i: trials[i].val_mse)  # the first of equals
    return GridSearchResult(*grid[best], *fitted[best], trials)


@dataclass
class GradCheckResult:
    max_rel_error: float
    worst_param: str
    n_params: int


def gradient_check(model, x_seq, x_static, target: float,
                   epsilon: float = 1e-5) -> GradCheckResult:
    """Compare analytic gradients against central finite differences.

    The loss is the squared error on one sample, evaluated without an rng,
    so dropout is off and cannot perturb the comparison.  Relative error is
    ``|a - n| / max(|a|, |n|, 1e-8)``, maximized over every coordinate of
    every parameter.
    """
    params = model.params()
    total = sum(p.size for p in params.values())
    if total >= 10_000:
        raise ParameterError(
            f"gradient check is meant for desk-scale models (< 10000 parameters), got {total}"
        )

    def loss_value() -> float:
        score, _ = model.forward(x_seq, x_static)
        return mse_loss(np.array([target]), np.array([score]))[0]

    score, cache = model.forward(x_seq, x_static)
    base_loss, dpred = mse_loss(np.array([target]), np.array([score]))
    if not np.isfinite(base_loss):
        raise NumericalError("loss is non-finite at the evaluation point")
    analytic = model.backward(cache, dpred)

    worst = 0.0
    worst_name = ""
    for name in sorted(params):
        param = params[name]
        grad = analytic[name]
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + epsilon
            loss_plus = loss_value()
            flat[i] = saved - epsilon
            loss_minus = loss_value()
            flat[i] = saved
            if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
                raise NumericalError(
                    f"non-finite loss while perturbing parameter {name}[{i}]"
                )
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            rel = float(abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8))
            if rel > worst:
                worst = rel
                worst_name = f"{name}[{i}]"
    return GradCheckResult(max_rel_error=worst, worst_param=worst_name, n_params=total)
