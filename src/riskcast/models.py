"""Model assemblies: the Conv1D+LSTM hybrid regressor and the linear baseline.

Both models share a small duck-typed surface used by the trainer, the
gradient checker, and persistence: ``params()`` returning live named
parameter arrays, ``forward(x_seq, x_static, mode, rng)`` returning
``(scores, cache)``, and ``backward(cache, dscores)`` returning
``(param_grads, dx_seq)``.

Inputs are batch-first: ``x_seq`` is ``[B x T x F]`` and ``x_static`` is
``[B x S]``, giving ``B`` scores, parameter gradients summed over the batch
and ``dx_seq`` ``[B x T x F]``.  One sample given as ``[T x F]`` and ``[S]``
is the B=1 view of the same code: it gives a float score, takes a float
``dscore`` and returns ``dx_seq`` ``[T x F]``.  A sample's score does not
depend on which other samples share its batch, bit for bit.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, NumericalError
from .layers import (
    Conv1DLayer,
    DenseLayer,
    DropoutSpec,
    LSTMCell,
    _block_matmul,
    dropout_backward,
    dropout_forward,
)
from .features import SampleSet
from .preprocess import Preprocess
from .tensor import SeededRng, derive_seed

# Windows per batched forward call when scoring a whole set: large enough to
# amortise the per-step Python work of the LSTM, small enough that the
# activation caches of one call stay a few MB.
SCORE_CHUNK = 64


@dataclass(frozen=True)
class ModelDims:
    """Geometry of the hybrid model's inputs and internals."""

    window: int                # days per sample (T)
    f_market: int              # market channels per day
    f_sentiment: int           # sentiment channels per day
    f_static: int              # static features per sample
    conv_channels: int = 8
    kernel_width: int = 3
    hidden_size: int = 32

    def __post_init__(self):
        if min(self.window, self.f_market, self.f_sentiment, self.f_static,
               self.conv_channels, self.kernel_width, self.hidden_size) < 1:
            raise DimensionError(f"all model dims must be >= 1: {self}")

    @property
    def f_seq(self) -> int:
        return self.f_market + self.f_sentiment

    @property
    def lstm_input(self) -> int:
        # Market channels pass straight through; conv output joins per day.
        return self.f_market + self.conv_channels

    @property
    def head_input(self) -> int:
        return self.hidden_size + self.f_static


@dataclass
class HybridCache:
    conv_cache: object
    conv_pre: np.ndarray     # conv output before relu, [B x T x C_out]
    lstm_cache: object
    dropout_mask: np.ndarray | None
    head_cache: object


class HybridModel:
    """Conv1D branch over sentiment channels feeding an LSTM, dense head.

    Per sample: (1) the sentiment block of ``x_seq`` is left zero-padded by
    ``kernel_width - 1`` days and convolved so each day keeps an aligned
    feature vector, then passed through relu; (2) each day's market channels
    are concatenated with its conv features and run through the LSTM from a
    zero state; (3) its last hidden state is dropout-regularized (train mode
    only) and concatenated with the static features; (4) a dense head emits
    one unbounded risk score (regression, no output activation).
    """

    kind = "hybrid"

    def __init__(self, dims: ModelDims, conv: Conv1DLayer, lstm: LSTMCell,
                 head: DenseLayer, dropout: DropoutSpec,
                 preprocess: Preprocess | None = None):
        if conv.c_in != dims.f_sentiment or conv.c_out != dims.conv_channels \
                or conv.k != dims.kernel_width:
            raise DimensionError("conv layer does not match declared dims")
        if lstm.input_size != dims.lstm_input or lstm.hidden_size != dims.hidden_size:
            raise DimensionError("lstm cell does not match declared dims")
        if head.w.shape != (1, dims.head_input):
            raise DimensionError("head layer does not match declared dims")
        self.dims = dims
        self.conv = conv
        self.lstm = lstm
        self.head = head
        self.dropout = dropout
        self.preprocess = preprocess

    @classmethod
    def initialize(cls, dims: ModelDims, seed: int, dropout_p: float = 0.2) -> "HybridModel":
        """Weights uniform on (-1/sqrt(fan_in), +1/sqrt(fan_in)), zero biases.

        Draw order is fixed (conv kernels, lstm w_x, lstm w_h, head w) so a
        seed fully determines the parameters.
        """
        rng = SeededRng(derive_seed(seed, 0x494E4954))  # weight-init stream
        conv = Conv1DLayer.initialize(dims.f_sentiment, dims.conv_channels,
                                      dims.kernel_width, rng)
        lstm = LSTMCell.initialize(dims.lstm_input, dims.hidden_size, rng)
        head = DenseLayer.initialize(dims.head_input, 1, rng)
        return cls(dims, conv, lstm, head, DropoutSpec(dropout_p))

    def params(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed by stable names."""
        return {
            "conv.kernels": self.conv.kernels,
            "conv.bias": self.conv.bias,
            "lstm.w_x": self.lstm.w_x,
            "lstm.w_h": self.lstm.w_h,
            "lstm.b": self.lstm.b,
            "head.w": self.head.w,
            "head.b": self.head.b,
        }

    def _validate_batch(self, x_seq: np.ndarray, x_static: np.ndarray) -> None:
        d = self.dims
        if x_seq.ndim != 3 or x_seq.shape[1:] != (d.window, d.f_seq):
            raise DimensionError(
                f"x_seq must be [B x {d.window} x {d.f_seq}] or [{d.window} x {d.f_seq}], "
                f"got {list(x_seq.shape)}"
            )
        if x_static.shape != (x_seq.shape[0], d.f_static):
            raise DimensionError(
                f"x_static must be [{x_seq.shape[0]} x {d.f_static}] (or [{d.f_static}] "
                f"for one sample), got {list(x_static.shape)}"
            )

    def forward(self, x_seq, x_static, mode: str = "infer",
                rng: SeededRng | None = None) -> tuple[np.ndarray | float, HybridCache]:
        x_seq = np.asarray(x_seq, dtype=np.float64)
        x_static = np.asarray(x_static, dtype=np.float64)
        single = x_seq.ndim == 2
        if single:
            x_seq, x_static = x_seq[None], x_static[None]
        self._validate_batch(x_seq, x_static)
        d = self.dims
        n = x_seq.shape[0]
        pad = d.kernel_width - 1
        sent = x_seq[:, :, d.f_market:]
        if pad:
            sent = np.concatenate([np.zeros((n, pad, d.f_sentiment)), sent], axis=1)
        conv_pre, conv_cache = self.conv.forward(sent)
        lstm_in = np.concatenate([x_seq[:, :, :d.f_market], np.maximum(conv_pre, 0.0)], axis=2)
        h_last, lstm_cache = self.lstm.forward(lstm_in)
        h_last, mask = dropout_forward(self.dropout, h_last, rng, mode)
        out, head_cache = self.head.forward(np.concatenate([h_last, x_static], axis=1))
        cache = HybridCache(conv_cache=conv_cache, conv_pre=conv_pre, lstm_cache=lstm_cache,
                            dropout_mask=mask, head_cache=head_cache)
        scores = out[:, 0]
        return (float(scores[0]) if single else scores), cache

    def backward(self, cache: HybridCache, dscore) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Chain rule through head, dropout, BPTT, the concat split, relu,
        and the conv branch.  Returns (param gradients, dL/dx_seq)."""
        d = self.dims
        n = cache.conv_pre.shape[0]
        single = np.ndim(dscore) == 0
        dscores = np.atleast_1d(np.asarray(dscore, dtype=np.float64))
        if dscores.shape != (n,):
            raise DimensionError(
                f"upstream score gradient must be [{n}], got {list(dscores.shape)}"
            )
        dhead_in, dw_head, db_head = self.head.backward(cache.head_cache, dscores[:, None])
        dh_last = dropout_backward(cache.dropout_mask, dhead_in[:, :d.hidden_size])
        dlstm_in, dw_x, dw_h, db = self.lstm.backward(cache.lstm_cache, dh_last)
        dconv_pre = dlstm_in[:, :, d.f_market:] * (cache.conv_pre > 0)
        dpadded, dkernels, dbias = self.conv.backward(cache.conv_cache, dconv_pre)
        pad = d.kernel_width - 1
        dx_seq = np.concatenate([dlstm_in[:, :, :d.f_market], dpadded[:, pad:]], axis=2)
        grads = {
            "conv.kernels": dkernels,
            "conv.bias": dbias,
            "lstm.w_x": dw_x,
            "lstm.w_h": dw_h,
            "lstm.b": db,
            "head.w": dw_head,
            "head.b": db_head,
        }
        return grads, (dx_seq[0] if single else dx_seq)


class LinearRegressionModel:
    """Ordinary linear regression over the flattened sample vector.

    The feature vector is ``[x_seq flattened row-major, x_static]`` and the
    ridge term is numerical jitter only, not a tuned regularizer.
    """

    kind = "linear"

    def __init__(self, weights, bias: float, ridge_lambda: float = 1e-8,
                 preprocess: Preprocess | None = None):
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 1:
            raise DimensionError(f"weights must be 1-d, got {list(self.weights.shape)}")
        self.bias = np.array([float(bias)])
        self.ridge_lambda = float(ridge_lambda)
        self.preprocess = preprocess

    @property
    def n_features(self) -> int:
        return self.weights.size

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def forward(self, x_seq, x_static, mode: str = "infer",
                rng: SeededRng | None = None) -> tuple[np.ndarray | float, tuple]:
        x_seq = np.asarray(x_seq, dtype=np.float64)
        x_static = np.asarray(x_static, dtype=np.float64)
        seq_shape = x_seq.shape
        single = x_static.ndim == 1
        if single:
            x_seq, x_static = x_seq[None], x_static[None]
        if x_seq.ndim != 3 or x_static.ndim != 2 or x_seq.shape[0] != x_static.shape[0]:
            raise DimensionError(
                f"x_seq {list(seq_shape)} and x_static {list(np.shape(x_static))} must be "
                "[B x T x F] and [B x S], or one [T x F] and [S] sample"
            )
        n = x_seq.shape[0]
        flat = np.concatenate([x_seq.reshape(n, -1), x_static], axis=1)
        if flat.shape[1] != self.n_features:
            raise DimensionError(
                f"sample flattens to {flat.shape[1]} features, model expects {self.n_features}"
            )
        scores = _block_matmul(flat, self.weights[:, None])[:, 0] + self.bias[0]
        return (float(scores[0]) if single else scores), (flat, seq_shape)

    def backward(self, cache: tuple, dscore) -> tuple[dict[str, np.ndarray], np.ndarray]:
        flat, seq_shape = cache
        dscores = np.atleast_1d(np.asarray(dscore, dtype=np.float64))
        if dscores.shape != (flat.shape[0],):
            raise DimensionError(
                f"upstream score gradient must be [{flat.shape[0]}], got {list(dscores.shape)}"
            )
        grads = {"weights": dscores @ flat, "bias": np.array([dscores.sum()])}
        n_seq = seq_shape[-2] * seq_shape[-1]
        dx_seq = np.multiply.outer(dscores, self.weights[:n_seq]).reshape(seq_shape)
        return grads, dx_seq


def _design(samples: SampleSet) -> np.ndarray:
    """One row per sample: ``[x_seq flattened row-major, x_static, 1]``."""
    n = len(samples)
    return np.hstack([samples.x_seq.reshape(n, -1), samples.x_static, np.ones((n, 1))])


def linreg_fit(samples: SampleSet, ridge_lambda: float = 1e-8) -> LinearRegressionModel:
    """Exact ridge-jittered normal-equations solve on flattened samples."""
    n = len(samples)
    if n < 2:
        raise DataError(f"linear fit needs at least 2 samples, got {n}")
    design = _design(samples)
    gram = design.T @ design + ridge_lambda * np.eye(design.shape[1])
    rhs = design.T @ samples.y
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"normal equations are singular even with jitter: {exc}") from exc
    if not np.all(np.isfinite(beta)):
        raise NumericalError("normal equations produced non-finite coefficients")
    return LinearRegressionModel(beta[:-1], beta[-1], ridge_lambda)


def linreg_objective(model: LinearRegressionModel, samples: SampleSet) -> float:
    """Ridge objective ||y - Zb||^2 + lambda ||b||^2 (bias included)."""
    beta = np.concatenate([model.weights, model.bias])
    resid = samples.y - _design(samples) @ beta
    return float(resid @ resid + model.ridge_lambda * (beta @ beta))


def prediction_scores(model, samples: SampleSet) -> np.ndarray:
    """Inference-mode scores, one per sample, order preserved.

    Windows go through the model's batched forward ``SCORE_CHUNK`` at a
    time, so peak memory stays flat however many windows are scored.
    """
    scores = np.empty(len(samples))
    for start in range(0, len(samples), SCORE_CHUNK):
        stop = start + SCORE_CHUNK
        # Index the result so that no chunk's cache outlives its call.
        scores[start:stop] = model.forward(samples.x_seq[start:stop],
                                           samples.x_static[start:stop], mode="infer")[0]
    return scores


def predict_batch(model, samples: SampleSet) -> list[tuple[dt.date, float]]:
    """Inference-mode ``(date, score)`` pairs, one per sample, order preserved."""
    return list(zip(samples.dates, prediction_scores(model, samples).tolist()))
