"""Model assemblies: the Conv1D+LSTM hybrid regressor and the linear baseline.

Both models share a small duck-typed surface used by scoring and
persistence: ``params()`` returning live named parameter arrays, and
``forward(x_seq, x_static, rng, cache)`` returning ``(scores, cache)``; given
an ``rng``, the hybrid model's forward draws dropout masks from it.  The
hybrid model, which the trainer and the gradient checker take, adds
``backward(cache, dscores)`` returning the parameter gradients by name; with
``cache=False`` its forward builds nothing for backward and returns ``None``
in its place, and the scores are bitwise the same.  The linear model is
fitted exactly by :func:`linreg_fit`, has no backward, and its forward
always returns ``None`` for the cache.

Inputs are batch-first: ``x_seq`` is ``[B x T x F]`` and ``x_static`` is
``[B x S]``, giving ``B`` scores; backward takes their ``[B]`` gradient and
sums the parameter gradients over the batch (no input gradient is built).
One sample given as ``[T x F]`` and ``[S]`` is the B=1 view of the same
code: a float score, and a cache that takes a ``[1]`` gradient.  A sample's
score does not depend on which other samples share its batch, bit for bit.
"""

from __future__ import annotations

import contextvars
import datetime as dt
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, NumericalError, ParameterError
from .layers import (
    BLOCK_ROWS,
    Conv1DLayer,
    DenseLayer,
    DropoutSpec,
    LSTMCell,
    _block_matmul,
    dropout_backward,
    dropout_forward,
)
from .features import SampleSet
from .tensor import SeededRng, derive_seed
from .workers import usable_cpus

# Windows per batched forward call when scoring a whole set: large enough to
# amortise the per-step Python work of the LSTM, small enough that one call's
# LSTM buffers fit a 2 MB L2 cache.  Scoring keeps no activation history, so
# a 256-window chunk needs about 1.1 MB of them at F=15, H=32, the step's
# product scratch included (a cached 64-window call needs about 2.7 MB).
# Each part that ``prediction_scores`` scores at the same time holds its own
# chunk's buffers, so two parts hold about 2.2 MB.
SCORE_CHUNK = 256

# Fewest windows per part when ``prediction_scores`` splits a set across
# CPUs.  The per-step Python work holds the interpreter lock, so parts this
# small do not run at once: on a 2-CPU host two parts were slower than one
# below about 8,000 windows (by about 10% at 512 and 1,917 windows, and
# about even at 7,917) and faster only at 19,917 windows (by 6%).
MIN_PART = 128

# Most parts ``prediction_scores`` scores at the same time.  On the 2-CPU
# host above, two parts were faster than one only at about 20,000 windows;
# more were never measured, and since the parts share the interpreter lock
# between numpy calls, more threads are not known to help.  The cap also
# bounds the threads a call starts on a large host whose CPU quota is
# smaller than its affinity mask.
MAX_PARTS = 2


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
    head_in: np.ndarray      # the dense head's input, its cache


class HybridModel:
    """Conv1D branch over sentiment channels feeding an LSTM, dense head.

    Per sample: (1) the sentiment block of ``x_seq`` is left zero-padded by
    ``kernel_width - 1`` days and convolved so each day keeps an aligned
    feature vector, then passed through relu; (2) each day's market channels
    are concatenated with its conv features and run through the LSTM from a
    zero state; (3) its last hidden state is dropout-regularized (only when
    forward is given an ``rng``) and concatenated with the static features;
    (4) a dense head emits one unbounded risk score (regression, no output
    activation).
    """

    kind = "hybrid"

    def __init__(self, dims: ModelDims, conv: Conv1DLayer, lstm: LSTMCell,
                 head: DenseLayer, dropout: DropoutSpec):
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
        self.preprocess = None  # the recipe, set by train and by load_model

    @classmethod
    def initialize(cls, dims: ModelDims, seed: int,
                   dropout_p: float = DropoutSpec.p) -> "HybridModel":
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

    def forward(self, x_seq, x_static, rng: SeededRng | None = None,
                cache: bool = True) -> tuple[np.ndarray | float, HybridCache | None]:
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
        h_last, lstm_cache = self.lstm.forward(lstm_in, cache=cache)
        h_last, mask = dropout_forward(self.dropout, h_last, rng)
        out, head_in = self.head.forward(np.concatenate([h_last, x_static], axis=1))
        scores = float(out[0, 0]) if single else out[:, 0]
        if not cache:
            return scores, None
        return scores, HybridCache(conv_cache=conv_cache, conv_pre=conv_pre,
                                   lstm_cache=lstm_cache, dropout_mask=mask,
                                   head_in=head_in)

    def backward(self, cache: HybridCache, dscores) -> dict[str, np.ndarray]:
        """Chain rule through head, dropout, BPTT, the concat split, relu,
        and the conv branch, from the ``[B]`` gradient of the loss with
        respect to the scores.  Returns the parameter gradients by name."""
        d = self.dims
        n = cache.conv_pre.shape[0]
        dscores = np.asarray(dscores, dtype=np.float64)
        if dscores.shape != (n,):
            raise DimensionError(
                f"upstream score gradient must be [{n}], got {list(dscores.shape)}"
            )
        dhead_in, dw_head, db_head = self.head.backward(cache.head_in, dscores[:, None])
        dh_last = dropout_backward(cache.dropout_mask, dhead_in[:, :d.hidden_size])
        dconv, dw_x, dw_h, db = self.lstm.backward(cache.lstm_cache, dh_last, dx_from=d.f_market)
        dconv_pre = dconv * (cache.conv_pre > 0)
        dkernels, dbias = self.conv.backward(cache.conv_cache, dconv_pre)
        return {
            "conv.kernels": dkernels,
            "conv.bias": dbias,
            "lstm.w_x": dw_x,
            "lstm.w_h": dw_h,
            "lstm.b": db,
            "head.w": dw_head,
            "head.b": db_head,
        }


class LinearRegressionModel:
    """Ordinary linear regression over the flattened sample vector.

    The feature vector is ``[x_seq flattened row-major, x_static]`` and the
    ridge term is numerical jitter only, not a tuned regularizer.
    """

    kind = "linear"

    def __init__(self, weights, bias: float, ridge_lambda: float = 1e-8):
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.ndim != 1:
            raise DimensionError(f"weights must be 1-d, got {list(self.weights.shape)}")
        self.bias = np.array([float(bias)])
        self.ridge_lambda = float(ridge_lambda)
        if not 0 <= self.ridge_lambda < np.inf:
            raise ParameterError(f"ridge_lambda must be finite and >= 0, got {ridge_lambda}")
        self.preprocess = None  # the recipe, set by train and by load_model

    @property
    def n_features(self) -> int:
        return self.weights.size

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def forward(self, x_seq, x_static, rng: SeededRng | None = None,
                cache: bool = True) -> tuple[np.ndarray | float, None]:
        """The scores of the rows ``[x_seq flattened, x_static]``.  The model
        has no dropout and no backward, so ``rng`` and ``cache`` are unused
        and the cache returned is ``None``."""
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
        n, n_seq = x_seq.shape[0], x_seq.shape[1] * x_seq.shape[2]
        if n_seq + x_static.shape[1] != self.n_features:
            raise DimensionError(
                f"sample flattens to {n_seq + x_static.shape[1]} features, "
                f"model expects {self.n_features}"
            )
        # The rows [x_seq flattened, x_static], written once into a buffer
        # already zero-padded to whole blocks for _block_matmul.
        flat = np.empty((n + -n % BLOCK_ROWS, self.n_features))
        flat[:n, :n_seq] = x_seq.reshape(n, n_seq)
        flat[:n, n_seq:] = x_static
        flat[n:] = 0.0
        scores = _block_matmul(flat, self.weights[:, None])[:n, 0] + self.bias[0]
        if single:
            scores = float(scores[0])
        return scores, None


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


def _score_part(model, samples: SampleSet, scores: np.ndarray, start: int, stop: int) -> None:
    for lo in range(start, stop, SCORE_CHUNK):
        hi = min(lo + SCORE_CHUNK, stop)
        scores[lo:hi] = model.forward(samples.x_seq[lo:hi], samples.x_static[lo:hi],
                                      cache=False)[0]


def prediction_scores(model, samples: SampleSet) -> np.ndarray:
    """Inference-mode scores, one per sample, order preserved.

    Windows go through the model's batched forward ``SCORE_CHUNK`` at a
    time with ``cache=False``: no activation history is built, and peak
    memory stays flat however many windows are scored.

    A ``HybridModel``'s set is split into ``min(MAX_PARTS, usable CPUs,
    n // MIN_PART)`` contiguous parts, at least one, that are scored at the
    same time, where the usable CPUs are the process's affinity mask (the
    machine's CPU count where the platform has no mask).  The calling
    thread scores the first part, one short-lived thread each the rest (so
    one part starts no thread), and all have finished when this returns.
    numpy releases the interpreter lock inside its loops, so wall time
    falls; CPU time rises, as the parts contend for the lock between numpy
    calls.  A linear model's forward is one block product, which threads
    only slow down, so its set is never split.  A window's score does not
    depend on its batch, so the scores are bitwise the same for any part
    count.  Each part runs in a copy of the caller's
    context, which carries numpy's error state (``np.errstate``).  An
    exception raised in a part reaches the caller unchanged; when several
    parts raise, the earliest part's does, the one the serial loop would
    meet first.  :mod:`riskcast.workers` says why this loop uses threads
    and not worker processes.
    """
    n = len(samples)
    scores = np.empty(n)
    parts = 1
    if isinstance(model, HybridModel):
        parts = max(min(MAX_PARTS, usable_cpus(), n // MIN_PART), 1)
    bounds = [n * i // parts for i in range(parts + 1)]
    errors: list[BaseException | None] = [None] * parts

    def score(i):
        try:
            _score_part(model, samples, scores, bounds[i], bounds[i + 1])
        except BaseException as exc:  # re-raised in the calling thread below
            errors[i] = exc

    workers = []
    try:
        for i in range(1, parts):
            worker = threading.Thread(target=contextvars.copy_context().run, args=(score, i))
            worker.start()
            workers.append(worker)
        _score_part(model, samples, scores, 0, bounds[1])
    finally:
        for worker in workers:
            worker.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return scores


def predict_batch(model, samples: SampleSet) -> list[tuple[dt.date, float]]:
    """Inference-mode ``(date, score)`` pairs, one per sample, order preserved."""
    return list(zip(samples.dates, prediction_scores(model, samples).tolist()))
