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

The fit solves the ridge-jittered normal equations without a design matrix.
A set's windows are lagged copies of the ``n+T-1`` rows they cover, so
every entry of the Gram is a lagged cross-product of those rows, a sum over
``n`` rows corrected by the first and last ``T-1`` of them (the covariance
method of linear prediction).  The lag sums come from a few products over
whole T-row blocks of the rows, the static columns and the target, so the
fit holds O(n·(F + S)) numbers beside the Gram instead of the ``n x
(T·F + S + 1)`` design.

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
# CPUs.  Two parts ran faster than one on a 2-CPU host (Python 3.11, numpy
# 2.4, OpenBLAS on 1 thread; medians of 14 in-process calls at 2000 days,
# one part and then two, alternating): ``predict`` of 1,917 windows took
# 83.2 against 59.5 ms wall, two faster in 14 of 14, and ``compare`` and
# ``evaluate`` of 289 windows 18.6 against 17.4 and 19.6 against 17.5 ms,
# 12 of 14 each.  CPU time rose by 6-9%.
MIN_PART = 128

# Most parts ``prediction_scores`` scores at the same time.  More than two
# were never measured, and since the parts share the interpreter lock
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


def _lag_sums(left: np.ndarray, rows: np.ndarray, t: int) -> np.ndarray:
    """``lags[:, d] = Σ_i left[i]ᵀ rows[i+d]`` for ``d < t``, a ``[W x t x F]``
    array, from ``left``'s ``[blocks x t·W]`` and ``rows``' ``[blocks+1 x t·F]``
    T-row blocks: each block of ``left`` against the same block of rows, then
    against the next one.  When ``left`` is ``rows[:blocks]`` itself, numpy
    takes the first product as one symmetric product, so ``lags[:, 0]`` is
    exactly symmetric."""
    blocks, f = left.shape[0], rows.shape[1] // t
    w = left.shape[1] // t
    lags = np.zeros((w, t, f))
    same = (left.T @ rows[:blocks]).reshape(t, w, t, f)
    for p in range(t):
        lags[:, :t - p] += same[p, :, p:]
    del same  # one block product alive at a time bounds the fit's memory
    nxt = (left[:, w:].T @ rows[1:, :(t - 1) * f]).reshape(t - 1, w, t - 1, f)
    for p in range(1, t):
        lags[:, t - p:] += nxt[p - 1, :, :p]
    return lags


def _normal_equations(samples: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """The Gram ``DᵀD`` and right-hand side ``Dᵀy`` of the design ``D`` whose
    row ``i`` is ``[x_seq[i] flattened row-major, x_static[i], 1]``, built
    without ``D``.

    Window ``i`` of a stride-1 window sequence is ``rows[i:i + T]`` of the
    ``[n+T-1 x F]`` rows it covers, read as ``x_seq[:, 0]`` and then
    ``x_seq[-1, 1:]``.  Each Gram block between window positions ``a`` and
    ``a + d`` is then a lagged cross-product of those rows (the covariance
    method of linear prediction): the lag sum ``Σ_{i<n} rows[i]ᵀ rows[i+d]``
    plus, for each ``j < a``, the outer product of ``rows[n+j]`` and
    ``rows[n+j+d]`` minus that of ``rows[j]`` and ``rows[j+d]``, so only the
    last and the first T-1 rows correct it.  The lag sums of the rows, and
    those of ``[x_static, y, 1]`` against the rows (the static and constant
    columns, and the window part of ``Dᵀy``), come from :func:`_lag_sums`;
    ``[x_static, y, 1]ᵀ[x_static, y, 1]`` gives the rest.  An ``x_seq``
    that is not a window sequence is its own rows, flattened, with T = 1.
    Equal strides on axes 0 and 1 make a window sequence; otherwise its
    values are compared.
    """
    x_seq = samples.x_seq
    n, t, f = x_seq.shape
    if x_seq.strides[0] != x_seq.strides[1] and \
            not np.array_equal(x_seq[1:, :-1], x_seq[:-1, 1:]):
        x_seq = x_seq.reshape(n, 1, t * f)
        t, f = 1, t * f
    s = samples.static_width
    blocks = -(-n // t)
    # Both buffers are zero past the rows the windows and samples cover.
    rows = np.zeros(((blocks + 1) * t, f))
    rows[:n] = x_seq[:, 0]
    rows[n:n + t - 1] = x_seq[-1, 1:]
    aux = np.zeros((blocks * t, s + 2))  # [x_static, y, 1]
    aux[:n, :s] = samples.x_static
    aux[:n, s] = samples.y
    aux[:n, s + 1] = 1.0
    row_blocks = rows.reshape(blocks + 1, t * f)
    aux_lags = _lag_sums(aux.reshape(blocks, t * (s + 2)), row_blocks, t).reshape(s + 2, t * f)
    # The rows' own lag sums over whole blocks of them, one symmetric product,
    # and then over the n % t rows left.
    whole = n - n % t
    row_lags = _lag_sums(row_blocks[:whole // t], row_blocks[:whole // t + 1], t)
    for d in range(t):
        row_lags[:, d] += rows[whole:n].T @ rows[whole + d:n + d]

    tf = t * f
    gram = np.empty((tf + s + 1, tf + s + 1))
    windows = gram[:tf, :tf].reshape(t, f, t, f, copy=False)
    windows[0] = row_lags
    # Block (a, b) is block (a-1, b-1) plus the products of row n+a-1 and
    # minus those of row a-1; the blocks below the diagonal mirror those above.
    for a in range(1, t):
        ends = rows[n + a - 1:n + t - 1]
        starts = rows[a - 1:t - 1]
        windows[a, :, a:] = (windows[a - 1, :, a - 1:t - 1] + ends[0, :, None, None] * ends
                             - starts[0, :, None, None] * starts)
        windows[a, :, :a] = windows[:a, :, a].transpose(2, 0, 1)
    gram[:tf, tf:tf + s] = aux_lags[:s].T
    gram[:tf, -1] = aux_lags[-1]
    gram[tf:, :tf] = gram[:tf, tf:].T
    small = aux[:n].T @ aux[:n]
    keep = np.r_[0:s, s + 1]
    gram[tf:, tf:] = small[np.ix_(keep, keep)]
    rhs = np.concatenate([aux_lags[s], small[keep, s]])
    return gram, rhs


def linreg_fit(samples: SampleSet, ridge_lambda: float = 1e-8) -> LinearRegressionModel:
    """Exact ridge-jittered normal-equations solve on flattened samples, from
    the Gram that :func:`_normal_equations` builds without a design matrix."""
    n = len(samples)
    if n < 2:
        raise DataError(f"linear fit needs at least 2 samples, got {n}")
    gram, rhs = _normal_equations(samples)
    gram += ridge_lambda * np.eye(gram.shape[0])
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
