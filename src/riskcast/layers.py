"""Neural network layers with hand-derived backward passes.

Shape conventions: every layer takes a batch.  Sequence inputs are
``[B x T x C]`` (batch on axis 0, time on axis 1) and vector inputs are
``[B x C]``; the one-sample view lives in the models, which add and drop
the batch axis at their boundary.  Weight matrices act on column vectors,
and every ``forward`` returns a cache object that its matching
``backward`` consumes.  Parameter gradients are summed over the
batch.  Backward passes return exact analytic gradients and are verified
against central finite differences in the test suite.

Every sample's forward output is bitwise the same whatever other samples
share its batch: products that mix rows are taken one sample (or one row)
at a time, never as one matrix product over the batch.

Layers hold parameters only; forward/backward are pure given (parameters,
input, cache), so distinct batches can be evaluated concurrently as long as
parameter updates stay single-writer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .tensor import SeededRng, as_tensor


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh saturates where exp would overflow, so no sign split is needed.
    return 0.5 * (1.0 + np.tanh(x / 2.0))


def rowwise_matmul(x: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """``x @ w_t`` over the last axis of ``x``, one row per product.

    A single matrix product over many rows may sum a row in a different
    order than it would for that row alone; stacking the rows as separate
    ``[1 x F]`` products keeps each row's result independent of the batch.
    """
    return (x[..., None, :] @ w_t)[..., 0, :]


# ---------------------------------------------------------------------------
# 1-d convolution over the time axis
# ---------------------------------------------------------------------------


@dataclass
class Conv1DCache:
    x: np.ndarray       # forward input, [B x T x C_in]
    out_len: int


class Conv1DLayer:
    """Cross-correlation over the time axis with valid padding.

    ``y[b, t, c] = sum_m sum_n x[b, t+m, n] * kernels[c, m, n] + bias[c]``
    for ``t`` in ``[0, T-k]``.  No kernel flip is applied.
    """

    def __init__(self, kernels, bias):
        self.kernels = as_tensor(kernels)
        self.bias = as_tensor(bias)
        if self.kernels.ndim != 3:
            raise DimensionError(
                f"conv kernels must be [C_out x k x C_in], got {list(self.kernels.shape)}"
            )
        if self.bias.shape != (self.kernels.shape[0],):
            raise DimensionError(
                f"conv bias shape {list(self.bias.shape)} does not match "
                f"C_out={self.kernels.shape[0]}"
            )

    @classmethod
    def initialize(cls, c_in: int, c_out: int, k: int, rng: SeededRng) -> "Conv1DLayer":
        """Kernels uniform on (-1/sqrt(k*C_in), +1/sqrt(k*C_in)), zero bias."""
        if min(c_in, c_out, k) < 1:
            raise ParameterError(f"conv dims must be >= 1, got c_in={c_in} c_out={c_out} k={k}")
        bound = 1.0 / np.sqrt(k * c_in)
        kernels = rng.uniforms(c_out * k * c_in, -bound, bound).reshape(c_out, k, c_in)
        return cls(kernels, np.zeros(c_out))

    @property
    def c_out(self) -> int:
        return self.kernels.shape[0]

    @property
    def k(self) -> int:
        return self.kernels.shape[1]

    @property
    def c_in(self) -> int:
        return self.kernels.shape[2]

    def forward(self, x) -> tuple[np.ndarray, Conv1DCache]:
        """``x`` is ``[B x T x C_in]``; the output is ``[B x (T-k+1) x C_out]``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.c_in:
            raise DimensionError(
                f"conv input must be [B x T x {self.c_in}], got {list(x.shape)}"
            )
        t_len, k = x.shape[1], self.k
        if t_len < k:
            raise DimensionError(f"conv window: input length {t_len} < kernel width {k}")
        out_len = t_len - k + 1
        y = np.empty((x.shape[0], out_len, self.c_out))
        y[...] = self.bias
        for m in range(k):
            # One [out_len x C_in] product per sample, so samples stay independent.
            y += x[:, m:m + out_len] @ self.kernels[:, m, :].T
        return y, Conv1DCache(x=x, out_len=out_len)

    def backward(self, cache: Conv1DCache, dy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns (dx, dkernels, dbias) for the cached forward call; the
        parameter gradients are summed over the batch."""
        dy = np.asarray(dy, dtype=np.float64)
        x, out_len, k = cache.x, cache.out_len, self.k
        expected = (x.shape[0], out_len, self.c_out)
        if dy.shape != expected:
            raise DimensionError(
                f"conv upstream gradient must be {list(expected)}, got {list(dy.shape)}"
            )
        dbias = dy.sum(axis=(0, 1))
        dkernels = np.empty_like(self.kernels)
        dx = np.zeros_like(x)
        for m in range(k):
            # One contraction over all B*out_len positions.
            dkernels[:, m, :] = np.tensordot(dy, x[:, m:m + out_len], axes=([0, 1], [0, 1]))
            dx[:, m:m + out_len] += dy @ self.kernels[:, m, :]
        return dx, dkernels, dbias


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


@dataclass
class LSTMCache:
    """Forward activations, each with the batch axis of ``xs`` leading."""

    xs: np.ndarray
    h0: np.ndarray
    c0: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    hs: np.ndarray


class LSTMCell:
    """Single-layer LSTM unrolled over ``[B x T x F]`` sequences.

    Gate blocks are stacked in the fixed order (i, f, g, o) along the first
    axis of ``w_x`` ``[4H x F]``, ``w_h`` ``[4H x H]`` and ``b`` ``[4H]``:

        z   = w_x @ x_t + w_h @ h_{t-1} + b
        i,f = sigmoid(z[0:H]), sigmoid(z[H:2H])
        g   = tanh(z[2H:3H])
        o   = sigmoid(z[3H:4H])
        c_t = f * c_{t-1} + i * g
        h_t = o * tanh(c_t)

    The input projection ``w_x @ x_t + b`` does not depend on the recurrence,
    so it is computed for every sample and step before the time loop
    (Appleyard et al. 2016, arXiv:1604.01946); likewise backward builds the
    weight gradients after the time loop, each as one contraction over all
    B*T steps.
    """

    def __init__(self, w_x, w_h, b):
        self.w_x = as_tensor(w_x)
        self.w_h = as_tensor(w_h)
        self.b = as_tensor(b)
        if self.w_x.ndim != 2 or self.w_x.shape[0] % 4 != 0:
            raise DimensionError(f"w_x must be [4H x F], got {list(self.w_x.shape)}")
        hidden = self.w_x.shape[0] // 4
        if self.w_h.shape != (4 * hidden, hidden):
            raise DimensionError(
                f"w_h must be [{4 * hidden} x {hidden}], got {list(self.w_h.shape)}"
            )
        if self.b.shape != (4 * hidden,):
            raise DimensionError(f"b must be [{4 * hidden}], got {list(self.b.shape)}")

    @classmethod
    def initialize(cls, input_size: int, hidden_size: int, rng: SeededRng) -> "LSTMCell":
        """w_x uniform by fan-in F, w_h uniform by fan-in H, zero biases."""
        if min(input_size, hidden_size) < 1:
            raise ParameterError(
                f"lstm dims must be >= 1, got input={input_size} hidden={hidden_size}"
            )
        bx = 1.0 / np.sqrt(input_size)
        bh = 1.0 / np.sqrt(hidden_size)
        w_x = rng.uniforms(4 * hidden_size * input_size, -bx, bx).reshape(4 * hidden_size, input_size)
        w_h = rng.uniforms(4 * hidden_size * hidden_size, -bh, bh).reshape(4 * hidden_size, hidden_size)
        return cls(w_x, w_h, np.zeros(4 * hidden_size))

    @property
    def hidden_size(self) -> int:
        return self.w_x.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w_x.shape[1]

    def forward(self, xs, h0, c0) -> tuple[np.ndarray, LSTMCache]:
        """``xs`` is ``[B x T x F]`` with states ``[B x H]``; returns the hidden
        states ``[B x T x H]``."""
        xs = np.asarray(xs, dtype=np.float64)
        h0 = np.asarray(h0, dtype=np.float64)
        c0 = np.asarray(c0, dtype=np.float64)
        hid = self.hidden_size
        if xs.ndim != 3 or xs.shape[2] != self.input_size:
            raise DimensionError(
                f"lstm input must be [B x T x {self.input_size}], got {list(xs.shape)}"
            )
        n, t_len = xs.shape[:2]
        if h0.shape != (n, hid) or c0.shape != (n, hid):
            raise DimensionError(
                f"lstm state must be [{n} x {hid}], "
                f"got h0 {list(h0.shape)} c0 {list(c0.shape)}"
            )
        # The input projection for every step at once, one [T x F] product per
        # sample so that samples stay independent of each other.  Each step
        # then adds its recurrent term and activates the gates in place.
        gates = xs @ self.w_x.T
        gates += self.b
        w_h_t = self.w_h.T
        # sigmoid(z) = (tanh(z * 0.5) + 1) * 0.5 on the i, f, o blocks and
        # tanh(z) = (tanh(z * 1) + 0) * 1 on the g block: one tanh pass over
        # all gates, with the arithmetic of _sigmoid.
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
            z += rowwise_matmul(h, w_h_t)
            z *= scale
            np.tanh(z, out=z)
            z += shift
            z *= scale
            c = np.multiply(f_a[:, t], c, out=c_a[:, t])
            c += i_a[:, t] * g_a[:, t]
            np.tanh(c, out=tc_a[:, t])
            h = np.multiply(o_a[:, t], tc_a[:, t], out=hs[:, t])
        cache = LSTMCache(xs=xs, h0=h0, c0=c0, i=i_a, f=f_a, g=g_a, o=o_a,
                          c=c_a, tanh_c=tc_a, hs=hs)
        return hs, cache

    def backward(self, cache: LSTMCache, dhs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Backpropagation through time; returns (dxs, dw_x, dw_h, db), the
        weight gradients summed over the batch."""
        dhs = np.asarray(dhs, dtype=np.float64)
        if dhs.shape != cache.hs.shape:
            raise DimensionError(
                f"lstm upstream gradient must be {list(cache.hs.shape)}, got {list(dhs.shape)}"
            )
        hid = self.hidden_size
        n, t_len = cache.xs.shape[:2]
        i, f, g, o, tc = cache.i, cache.f, cache.g, cache.o, cache.tanh_c
        c_prev = np.concatenate([cache.c0[:, None], cache.c[:, :-1]], axis=1)
        h_prev = np.concatenate([cache.h0[:, None], cache.hs[:, :-1]], axis=1)
        # dz starts as the local derivatives of every step, dz/dc on the i, f, g
        # blocks and dz/dh on the o block; the time loop scales each step by
        # the recurrent dc and dh.
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
            dh_next = dz[:, t] @ self.w_h
            dc_next = dc * f[:, t]
        dz_flat = dz.reshape(n * t_len, 4 * hid)
        dw_x = dz_flat.T @ cache.xs.reshape(n * t_len, -1)
        dw_h = dz_flat.T @ h_prev.reshape(n * t_len, hid)
        db = dz_flat.sum(axis=0)
        dxs = dz @ self.w_x
        return dxs, dw_x, dw_h, db


# ---------------------------------------------------------------------------
# Dense layer
# ---------------------------------------------------------------------------


@dataclass
class DenseCache:
    x: np.ndarray


class DenseLayer:
    """Affine map y = W x + b, applied to each row of a ``[B x in]`` batch."""

    def __init__(self, w, b):
        self.w = as_tensor(w)
        self.b = as_tensor(b)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise DimensionError(
                f"dense shapes inconsistent: W {list(self.w.shape)}, b {list(self.b.shape)}"
            )

    @classmethod
    def initialize(cls, in_size: int, out_size: int, rng: SeededRng) -> "DenseLayer":
        if min(in_size, out_size) < 1:
            raise ParameterError(f"dense dims must be >= 1, got in={in_size} out={out_size}")
        bound = 1.0 / np.sqrt(in_size)
        w = rng.uniforms(out_size * in_size, -bound, bound).reshape(out_size, in_size)
        return cls(w, np.zeros(out_size))

    def forward(self, x) -> tuple[np.ndarray, DenseCache]:
        """``x`` is ``[B x in]``; returns ``[B x out]``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.w.shape[1]:
            raise DimensionError(
                f"dense input must be [B x {self.w.shape[1]}], got {list(x.shape)}"
            )
        return rowwise_matmul(x, self.w.T) + self.b, DenseCache(x=x)

    def backward(self, cache: DenseCache, dy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Returns (dx, dw, db), with dw and db summed over the batch."""
        dy = np.asarray(dy, dtype=np.float64)
        expected = (cache.x.shape[0], self.w.shape[0])
        if dy.shape != expected:
            raise DimensionError(
                f"dense upstream gradient must be {list(expected)}, got {list(dy.shape)}"
            )
        return dy @ self.w, dy.T @ cache.x, dy.sum(0)


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DropoutSpec:
    """Inverted dropout: kept entries are scaled by 1/(1-p) at train time,
    so inference is the exact identity."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ParameterError(f"dropout probability must be in [0, 1), got {self.p}")


def dropout_forward(spec: DropoutSpec, x, rng: SeededRng | None, mode: str):
    """Returns (y, mask).  The mask holds the applied scale factors
    (0 or 1/(1-p)); in infer mode the mask is None and y is x unchanged.

    The mask draws ``x.size`` uniforms in row-major order, so a ``[B x H]``
    batch consumes the stream exactly as B one-sample calls in row order."""
    x = np.asarray(x, dtype=np.float64)
    if mode == "infer":
        return x, None
    if mode != "train":
        raise ParameterError(f"dropout mode must be 'train' or 'infer', got {mode!r}")
    if rng is None:
        raise ParameterError("train-mode dropout requires an rng")
    keep = rng.next_floats(x.size).reshape(x.shape) >= spec.p
    mask = keep.astype(np.float64) / (1.0 - spec.p)
    return x * mask, mask


def dropout_backward(mask: np.ndarray | None, dy) -> np.ndarray:
    dy = np.asarray(dy, dtype=np.float64)
    if mask is None:
        return dy.copy()
    if mask.shape != dy.shape:
        raise DimensionError(
            f"dropout mask shape {list(mask.shape)} does not match gradient {list(dy.shape)}"
        )
    return dy * mask
