"""Neural network layers with hand-derived backward passes.

Shape conventions: every layer takes a batch.  Sequence inputs are
``[B x T x C]`` (batch on axis 0, time on axis 1) and vector inputs are
``[B x C]``; the one-sample view lives in the models, which add and drop
the batch axis at their boundary.  The LSTM starts from zero states and
yields only its last hidden state, the one the model reads.  Weight
matrices act on column vectors, and every ``forward`` returns a cache
that its matching ``backward`` consumes.  Parameter gradients are
summed over the batch.  Backward passes return exact analytic gradients
and are verified against central finite differences in the test suite.

Every sample's forward output is bitwise the same whatever other samples
share its batch: products that mix rows are taken either one sample at a
time (the convolution) or as a stack of fixed ``BLOCK_ROWS``-row blocks,
zero-padded as needed (``_block_matmul``), never as one matrix product over
the batch.

Layers hold parameters only; forward/backward are pure given (parameters,
input, cache), so distinct batches can be evaluated concurrently as long as
parameter updates stay single-writer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .tensor import SeededRng, as_tensor


# Rows per block of every product that mixes rows (see ``_block_matmul``).
BLOCK_ROWS = 8


def _block_matmul(x: np.ndarray, w_t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ w_t`` for a ``[n x K]`` ``x``, as one stacked product of
    ``BLOCK_ROWS``-row blocks.

    A single matrix product over many rows may sum a row in a different
    order than it would for that row alone.  Every block here is the same
    ``[BLOCK_ROWS x K]`` product, so each row's result does not depend on how
    many rows share the call or where in them it sits.  ``x`` is zero-padded
    to a whole number of blocks when ``n`` is not one; ``out``, if given, is a
    C-contiguous ``[n x M]`` array and ``n`` must then be a whole number of
    blocks.
    """
    n, k = x.shape
    n_pad = -n % BLOCK_ROWS
    if n_pad:
        x = np.concatenate([x, np.zeros((n_pad, k))])
    blocks = (n + n_pad) // BLOCK_ROWS
    if out is None:
        out = np.empty((n + n_pad, w_t.shape[1]))
    np.matmul(x.reshape(blocks, BLOCK_ROWS, k), w_t,
              out=out.reshape(blocks, BLOCK_ROWS, w_t.shape[1]))
    return out[:n]


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

    def backward(self, cache: Conv1DCache, dy) -> tuple[np.ndarray, np.ndarray]:
        """Returns (dkernels, dbias) summed over the batch; no input gradient,
        as the convolution reads the model's input and nothing upstream needs it."""
        dy = np.asarray(dy, dtype=np.float64)
        x, out_len, k = cache.x, cache.out_len, self.k
        expected = (x.shape[0], out_len, self.c_out)
        if dy.shape != expected:
            raise DimensionError(
                f"conv upstream gradient must be {list(expected)}, got {list(dy.shape)}"
            )
        dbias = dy.sum(axis=(0, 1))
        dkernels = np.empty_like(self.kernels)
        # One contraction over all B*out_len positions per kernel tap, the
        # product np.tensordot would take: dy's rows as the F-ordered view
        # [C_out x B*out_len].  A C-ordered copy of the same values makes
        # OpenBLAS pick another kernel, which moves the sums by about 1e-16.
        dy_t = dy.reshape(-1, self.c_out).T
        for m in range(k):
            dkernels[:, m, :] = np.dot(dy_t, x[:, m:m + out_len].reshape(-1, self.c_in))
        return dkernels, dbias


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _gate_layout(hid: int) -> tuple[np.ndarray, np.ndarray]:
    """The column order that takes the stored (i, f, g, o) gate blocks to
    (i, f, o, g), and the column scale that halves the sigmoid blocks; both
    read-only, built once per hidden size."""
    order = np.r_[0:2 * hid, 3 * hid:4 * hid, 2 * hid:3 * hid]
    scale = np.ones(4 * hid)
    scale[:3 * hid] = 0.5
    order.flags.writeable = scale.flags.writeable = False
    return order, scale


@dataclass
class LSTMCache:
    """The forward's own time-major buffers (see ``LSTMCell``); B rows of
    each step of ``xh`` are the batch, the rest is padding."""

    xh: np.ndarray       # [T+1 x n8 x (F+1+H)], row t holds [x_t, 1, h_{t-1}]
    gates: np.ndarray    # [T x 4 x B x H], activated, gate-major in (i, f, o, g) order
    c: np.ndarray        # [T+1 x B x H], row t holds c_{t-1}; row 0 is zero
    tanh_c: np.ndarray   # [T x B x H]
    # [B x T x F] view of xh.  Backward does not read it; the LSTMCell.backward
    # counter hook in perfbench/spans.py takes the batch size from it.
    xs: np.ndarray


class LSTMCell:
    """Single-layer LSTM over ``[B x T x F]`` sequences, started from zero
    states; it yields the last hidden state ``[B x H]``.

    Gate blocks are stacked in the fixed order (i, f, g, o) along the first
    axis of ``w_x`` ``[4H x F]``, ``w_h`` ``[4H x H]`` and ``b`` ``[4H]``:

        z   = w_x @ x_t + w_h @ h_{t-1} + b
        i,f = sigmoid(z[0:H]), sigmoid(z[H:2H])
        g   = tanh(z[2H:3H])
        o   = sigmoid(z[3H:4H])
        c_t = f * c_{t-1} + i * g
        h_t = o * tanh(c_t)

    That is the stored order of the parameters, their gradients and model
    files.  Inside ``forward`` the gate blocks are permuted to (i, f, o, g),
    so the three sigmoid gates form one slice, and the i, f, o weights are
    pre-scaled by 0.5, so one tanh pass gives
    ``sigmoid(z) = (tanh(z * 0.5) + 1) * 0.5`` and ``tanh(z)``.  Scaling by a
    power of two is exact, so every activation is bitwise that of the
    (i, f, g, o) arithmetic.  The permutation and the scale are built once
    per hidden size (``_gate_layout``).

    Each step is one product: a buffer ``xh`` holds the rows
    ``[x_t, 1, h_{t-1}]`` of every sample, zero-padded to whole
    ``BLOCK_ROWS`` blocks, and ``_block_matmul`` multiplies step ``t``'s rows
    by ``[w_x^T; b; w_h^T]``.  The input term, the bias and the recurrence of
    a step thus come out of one block product, and ``h_t`` is written
    straight into row ``t+1``; with a cache, every ``x_t`` is copied into
    ``xh`` in one call before the first step.  The product goes to a
    row-major scratch buffer that the step's one tanh reads through a
    ``[4 x B x H]`` transposed view, writing the gates gate-major, so each
    gate of each step, and every later elementwise op, is a contiguous
    ``[B x H]`` block written into a buffer allocated before the loop.
    Every buffer is time-major and the cache is these buffers themselves.
    Backward writes the gate gradients into a row-major ``dz`` with the rows
    of ``xh``, so one contraction gives ``dw_x``, ``db`` and ``dw_h``; its
    time loop, too, writes ``dh`` and its one temporary into buffers
    allocated before the loop, and skips the recurrent terms that step 0
    would hand to a step before it.

    Scoring needs no cache.  With ``cache=False`` the buffers are only as
    deep as one step needs: ``xh`` and ``c`` are two-row rings (step ``t``
    reads row ``t % 2`` and writes row ``(t + 1) % 2``), and the gates and
    ``tanh(c)`` hold one step.  The loop is the same, indexed modulo the
    depth, so every block product and hidden state is bitwise that of the
    cached run, while a 256-window call needs about 1.1 MB of buffers at
    F=15, H=32 instead of about 10 MB.
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

    def forward(self, xs, cache: bool = True) -> tuple[np.ndarray, LSTMCache | None]:
        """``xs`` is ``[B x T x F]``; returns the last hidden state ``[B x H]``
        and the cache, or ``None`` for the cache when ``cache`` is false."""
        xs = np.asarray(xs, dtype=np.float64)
        hid, f_in = self.hidden_size, self.input_size
        if xs.ndim != 3 or xs.shape[2] != f_in:
            raise DimensionError(f"lstm input must be [B x T x {f_in}], got {list(xs.shape)}")
        n, t_len = xs.shape[:2]
        order, scale = _gate_layout(hid)
        # w_t must stay F-ordered, as the column gather leaves it: a C-ordered
        # copy of the same values makes OpenBLAS pick another kernel, which
        # moves outputs by about 1e-16, so model files would change bytes.
        w_t = np.concatenate([self.w_x.T, self.b[None], self.w_h.T])[:, order] * scale
        n_rows = n + -n % BLOCK_ROWS
        # Step t uses row t % depth of xh and c and row t % step_depth of the rest.
        depth = t_len + 1 if cache else 2
        step_depth = t_len if cache else 1
        # xh, the product scratch and the gates share one allocation.  As
        # separate arrays, one call's buffers add up to more than twice the
        # largest of them, and glibc's malloc then returns the freed memory
        # to the kernel after every call (a fresh `riskcast predict` process
        # on a 2,000-day history took 20,000 page faults instead of 2,800).
        xh_size, z_size = depth * n_rows * (f_in + 1 + hid), n_rows * 4 * hid
        work = np.empty(xh_size + z_size + step_depth * n * 4 * hid)
        xh = work[:xh_size].reshape(depth, n_rows, f_in + 1 + hid)
        z = work[xh_size:xh_size + z_size].reshape(n_rows, 4 * hid)
        z_gates = z[:n].reshape(n, 4, hid).transpose(1, 0, 2)
        gates = work[xh_size + z_size:].reshape(step_depth, 4, n, hid)
        xh[:, n:] = 0.0
        xh[:, :, f_in] = 1.0
        xh[0, :n, f_in + 1:] = 0.0
        c_a = np.empty((depth, n, hid))
        c_a[0] = 0.0
        tc_a = np.empty((step_depth, n, hid))
        i_g = np.empty((n, hid))
        if cache:
            xh[:t_len, :n, :f_in] = xs.transpose(1, 0, 2)
        for t in range(t_len):
            row, nxt, cur = t % depth, (t + 1) % depth, t % step_depth
            if not cache:
                xh[row, :n, :f_in] = xs[:, t]
            _block_matmul(xh[row], w_t, out=z)
            i, f, o, g = np.tanh(z_gates, out=gates[cur])
            sig = gates[cur, :3]
            sig += 1.0
            sig *= 0.5
            c = np.multiply(f, c_a[row], out=c_a[nxt])
            c += np.multiply(i, g, out=i_g)
            np.tanh(c, out=tc_a[cur])
            np.multiply(o, tc_a[cur], out=xh[nxt, :n, f_in + 1:])
        h_last = xh[t_len % depth, :n, f_in + 1:]
        if not cache:
            return h_last, None
        return h_last, LSTMCache(xh=xh, gates=gates, c=c_a, tanh_c=tc_a,
                                 xs=xh[:t_len, :n, :f_in].transpose(1, 0, 2))

    def backward(self, cache: LSTMCache, dh_last,
                 dx_from: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Backpropagation through time from the gradient of the last hidden
        state; returns (dxs, dw_x, dw_h, db), the weight gradients summed over
        the batch and ``dxs`` for the input columns from ``dx_from`` on."""
        dh = np.asarray(dh_last, dtype=np.float64)
        tc = cache.tanh_c
        t_len, n, hid = tc.shape
        if dh.shape != (n, hid):
            raise DimensionError(
                f"lstm upstream gradient must be [{n} x {hid}], got {list(dh.shape)}"
            )
        f_in = self.input_size
        i, f, o, g = cache.gates.transpose(1, 0, 2, 3)
        # The local derivatives of every step, gate-major in the stored
        # (i, f, g, o) order: dz/dc on the i, f, g blocks and dz/dh on the o
        # block.  The time loop scales each step by the recurrent dc and dh
        # into the row-major dz, whose padding rows stay zero, like those of
        # xh.  Both share one buffer of T+1 step slots: local[t] is slot t
        # and dz[t] slot t+1, which held local[t+1], consumed the step before.
        n_rows = cache.xh.shape[1]
        slots = np.empty((t_len + 1, n_rows * 4 * hid))
        local = slots[:t_len, :n * 4 * hid].reshape(t_len, 4, n, hid)
        np.multiply(g, i * (1.0 - i), out=local[:, 0])
        np.multiply(cache.c[:t_len], f * (1.0 - f), out=local[:, 1])
        np.multiply(i, 1.0 - g * g, out=local[:, 2])
        np.multiply(tc, o * (1.0 - o), out=local[:, 3])
        dc_dh = o * (1.0 - tc * tc)
        dz = slots[1:].reshape(t_len, n_rows, 4 * hid)
        dz[:, n:] = 0.0
        dz_gates = dz[:, :n].reshape(t_len, n, 4, hid).transpose(0, 2, 1, 3)
        dc = np.zeros((n, hid))
        dh_next, tmp = np.empty((n, hid)), np.empty((n, hid))
        for t in range(t_len - 1, -1, -1):
            dc += np.multiply(dh, dc_dh[t], out=tmp)
            np.multiply(local[t, :3], dc, out=dz_gates[t, :3])
            np.multiply(local[t, 3], dh, out=dz_gates[t, 3])
            if t:
                dh = np.matmul(dz[t, :n], self.w_h, out=dh_next)
                dc *= f[t]
        dz_rows = dz.reshape(-1, 4 * hid)
        # Rows [x_t, 1, h_{t-1}] give the columns [dw_x | db | dw_h].
        dw = dz_rows.T @ cache.xh[:t_len].reshape(-1, f_in + 1 + hid)
        dxs = (dz_rows @ self.w_x[:, dx_from:]).reshape(t_len, -1, f_in - dx_from)[:, :n]
        return dxs.transpose(1, 0, 2), dw[:, :f_in], dw[:, f_in + 1:], dw[:, f_in]


# ---------------------------------------------------------------------------
# Dense layer
# ---------------------------------------------------------------------------


class DenseLayer:
    """Affine map y = W x + b, applied to each row of a ``[B x in]`` batch.
    Backward reads only the input, so forward returns the input as its cache."""

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

    def forward(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``x`` is ``[B x in]``; returns ``[B x out]``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.w.shape[1]:
            raise DimensionError(
                f"dense input must be [B x {self.w.shape[1]}], got {list(x.shape)}"
            )
        return _block_matmul(x, self.w.T) + self.b, x

    def backward(self, x: np.ndarray, dy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``x`` is forward's cache.  Returns (dx, dw, db), with dw and db
        summed over the batch."""
        dy = np.asarray(dy, dtype=np.float64)
        expected = (x.shape[0], self.w.shape[0])
        if dy.shape != expected:
            raise DimensionError(
                f"dense upstream gradient must be {list(expected)}, got {list(dy.shape)}"
            )
        return dy @ self.w, dy.T @ x, dy.sum(0)


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DropoutSpec:
    """Inverted dropout: kept entries are scaled by 1/(1-p) at train time,
    so inference is the exact identity."""

    p: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ParameterError(f"dropout probability must be in [0, 1), got {self.p}")


def dropout_forward(spec: DropoutSpec, x, rng: SeededRng | None):
    """Returns (y, mask).  Dropout applies exactly when ``rng`` is given: the
    mask holds the applied scale factors (0 or 1/(1-p)).  Without an ``rng``
    the mask is None and y is x unchanged.

    The mask draws ``x.size`` uniforms in row-major order, so a ``[B x H]``
    batch consumes the stream exactly as B one-sample calls in row order."""
    x = np.asarray(x, dtype=np.float64)
    if rng is None:
        return x, None
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
