"""Dense float64 tensor arithmetic and the deterministic random stream.

Everything numeric in this package is a C-contiguous ``numpy.ndarray`` of
64-bit floats.  The helpers here add the contracts the rest of the code
relies on: zero-length dimensions and non-finite parameters are rejected,
and all randomness flows through :class:`SeededRng`, a SplitMix64
generator chosen over platform RNGs so that a given seed reproduces the
same stream on every machine.
"""

from __future__ import annotations

import operator
import struct

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (state increment and the two finalizer multipliers).
_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB

_FLOAT_SCALE = 2.0 ** -53  # top 53 bits of a uint64 -> [0, 1)


def mix64(value: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit integer."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MUL_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL_2) & _MASK64
    return z ^ (z >> 31)


def float_bits(value: float) -> int:
    """IEEE-754 bit pattern of a float, for hashing floats into seeds."""
    return struct.unpack("<Q", struct.pack("<d", float(value)))[0]


def check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**64): seeds act modulo 2**64, so such a
    seed would draw the streams of another one."""
    if not 0 <= seed <= _MASK64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")


def derive_seed(base: int, *parts: int) -> int:
    """Mix integer tags into ``base`` to obtain an independent child seed.

    The result depends only on ``base`` and the tag values, never on call
    order elsewhere, so parallel or reordered work derives identical seeds.
    """
    h = int(base) & _MASK64
    for part in parts:
        h = mix64(h ^ (int(part) & _MASK64))
    return h


def unit_floats(bits: np.ndarray) -> np.ndarray:
    """uint64 draws -> floats on [0, 1), as :meth:`SeededRng.next_float` maps each."""
    return (bits >> np.uint64(11)).astype(np.float64) * _FLOAT_SCALE


def box_muller(u1: np.ndarray, u2: np.ndarray, mu: float = 0.0,
               sigma: float = 1.0) -> np.ndarray:
    """Normals from paired uniforms ``(u1[i], u2[i])``, as :meth:`SeededRng.normals`
    computes them; exposed so a caller that walks pre-drawn uniforms gets the
    same bits.  ``1 - u1`` lies in (0, 1], which keeps log() finite."""
    return mu + sigma * np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)


class SeededRng:
    """Deterministic SplitMix64 stream.

    State update: ``state += 0x9E3779B97F4A7C15 (mod 2**64)``; each output is
    ``mix64(state)``.  Identical seeds produce bitwise-identical draw
    sequences across runs and platforms.  Instances are single-owner: for
    independent child streams, seed new generators from :func:`derive_seed`
    instead of sharing one.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    @property
    def state(self) -> int:
        return self._state

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def next_uint64s(self, n: int) -> np.ndarray:
        """Vectorized draw of ``n`` uint64s, identical to ``n`` scalar calls.

        ``n`` may be any integer type, numpy's included; anything else raises
        ``TypeError`` before a draw is made.
        """
        n = operator.index(n)
        if n < 0:
            raise ParameterError(f"draw count must be >= 0, got {n}")
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + np.uint64(_GAMMA) * steps
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_MUL_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_MUL_2)
        z = z ^ (z >> np.uint64(31))
        self._state = (self._state + n * _GAMMA) & _MASK64
        return z

    def next_float(self) -> float:
        """One draw uniform on [0, 1)."""
        return (self.next_uint64() >> 11) * _FLOAT_SCALE

    def next_floats(self, n: int) -> np.ndarray:
        return unit_floats(self.next_uint64s(n))

    def uniform(self, lo: float, hi: float) -> float:
        if not lo <= hi:
            raise ParameterError(f"uniform bounds require lo <= hi, got ({lo}, {hi})")
        return lo + (hi - lo) * self.next_float()

    def uniforms(self, n: int, lo: float, hi: float) -> np.ndarray:
        if not lo <= hi:
            raise ParameterError(f"uniform bounds require lo <= hi, got ({lo}, {hi})")
        return lo + (hi - lo) * self.next_floats(n)

    def normals(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """Box-Muller normals; consumes exactly two uniforms per draw."""
        if sigma < 0:
            raise ParameterError(f"normal sigma must be >= 0, got {sigma}")
        u = self.next_floats(2 * n)
        return box_muller(u[0::2], u[1::2], mu, sigma)

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        return float(self.normals(1, mu, sigma)[0])

    def randint(self, n: int) -> int:
        """Integer in [0, n)."""
        if n <= 0:
            raise ParameterError(f"randint bound must be positive, got {n}")
        return self.next_uint64() % n

    def shuffle(self, values) -> None:
        """In-place Fisher-Yates shuffle of a list or 1-d array: for ``i``
        from ``n - 1`` down to 1, swap entry ``i`` with entry ``next_uint64()
        % (i + 1)``.  The ``n - 1`` draws are made in one call."""
        n = len(values)
        if n < 2:
            return
        picks = self.next_uint64s(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            values[i], values[j] = values[j], values[i]


def as_tensor(values) -> np.ndarray:
    """Validate ``values`` as a dense float64 tensor.

    Zero-length dimensions are rejected at construction, which lets every
    layer assume nonempty operands.  Non-finite entries are rejected too.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if any(d <= 0 for d in arr.shape):
        raise DimensionError(f"zero-length dimension in shape {list(arr.shape)}")
    if not np.all(np.isfinite(arr)):
        raise NumericalError("tensor contains non-finite values")
    return np.ascontiguousarray(arr)
