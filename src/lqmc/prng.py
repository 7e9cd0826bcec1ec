"""Counter-based baseline generator for everything that must be i.i.d.

The whole harness (baseline chains, Cranley-Patterson shifts, synthetic
data, minibatch indices) draws from this one generator so that results are
bit-reproducible across platforms and numpy versions.  It is a keyed
SplitMix64: output ``i`` of stream ``(seed, stream)`` is

    key  = mix64(mix64(seed ^ 0x243F6A8885A308D3) ^ (stream * 0xD1B54A32D192ED03))
    out  = mix64(key + (i + 1) * 0x9E3779B97F4A7C15)   (all mod 2**64)

with the standard SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Uniform doubles are ``(out >> 11) * 2**-53``, i.e. in [0, 1).  Distinct
``(seed, stream)`` pairs give effectively independent streams; the object
keeps a running counter so successive calls continue the stream.

Small uniform draws are served from a look-ahead block: the uniforms of
the next ``_AHEAD`` outputs of the stream, computed at once and handed out
slice by slice, so a minibatch draw of ten indices does not pay for a
vectorized pass of its own.  A uniform draw of ``_AHEAD`` or more, and
every ``uint64`` draw, is computed straight from the counter and leaves the
block alone.  Either way output ``i`` is the word above, a pure function of
``(seed, stream, i)``: where the block starts changes no value.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_STREAM_MULT = 0xD1B54A32D192ED03
_SEED_SALT = 0x243F6A8885A308D3
_INV_2_53 = 2.0 ** -53
_AHEAD = 1024  # uniforms computed ahead for draws smaller than this


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays (mod-2**64 wraparound)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class BaselinePrng:
    """Splittable counter-based 64-bit generator with a persistent counter.

    Identical ``(seed, stream, counter)`` triples produce identical output
    everywhere; there is no global state.
    """

    def __init__(self, seed: int, stream: int = 0, counter: int = 0):
        if counter < 0:
            raise ValueError(f"counter must be nonnegative, got {counter}")
        self.seed = int(seed)
        self.stream = int(stream)
        k = _mix64(np.uint64((self.seed ^ _SEED_SALT) & 0xFFFFFFFFFFFFFFFF))
        k = _mix64(k ^ np.uint64((self.stream * _STREAM_MULT) & 0xFFFFFFFFFFFFFFFF))
        self._key = k
        self._counter = int(counter)  # outputs of the stream already consumed
        self._ahead = np.empty(0)  # look-ahead block: the uniforms of outputs ...
        self._ahead_at = 0  # ... _ahead_at .. _ahead_at + len(_ahead) - 1

    def _words(self, start: int, count: int) -> np.ndarray:
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return _mix64(self._key + idx * np.uint64(_GAMMA))

    def _uniforms(self, start: int, count: int) -> np.ndarray:
        return (self._words(start, count) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def _take(self, count: int) -> int:
        """Consume the next ``count`` outputs; the index of the first."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        self._counter += count
        return self._counter - count

    def uint64(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words of the stream."""
        return self._words(self._take(count), count)

    def uniform(self, count: int) -> np.ndarray:
        """Next ``count`` doubles, uniform on [0, 1) with 2**-53 granularity;
        a copy out of the look-ahead block if fewer than ``_AHEAD``."""
        start = self._take(count)
        if count >= _AHEAD:
            return self._uniforms(start, count)
        off = start - self._ahead_at
        if off + count > len(self._ahead):
            self._ahead = self._uniforms(start, _AHEAD)
            self._ahead_at, off = start, 0
        return self._ahead[off:off + count].copy()

    def index_subset(self, n: int, k: int) -> np.ndarray:
        """Uniform subset of ``k`` distinct indices from ``range(n)``.

        Partial Fisher-Yates driven by this stream's uniforms, so the draw
        is without replacement and reproducible.  Position r of the pool
        holds ``moved.get(r, r)``: only the swapped positions are stored.
        """
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        moved: dict[int, int] = {}
        out = []
        for j, u in enumerate(self.uniform(k).tolist()):
            r = j + int(u * (n - j))
            out.append(moved.get(r, r))
            moved[r] = moved.get(j, j)
        return np.array(out, dtype=np.int64)
