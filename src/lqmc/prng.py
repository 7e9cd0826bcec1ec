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
keeps a running counter so successive calls continue the stream, and
computes every ``uint64`` and ``uniform`` draw straight from it.

Minibatch index sets are served from a look-ahead block.  A draw of k
of n indices is a partial Fisher-Yates on the next k uniforms; the first
draw of a run of equal (n, k) computes the next D = max(1, _SETS_AHEAD // k)
such draws at once with ``partial_fisher_yates``, and the draws after it
take its rows in turn.  A draw whose start is not a row of the block (a new
(n, k), or an interleaved uniform draw of other than a multiple of k)
computes a new block from its own start, so each index set is again a pure
function of the stream and its start.  A block costs O(D k log k)
vectorized work and O(D k) memory, whatever n is.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_STREAM_MULT = 0xD1B54A32D192ED03
_SEED_SALT = 0x243F6A8885A308D3
_INV_2_53 = 2.0 ** -53
_SETS_AHEAD = 1024  # uniforms of index sets computed ahead, whole sets, at least one
# The seeds the generator takes: its key reads 64 bits of the seed, so a
# seed outside 0 <= seed < 2**64 would alias one inside.
SEED_RANGE = range(1 << 64)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array the caller owns, which it
    overwrites and returns (mod-2**64 wraparound)."""
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


class BaselinePrng:
    """Splittable counter-based 64-bit generator with a persistent counter.

    Identical ``(seed, stream, counter)`` triples produce identical output
    everywhere; there is no global state.
    """

    def __init__(self, seed: int, stream: int = 0, counter: int = 0):
        if counter < 0:
            raise ValueError(f"counter must be nonnegative, got {counter}")
        self.seed = int(seed)
        if self.seed not in SEED_RANGE:
            raise ValueError(f"seed must be in 0..2^64 - 1, got {self.seed}")
        self.stream = int(stream)
        k = _mix64(np.array([self.seed ^ _SEED_SALT], dtype=np.uint64))
        k ^= np.uint64((self.stream * _STREAM_MULT) & 0xFFFFFFFFFFFFFFFF)
        self._key = _mix64(k)[0]
        self._counter = int(counter)  # outputs of the stream already consumed
        self._sets = np.empty((0, 0), dtype=np.int64)  # look-ahead index sets: row i ...
        self._sets_key = (0, 0, 0)  # ... is draw (n, k) from output start + i * k on

    def _words(self, start: int, count: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            z = np.arange(start + 1, start + count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
            z += self._key
        return _mix64(z)

    def _uniforms(self, start: int, count: int) -> np.ndarray:
        u = (self._words(start, count) >> np.uint64(11)).astype(np.float64)
        u *= _INV_2_53
        return u

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
        """Next ``count`` doubles, uniform on [0, 1) with 2**-53 granularity."""
        return self._uniforms(self._take(count), count)

    def index_subset(self, n: int, k: int) -> np.ndarray:
        """Uniform subset of ``k`` distinct indices from ``range(n)``.

        The partial Fisher-Yates of ``partial_fisher_yates`` on the next
        ``k`` uniforms of the stream; a copy of the next row of the
        look-ahead block of index sets.
        """
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        start = self._take(k)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        key_n, key_k, at = self._sets_key
        row, off = divmod(start - at, k)
        if (key_n, key_k) != (n, k) or off or not 0 <= row < len(self._sets):
            count = max(1, _SETS_AHEAD // k) * k
            self._sets = partial_fisher_yates(self._uniforms(start, count).reshape(-1, k), n)
            self._sets_key, row = (n, k, start), 0
        return self._sets[row].copy()


def partial_fisher_yates(u: np.ndarray, n: int) -> np.ndarray:
    """Row i: the first k entries of ``range(n)`` after the swaps
    ``pool[j] <-> pool[r_j]``, ``r_j = j + trunc(u[i, j] * (n - j))``, for
    j = 0 .. k - 1 in turn; vectorized over the D rows of ``u`` (D, k).

    Step j outputs what position r_j >= j holds: r_j itself, unless an
    earlier step q targeted it too (``prev``, the last such q), which left
    there what position q held at step q.  That is q, unless a step before
    q targeted q (``home[q]``), and so on.  Both links come from one
    row-wise stable sort of the targets, and the chains are followed by
    pointer doubling in O(log k) rounds, so memory is O(D k) whatever n is.
    """
    d, k = u.shape
    j = np.arange(k)
    r = j + (u * (n - j)).astype(np.int64)
    at = np.arange(0, d * k, k)[:, None]  # links are flat indices into the (D, k) block
    order = np.argsort(r, axis=1, kind="stable") + at  # by target, then by step
    s = r.ravel()[order]
    same = s[:, 1:] == s[:, :-1]
    prev = np.full(d * k, -1)
    prev[order[:, 1:][same]] = order[:, :-1][same]
    last = np.ones((d, k), dtype=bool)  # the last step to target each q < k
    last[:, :-1] = ~same
    last &= s < k
    home = (j + at).ravel()
    home[(s + at)[last]] = order[last]  # q itself if r_q = q: no chain reaches q then
    while not np.array_equal(nxt := home[home], home):
        home = nxt
    return np.where(prev >= 0, home[prev], (r + at).ravel()).reshape(d, k) - at
