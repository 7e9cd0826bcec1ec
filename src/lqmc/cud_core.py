"""Full-period LFSR (Tausworthe) driving sequences and uniformity diagnostics.

A binary LFSR of order ``m`` with a primitive characteristic polynomial
runs through every nonzero ``m``-bit state exactly once per period
``n = 2**m - 1``.  Reading ``m``-bit windows at stride ``s`` (the offset,
coprime with ``n``) and interpreting them as binary fractions yields a
sequence of ``n`` distinct scalars in (0, 1) — one in each dyadic interval
``(k/2**m, (k+1)/2**m]``.  Used over its entire period this is the
completely-uniformly-distributed drive for the samplers in this package.

Uniformity is measured by the exact star discrepancy in one and two
dimensions (higher dimensions are out of reach for exact computation and
are diagnosed via projections).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, SizeError

# ---------------------------------------------------------------------------
# GF(2) polynomials
# ---------------------------------------------------------------------------


def _gf2_mulmod(a: int, b: int, f: int, m: int) -> int:
    """Carry-less multiply of a and b, reduced modulo f (degree m)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> m) & 1:
            a ^= f
    return r


def _gf2_powmod(base: int, exp: int, f: int, m: int) -> int:
    r = 1
    while exp:
        if exp & 1:
            r = _gf2_mulmod(r, base, f, m)
        base = _gf2_mulmod(base, base, f, m)
        exp >>= 1
    return r


def factorize(n: int) -> list[int]:
    """Prime factors of n >= 1 (without multiplicity) by trial division up
    to sqrt(n): exact for every n, and quick for every 2**m - 1 with m <= 32."""
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        factors.append(n)
    return factors


def is_primitive(mask: int) -> bool:
    """Whether the polynomial with coefficient mask ``mask`` (bit j is the
    coefficient of x^j, degree m = mask.bit_length() - 1) is primitive over
    GF(2), i.e. x has order n = 2**m - 1 modulo it: x^n == 1 and
    x^(n/q) != 1 for every prime q dividing n.

    That alone implies irreducibility: the n distinct powers of x are units
    and fill all n nonzero residues, so the residue ring is a field (Lidl &
    Niederreiter, *Finite Fields*, Thm 3.16).
    """
    m = mask.bit_length() - 1
    if not 2 <= m <= 32:
        raise SizeError(f"order {m} unsupported (need 2 <= m <= 32)")
    n = (1 << m) - 1
    if _gf2_powmod(2, n, mask, m) != 1:
        return False
    return all(_gf2_powmod(2, n // q, mask, m) != 1 for q in factorize(n))


# ---------------------------------------------------------------------------
# Built-in generator table
# ---------------------------------------------------------------------------

# One verified primitive polynomial per order (smallest coefficient mask;
# each entry is re-verified by is_primitive in the test suite).  The default
# offset is the smallest integer >= 2 coprime with 2**m - 1, which is 2 for
# every m since the period is odd.
_POLY_MASKS = {
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x402B,
    15: 0x8003,
    16: 0x1002D,
    17: 0x20009,
    18: 0x40027,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x4000047,
    27: 0x8000027,
    28: 0x10000009,
    29: 0x20000005,
    30: 0x40000053,
    31: 0x80000009,
    32: 0x1000000AF,
}

DEFAULT_OFFSET = 2
TABLE_RANGE = range(3, 33)
# Period budget: the largest m whose sequence is generated.  At m=26 the
# states and the values of one period take 512 MiB each, and generating
# it raises the RSS by about 1.0 GiB; larger orders stay in the table for
# listing and primitivity.
MAX_M = 26
_LANES = 4096  # LFSR lanes advanced together by _states
_BLOCK = 1 << 12  # period indices decimated together by generate_cud


def builtin_poly(m: int) -> int:
    """Table polynomial mask for order ``m`` (3 <= m <= 32)."""
    if m not in _POLY_MASKS:
        raise ConfigurationError(
            f"m={m} outside built-in table range {TABLE_RANGE.start}..{TABLE_RANGE.stop - 1}"
        )
    return _POLY_MASKS[m]


def table_listing() -> str:
    """Plain-text audit listing: one line per order, `m hex_mask offset`."""
    lines = ["# m  poly_mask_hex  offset"]
    for m in TABLE_RANGE:
        lines.append(f"{m}  0x{_POLY_MASKS[m]:x}  {DEFAULT_OFFSET}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# LFSR bitstream and CUD sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LfsrConfig:
    """Fully determines one period-(2**m - 1) driving sequence: the
    characteristic polynomial x^m + a_{m-1} x^{m-1} + ... + a_0 as a mask
    (bit j is a_j, bit m the leading 1) and the decimation offset.

    The register starts at (1, 0, ..., 0).  For a primitive polynomial every
    nonzero state lies on the one cycle, so another start would only rotate
    the period; randomization comes from the shift, not here.
    """

    poly_mask: int
    offset: int = DEFAULT_OFFSET

    def __post_init__(self):
        if self.m < 2:
            raise ConfigurationError(f"degree must be >= 2, got mask 0x{self.poly_mask:x}")
        if not self.poly_mask & 1:  # x divides it, so it cannot be primitive
            raise ConfigurationError(
                f"constant coefficient a_0 of mask 0x{self.poly_mask:x} must be 1")
        self.check_offset(self.offset, self.m)

    @staticmethod
    def check_offset(offset: int, m: int) -> None:
        """ConfigurationError unless offset is positive and coprime with 2^m - 1."""
        n = (1 << m) - 1
        if offset < 1 or math.gcd(offset, n) != 1:
            raise ConfigurationError(
                f"offset {offset} must be positive and coprime with 2^{m}-1={n}"
            )

    @property
    def m(self) -> int:
        return self.poly_mask.bit_length() - 1

    @property
    def period(self) -> int:
        return (1 << self.m) - 1


def builtin_config(m: int, offset: int | None = None,
                   poly_mask: int | None = None) -> LfsrConfig:
    """The generator of order ``m``: the table polynomial, or ``poly_mask`` when
    that has degree m, at the default offset unless ``offset`` overrides it.
    The one place that chooses a run's generator for each m."""
    if poly_mask is None or poly_mask.bit_length() - 1 != m:
        poly_mask = builtin_poly(m)
    return LfsrConfig(poly_mask, DEFAULT_OFFSET if offset is None else offset)


def _states(config: LfsrConfig, count: int) -> np.ndarray:
    """Bit-reversed LFSR states r_0, ..., r_{count-1} as uint64.

    r_t holds the window b_t..b_{t+m-1} with b_t as its top bit, so one
    step is ``r' = ((r << 1) mod 2**m) | parity(r & taps)`` with bit
    m-1-j of ``taps`` equal to a_j.  Lanes advance together for
    ceil(count / lanes) vectorised steps; lane k starts k*steps states in,
    reached by GF(2) jumps: x**c mod f, evaluated at the step map, advances
    any state by c steps (Haramoto et al., INFORMS J. Comput. 2008).
    """
    m = config.m
    if count > 1 << MAX_M:
        raise SizeError(f"m={m}: {count} LFSR states exceed the budget of 2^{MAX_M}")
    one, full = np.uint64(1), np.uint64((1 << m) - 1)
    taps = np.uint64(sum((config.poly_mask >> j & 1) << (m - 1 - j) for j in range(m)))
    folds = [np.uint64(1 << k) for k in reversed(range((m - 1).bit_length()))]

    def step(r):
        p = r & taps
        for k in folds:  # shift-xor fold: bit 0 becomes the parity of m bits
            p ^= p >> k
        return ((r << one) & full) | (p & one)

    lanes = min(_LANES, 1 << max(count - 1, 0).bit_length())
    steps = -(-count // lanes)
    powers = np.empty((m, m), dtype=np.uint64)  # powers[i, j]: state 2**j after i steps
    powers[0] = one << np.arange(m, dtype=np.uint64)
    for i in range(1, m):
        powers[i] = step(powers[i - 1])
    r = np.empty(lanes, dtype=np.uint64)
    r[0] = 1 << (m - 1)  # the start (1, 0, ..., 0)
    k = 1
    while k < lanes:  # lanes k..2k-1 are lanes 0..k-1 advanced k*steps steps
        g = _gf2_powmod(2, k * steps, config.poly_mask, m)
        # images[j]: state 2**j after k*steps steps, sum of powers[i] over the x^i of g
        images = np.bitwise_xor.reduce(powers[[i for i in range(m) if g >> i & 1]])
        r[k:2 * k] = 0
        for j in range(m):  # xor in images[j] where bit j is set, with (k,) temporaries
            r[k:2 * k] ^= ((r[:k] >> np.uint64(j)) & one) * images[j]
        k *= 2
    out = np.empty((lanes, steps), dtype=np.uint64)
    for t in range(steps):
        out[:, t] = r
        r = step(r)
    return out.reshape(-1)[:count]


def lfsr_bitstream(config: LfsrConfig, count: int) -> np.ndarray:
    """First ``count`` bits b_0, b_1, ... of the shift-register recursion.

    b_i = sum_j a_j b_{i-m+j} mod 2 for i >= m, with the first m bits
    1, 0, ..., 0.  Deterministic in the configuration.
    """
    if count < 0:
        raise DomainError("count must be nonnegative")
    return (_states(config, count) >> np.uint64(config.m - 1)).astype(np.uint8)


def lfsr_period(config: LfsrConfig) -> int:
    """Exact period of the state sequence: the first t >= 1 with r_t = r_0.

    With a_0 = 1 the step is invertible, so every nonzero state lies on a
    cycle of at most 2**m - 1 states and r_0 recurs among r_1..r_n.  A test
    oracle for the period that primitivity implies.
    """
    r = _states(config, config.period + 1)
    return int(np.flatnonzero(r[1:] == r[0])[0]) + 1


@dataclass(frozen=True)
class CudSequence:
    """One full period of offset-decimated LFSR fractions.

    ``values[i] = sum_j b_{s*i+j} 2**-(j+1)`` for i = 0..2**m-2: the m-bit
    window starting at bit s*i, read as a binary expansion.  All values are
    distinct, nonzero, and of the form k/2**m.
    """

    values: np.ndarray = field(repr=False)
    config: LfsrConfig

    @property
    def m(self) -> int:
        return self.config.m

    @property
    def n(self) -> int:
        return len(self.values)


def generate_cud(config: LfsrConfig) -> CudSequence:
    """Materialize the full driving sequence for ``config``.

    Requires a primitive characteristic polynomial (so the period really is
    2**m - 1); the offset condition gcd(s, 2**m - 1) = 1 is enforced by
    ``LfsrConfig``.  Memory is two period-long arrays, the states and the
    values, plus one block; m above ``MAX_M`` is refused.
    """
    if not is_primitive(config.poly_mask):
        raise ConfigurationError(f"polynomial 0x{config.poly_mask:x} is not primitive")
    n, s = config.period, config.offset % config.period
    states = _states(config, n)
    # values[i] is the window at bit s*i, i.e. state r_{s*i mod n} over 2**m,
    # gathered one block of indices at a time, each computed in place
    values = np.empty(n)
    for lo in range(0, n, _BLOCK):
        i = np.arange(lo, min(lo + _BLOCK, n), dtype=np.int64)
        i *= s
        i %= n
        values[lo:lo + len(i)] = states[i]
    values *= 2.0 ** -config.m
    return CudSequence(values=values, config=config)


def overlapping_tuples(seq: CudSequence, d: int = 2) -> "PointSet":
    """Cyclic overlapping d-tuples (v_i, ..., v_{i+d-1}), one per period index.

    This is the point set whose equidistribution the CUD property is about;
    used here as a discrepancy diagnostic.
    """
    n = seq.n
    idx = (np.arange(n)[:, None] + np.arange(d)[None, :]) % n
    return PointSet(dimension=d, points=seq.values[idx])


# ---------------------------------------------------------------------------
# Star discrepancy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointSet:
    """Points in [0, 1)^d, rows of ``points``."""

    dimension: int
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DomainError(
                f"points must be (N, {self.dimension}), got shape {np.shape(self.points)}"
            )
        if pts.size and not (pts.min() >= 0.0 and pts.max() < 1.0):  # NaN fails too
            raise DomainError("coordinates must lie in [0, 1)")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def star_discrepancy_1d(points: PointSet) -> float:
    """Exact D*_N for d=1 via the sorted-points formula."""
    if points.dimension != 1:
        raise DomainError("star_discrepancy_1d needs a 1-dimensional point set")
    n = len(points)
    if n == 0:
        raise DomainError("empty point set")
    u = np.sort(points.points[:, 0])
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - u, u - (i - 1) / n).max())


def star_discrepancy_2d(points: PointSet) -> float:
    """Exact D*_N for d=2 by sweeping the grid of critical corners.

    For anchored half-open boxes the supremum is attained in the limit at
    corners built from the coordinate values (and 1.0), evaluating the
    point count both with and without the boundary:

        D* = max over grid (a, b) of
             max(closed(a, b)/N - ab,  ab - open(a, b)/N)

    where closed counts x <= a, y <= b and open counts strict inequalities.
    O(N^2) time, O(N) memory; guarded at N <= 2**14.
    """
    if points.dimension != 2:
        raise DomainError("star_discrepancy_2d needs a 2-dimensional point set")
    n = len(points)
    if n == 0:
        raise DomainError("empty point set")
    if n > 1 << 14:
        raise SizeError(f"N={n} above the 2^14 exact-computation guard; subsample first")
    x = points.points[:, 0]
    y = points.points[:, 1]
    gy = np.unique(y)
    grid_b = np.append(gy, 1.0)
    yrank = np.searchsorted(gy, y)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    yrs = yrank[order]
    grid_a = np.append(np.unique(x), 1.0)

    hist_closed = np.zeros(len(gy), dtype=np.int64)
    hist_open = np.zeros(len(gy), dtype=np.int64)
    best = 0.0
    ic = io = 0
    for a in grid_a:
        while ic < n and xs[ic] <= a:
            hist_closed[yrs[ic]] += 1
            ic += 1
        while io < n and xs[io] < a:
            hist_open[yrs[io]] += 1
            io += 1
        cum_c = np.cumsum(hist_closed)
        cum_o = np.cumsum(hist_open)
        closed = np.append(cum_c, cum_c[-1] if len(cum_c) else 0)
        opened = np.concatenate(([0], cum_o))
        vol = a * grid_b
        best = max(
            best,
            float((closed / n - vol).max()),
            float((vol - opened / n).max()),
        )
    return best
