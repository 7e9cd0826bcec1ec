"""Per-iteration uniform vectors and their Gaussian transform.

One full period of a driving sequence, repeated ``d'`` times and arranged
row-major into an ``n x d'`` matrix, supplies the iteration-k uniform
vector as row k.  ``d'`` is the smallest width >= d coprime with n, which
makes every column a permutation of the full value set (perfect
one-dimensional stratification).  A Cranley-Patterson rotation (mod-1
shift) randomizes the matrix while preserving that structure; the inverse
normal CDF then turns rows into Gaussian perturbations.

Shifts are quantized to the 2**-52 grid.  Together with the driving values
being dyadic k/2**m (m <= 32), this makes the rotation exactly invertible
in float64 — no accumulated rounding between a shift and its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cud_core import CudSequence
from .errors import ConfigurationError, DomainError
from .prng import BaselinePrng

_SHIFT_SCALE = 2.0**52
_UNIT_LO = 2.0**-53
_UNIT_HI = 1.0 - 2.0**-53  # largest double below 1


def coprime_width(n: int, d: int) -> int:
    """Smallest integer >= d coprime with n."""
    if d < 1:
        raise DomainError("d must be >= 1")
    w = d
    while math.gcd(w, n) != 1:
        w += 1
    return w


def quantize_shift(shift: np.ndarray) -> np.ndarray:
    """Snap a shift vector to the 2**-52 grid (keeps rotation invertible)."""
    return np.floor(np.asarray(shift, dtype=np.float64) * _SHIFT_SCALE) / _SHIFT_SCALE


def rotate(values: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Componentwise (values + shift) mod 1, for values and shift in [0, 1).

    The sum lies in [0, 2), so subtracting 1 where it reaches 1 gives the
    same bits as ``% 1.0`` (Sterbenz) at a tenth of the cost.
    """
    u = values + shift
    u -= (u >= 1.0)
    return u


@dataclass(frozen=True)
class DriveMatrix:
    """n rows of uniform vectors; ``d`` usable of ``d_stored`` columns.

    Only the period ``values`` (shared with its ``CudSequence``, not copied)
    and the shift are stored: row k, column j is
    ``(values[(k * d_stored + j) mod n] + shift[j]) mod 1``, read on demand.
    """

    values: np.ndarray = field(repr=False)
    shift: np.ndarray = field(repr=False)
    d: int

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def d_stored(self) -> int:
        return len(self.shift)

    @property
    def base(self) -> np.ndarray:
        """The pre-shift arrangement, shape (n, d_stored)."""
        return np.resize(self.values, (self.n, self.d_stored))

    def rows(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Usable rows u_lo..u_{hi-1} (default: all), shape (hi - lo, d), in O(hi - lo)."""
        hi = self.n if hi is None else hi
        size, start = (hi - lo) * self.d_stored, lo * self.d_stored % self.n
        run = self.values[start:start + size]  # one run of the repeated period
        if len(run) < size:  # wraps: whole periods, then the head of the next
            reps, rest = divmod(size - len(run), self.n)
            run = np.concatenate([run, *[self.values] * reps, self.values[:rest]])
        return rotate(run.reshape(-1, self.d_stored)[:, : self.d], self.shift[: self.d])


def build_drive_matrix(
    seq: CudSequence,
    d: int,
    shift: np.ndarray | None = None,
    rng: BaselinePrng | None = None,
) -> DriveMatrix:
    """Arrange one full period into the iteration-by-dimension matrix.

    Args:
        seq: full-period driving sequence (n = 2**m - 1 values).
        d: usable dimension; the stored width is ``coprime_width(n, d)``.
        shift: rotation vector in [0,1)**d_stored.  When None, drawn from
            ``rng``; with neither, the matrix is unshifted.
        rng: source for a random shift; pass per-replicate generators to
            make replicates independent and reproducible.
    """
    n = seq.n
    ds = coprime_width(n, d)
    if shift is None:
        shift = np.zeros(ds) if rng is None else rng.uniform(ds)
    shift = quantize_shift(shift)
    if shift.shape != (ds,):
        raise ConfigurationError(
            f"shift must have the stored width {ds} (d={d}, n={n}), got {shift.shape}"
        )
    if not (shift.min() >= 0.0 and shift.max() < 1.0):  # NaN fails too
        raise ConfigurationError("shift entries must lie in [0, 1)")
    return DriveMatrix(values=seq.values, shift=shift, d=d)


# ---------------------------------------------------------------------------
# Inverse normal CDF
# ---------------------------------------------------------------------------


def _reflected_ndtri(u: np.ndarray) -> np.ndarray:
    """Phi^-1 of every entry of u in (0, 1), computed in place over u.

    z = ndtri(min(u, 1 - u)) is the lower-tail quantile, z <= 0, and
    copysign(z, u - 1/2) negates it exactly where u > 1/2.  This has the
    bits of ``where(u > .5, -ndtri(1 - u), ndtri(u))``: for u >= 1/2,
    1 - u is exact (Sterbenz) and at most u; for u < 1/2, 1 - u > 1/2 > u;
    at u = 1/2 both give +0.0.  The caller must own u.
    """
    from scipy.special import ndtri  # here, so commands drawing no normal skip scipy

    z = np.subtract(1.0, u)
    np.minimum(u, z, out=z)
    ndtri(z, out=z)
    u -= 0.5
    return np.copysign(z, u, out=u)


def inverse_normal_cdf(u):
    """Quantile z with Phi(z) = u, |Phi(z) - u| <= 1e-9 on (0, 1).

    ``scipy.special.ndtri`` of min(u, 1 - u), whose sign is then set from
    u - 1/2 (``_reflected_ndtri``), so odd symmetry is exact whenever both
    u and 1 - u are representable, and the bits equal those of reflecting
    u > 1/2 through 1 - u and negating.  Raises DomainError outside
    (0, 1); callers that may hit the endpoints must pre-clamp (see
    ``clamped_normal``).
    """
    arr = np.array(u, dtype=np.float64)  # a copy: the kernel works in place
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    if flat.size and (not np.all(flat > 0.0) or not np.all(flat < 1.0)):
        raise DomainError("inverse_normal_cdf requires 0 < u < 1")
    out = _reflected_ndtri(flat).reshape(arr.shape)
    return float(out) if scalar else out


@dataclass(frozen=True)
class GaussianDrive:
    """Per-iteration standard normal vectors xi_k, shape (n, d)."""

    xi: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.xi)):
            raise DomainError("GaussianDrive entries must be finite")

    @property
    def n(self) -> int:
        return self.xi.shape[0]

    @property
    def d(self) -> int:
        return self.xi.shape[1]


def gaussian_rows(matrix: DriveMatrix, lo: int = 0, hi: int | None = None) -> GaussianDrive:
    """Map uniform rows lo..hi-1 (default: all) through the inverse normal CDF.

    Rotated uniforms can land exactly on 0, so inputs are clamped to
    [2**-53, 1 - 2**-53], bounding |xi| by about 8.2 with negligible bias.
    ``rows`` returns a fresh rotated array, never the shared period, so the
    clamp and ``_reflected_ndtri`` run in place on it: about one ``ndtri``
    per normal, with the bits of the clip-reflect-negate formula.
    """
    u = matrix.rows(lo, hi)
    return GaussianDrive(xi=_reflected_ndtri(np.clip(u, _UNIT_LO, _UNIT_HI, out=u)))


def clamped_normal(u: np.ndarray) -> np.ndarray:
    """Inverse-CDF normals from uniforms in [0, 1), with endpoint clamping.

    The same transform ``gaussian_rows`` applies, exposed for the baseline
    pseudo-random drive so both drives differ only in their uniforms: the
    clamp copies u, and ``_reflected_ndtri`` overwrites that copy.
    """
    return _reflected_ndtri(np.clip(u, _UNIT_LO, _UNIT_HI))
