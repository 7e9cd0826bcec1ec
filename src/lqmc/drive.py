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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.special import ndtri

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
    """Componentwise (values + shift) mod 1."""
    return (values + shift) % 1.0


@dataclass(frozen=True)
class DriveMatrix:
    """n rows of uniform vectors; ``d`` usable of ``d_stored`` columns.

    ``base`` holds the pre-shift arrangement; ``rows`` the rotated matrix.
    Immutable after construction.
    """

    base: np.ndarray = field(repr=False)
    shift: np.ndarray = field(repr=False)
    d: int

    @property
    def n(self) -> int:
        return self.base.shape[0]

    @property
    def d_stored(self) -> int:
        return self.base.shape[1]

    @cached_property
    def full_rows(self) -> np.ndarray:
        """All stored columns after rotation, shape (n, d_stored)."""
        return rotate(self.base, self.shift)

    @property
    def rows(self) -> np.ndarray:
        """The usable uniform vectors u_1..u_n, shape (n, d)."""
        return self.full_rows[:, : self.d]

    def reshifted(self, rng: BaselinePrng) -> "DriveMatrix":
        """This arrangement (``base`` shared, not copied) under a fresh shift from ``rng``."""
        return replace(self, shift=quantize_shift(rng.uniform(self.d_stored)))

    def to_csv(self, path) -> None:
        """Dump usable rows, 17 significant digits, for bit-comparison."""
        np.savetxt(path, self.rows, fmt="%.17g", delimiter=",")


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
            ``rng`` (a fresh seed-0 generator if that is also None).
        rng: source for a random shift; pass per-replicate generators to
            make replicates independent and reproducible.
    """
    n = seq.n
    ds = coprime_width(n, d)
    if shift is None:
        shift = (rng or BaselinePrng(0)).uniform(ds)
    shift = quantize_shift(shift)
    if shift.shape != (ds,):
        raise ConfigurationError(
            f"shift must have the stored width {ds} (d={d}, n={n}), got {shift.shape}"
        )
    if shift.min() < 0.0 or shift.max() >= 1.0:
        raise ConfigurationError("shift entries must lie in [0, 1)")
    idx = np.arange(n * ds, dtype=np.int64) % n
    base = seq.values[idx].reshape(n, ds)
    return DriveMatrix(base=base, shift=shift, d=d)


# ---------------------------------------------------------------------------
# Inverse normal CDF
# ---------------------------------------------------------------------------


def inverse_normal_cdf(u):
    """Quantile z with Phi(z) = u, |Phi(z) - u| <= 1e-9 on (0, 1).

    Arguments above 1/2 are reflected through the exact identity 1 - u
    (Sterbenz) before ``scipy.special.ndtri``, so odd symmetry is exact
    whenever both u and 1 - u are representable.  Raises DomainError
    outside (0, 1); callers that may hit the endpoints must pre-clamp (see
    ``gaussian_rows``).
    """
    arr = np.asarray(u, dtype=np.float64)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    if flat.size and (not np.all(flat > 0.0) or not np.all(flat < 1.0)):
        raise DomainError("inverse_normal_cdf requires 0 < u < 1")
    upper = flat > 0.5
    z = ndtri(np.where(upper, 1.0 - flat, flat))
    out = np.where(upper, -z, z).reshape(arr.shape)
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


def gaussian_rows(matrix: DriveMatrix) -> GaussianDrive:
    """Map each uniform row through the inverse normal CDF.

    Rotated uniforms can land exactly on 0, so inputs are clamped to
    [2**-53, 1 - 2**-53], bounding |xi| by about 8.2 with negligible bias.
    """
    u = np.clip(matrix.rows, _UNIT_LO, _UNIT_HI)
    return GaussianDrive(xi=inverse_normal_cdf(u))


def clamped_normal(u: np.ndarray) -> np.ndarray:
    """Inverse-CDF normals from uniforms in [0, 1), with endpoint clamping.

    The same transform ``gaussian_rows`` applies, exposed for the baseline
    pseudo-random drive so both drives differ only in their uniforms.
    """
    return inverse_normal_cdf(np.clip(u, _UNIT_LO, _UNIT_HI))
