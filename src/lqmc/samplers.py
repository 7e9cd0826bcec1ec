"""Unadjusted Langevin chains with pluggable Gaussian drives.

The update is theta_k = theta_{k-1} - h_k grad U(theta_{k-1})
+ sqrt(2 h_k) xi_k, written once, in a loop that steps a batch of chains
as one (B, d) state.  The loop never branches on where xi comes from:
every drive kind is read block by block into the same per-iteration rows,
so a quasi-random chain fed the same xi values as a pseudo-random one
produces the identical path.  Stochastic gradients (minibatch subsampling)
draw their indices from the baseline generator, never from the driving
sequence, so the quasi-random structure is spent on the perturbation only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .drive import DriveMatrix, GaussianDrive, clamped_normal, gaussian_rows
from .errors import ConfigurationError, DivergenceError, DomainError
from .prng import BaselinePrng

_NORM_CAP_SQ = 1e16  # ||theta|| > 1e8 aborts the chain
_BLOCK = 256  # steps per xi block of the chain loop; results do not depend on it

# ---------------------------------------------------------------------------
# Step-size schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantSchedule:
    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise ConfigurationError("step size must be positive")

    def step_sizes(self, count: int, start: int = 1) -> np.ndarray:
        return np.full(count, self.h)

    def label(self) -> str:
        return f"constant(h={self.h:g})"


@dataclass(frozen=True)
class PolynomialSchedule:
    """h_k = c0 * (c1 + k)**exponent, defaulting to the k**(-1/3) decay."""

    c0: float
    c1: float
    exponent: float = -1.0 / 3.0

    def __post_init__(self):
        if not self.c0 > 0:
            raise ConfigurationError("c0 must be positive")
        if not self.c1 + 1 > 0:
            raise ConfigurationError("c1 + 1 must be positive so every h_k is defined")

    def step_sizes(self, count: int, start: int = 1) -> np.ndarray:
        k = np.arange(start, start + count, dtype=np.float64)
        return self.c0 * (self.c1 + k) ** self.exponent

    def label(self) -> str:
        return f"poly(c0={self.c0:g},c1={self.c1:g},e={self.exponent:g})"


StepSchedule = Union[ConstantSchedule, PolynomialSchedule]


def solve_polynomial_schedule(
    h_start: float, h_end: float, n: int, exponent: float = -1.0 / 3.0
) -> PolynomialSchedule:
    """Polynomial schedule hitting h_1 = h_start and h_n = h_end exactly.

    Solves the two endpoint equations for (c0, c1); requires
    h_start > h_end > 0, a negative exponent, and n >= 2.
    """
    if not (h_start > h_end > 0):
        raise ConfigurationError("need h_start > h_end > 0")
    if exponent >= 0:
        raise ConfigurationError("exponent must be negative for a decreasing schedule")
    if n < 2:
        raise ConfigurationError("need n >= 2 to pin both endpoints")
    try:
        ratio = (h_start / h_end) ** (-1.0 / exponent)  # (c1+n)/(c1+1)
    except OverflowError:
        raise ConfigurationError(f"exponent {exponent:g} is too close to 0 for "
                                 f"h_start/h_end = {h_start / h_end:g}") from None
    c1 = (n - ratio) / (ratio - 1.0)
    c0 = h_start * (c1 + 1.0) ** (-exponent)
    return PolynomialSchedule(c0=c0, c1=c1, exponent=exponent)


# ---------------------------------------------------------------------------
# Drives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PseudoRandomDrive:
    """i.i.d. standard normal drive from the baseline generator."""

    seed: int
    stream: int = 0


Drive = Union[PseudoRandomDrive, DriveMatrix, GaussianDrive]


def _xi_source(drive: Drive, n: int, d: int, start: int):
    """``take(b)``: the next b rows of xi, the same rows whatever the b.

    A pseudo-random drive normalizes the next b*d uniforms of its stream,
    which starts at the draws of iteration ``start``; a drive matrix maps
    its next b rows, from row 0, through ``gaussian_rows``.
    """
    if isinstance(drive, PseudoRandomDrive):
        rng = BaselinePrng(drive.seed, drive.stream, counter=(start - 1) * d)
        return lambda b: clamped_normal(rng.uniform(b * d)).reshape(b, d)
    if not isinstance(drive, (DriveMatrix, GaussianDrive)):
        raise ConfigurationError(f"unknown drive kind {type(drive).__name__}")
    if drive.n < n or drive.d != d:
        raise ConfigurationError(f"drive is {drive.n}x{drive.d}, chain needs {n}x{d}")
    pos = 0

    def take(b):
        nonlocal pos
        lo, pos = pos, pos + b
        if isinstance(drive, GaussianDrive):
            return drive.xi[lo:pos]
        return gaussian_rows(drive, lo, pos).xi

    return take


# ---------------------------------------------------------------------------
# Chain configuration and runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainConfig:
    theta0: np.ndarray
    n_steps: int
    schedule: StepSchedule
    drive: Drive
    minibatch: int | None = None
    minibatch_seed: int = 0
    minibatch_stream: int = 0
    schedule_start: int = 1  # iteration of the first step; baseline streams start there

    def __post_init__(self):
        theta0 = np.atleast_1d(np.asarray(self.theta0, dtype=np.float64))
        object.__setattr__(self, "theta0", theta0)
        if self.n_steps < 0:
            raise ConfigurationError("n_steps must be nonnegative")
        if self.minibatch is not None and self.minibatch < 1:
            raise ConfigurationError("minibatch size must be >= 1")
        if self.schedule_start < 1:
            raise ConfigurationError(
                f"schedule_start must be >= 1, got {self.schedule_start}")

    @property
    def dim(self) -> int:
        return len(self.theta0)


@dataclass(frozen=True)
class ChainRun:
    """Ordered trajectory theta_1..theta_n plus everything that produced it."""

    trajectory: np.ndarray = field(repr=False)
    config: ChainConfig
    potential: object
    segments: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.trajectory.shape[0]

    def save_trajectory(self, path) -> None:
        """CSV dump (iteration, coordinates); large, off by default everywhere."""
        n, d = self.trajectory.shape
        data = np.column_stack([np.arange(1, n + 1), self.trajectory])
        np.savetxt(path, data, fmt=["%d"] + ["%.17g"] * d, delimiter=",")


@dataclass(frozen=True)
class ChainBatch:
    """Chains stepped side by side, one ``ChainConfig`` each, with its own
    theta0, drive and minibatch stream.  They must share d, ``n_steps``,
    schedule, minibatch size and ``schedule_start``; ``names`` label them in
    divergence messages."""

    chains: tuple[ChainConfig, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        if not self.chains or len(self.names) != len(self.chains):
            raise ConfigurationError("a batch needs a chain, and one name per chain")
        shared = {(c.dim, c.n_steps, c.schedule, c.minibatch, c.schedule_start)
                  for c in self.chains}
        if len(shared) != 1:
            raise ConfigurationError("the chains of a batch must share d, n_steps, "
                                     "schedule, minibatch and schedule_start")

    @property
    def n_steps(self) -> int:
        """Langevin updates over all chains: B times the chain length."""
        return sum(c.n_steps for c in self.chains)


def run_chain(potential, config, observe=None) -> ChainRun | np.ndarray:
    """Run one chain, or a ``ChainBatch`` side by side as one (B, d) state.

    A ``ChainConfig`` returns its ``ChainRun``.  A ``ChainBatch`` keeps no
    trajectory: ``observe``, unless None, receives each (b, B, d) block of
    states as it is made, and the call returns the final (B, d) state.
    Gradients are exact (``grad`` for a lone chain, ``grad_batch`` for
    several) or one minibatch ``sgrad`` per row.  Each row reads xi from its
    own drive in blocks of at most ``_BLOCK`` steps.  Every baseline stream
    a row reads (a ``PseudoRandomDrive``, the minibatch indices) starts at
    the draws of iteration ``schedule_start``, so a chain continued on the
    same streams carries them on.  A row leaving ||theta|| <= 1e8 raises
    DivergenceError naming it.
    """
    batch = config if isinstance(config, ChainBatch) else ChainBatch((config,), ("chain",))
    blocks: list = []
    if batch is not config:
        observe = blocks.append
    head = batch.chains[0]
    d, n, size, start = head.dim, head.n_steps, head.minibatch, head.schedule_start
    if potential.dim != d:
        raise ConfigurationError(
            f"potential dimension {potential.dim} != initial point dimension {d}")
    sources = [_xi_source(c.drive, n, d, start) for c in batch.chains]
    if size is not None:
        n_data = potential.num_data
        if potential.sgrad is None:
            raise ConfigurationError(
                f"potential {potential.name!r} does not support stochastic gradients")
        if n_data is None or size > n_data:
            raise ConfigurationError("minibatch size exceeds the dataset")
        rngs = [BaselinePrng(c.minibatch_seed, c.minibatch_stream, counter=(start - 1) * size)
                for c in batch.chains]

        def grad_of(theta):
            return np.array([potential.sgrad(x, rng.index_subset(n_data, size))
                             for x, rng in zip(theta, rngs)])
    elif len(batch.chains) == 1:  # grad on a vector costs less than grad_batch on a (1, d) stack

        def grad_of(theta):
            return potential.grad(theta[0])[None]
    elif potential.grad_batch is None:
        raise ConfigurationError(f"potential {potential.name!r} has no batched gradient")
    else:
        grad_of = potential.grad_batch
    hs = head.schedule.step_sizes(n, start=start)
    sq2h = np.sqrt(2.0 * hs)
    theta = np.stack([c.theta0 for c in batch.chains])
    for k in range(0, n, _BLOCK):
        b = min(_BLOCK, n - k)
        noise = np.stack([take(b) for take in sources], axis=1)  # xi of the block
        noise *= sq2h[k:k + b, None, None]
        block = np.empty((b,) + theta.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
            for j in range(b):
                theta = block[j] = theta - hs[k + j] * grad_of(theta) + noise[j]
        ok = np.einsum("jid,jid->ji", block, block) <= _NORM_CAP_SQ  # False for NaN too
        if not ok.all():
            j, row = np.unravel_index(np.argmin(ok), ok.shape)  # first step, then first row
            raise DivergenceError(start + k + j, f"{batch.names[row]} diverged at "
                                                 f"iteration {start + k + j}")
        if observe is not None:
            observe(block)
    if batch is config:
        return theta
    traj = np.concatenate([np.empty((0, 1, d)), *blocks])[:, 0]
    return ChainRun(traj, config, potential, segments=(config.n_steps,))


def continue_chain(run: ChainRun, next_drive: Drive, extra_n: int) -> ChainRun:
    """Extend a finished run from its final state with a fresh drive.

    Supports the burn-in idiom: a small-period run first, then a longer
    drive appended.  The step-size index keeps counting, so decreasing
    schedules keep decreasing, and the baseline streams (minibatch indices,
    a ``PseudoRandomDrive`` passed again) carry on where the run left them.
    ``extra_n = 0`` returns the run unchanged.
    """
    if extra_n == 0:
        return run
    cfg = run.config
    cont = replace(
        cfg,
        theta0=run.trajectory[-1],
        n_steps=extra_n,
        drive=next_drive,
        schedule_start=cfg.schedule_start + cfg.n_steps,
    )
    tail = run_chain(run.potential, cont)
    return ChainRun(
        trajectory=np.concatenate([run.trajectory, tail.trajectory]),
        config=replace(cfg, n_steps=cfg.n_steps + extra_n),
        potential=run.potential,
        segments=run.segments + (extra_n,),
    )


# ---------------------------------------------------------------------------
# Contraction diagnostics
# ---------------------------------------------------------------------------


def coupling_diagnostic(
    potential,
    theta: np.ndarray,
    theta_prime: np.ndarray,
    h: float,
    steps: int,
    shared_drive: Drive,
) -> np.ndarray:
    """Distances ||theta_k - theta'_k|| for two chains sharing every xi_k.

    For an L-smooth, M-strongly-convex potential and h <= 2/(L+M) the
    per-step ratio is bounded by 1 - h*M; a warning is emitted if declared
    constants say the step size violates that condition.
    """
    a, b = (ChainConfig(x, steps, ConstantSchedule(h), shared_drive)
            for x in (theta, theta_prime))
    if a.theta0.shape != b.theta0.shape:
        raise ConfigurationError("the two start points must share a dimension")
    L, M = potential.smoothness, potential.strong_convexity
    if L is not None and M is not None and h > 2.0 / (L + M):
        warnings.warn(
            f"h={h:g} exceeds 2/(L+M)={2.0 / (L + M):g}; contraction bound void",
            stacklevel=2,
        )
    dist = [np.linalg.norm(a.theta0 - b.theta0)]
    run_chain(potential, ChainBatch((a, b), ("theta", "theta'")),
              lambda block: dist.extend(np.linalg.norm(block[:, 0] - block[:, 1], axis=1)))
    return np.array(dist)


@dataclass(frozen=True)
class ContractionInfo:
    """Derived contraction quantities, reported for diagnostics only."""

    rho: float
    ell: int
    gcd_d_ell_n: int


def contraction_info(L: float, M: float, h: float, d: int, n: int) -> ContractionInfo:
    """rho = 1 - h*M, ell = ceil(log_rho(h) / 2), and gcd(d*ell, n).

    The coprimality of d*ell with the period is surfaced but not enforced;
    it only matters for the sharpest error-rate statements.
    """
    if not 0 < h * M < 1:
        raise DomainError("need 0 < h*M < 1 for a contraction factor in (0, 1)")
    rho = 1.0 - h * M
    ell = max(1, math.ceil(0.5 * math.log(h) / math.log(rho)))
    return ContractionInfo(rho=rho, ell=ell, gcd_d_ell_n=math.gcd(d * ell, n))
