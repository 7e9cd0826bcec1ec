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
_BLOCK = 256  # steps per chain-loop block (one array: its xi, then its states), or
_BLOCK_NORMALS = 1024  # enough for this many xi a row; only the grouping of sums depends on it

# ---------------------------------------------------------------------------
# Step-size schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantSchedule:
    h: float

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise ConfigurationError(f"step size must be positive and finite, got {self.h!r}")

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
        if not 0 < self.c0 < math.inf:
            raise ConfigurationError(f"c0 must be positive and finite, got {self.c0!r}")
        if not 0 < self.c1 + 1 < math.inf:
            raise ConfigurationError(f"c1 must be finite and c1 + 1 positive so every h_k "
                                     f"is defined, got {self.c1!r}")
        if not math.isfinite(self.exponent):
            raise ConfigurationError(f"exponent must be finite, got {self.exponent!r}")

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

    Solves the two endpoint equations for (c0, c1); requires finite
    h_start > h_end > 0, a finite negative exponent, and n >= 2.
    """
    if not (math.inf > h_start > h_end > 0):
        raise ConfigurationError("need h_start > h_end > 0, both finite")
    if not -math.inf < exponent < 0:
        raise ConfigurationError("exponent must be negative and finite for a decreasing schedule")
    if n < 2:
        raise ConfigurationError("need n >= 2 to pin both endpoints")
    try:
        ratio = (h_start / h_end) ** (-1.0 / exponent)  # (c1+n)/(c1+1)
    except OverflowError:
        raise ConfigurationError(f"exponent {exponent:g} is too close to 0 for "
                                 f"h_start/h_end = {h_start / h_end:g}") from None
    try:
        c1 = (n - ratio) / (ratio - 1.0)
        c0 = h_start * (c1 + 1.0) ** (-exponent)
    except (OverflowError, ZeroDivisionError):
        raise ConfigurationError(f"exponent {exponent:g} is too far from 0 for "
                                 f"h_start/h_end = {h_start / h_end:g} over {n} steps") from None
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
    """``read(lo, hi)``: xi of steps lo..hi-1 (from 0), chosen once per chain.

    A pseudo-random drive normalizes the next (hi - lo)*d uniforms of its
    stream, which starts at the draws of iteration ``start``, so it is read
    in order; a Gaussian drive slices rows lo..hi-1, and a drive matrix maps
    them through ``gaussian_rows``.  The rows do not depend on the split.
    """
    if isinstance(drive, PseudoRandomDrive):
        rng = BaselinePrng(drive.seed, drive.stream, counter=(start - 1) * d)
        return lambda lo, hi: clamped_normal(rng.uniform((hi - lo) * d)).reshape(hi - lo, d)
    if not isinstance(drive, (DriveMatrix, GaussianDrive)):
        raise ConfigurationError(f"unknown drive kind {type(drive).__name__}")
    if drive.n < n or drive.d != d:
        raise ConfigurationError(f"drive is {drive.n}x{drive.d}, chain needs {n}x{d}")
    if isinstance(drive, GaussianDrive):
        return lambda lo, hi: drive.xi[lo:hi]
    return lambda lo, hi: gaussian_rows(drive, lo, hi).xi


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
        """Langevin updates over all chains: B times the chain length (the
        step count that perfbench's tracer reads off each ``run_chain`` call)."""
        return sum(c.n_steps for c in self.chains)


def run_chain(potential, config, observe=None) -> ChainRun | np.ndarray:
    """Run one chain, or a ``ChainBatch`` side by side as one (B, d) state.

    ``observe``, unless None, receives each (b, B, d) block of states as it
    is made (B = 1 for a lone chain), a fresh array it may keep.  A
    ``ChainConfig`` returns its ``ChainRun``; a ``ChainBatch`` keeps no
    trajectory and returns the final (B, d) state.  Gradients are exact
    (``grad_batch`` on the (B, d) state) or one minibatch ``sgrad`` per row.
    The loop steps blocks of b = max(_BLOCK, ceil(_BLOCK_NORMALS / d)) steps:
    each row reads its xi from its own drive into its column of the block,
    which is scaled by sqrt(2 h_k) in place, and each state overwrites the
    xi it has used.  So the loop holds one (b, B, d) block and one row's
    read, and drops the block before the next.  Every baseline stream
    a row reads (a ``PseudoRandomDrive``, the minibatch indices) starts at
    the draws of iteration ``schedule_start``, so a chain continued on the
    same streams carries them on.  A row leaving ||theta|| <= 1e8 raises
    DivergenceError naming it.
    """
    batch = config if isinstance(config, ChainBatch) else ChainBatch((config,), ("chain",))
    head = batch.chains[0]
    d, n, size, start = head.dim, head.n_steps, head.minibatch, head.schedule_start
    if potential.dim != d:
        raise ConfigurationError(
            f"potential dimension {potential.dim} != initial point dimension {d}")
    readers = [_xi_source(c.drive, n, d, start) for c in batch.chains]
    if size is not None:
        n_data = potential.num_data
        if potential.sgrad is None:
            raise ConfigurationError(
                f"potential {potential.name!r} does not support stochastic gradients")
        if n_data is None or size > n_data:
            raise ConfigurationError("minibatch size exceeds the dataset")
        sgrad = potential.sgrad
        draws = [BaselinePrng(c.minibatch_seed, c.minibatch_stream,
                              counter=(start - 1) * size).index_subset for c in batch.chains]

        def grad_of(theta):
            return np.array([sgrad(x, draw(n_data, size)) for x, draw in zip(theta, draws)])
    else:
        grad_of = potential.grad_batch
    hs = head.schedule.step_sizes(n, start=start)
    sq2h = np.sqrt(2.0 * hs)
    theta = np.stack([c.theta0 for c in batch.chains])
    traj = None if batch is config else np.empty((n, d))
    for k in range(0, n, step := max(_BLOCK, -(-_BLOCK_NORMALS // max(d, 1)))):
        b = min(step, n - k)
        block = np.empty((b,) + theta.shape)  # xi of the block, then its states
        for i, read in enumerate(readers):
            block[:, i] = read(k, k + b)
        block *= sq2h[k:k + b, None, None]
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
            for j in range(b):  # state j overwrites the noise it has used
                theta = block[j] = theta - hs[k + j] * grad_of(theta) + block[j]
        ok = np.einsum("jid,jid->ji", block, block) <= _NORM_CAP_SQ  # False for NaN too
        if not ok.all():
            j, row = np.unravel_index(np.argmin(ok), ok.shape)  # first step, then first row
            raise DivergenceError(start + k + j, f"{batch.names[row]} diverged at "
                                                 f"iteration {start + k + j}")
        if observe is not None:
            observe(block)
        if traj is not None:
            traj[k:k + b] = block[:, 0]
        del block  # the next block may reuse its memory
    return theta if traj is None else ChainRun(traj, config, potential)


def sample_means(potential, batch: ChainBatch, observe=None) -> np.ndarray:
    """Per-chain averages of theta, theta**2 and 1{theta > 0} (the coordinate,
    square and indicator test functions) over the batch's steps, (3, B, d).
    Each block is summed over its steps, the squares one chain at a time, so
    beyond ``run_chain``'s block this holds one chain's squares and the
    block's signs.  ``observe``, unless None, then receives each (b, B, d)
    block, as from ``run_chain``: the states these averages are made of."""
    sums = np.zeros((3, len(batch.chains), potential.dim))

    def reduce(block):
        sums[0] += block.sum(axis=0)
        for i in range(block.shape[1]):  # one chain's squares at a time
            sums[1, i] += (block[:, i]**2).sum(axis=0)
        sums[2] += (block > 0).sum(axis=0)
        if observe is not None:
            observe(block)

    run_chain(potential, batch, reduce)
    return sums / batch.chains[0].n_steps


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
    # log1p keeps log(rho) below 0 where 1 - h*M rounds to 1, and the exact
    # integer quotient keeps ell finite where the float quotient overflows
    a, b = (0.5 * math.log(h)).as_integer_ratio()
    c, e = math.log1p(-h * M).as_integer_ratio()
    ell = max(1, -(-a * e // (b * c)))  # ceil((a / b) / (c / e))
    return ContractionInfo(rho=rho, ell=ell, gcd_d_ell_n=math.gcd(d * ell, n))
