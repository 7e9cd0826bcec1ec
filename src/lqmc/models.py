"""Benchmark target distributions, synthetic data, and ground-truth oracles.

Each target is a ``Potential``: the negative log-density U with its
gradient on a point and on a stack of points (and, where available,
per-datum gradients for stochastic updates and smoothness/convexity
constants).  Ground truth for the estimators comes from a closed form
(Gaussian posterior; Bessel functions for the double well), or long
small-step reference chains, stepped by the sampler's ``run_chain`` and
averaged by its ``sample_means``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .drive import clamped_normal
from .errors import ConfigurationError, DataError, DomainError
from .prng import BaselinePrng
from .samplers import (ChainBatch, ChainConfig, ConstantSchedule, PseudoRandomDrive,
                       run_chain, sample_means)


# ---------------------------------------------------------------------------
# Potential and ground-truth containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Potential:
    """Negative log-density with gradient and optional extras.

    ``sgrad(theta, idx)`` must return an unbiased gradient estimate
    from the data subset ``idx``:  grad(prior) + (N/|idx|) * sum of the
    selected per-datum likelihood gradients.  ``grad_batch`` (required)
    evaluates the exact gradient on a stack of points; every exact-gradient
    chain, lone or batched, and the reference-chain oracle use it.  Every
    model passes the same function as ``grad``; the field stays until the
    benchmark's tracer stops reading it (ROADMAP item 4, step A).
    ``smoothness``/``strong_convexity`` are the (L, M) constants when known.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    grad_batch: Callable[[np.ndarray], np.ndarray]
    sgrad: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    num_data: int | None = None
    smoothness: float | None = None
    strong_convexity: float | None = None
    name: str = ""


@dataclass(frozen=True)
class GroundTruth:
    """Expected values of the three test-function families per coordinate."""

    mean: np.ndarray
    second_moment: np.ndarray
    positive_prob: np.ndarray
    provenance: str  # closed-form | long-reference-run
    mean_se: np.ndarray | None = None
    second_moment_se: np.ndarray | None = None
    positive_prob_se: np.ndarray | None = None
    error_estimate: float | None = None

    # Test-function kind -> the field of its expectations; "<field>_se" holds
    # their standard errors.
    _FIELDS = {"coordinate": "mean", "square": "second_moment", "indicator": "positive_prob"}
    _ARRAYS = (*_FIELDS.values(), *(f"{name}_se" for name in _FIELDS.values()))

    def __post_init__(self):
        for name in self._ARRAYS:
            arr = getattr(self, name)
            if arr is not None and len(arr) != len(self.mean):
                raise ValueError(f"has field {name!r} of {len(arr)} entries, not "
                                 f"{len(self.mean)} as 'mean'")

    def values(self, kind: str) -> np.ndarray:
        return getattr(self, self._FIELDS[kind])

    def se(self, kind: str) -> np.ndarray | None:
        return getattr(self, f"{self._FIELDS[kind]}_se")

    def to_dict(self) -> dict:
        """JSON-ready payload; ``from_dict`` round-trips it."""
        payload = {"provenance": self.provenance, "error_estimate": self.error_estimate}
        for name in self._ARRAYS:
            arr = getattr(self, name)
            payload[name] = None if arr is None else [float(v) for v in arr]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "GroundTruth":
        """KeyError for a missing field, ValueError for one not a list of numbers."""
        arrays = {name: payload[name] for name in cls._ARRAYS}
        for name, value in arrays.items():
            if value is None and name.endswith("_se"):
                continue
            if not (isinstance(value, list) and all(type(v) in (int, float) for v in value)):
                raise ValueError(f"has field {name!r} = {json.dumps(value)}, not a list of numbers")
            arrays[name] = np.array(value, dtype=np.float64)
        return cls(provenance=payload["provenance"],
                   error_estimate=payload["error_estimate"], **arrays)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def covariance_matrix(d: int) -> np.ndarray:
    """Feature covariance with geometric decay: Sigma_ij = 2**-|i-j|."""
    idx = np.arange(d)
    return 2.0 ** -np.abs(idx[:, None] - idx[None, :])


@dataclass(frozen=True)
class SyntheticDataset:
    """Seed-reproducible synthetic data for one model kind.

    For ``logistic``/``linear``: design ``X`` (N x d), responses ``y`` (N),
    true coefficients ``beta``.  For ``crossed``: ``y`` is the I x J
    observation matrix, ``beta`` packs the true latents
    (mu, a_1..a_I, b_1..b_J, log sa2, log sb2), and ``X`` is None.
    """

    kind: str
    X: np.ndarray | None
    y: np.ndarray
    beta: np.ndarray
    seed: int
    noise_var: float = 0.25


def synthesize_data(kind: str, n_obs: int, dim: int, seed: int,
                    noise_var: float = 0.25) -> SyntheticDataset:
    """Draw a dataset from the generative model itself.

    ``logistic``/``linear``: beta ~ N(0, I_dim), rows of X ~ N(0, Sigma)
    via the Cholesky factor of ``covariance_matrix(dim)``, responses from
    the likelihood.  ``crossed``: n_obs = I, dim = J, all latents from
    their priors.  Byte-identical output for identical arguments.
    """
    if kind not in ("logistic", "linear", "crossed"):
        raise ConfigurationError(f"unknown dataset kind {kind!r}")
    if n_obs < 0 or dim < 1:
        raise ConfigurationError("sizes must be positive")
    rng = BaselinePrng(seed)
    if kind == "crossed":
        i_sz, j_sz = n_obs, dim
        mu = clamped_normal(rng.uniform(1))[0]
        lam = clamped_normal(rng.uniform(2))
        a = np.exp(lam[0] / 2.0) * clamped_normal(rng.uniform(i_sz))
        b = np.exp(lam[1] / 2.0) * clamped_normal(rng.uniform(j_sz))
        noise = clamped_normal(rng.uniform(i_sz * j_sz)).reshape(i_sz, j_sz)
        y = mu + a[:, None] + b[None, :] + noise
        beta = np.concatenate([[mu], a, b, lam])
        return SyntheticDataset(kind=kind, X=None, y=y, beta=beta, seed=seed)
    beta = clamped_normal(rng.uniform(dim))
    chol = np.linalg.cholesky(covariance_matrix(dim))
    X = clamped_normal(rng.uniform(n_obs * dim)).reshape(n_obs, dim) @ chol.T
    eta = X @ beta
    if kind == "logistic":
        from scipy.special import expit

        y = (rng.uniform(n_obs) < expit(eta)).astype(np.float64)
        return SyntheticDataset(kind=kind, X=X, y=y, beta=beta, seed=seed)
    y = eta + np.sqrt(noise_var) * clamped_normal(rng.uniform(n_obs))
    return SyntheticDataset(kind=kind, X=X, y=y, beta=beta, seed=seed,
                            noise_var=noise_var)


# ---------------------------------------------------------------------------
# Bayesian logistic regression
# ---------------------------------------------------------------------------


def logistic_potential(data: SyntheticDataset) -> Potential:
    """U(b) = sum_i [log(1 + exp(x_i.b)) - y_i x_i.b] + ||b||^2 / 2.

    Labels must be 0/1.  The log term is evaluated as logaddexp(0, .) so
    large linear predictors cannot overflow.  Per-datum gradients are
    available for minibatch updates.
    """
    from scipy.special import expit  # bound once for grad and sgrad, not per call

    X, y = data.X, np.asarray(data.y, dtype=np.float64)
    if y.size and not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("logistic labels must be 0 or 1")
    n_data, d = X.shape

    def value(beta):
        t = X @ beta
        return float(np.logaddexp(0.0, t).sum() - y @ t + 0.5 * beta @ beta)

    def grad(beta):  # a vector or an (s, d) stack
        return (expit(beta.dot(X.T)) - y).dot(X) + beta

    def sgrad(beta, idx):  # .dot, not @: the same BLAS call without matmul's dispatch
        xb = X.take(idx, axis=0)
        g = xb.T.dot(expit(xb.dot(beta)) - y.take(idx))
        g *= n_data / len(idx)
        g += beta
        return g

    lam_max = float(np.linalg.eigvalsh(X.T @ X).max()) if n_data else 0.0
    return Potential(
        dim=d, value=value, grad=grad, grad_batch=grad, sgrad=sgrad,
        num_data=n_data, smoothness=lam_max / 4.0 + 1.0, strong_convexity=1.0,
        name="logistic",
    )


# ---------------------------------------------------------------------------
# Bayesian linear regression
# ---------------------------------------------------------------------------


def linear_regression_potential(data: SyntheticDataset) -> Potential:
    """U(b) = ||y - Xb||^2 / (2 s^2) + ||b||^2 / 2 with declared (L, M)."""
    sigma2 = data.noise_var
    if not sigma2 > 0:
        raise ConfigurationError("noise variance must be positive")
    X, y = data.X, data.y
    n_data, d = X.shape
    hess = X.T @ X / sigma2 + np.eye(d)
    eigs = np.linalg.eigvalsh(hess)

    def value(beta):
        r = X @ beta - y
        return float(0.5 * (r @ r) / sigma2 + 0.5 * beta @ beta)

    def grad(beta):  # a vector or an (s, d) stack
        return (beta.dot(X.T) - y).dot(X) / sigma2 + beta

    def sgrad(beta, idx):
        xb = X.take(idx, axis=0)
        g = xb.T.dot(xb.dot(beta) - y.take(idx))
        g *= n_data / len(idx)
        g /= sigma2
        g += beta
        return g

    return Potential(
        dim=d, value=value, grad=grad, grad_batch=grad, sgrad=sgrad,
        num_data=n_data, smoothness=float(eigs[-1]), strong_convexity=float(eigs[0]),
        name="linear",
    )


def closed_form_posterior(data: SyntheticDataset) -> GroundTruth:
    """Exact Gaussian posterior moments for the linear model.

    mean = (X'X/s^2 + I)^{-1} X'y / s^2, cov = (X'X/s^2 + I)^{-1};
    E[b_j^2] = mean_j^2 + cov_jj and P(b_j > 0) = Phi(mean_j / sqrt(cov_jj)).
    """
    from scipy.special import ndtr

    sigma2 = data.noise_var
    X, y = data.X, data.y
    d = X.shape[1]
    cov = np.linalg.inv(X.T @ X / sigma2 + np.eye(d))
    mean = cov @ (X.T @ y) / sigma2
    var = np.diag(cov)
    return GroundTruth(
        mean=mean,
        second_moment=mean**2 + var,
        positive_prob=ndtr(mean / np.sqrt(var)),
        provenance="closed-form",
    )


# ---------------------------------------------------------------------------
# Crossed random effects
# ---------------------------------------------------------------------------


def crossed_effects_potential(Y: np.ndarray) -> Potential:
    """Hierarchical Gaussian model on theta = (mu, a_1..a_I, b_1..b_J, la, lb).

    Y_ij ~ N(mu + a_i + b_j, 1); mu, la = log sa^2 and lb = log sb^2 have
    standard normal priors; a_i ~ N(0, e^la) and b_j ~ N(0, e^lb):

        U = sum r_ij^2/2 + mu^2/2                  (r_ij = Y_ij - mu - a_i - b_j)
            + e^{-la} sum a_i^2/2 + (I/2) la + la^2/2
            + e^{-lb} sum b_j^2/2 + (J/2) lb + lb^2/2

    The gradient sees Y only through its sums: theta A - c plus two
    nonlinear terms.  A is the constant symmetric d x d matrix with IJ+1 at
    (mu, mu), J at (mu, a_i), I at (mu, b_j), J Id on the a block, I Id on
    the b block, 1 between a and b, and 1 at (la, la) and (lb, lb); c is
    (sum Y, row sums, column sums, -I/2, -J/2).  The K = I + J effects
    ab = (a, b) gain p = ab e^{-l} (l = la on the a block, lb on the b
    block: theta S for a constant d x K matrix S), and the log-variance
    entries lose the block sums of p ab / 2.  So the gradient is one GEMM,
    (theta, p, p ab) B - c, with the constant (d + 2K) x d matrix B =
    [A; Id from p to the effects; -1/2 from p ab to its block's log-variance]:
    about eight numpy calls, O(s d^2) on an (s, d) stack, not O(s I J).
    One function is ``grad`` on a vector and ``grad_batch`` on an (s, d)
    stack.  ``value`` deliberately stays in the residual form, so finite
    differences check the gradient against an independent formula.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] < 1 or Y.shape[1] < 1:
        raise ConfigurationError("Y must be a nonempty I x J matrix")
    i_sz, j_sz = Y.shape
    k_sz = i_sz + j_sz  # effects
    d = k_sz + 3
    E = np.repeat(np.eye(2), [i_sz, j_sz], axis=1)  # (2, K) block indicator
    counts = np.repeat([float(j_sz), float(i_sz)], [i_sz, j_sz])  # observations per effect
    B = np.zeros((d + 2 * k_sz, d))  # [A; Id on the effects; -E'/2 on (la, lb)]
    A = B[:d]
    A[1:-2, 1:-2] = E.T @ E[::-1] + np.diag(counts)  # E.T @ E[::-1]: 1 between a and b
    A[0, 1:-2] = A[1:-2, 0] = counts
    A[0, 0], A[-2, -2], A[-1, -1] = i_sz * j_sz + 1, 1.0, 1.0
    B[d : d + k_sz, 1:-2] = np.eye(k_sz)
    B[d + k_sz :, -2:] = -0.5 * E.T
    S = np.zeros((d, k_sz))
    S[-2:] = -E  # theta S = -(la on the a block, lb on the b block)
    c = np.concatenate([[Y.sum()], Y.sum(axis=1), Y.sum(axis=0),
                        [-0.5 * i_sz, -0.5 * j_sz]])

    def value(th):
        mu, a, b, la, lb = th[0], th[1 : 1 + i_sz], th[1 + i_sz : -2], th[-2], th[-1]
        r = Y - mu - a[:, None] - b[None, :]
        return float(
            0.5 * (r * r).sum() + 0.5 * mu * mu
            + 0.5 * np.exp(-la) * (a @ a) + 0.5 * i_sz * la + 0.5 * la * la
            + 0.5 * np.exp(-lb) * (b @ b) + 0.5 * j_sz * lb + 0.5 * lb * lb
        )

    def grad(th):
        ab = th[..., 1:-2]
        p = ab * np.exp(th.dot(S))
        return np.concatenate([th, p, p * ab], axis=-1).dot(B) - c

    return Potential(dim=d, value=value, grad=grad, grad_batch=grad, name="crossed")


# ---------------------------------------------------------------------------
# Double well
# ---------------------------------------------------------------------------


def double_well_potential() -> Potential:
    """U(x) = x^2/4 - log(1 + x^2)/2: two wells at +-1, not convex."""

    def value(th):
        x = th[0]
        return float(0.25 * x * x - 0.5 * np.log1p(x * x))

    def grad(th):  # a vector or an (s, 1) stack
        return 0.5 * th - th / (1.0 + th * th)

    return Potential(dim=1, value=value, grad=grad, grad_batch=grad, name="double_well")


def _dw_moment_bessel() -> tuple[float, float]:
    """(E[x^2], normalizer) in closed form.  x = sinh(u/2) and DLMF 10.32.9,
    K_nu(y) = int_0^inf exp(-y cosh u) cosh(nu u) du, give for y = a/2

        Z(a) = int exp(-a x^2) sqrt(1 + x^2) dx = (e^y / 2) (K_0(y) + K_1(y)),

    and with K_0' = -K_1, K_1' = -K_0 - K_1/y, E[x^2] = -d log Z / da at
    a = 1/4 is K_1 / (2y (K_0 + K_1)) = 4 K_1 / (K_0 + K_1) at y = 1/8.
    """
    from scipy.special import k0, k1

    y = 0.125
    k0_y, k1_y = float(k0(y)), float(k1(y))
    return 4.0 * k1_y / (k0_y + k1_y), float(0.5 * np.exp(y) * (k0_y + k1_y))


def _dw_moment_hermite(order: int = 300) -> tuple[float, float]:
    """(E[x^2], normalizer) by Gauss-Hermite after x = 2t (weight exp(-t^2))."""
    t, w = np.polynomial.hermite.hermgauss(order)
    g = np.sqrt(1.0 + 4.0 * t * t)
    z = 2.0 * (w @ g)
    m2 = 2.0 * (w @ (4.0 * t * t * g))
    return m2 / z, z


def double_well_truth() -> GroundTruth:
    """E[x] = 0 and P(x > 0) = 1/2 by symmetry; E[x^2] in closed form.

    The Bessel form and an independent Gauss-Hermite rule must agree to
    1e-8, including on the normalizer.
    """
    m2, z = _dw_moment_bessel()
    m2_h, z_h = _dw_moment_hermite()
    if abs(m2 - m2_h) > 1e-8 or abs(z - z_h) > 1e-8 * z:
        raise DomainError("closed form and Gauss-Hermite disagree; numerical environment suspect")
    return GroundTruth(
        mean=np.zeros(1),
        second_moment=np.array([m2]),
        positive_prob=np.full(1, 0.5),
        provenance="closed-form",
    )


# ---------------------------------------------------------------------------
# Helpers: quadratic target, gradient checking, reference chains
# ---------------------------------------------------------------------------


def standard_gaussian_potential(dim: int) -> Potential:
    """U = ||theta||^2 / 2 (L = M = 1): the exactly-contracting test target."""

    def grad(th):  # a vector or an (s, d) stack
        return th

    return Potential(
        dim=dim,
        value=lambda th: float(0.5 * th @ th),
        grad=grad,
        grad_batch=grad,
        smoothness=1.0,
        strong_convexity=1.0,
        name="gaussian",
    )


def finite_difference_gradient(value, theta: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central differences with step rel_step * (1 + ||theta||)."""
    theta = np.asarray(theta, dtype=np.float64)
    h = rel_step * (1.0 + np.linalg.norm(theta))
    g = np.empty_like(theta)
    for j in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (value(up) - value(dn)) / (2.0 * h)
    return g


def max_gradient_error(potential: Potential, n_probes: int = 100, seed: int = 0,
                       scale: float = 1.0) -> float:
    """Worst relative finite-difference mismatch over random probe points."""
    rng = BaselinePrng(seed, stream=915)
    worst = 0.0
    for _ in range(n_probes):
        theta = scale * clamped_normal(rng.uniform(potential.dim))
        g = potential.grad(theta)
        fd = finite_difference_gradient(potential.value, theta)
        worst = max(worst, float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0)))
    return worst


def save_ground_truth(gt: GroundTruth, path, key: dict | None = None) -> None:
    """JSON dump of a GroundTruth, with ``key`` (what made it) beside the
    arrays when given; `load_ground_truth` round-trips it.  Written to a
    temporary file beside ``path`` and renamed over it, so an interrupted
    save leaves the old file or none, never a truncated one."""
    payload = gt.to_dict() if key is None else {**gt.to_dict(), "key": key}
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_ground_truth(path, key: dict | None = None) -> GroundTruth:
    """The GroundTruth in ``path``; DataError if the file is not a saved
    truth, or if ``key`` is given and the file was saved under another key
    (or none)."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path} holds a JSON {type(payload).__name__}, not a truth object")
    if key is not None and payload.get("key") != key:
        raise DataError(f"{path} holds the truth of {json.dumps(payload.get('key'))}, "
                        f"not of {json.dumps(key)}")
    try:
        return GroundTruth.from_dict(payload)
    except KeyError as exc:
        raise DataError(f"{path} has no field {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path} {exc}") from exc


_REFERENCE_STREAM = 777  # the baseline stream, under the truth's seed, of its noise
_REFERENCE_DISCARD = 0.125  # leading share of each reference chain left out as burn-in


def reference_ground_truth(
    potential: Potential,
    h: float,
    n_steps: int,
    n_chains: int,
    seed: int,
) -> GroundTruth:
    """Long small-step chains as a ground-truth oracle.

    Runs ``n_chains`` independent plain-Langevin chains from the origin as
    one chain of the product potential U(x_1) + ... + U(x_s) through the
    sampler's ``run_chain``, each step reading its uniforms chain by chain
    from one baseline stream.  After the leading ``_REFERENCE_DISCARD``
    share, ``sample_means`` averages the three test-function families.
    Standard errors are across chains: each is the spread of ``n_chains``
    per-chain averages, so it has ``n_chains - 1`` degrees of freedom and
    (estimate - truth) / se is Student-t, not normal.  Raises
    ``ConfigurationError`` for fewer than two chains or fewer than one step.
    """
    if n_chains < 2:
        raise ConfigurationError(
            f"reference runs need n_chains >= 2 for a standard error, got {n_chains}")
    if n_steps < 1:
        raise ConfigurationError(f"reference runs need n_steps >= 1, got {n_steps}")
    discard = int(_REFERENCE_DISCARD * n_steps)
    d, s = potential.dim, n_chains

    def grad(th):  # an (s * d) point or a stack of them
        return potential.grad_batch(th.reshape(-1, d)).reshape(th.shape)

    product = Potential(dim=s * d, grad=grad, grad_batch=grad, name=potential.name,
                        value=lambda th: sum(map(potential.value, th.reshape(-1, d))))
    burn = ChainConfig(np.zeros(s * d), discard, ConstantSchedule(h),
                       PseudoRandomDrive(seed, _REFERENCE_STREAM))
    theta0 = run_chain(product, ChainBatch((burn,), ("reference chain",)))[0]
    rest = replace(burn, theta0=theta0, n_steps=n_steps - discard, schedule_start=discard + 1)
    per_chain = sample_means(product, ChainBatch((rest,), ("reference chain",)))
    per_chain = per_chain.reshape(3, s, d)
    mean = per_chain.mean(axis=1)
    se = per_chain.std(axis=1, ddof=1) / np.sqrt(s)
    return GroundTruth(
        mean=mean[0], second_moment=mean[1], positive_prob=mean[2],
        provenance="long-reference-run",
        mean_se=se[0], second_moment_se=se[1], positive_prob_se=se[2],
    )
