"""MSE comparison harness: paired quasi-random vs pseudo-random chains.

For each period exponent m and schedule the harness steps R quasi-random
replicates (fresh rotation shifts over one shared deterministic driving
sequence) and R pseudo-random replicates (independent baseline streams)
side by side as one batch, reduces their sample averages online, evaluates
the test functions against ground truth, and reports the squared error
averaged over coordinates first, then over replicates, with a standard
error across replicates.  Every seed and shift derives deterministically
from (experiment seed, m, schedule index, replicate index), so reports are
byte-identical across runs.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cud_core import (DEFAULT_OFFSET, Gf2Poly, LfsrConfig, PointSet,
                       builtin_config, factorize, generate_cud)
from .drive import build_drive_matrix, coprime_width
from .errors import ConfigurationError, DomainError
from .experiment import DEFAULT_TRUTH, TEST_FUNCTIONS, ExperimentSpec, TruthSpec
from .models import (GroundTruth, closed_form_posterior,
                     crossed_effects_potential, double_well_potential,
                     double_well_truth, linear_regression_potential,
                     load_ground_truth, logistic_potential,
                     reference_ground_truth, save_ground_truth,
                     synthesize_data)
from .prng import BaselinePrng
from .samplers import (ChainBatch, ChainConfig, ConstantSchedule, PseudoRandomDrive,
                       continue_chain, contraction_info, run_chain)

# Stream-id roles, combined as ((sched_idx * 8 + role) << 40) | (m << 20) | r;
# the spec loader keeps r below experiment.MAX_REPLICATES = 2**20.
_ROLE_SHIFT = 0
_ROLE_NOISE = 1
_ROLE_MINIBATCH_LQMC = 2
_ROLE_MINIBATCH_LMC = 3


def _stream(sched_idx: int, role: int, m: int, r: int) -> int:
    return ((sched_idx * 8 + role) << 40) | (m << 20) | r


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    model: str
    method: str
    m: int
    n: int
    schedule: str
    test_fn: str
    mse: float
    stderr: float
    replicates: int


@dataclass
class MseReport:
    rows: list[ReportRow]
    metadata: dict
    replicate_rows: list[tuple] = field(default_factory=list)

    CSV_HEADER = "model,method,m,n,schedule,test_fn,mse,stderr,replicates"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.model},{r.method},{r.m},{r.n},{r.schedule},{r.test_fn},"
                f"{r.mse:.12g},{r.stderr:.12g},{r.replicates}"
            )
        return "\n".join(lines) + "\n"

    def replicate_csv(self) -> str:
        lines = ["model,method,m,schedule,test_fn,replicate,sq_err"]
        for row in self.replicate_rows:
            model, method, m, sched, fn, rep, val = row
            lines.append(f"{model},{method},{m},{sched},{fn},{rep},{val:.12g}")
        return "\n".join(lines) + "\n"

    def mse(self, method: str, m: int, test_fn: str, schedule: str | None = None) -> float:
        for r in self.rows:
            if (r.method == method and r.m == m and r.test_fn == test_fn
                    and (schedule is None or r.schedule == schedule)):
                return r.mse
        raise KeyError((method, m, test_fn, schedule))


# ---------------------------------------------------------------------------
# Model assembly and ground truth
# ---------------------------------------------------------------------------


def build_model(spec: ExperimentSpec):
    """(potential, dataset) for a spec; dataset is None for the double well."""
    if spec.model == "double_well":
        return double_well_potential(), None
    data = synthesize_data(
        spec.model, spec.n_obs, spec.dim, spec.data_seed, noise_var=spec.noise_var
    )
    if spec.model == "logistic":
        return logistic_potential(data), data
    if spec.model == "linear":
        return linear_regression_potential(data), data
    return crossed_effects_potential(data.y), data


def truth_source(spec: ExperimentSpec) -> tuple[str, TruthSpec | None]:
    """The provenance of the model's ground truth, and the reference-run
    settings when it is a long reference run (None otherwise)."""
    if spec.model in DEFAULT_TRUTH:
        return "long-reference-run", spec.truth or DEFAULT_TRUTH[spec.model]
    return ("closed-form" if spec.model == "linear" else "quadrature"), None


def ground_truth_for(spec: ExperimentSpec, potential) -> GroundTruth:
    """Closed form, quadrature, or a long reference run, per ``truth_source``."""
    provenance, ts = truth_source(spec)
    if provenance == "closed-form":
        data = synthesize_data("linear", spec.n_obs, spec.dim, spec.data_seed,
                               noise_var=spec.noise_var)
        return closed_form_posterior(data)
    if provenance == "quadrature":
        return double_well_truth()
    return reference_ground_truth(
        potential, h=ts.h, n_steps=ts.n_steps, n_chains=ts.chains, seed=ts.seed
    )


def cached_ground_truth(spec: ExperimentSpec, cache) -> GroundTruth:
    """The spec's ground truth, loaded from ``cache`` if that file exists, else
    computed (and saved to ``cache``); stderr says which, and how long it took.
    ``lqmc run --truth-cache`` and ``scripts/run_desk_suite.py`` both use it."""
    if cache is not None and os.path.exists(cache):
        print(f"truth: loaded from cache {cache}", file=sys.stderr)
        return load_ground_truth(cache)
    provenance, ts = truth_source(spec)
    settings = "" if ts is None else f" h={ts.h:g} n_steps={ts.n_steps} chains={ts.chains}"
    print(f"truth: computing {spec.model} {provenance}{settings}", file=sys.stderr)
    start = time.perf_counter()
    truth = ground_truth_for(spec, build_model(spec)[0])
    if cache is not None:
        save_ground_truth(truth, cache)
    print(f"truth: done in {time.perf_counter() - start:.1f} s, "
          + ("not cached" if cache is None else f"saved to {cache}"), file=sys.stderr)
    return truth


# ---------------------------------------------------------------------------
# The comparison itself
# ---------------------------------------------------------------------------


def _cell_chains(spec, d, schedule, burn_seq, main_seq, n_run, sched_idx, m):
    """Burn-in chains (None without a burn-in) and main chains of one
    (m, schedule) cell, keyed (method, r), LMC first.  Each chain draws
    minibatch indices from one stream of its own, and an LMC chain reads
    the same noise drive in both phases; the main chains start at iteration
    1 + burn-in length, from zeros until the burn-in has run."""
    reps = range(spec.replicates)
    noise = [PseudoRandomDrive(spec.seed, _stream(sched_idx, _ROLE_NOISE, m, r)) for r in reps]
    shift_rngs = [BaselinePrng(spec.seed, _stream(sched_idx, _ROLE_SHIFT, m, r)) for r in reps]

    def chains(seq, n, start):
        def chain(drive, role, r):
            return ChainConfig(
                theta0=np.zeros(d), n_steps=n, schedule=schedule, drive=drive,
                minibatch=spec.minibatch, minibatch_seed=spec.seed,
                minibatch_stream=_stream(sched_idx, role, m, r), schedule_start=start,
            )

        out = {("lmc", r): chain(noise[r], _ROLE_MINIBATCH_LMC, r) for r in reps}
        for r in reps:
            out["lqmc", r] = chain(build_drive_matrix(seq, d, rng=shift_rngs[r]),
                                   _ROLE_MINIBATCH_LQMC, r)
        return out

    if burn_seq is None:
        return None, chains(main_seq, n_run, 1)
    return chains(burn_seq, burn_seq.n, 1), chains(main_seq, n_run, 1 + burn_seq.n)


def _cell_means(potential, batch: ChainBatch) -> dict[str, np.ndarray]:
    """Per-chain averages of theta, theta**2 and 1{theta > 0} (one (chains, d)
    array per test-function kind) over the batch's steps."""
    sums = np.zeros((3, len(batch.chains), potential.dim))

    def observe(block):
        sums[0] += block.sum(axis=0)
        sums[1] += (block**2).sum(axis=0)
        sums[2] += (block > 0).sum(axis=0)

    run_chain(potential, batch, observe)
    return dict(zip(TEST_FUNCTIONS, sums / batch.chains[0].n_steps))


def _dump(potential, burn, main, path) -> None:
    """Re-run one chain alone, burn-in first, and write its whole trajectory."""
    run = run_chain(potential, burn or main)
    if burn is not None:
        run = continue_chain(run, main.drive, main.n_steps)
    run.save_trajectory(path)


def run_comparison(
    spec: ExperimentSpec,
    truth: GroundTruth | None = None,
    trajectory_dir: str | None = None,
) -> MseReport:
    """Execute the full comparison described by ``spec``.

    ``truth`` overrides the model's ground-truth oracle (useful when a
    reference run is cached).  ``trajectory_dir`` dumps every chain's
    trajectory as CSV, re-running each chain alone (off by default: the
    files are large and the re-runs cost more than the batched run).
    """
    potential, _ = build_model(spec)
    if truth is None:
        truth = ground_truth_for(spec, potential)
    d = potential.dim

    override = Gf2Poly.from_mask(spec.poly_mask) if spec.poly_mask is not None else None
    configs = {}
    for m in spec.m_values:
        if override is not None and override.degree == m:
            configs[m] = LfsrConfig(
                override, DEFAULT_OFFSET if spec.offset is None else spec.offset
            )
        else:
            configs[m] = builtin_config(m, offset=spec.offset)

    burn_seq = generate_cud(builtin_config(spec.burn_in_m)) if spec.burn_in_m else None
    burn_n = 0 if burn_seq is None else burn_seq.n

    rows: list[ReportRow] = []
    replicate_rows: list[tuple] = []
    meta_drive: dict = {}
    meta_schedules: dict = {}
    diag: dict = {}
    steps = 0
    cud_values = burn_n

    for m in spec.m_values:
        n = (1 << m) - 1
        n_run = spec.n_override if spec.n_override is not None else n
        main_seq = generate_cud(configs[m])
        cud_values += main_seq.n
        meta_drive[m] = {
            "n": n,
            "n_run": n_run,
            "poly_mask": hex(configs[m].poly.mask),
            "offset": configs[m].offset,
            "stored_width": coprime_width(n, d),
        }
        for sched_idx, sspec in enumerate(spec.schedules):
            schedule = sspec.resolve(burn_n + n_run)
            meta_schedules.setdefault(sspec.label, {})[m] = schedule.label()
            if (isinstance(schedule, ConstantSchedule)
                    and potential.smoothness is not None
                    and potential.strong_convexity is not None
                    and 0 < schedule.h * potential.strong_convexity < 1):
                info = contraction_info(potential.smoothness,
                                        potential.strong_convexity,
                                        schedule.h, d, n)
                diag[f"{sspec.label}/m{m}"] = {
                    "rho": info.rho, "ell": info.ell,
                    "gcd_d_ell_n": info.gcd_d_ell_n,
                }

            burn, main = _cell_chains(spec, d, schedule, burn_seq, main_seq, n_run,
                                      sched_idx, m)
            names = tuple(f"{spec.model} {method} m={m} schedule={sspec.label} replicate {r}"
                          for method, r in main)
            if burn is not None:
                burn_batch = ChainBatch(tuple(burn.values()), names)
                final = run_chain(potential, burn_batch)
                main = {key: replace(cfg, theta0=theta)
                        for (key, cfg), theta in zip(main.items(), final)}
                steps += burn_batch.n_steps
            batch = ChainBatch(tuple(main.values()), names)
            means = _cell_means(potential, batch)
            steps += batch.n_steps
            if trajectory_dir is not None:
                for (method, r), cfg in main.items():
                    _dump(potential, burn and burn[method, r], cfg,
                          f"{trajectory_dir}/{method}_m{m}_{sspec.label}_r{r}.csv")

            reps = spec.replicates

            for i, method in enumerate(("lmc", "lqmc")):
                for kind in spec.test_functions:
                    est = means[kind][i * reps:(i + 1) * reps]
                    errs = ((est - truth.values(kind)) ** 2).mean(axis=1)
                    rows.append(ReportRow(
                        model=spec.model, method=method, m=m, n=n_run,
                        schedule=sspec.label, test_fn=kind,
                        mse=float(errs.mean()),
                        stderr=float(errs.std(ddof=1) / math.sqrt(len(errs))),
                        replicates=reps,
                    ))
                    replicate_rows.extend(
                        (spec.model, method, m, sspec.label, kind, r, float(e))
                        for r, e in enumerate(errs)
                    )

    metadata = {
        "model": spec.model,
        "dim": d,
        "experiment_seed": spec.seed,
        "data_seed": spec.data_seed,
        "replicates": spec.replicates,
        "truth_provenance": truth.provenance,
        "burn_in_n": burn_n,
        "drive": meta_drive,
        "schedules": meta_schedules,
        "contraction": diag,
        "counts": {  # of the comparison chains; trajectory dumps re-run them uncounted
            "chain_steps": steps,
            "exact_gradients": 0 if spec.minibatch else steps,
            "minibatch_gradients": steps if spec.minibatch else 0,
            "minibatch_indices": steps * (spec.minibatch or 0),
            "normals": steps * d,
            "cud_values": cud_values,
        },
    }
    return MseReport(rows=rows, metadata=metadata, replicate_rows=replicate_rows)


# ---------------------------------------------------------------------------
# Full-period LCG demo (the classic small-generator comparison)
# ---------------------------------------------------------------------------


def is_primitive_root(a: int, p: int) -> bool:
    """Whether a generates the multiplicative group mod prime p."""
    if a % p == 0:
        return False
    return all(pow(a, (p - 1) // q, p) != 1 for q in factorize(p - 1))


def smallest_primitive_root(p: int) -> int:
    for a in range(2, p):
        if is_primitive_root(a, p):
            return a
    raise DomainError(f"no primitive root found mod {p}")


def lcg_demo(modulus: int, multiplier: int, seed: int = 1) -> PointSet:
    """Overlapping pairs of a full-period multiplicative LCG.

    x_{i+1} = a * x_i mod p over one full period (p - 1 points, wrapping
    the final pair back to the start).  Requires p prime and a a primitive
    root mod p, so the state sequence visits every residue in 1..p-1.
    """
    p, a = modulus, multiplier
    if factorize(p) != [p]:
        raise ConfigurationError(f"modulus {p} is not prime")
    if not is_primitive_root(a, p):
        raise ConfigurationError(
            f"multiplier {a} is not a primitive root mod {p} (period would be short)"
        )
    if not 1 <= seed < p:
        raise ConfigurationError("seed must be in 1..p-1")
    xs = np.empty(p, dtype=np.int64)
    xs[0] = seed
    for i in range(1, p):
        xs[i] = (a * xs[i - 1]) % p
    pts = np.column_stack([xs[: p - 1], xs[1:]]) / p
    return PointSet(dimension=2, points=pts)


def iid_pointset(n: int, d: int, seed: int, stream: int = 0) -> PointSet:
    """Baseline-generator i.i.d. points, the comparison partner for demos."""
    u = BaselinePrng(seed, stream).uniform(n * d).reshape(n, d)
    return PointSet(dimension=d, points=u)
