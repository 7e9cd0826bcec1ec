"""MSE comparison harness: paired quasi-random vs pseudo-random chains.

For each period exponent m and schedule the harness steps R quasi-random
replicates (fresh rotation shifts over one shared deterministic driving
sequence) and R pseudo-random replicates (independent baseline streams),
each method's replicates as one batch (the pseudo-random batch in a forked
child process when this one may use two CPUs), reduces their sample
averages online, evaluates the test functions against ground truth, and
reports the squared error averaged over coordinates first, then over
replicates, with a standard error across replicates.  Every seed and shift
derives deterministically from (experiment seed, m, schedule index,
replicate index), so reports are byte-identical across runs.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .cud_core import PointSet, builtin_config, factorize, generate_cud
from .drive import build_drive_matrix, coprime_width
from .errors import ConfigurationError, DataError, DivergenceError, DomainError, LqmcError
from .experiment import DEFAULT_TRUTH, TEST_FUNCTIONS, ExperimentSpec
from .models import (GroundTruth, closed_form_posterior,
                     crossed_effects_potential, double_well_potential,
                     double_well_truth, linear_regression_potential,
                     load_ground_truth, logistic_potential,
                     reference_ground_truth, save_ground_truth,
                     synthesize_data)
from .prng import BaselinePrng
from .samplers import (ChainBatch, ChainConfig, ConstantSchedule, PseudoRandomDrive,
                       contraction_info, run_chain, sample_means)

# Stream-id roles, combined as ((sched_idx * 8 + role) << 40) | (m << 20) | r;
# the spec loader keeps r below experiment.MAX_REPLICATES = 2**20.
_ROLE_SHIFT = 0
_ROLE_NOISE = 1
_ROLE_MINIBATCH_LQMC = 2
_ROLE_MINIBATCH_LMC = 3


# A cell steps its LMC batch in a forked child once R times its phases' steps reaches
# this: one fork round trip (fork, pickled means back, reap) costs about 5 ms.
_FORK_STEPS = 1 << 14


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


def _dataset(spec: ExperimentSpec):  # None for the double well, which has no data
    return None if spec.model == "double_well" else synthesize_data(
        spec.model, spec.n_obs, spec.dim, spec.data_seed, noise_var=spec.noise_var)


def _reference_run(spec: ExperimentSpec, potential) -> GroundTruth:
    ts = spec.truth or DEFAULT_TRUTH[spec.model]
    return reference_ground_truth(potential, ts.h, ts.n_steps, ts.chains, ts.seed)


# Each model kind's potential(dataset) and its truth's provenance and oracle(spec, potential),
# called by module name for the benchmark's tracer; the linear oracle re-synthesizes its data.
ModelKind = namedtuple("ModelKind", "potential provenance oracle")
MODEL_KINDS = {
    "logistic": ModelKind(lambda data: logistic_potential(data), "long-reference-run",
                          _reference_run),
    "linear": ModelKind(lambda data: linear_regression_potential(data), "closed-form",
                        lambda spec, potential: closed_form_posterior(_dataset(spec))),
    "crossed": ModelKind(lambda data: crossed_effects_potential(data.y), "long-reference-run",
                         _reference_run),
    "double_well": ModelKind(lambda data: double_well_potential(), "closed-form",
                             lambda spec, potential: double_well_truth()),
}


def build_model(spec: ExperimentSpec):
    """(potential, dataset) for a spec; dataset is None for the double well."""
    data = _dataset(spec)
    return MODEL_KINDS[spec.model].potential(data), data


def ground_truth_for(spec: ExperimentSpec, potential) -> GroundTruth:
    """The spec's ground truth, by its kind's oracle in ``MODEL_KINDS`` (handed no dataset)."""
    return MODEL_KINDS[spec.model].oracle(spec, potential)


def cached_ground_truth(spec: ExperimentSpec, cache) -> GroundTruth:
    """The spec's ground truth, loaded from ``cache`` if that file holds the truth of the
    same ``model`` section and truth source, else computed (and saved to ``cache`` with that
    key); stderr says which, why a cache file was passed over, and how long a computation
    took.  ``lqmc run --truth-cache`` and ``scripts/run_desk_suite.py`` both use it."""
    entry, ts = MODEL_KINDS[spec.model], spec.truth or DEFAULT_TRUTH.get(spec.model)
    key = {"model": spec.to_dict()["model"], "provenance": entry.provenance,
           "truth": None if ts is None else asdict(ts)}
    if cache is not None and os.path.exists(cache):
        try:
            truth = load_ground_truth(cache, key)
        except DataError as exc:
            print(f"truth: cache {exc}; recomputing", file=sys.stderr)
        else:
            print(f"truth: loaded from cache {cache}", file=sys.stderr)
            return truth
    settings = "" if ts is None else f" h={ts.h:g} n_steps={ts.n_steps} chains={ts.chains}"
    print(f"truth: computing {spec.model} {entry.provenance}{settings}", file=sys.stderr)
    start = time.perf_counter()
    truth = ground_truth_for(spec, build_model(spec)[0])
    if cache is not None:
        save_ground_truth(truth, cache, key)
    print(f"truth: done in {time.perf_counter() - start:.1f} s, "
          + ("not cached" if cache is None else f"saved to {cache}"), file=sys.stderr)
    return truth


# ---------------------------------------------------------------------------
# The comparison itself
# ---------------------------------------------------------------------------


def run_cell(spec: ExperimentSpec, potential, m: int, sched_idx: int, phases,
             trajectory_dir: str | None = None) -> np.ndarray:
    """The per-chain means of one (m, schedule) cell, (3, 2R, d) as from
    ``samplers.sample_means``: R LMC chains, then R LQMC chains.  Each
    method's R chains are stepped as one batch through ``phases``,
    (sequence, steps) pairs, each phase from the previous one's final states
    (a burn-in, then the main phase, whose means these are).  Every stream
    derives from (spec seed, m, ``sched_idx``, replicate) alone.  An LMC
    chain reads one noise stream, and each chain one minibatch stream,
    across all phases; an LQMC chain reads each phase's sequence under the
    next shift of its replicate's shift stream.  ``trajectory_dir`` receives
    each chain's states as its batch makes them, every block appended to
    ``<method>_m<m>_<schedule>_r<r>.csv``.

    The LMC batch is stepped in a forked child process while this one steps
    the LQMC batch, if ``os.fork`` exists, this process may run on two CPUs
    and the cell takes at least ``_FORK_STEPS`` chain steps a method;
    otherwise one after the other.  The batches are the same either way,
    and so are the means.  A chain leaving ||theta|| <= 1e8 raises the
    DivergenceError of the earliest iteration, LMC on a tie, as one batch of
    all 2R chains would.
    """
    reps, d = spec.replicates, potential.dim
    schedule, label = spec.main_run(m)[1][sched_idx], spec.schedules[sched_idx].label
    paths = {method: [f"{trajectory_dir}/{method}_m{m}_{label}_r{r}.csv" for r in range(reps)]
             for method in ("lmc", "lqmc")} if trajectory_dir is not None else {}
    for group in paths.values():
        for path in group:  # emptied up front, so a bad directory fails before any step
            open(path, "w").close()

    def batch_means(method):  # (3, R, d), or the DivergenceError one of its chains raised
        lmc, dump, row = method == "lmc", None, 1  # row: the iteration of the next dumped state
        names = tuple(f"{spec.model} {method} m={m} schedule={label} replicate {r}"
                      for r in range(reps))
        role = _ROLE_MINIBATCH_LMC if lmc else _ROLE_MINIBATCH_LQMC
        if lmc:
            noise = [PseudoRandomDrive(spec.seed, _stream(sched_idx, _ROLE_NOISE, m, r))
                     for r in range(reps)]
        else:
            shifts = [BaselinePrng(spec.seed, _stream(sched_idx, _ROLE_SHIFT, m, r))
                      for r in range(reps)]
        if paths:
            def dump(block):  # one file open at a time: R can reach 2^20 - 1
                nonlocal row
                for path, states in zip(paths[method], block.transpose(1, 0, 2)):
                    with open(path, "a") as fh:
                        np.savetxt(fh, np.column_stack([np.arange(row, row + len(block)),
                                                        states]),
                                   fmt=["%d"] + ["%.17g"] * d, delimiter=",")
                row += len(block)

        theta, start, batch = np.zeros((reps, d)), 1, None
        try:
            for seq, n in phases:
                if batch is not None:
                    theta = run_chain(potential, batch, dump)
                drives = noise if lmc else [build_drive_matrix(seq, d, rng=rng) for rng in shifts]
                batch = ChainBatch(tuple(
                    ChainConfig(theta0=x, n_steps=n, schedule=schedule, drive=drive,
                                minibatch=spec.minibatch, minibatch_seed=spec.seed,
                                minibatch_stream=_stream(sched_idx, role, m, r),
                                schedule_start=start)
                    for r, (x, drive) in enumerate(zip(theta, drives))), names)
                start += n
            return sample_means(potential, batch, dump)
        except DivergenceError as exc:
            return exc

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if reps * sum(n for _, n in phases) >= _FORK_STEPS and hasattr(os, "fork") and (cpus or 1) > 1:
        lmc, lqmc = _forked(lambda: batch_means("lmc"), lambda: batch_means("lqmc"),
                            f"the LMC half of {spec.model} m={m} schedule={label}")
    else:
        lmc, lqmc = batch_means("lmc"), batch_means("lqmc")
    diverged = [x for x in (lmc, lqmc) if isinstance(x, DivergenceError)]
    if diverged:
        raise min(diverged, key=lambda exc: exc.iteration)  # min keeps LMC on a tie
    return np.concatenate([lmc, lqmc], axis=1)


def _forked(child_work, parent_work, child_name: str):
    """(child_work(), parent_work()), the first computed in a forked child.

    The child sends back its pickled result, or the exception it raised,
    through a pipe and leaves with ``os._exit``, never returning into the
    caller.  The child is killed if ``parent_work`` raises (KeyboardInterrupt
    included) and is always reaped; one that ends without a result raises an
    LqmcError naming ``child_name``.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, child_work())
            except BaseException as exc:
                outcome = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            mine = parent_work()
            data = pipe.read()
    except BaseException:
        import signal  # only here: `import lqmc.bench` does not load it

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        raise LqmcError(f"{child_name} ended without a result "
                        f"(exit code {os.waitstatus_to_exitcode(status)})")
    ok, theirs = pickle.loads(data)
    if not ok:
        raise theirs
    return theirs, mine


def run_comparison(
    spec: ExperimentSpec,
    truth: GroundTruth | None = None,
    trajectory_dir: str | None = None,
) -> MseReport:
    """Execute the full comparison described by ``spec``: one ``run_cell``
    per m and schedule of ``spec.cell(m)``, whose checks the spec loader ran
    with the same code.  ``truth`` overrides the model's ground-truth oracle
    (useful when a reference run is cached).  ``trajectory_dir`` dumps every
    chain's trajectory as CSV (off by default: the files are large, and
    writing them costs more than stepping the chains).
    """
    potential, _ = build_model(spec)
    if truth is None:
        truth = ground_truth_for(spec, potential)
    d, reps = potential.dim, spec.replicates
    if len(truth.mean) != d:  # GroundTruth holds every array at the length of its mean
        raise ConfigurationError(f"a ground truth of {len(truth.mean)} coordinates "
                                 f"for the {spec.model} model of dimension {d}")
    truth_values = np.stack([truth.values(kind) for kind in TEST_FUNCTIONS])[:, None]
    burn_in = ([(generate_cud(builtin_config(spec.burn_in_m)), spec.burn_in_n)]
               if spec.burn_in_m else [])
    rows, replicate_rows, meta_drive, meta_schedules, diag = [], [], {}, {}, {}
    steps, cud_values = 0, spec.burn_in_n
    for m in spec.m_values:
        config, n_run, schedules = spec.cell(m)
        n = config.period
        main_seq = generate_cud(config)
        cud_values += main_seq.n
        meta_drive[m] = {"n": n, "n_run": n_run, "poly_mask": hex(config.poly_mask),
                         "offset": config.offset, "stored_width": coprime_width(n, d)}
        for sched_idx, (sspec, schedule) in enumerate(zip(spec.schedules, schedules)):
            meta_schedules.setdefault(sspec.label, {})[m] = schedule.label()
            if (isinstance(schedule, ConstantSchedule)
                    and potential.smoothness is not None
                    and potential.strong_convexity is not None
                    and 0 < schedule.h * potential.strong_convexity < 1):
                diag[f"{sspec.label}/m{m}"] = asdict(contraction_info(
                    potential.smoothness, potential.strong_convexity, schedule.h, d, n))
            means = run_cell(spec, potential, m, sched_idx, burn_in + [(main_seq, n_run)],
                             trajectory_dir)
            steps += 2 * reps * (spec.burn_in_n + n_run)
            sq_errs = ((means - truth_values) ** 2).mean(axis=2)  # (test function, chain)
            for i, method in enumerate(("lmc", "lqmc")):
                for kind in spec.test_functions:
                    errs = sq_errs[TEST_FUNCTIONS.index(kind), i * reps:(i + 1) * reps]
                    rows.append(ReportRow(
                        model=spec.model, method=method, m=m, n=n_run, schedule=sspec.label,
                        test_fn=kind, mse=float(errs.mean()),
                        stderr=float(errs.std(ddof=1) / math.sqrt(reps)), replicates=reps))
                    replicate_rows.extend((spec.model, method, m, sspec.label, kind, r, float(e))
                                          for r, e in enumerate(errs))

    metadata = {
        "model": spec.model,
        "dim": d,
        "experiment_seed": spec.seed,
        "data_seed": spec.data_seed,
        "replicates": reps,
        "truth_provenance": truth.provenance,
        "burn_in_n": spec.burn_in_n,
        "drive": meta_drive,
        "schedules": meta_schedules,
        "contraction": diag,
        "counts": {  # of the comparison chains, the dumped ones among them
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
