"""The four benchmark workloads: spec derivation, the timed call, output checks.

Each workload derives its input from a desk spec (or the CLI) and the
benchmark seed, hands only that to the package, and checks the output.
Seed 0 reproduces the desk spec's own seeds; at that seed the output must
also match the golden values in ``data/golden.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
DEFAULT_SEED = 0
# Relative tolerance for the golden match.  Swapping the inverse CDF for
# scipy's ndtri (xi moves by ~1e-15) moves golden values by at most 6e-12;
# dropping its Halley refinement (xi moves by ~1e-9) moves them by 2e-9 to
# 2e-8 on every workload.
RTOL = 1e-9
GEN_M = 20
GEN_OFFSETS = (2, 4, 7, 8, 13, 14, 16, 17)  # all coprime with 2^20 - 1


def load_golden() -> dict:
    with open(DATA / "golden.json") as fh:
        return json.load(fh)


def _close(a, b, rtol=RTOL) -> bool:
    return bool(np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                            rtol=rtol, atol=0.0))


# ---------------------------------------------------------------------------
# Output checks (pure functions of the output, unit-tested on corrupted copies)
# ---------------------------------------------------------------------------


def report_rows(report) -> list[list]:
    return [[r.method, r.m, r.schedule, r.test_fn, r.mse, r.stderr] for r in report.rows]


def mse_ratio(rows) -> float:
    """LMC MSE / LQMC MSE on ``coordinate`` at the largest m."""
    top = max(r[1] for r in rows)
    mse = {r[0]: r[4] for r in rows if r[1] == top and r[3] == "coordinate"}
    return mse["lmc"] / mse["lqmc"]


def check_report(rows, golden_rows=None) -> list[str]:
    problems = [f"non-finite mse/stderr in row {r[:4]}" for r in rows
                if not (math.isfinite(r[4]) and math.isfinite(r[5]))]
    if not problems:
        ratio = mse_ratio(rows)
        if not ratio > 1:
            problems.append(f"mse_ratio {ratio} is not > 1")
    if golden_rows is not None:
        if [r[:4] for r in rows] != [g[:4] for g in golden_rows]:
            problems.append("report rows differ from the golden rows")
        elif not _close([r[4:] for r in rows], [g[4:] for g in golden_rows]):
            problems.append(f"report values differ from golden beyond rtol {RTOL}")
    return problems


TRUTH_FIELDS = ("mean", "second_moment", "positive_prob",
                "mean_se", "second_moment_se", "positive_prob_se")


def truth_arrays(truth) -> dict[str, list]:
    return {f: [float(v) for v in getattr(truth, f)] for f in TRUTH_FIELDS}


def check_truth(arrays, golden=None) -> list[str]:
    problems = [f"non-finite {f}" for f in TRUTH_FIELDS
                if not np.all(np.isfinite(arrays[f]))]
    if golden is not None:
        problems += [f"{f} differs from golden beyond rtol {RTOL}" for f in TRUTH_FIELDS
                     if len(arrays[f]) != len(golden[f]) or not _close(arrays[f], golden[f])]
    return problems


def gen_problems(data: bytes, m: int) -> list[str]:
    """Structural problems with a ``gen -m`` output: count, grid, distinctness."""
    values = np.array(data.split(), dtype=np.float64)
    n = (1 << m) - 1
    k = values * (1 << m)
    problems = []
    if len(values) != n:
        problems.append(f"{len(values)} values, expected {n}")
    if not np.all((k == np.floor(k)) & (k >= 1) & (k <= n)):
        problems.append(f"a value is not of the form k/2^{m} with 1 <= k < 2^{m}")
    if len(np.unique(values)) != len(values):
        problems.append("values are not distinct")
    return problems


def check_gen(data: bytes, m: int, digest: str) -> list[str]:
    """Problems with a ``gen -m`` output whose sha256 should be ``digest``.

    Digests are stored only for outputs without structural problems, so a
    matching digest settles it; otherwise the structural checks say more.
    """
    if hashlib.sha256(data).hexdigest() == digest:
        return []
    return gen_problems(data, m) + ["output bytes differ from the stored digest"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Comparison:
    """``bench.run_comparison`` on a spec derived from a desk spec."""

    def __init__(self, name, spec_file, m_values, replicates, truth_file=None):
        self.name, self.spec_file = name, spec_file
        self.m_values, self.replicates = m_values, replicates
        self.truth_file = truth_file

    def setup(self, seed, work_dir, golden):
        from lqmc import bench, experiment, models

        desk = experiment.load_spec(Path("specs") / self.spec_file)
        spec = dataclasses.replace(desk, m_values=self.m_values,
                                   replicates=self.replicates,
                                   seed=desk.seed + seed, output=None)
        bench.build_model(spec)  # data synthesis, as `lqmc run` does before the run
        truth = None
        if self.truth_file is not None:
            truth = models.load_ground_truth(
                verified_truth_path(self.truth_file, golden))
        return {"spec": spec, "truth": truth, "seed": seed}

    def steps(self, state) -> int:
        spec = state["spec"]
        return 2 * spec.replicates * len(spec.schedules) * sum(
            (1 << m) - 1 for m in spec.m_values)

    def call(self, state):
        from lqmc import bench

        return report_rows(bench.run_comparison(state["spec"], truth=state["truth"]))

    def check(self, state, rows, golden) -> list[str]:
        gold = golden[self.name]["rows"] if state["seed"] == DEFAULT_SEED else None
        return check_report(rows, gold)

    def mse_ratio(self, rows):
        return mse_ratio(rows)


class Reference:
    """The cold reference-chain oracle of a truth-bearing desk spec."""

    name = "reference"

    def __init__(self, spec_file, n_steps):
        self.spec_file, self.n_steps = spec_file, n_steps

    def setup(self, seed, work_dir, golden):
        from lqmc import bench, experiment

        desk = experiment.load_spec(Path("specs") / self.spec_file)
        truth = dataclasses.replace(desk.truth, n_steps=self.n_steps,
                                    seed=desk.truth.seed + seed)
        spec = dataclasses.replace(desk, truth=truth, output=None)
        potential, _ = bench.build_model(spec)
        return {"spec": spec, "potential": potential, "seed": seed}

    def steps(self, state) -> int:
        return state["spec"].truth.n_steps * state["spec"].truth.chains

    def call(self, state):
        from lqmc import bench

        return truth_arrays(bench.ground_truth_for(state["spec"], state["potential"]))

    def check(self, state, arrays, golden) -> list[str]:
        gold = golden[self.name] if state["seed"] == DEFAULT_SEED else None
        return check_truth(arrays, gold)

    def mse_ratio(self, arrays):
        return None


class Gen:
    """``lqmc gen -m 20`` to a file, once for each of three offsets.

    Three invocations make one timed call, so that a call lasts long enough
    to average over the host's fast and slow phases.  The seed picks the
    first offset.
    """

    name = "gen"
    calls = 3

    def setup(self, seed, work_dir, golden):
        import lqmc.cli  # noqa: F401  (the import is part of set-up)

        offsets = [GEN_OFFSETS[(seed + i) % len(GEN_OFFSETS)] for i in range(self.calls)]
        return {"offsets": offsets, "work_dir": Path(work_dir)}

    def steps(self, state):
        return None

    def call(self, state):
        from lqmc import cli

        paths = []
        for offset in state["offsets"]:
            path = state["work_dir"] / f"gen-{offset}.csv"
            code = cli.main(["--output", str(path), "gen", "-m", str(GEN_M),
                             "--offset", str(offset)])
            if code != 0:
                raise RuntimeError(f"lqmc gen --offset {offset} exited with {code}")
            paths.append(str(path))
        return paths

    def check(self, state, paths, golden) -> list[str]:
        problems = []
        for offset, path in zip(state["offsets"], map(Path, paths)):
            digest = golden["gen"]["sha256"][str(offset)]
            problems += [f"offset {offset}: {p}"
                         for p in check_gen(path.read_bytes(), GEN_M, digest)]
            path.unlink()
        return problems

    def mse_ratio(self, paths):
        return None


def verified_truth_path(name, golden) -> Path:
    """Path of a committed truth file whose digest matches golden.json."""
    path = DATA / name
    want = golden["truths"][name]["sha256"]
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    if got != want:
        raise RuntimeError(f"{path}: sha256 {got} does not match the recorded {want}")
    return path


WORKLOADS = {
    "linear100": Comparison("linear100", "linear100_desk.yaml", (14,), 6),
    "sgld": Comparison("sgld", "logistic_sgld_desk.yaml", (14,), 3,
                       truth_file="sgld_truth.json"),
    "reference": Reference("crossed_desk.yaml", 1 << 16),
    "gen": Gen(),
}
