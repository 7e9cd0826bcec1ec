"""Tests of the benchmark itself: output checks, tracer, metric lists.

Run from the checkout root:  PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
REPO = HERE.parent
sys.path[:0] = [str(HERE), str(REPO / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import check_gen, check_report, check_truth, load_golden  # noqa: E402

GOLDEN = load_golden()


# -- output checks flag corrupted reports ------------------------------------


@pytest.mark.parametrize("name", ["linear100", "sgld"])
def test_golden_report_passes_and_corruptions_are_flagged(name):
    rows = GOLDEN[name]["rows"]
    assert check_report(rows, rows) == []
    assert check_report(rows) == []

    tweaked = copy.deepcopy(rows)
    tweaked[3][4] *= 1 + 1e-5  # a changed drive moves MSEs by far more
    assert check_report(tweaked, rows)
    assert check_report(tweaked) == []  # off the default seed only sanity is checked

    nan = copy.deepcopy(rows)
    nan[0][5] = math.nan
    assert check_report(nan)

    swapped = copy.deepcopy(rows)  # LQMC no better than LMC
    for r in swapped:
        if r[3] == "coordinate":
            r[4] = 1.0
    assert any("mse_ratio" in p for p in check_report(swapped))

    assert check_report(rows[:-1], rows)


def test_golden_tolerance_admits_rounding_sized_changes():
    rows = copy.deepcopy(GOLDEN["linear100"]["rows"])
    for r in rows:
        r[4] *= 1 + 1e-12
    assert check_report(rows, GOLDEN["linear100"]["rows"]) == []


def test_reference_truth_corruptions_are_flagged():
    gold = {f: GOLDEN["reference"][f] for f in workloads.TRUTH_FIELDS}
    assert check_truth(gold, gold) == []
    bad = copy.deepcopy(gold)
    bad["mean_se"][2] = math.inf
    assert check_truth(bad)
    moved = copy.deepcopy(gold)
    moved["mean"][0] += 1e-3
    assert check_truth(moved, gold) and check_truth(moved) == []


def _gen_bytes(m):
    values = (np.arange(1, 1 << m) / (1 << m))[::-1]
    return "".join("%.17g\n" % v for v in values).encode()


def test_gen_check_flags_corrupted_output():
    import hashlib

    data = _gen_bytes(8)
    digest = hashlib.sha256(data).hexdigest()
    assert check_gen(data, 8, digest) == []
    lines = data.splitlines(keepends=True)

    def flagged(corrupt, words):
        problems = check_gen(corrupt, 8, digest)
        return problems[-1] == "output bytes differ from the stored digest" and any(
            words in p for p in problems[:-1])

    assert flagged(b"".join(lines[:-1]), "expected 255")  # truncated
    assert flagged(b"".join(lines[:-1] + lines[:1]), "not distinct")  # duplicate value
    assert flagged(data.replace(b"0.5\n", b"0.50000001\n"), "k/2^8")  # off-grid
    swapped = b"".join(lines[1:2] + lines[:1] + lines[2:])  # same multiset, new order
    assert check_gen(swapped, 8, digest) == ["output bytes differ from the stored digest"]


# -- tracer -------------------------------------------------------------------


def test_tracer_records_layers_and_restores_every_original():
    import lqmc
    from lqmc import bench, cud_core, drive, models, prng, samplers

    before = {(mod.__name__, k): v for mod in (lqmc, bench, cud_core, drive, models,
                                               samplers)
              for k, v in vars(mod).items() if callable(v)}
    prng_before = dict(vars(prng.BaselinePrng))

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert samplers.gaussian_rows is not before[("lqmc.samplers", "gaussian_rows")]
        assert bench.run_chain is not before[("lqmc.bench", "run_chain")]
        spec = lqmc.ExperimentSpec(
            model="logistic", m_values=(6,), n_obs=20, dim=3, replicates=2,
            minibatch=5, schedules=(lqmc.ScheduleSpec(kind="constant", h=0.01),))
        tracer.span(spans.ROOT, bench.run_comparison, spec,
                    truth=models.GroundTruth(np.zeros(3), np.ones(3),
                                             np.full(3, 0.5), "test"))
    finally:
        tracer.restore()

    after = {(mod.__name__, k): v for mod in (lqmc, bench, cud_core, drive, models,
                                              samplers)
             for k, v in vars(mod).items() if callable(v)}
    assert after == before
    assert dict(vars(prng.BaselinePrng)) == prng_before

    m = spans.aggregate(tracer.spans, tracer.counts)
    steps = 2 * 2 * 63
    assert m["samplers.steps"] == steps
    assert m["models.sgrad.calls"] == steps and m["prng.index_subset.calls"] == steps
    assert m["models.grad.calls"] == 0
    assert m["cud_core.values"] == 63
    # Both methods' xi plus the normals drawn for the synthetic data.
    assert m["drive.normals"] == 2 * (2 * 63 * 3) + 3 + 20 * 3
    # Self times of all spans add up to the root span's duration.
    busy, own, _ = spans.span_totals(tracer.spans)
    assert sum(own.values()) == busy[spans.ROOT]


def test_nested_spans_of_one_name_are_not_counted_twice():
    recs = [("a", 0, 100, -1), ("a", 10, 60, 0), ("b", 60, 90, 0), ("a", 70, 80, 2)]
    busy, own, calls = spans.span_totals(recs)
    assert busy == {"a": 100, "b": 30}
    assert own == {"a": 20 + 50 + 10, "b": 20}
    assert calls == {"a": 3, "b": 1}


# -- benchmark definition ------------------------------------------------------


def test_benchmark_json_lists_what_run_py_reports():
    bench_def = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench_def["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench_def["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench_def["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "gen",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
