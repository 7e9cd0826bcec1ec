"""The benchmark's own tests, run as a part of this suite.

``perfbench/tests`` traces a minibatch chain and requires one ``sgrad`` and
one ``index_subset`` call per row and step, so it catches a chain loop that
calls around the traced ``Potential.sgrad`` or ``BaselinePrng.index_subset``.
The tracer must also see the reference oracle that ``bench.MODEL_KINDS`` calls.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

from lqmc import bench
from lqmc.experiment import ExperimentSpec, ScheduleSpec, TruthSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_suite_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "perfbench/tests", "-q"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_tracer_sees_the_reference_oracle():
    # The `reference` workload's models.reference_ground_truth.self_s reads
    # this span; an oracle bound to the function object itself would record
    # none, because the tracer replaces module attributes.
    found = importlib.util.spec_from_file_location("perfbench_spans",
                                                   ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(found)
    found.loader.exec_module(spans)
    spec = ExperimentSpec(model="crossed", n_obs=2, dim=3, data_seed=4, m_values=(4,),
                          schedules=(ScheduleSpec(kind="constant", h=0.01),), replicates=2,
                          truth=TruthSpec(h=1e-3, n_steps=64, chains=2))
    potential = bench.build_model(spec)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        bench.ground_truth_for(spec, potential)
    finally:
        tracer.restore()
    _, _, calls = spans.span_totals(tracer.spans)
    assert calls["models.reference_ground_truth"] == 1
