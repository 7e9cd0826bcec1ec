#!/usr/bin/env python3
"""Print the sha256 of every file a fixed set of small comparisons writes.

Runs ``bench.run_comparison`` with trajectory dumps on every
``specs/*_desk.yaml`` at m = (8, 10) with 4 replicates, and on two variants
that hand a burn-in over to the main phase: logistic SGLD with
``burn_in_m = 6`` and a ``solved`` schedule beside the constant one, and
linear100 with ``burn_in_m = 5``, ``n_override = 200`` and ``offset = 7``.
Model kinds whose ``bench.MODEL_KINDS`` entry is a long reference run
(logistic, crossed) are scored against a fixed synthetic truth, so none is
computed.  Each line is ``<file> <sha256>``, for every report, replicate
CSV, ``.meta.yaml`` sidecar (written as ``lqmc run`` writes it) and
trajectory dump, so checking that two checkouts write the same bytes is one
``diff``:

    PYTHONPATH=src python3 scripts/output_digests.py > digests.txt
"""

import hashlib
import pathlib
import sys
import tempfile
from dataclasses import replace

import numpy as np
import yaml

from lqmc import bench
from lqmc.experiment import ScheduleSpec, load_spec
from lqmc.models import GroundTruth

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


def cases():
    """(name, spec) pairs: the desk specs at small scale, then the two variants."""
    desk = {path.stem: replace(load_spec(path), m_values=(8, 10), replicates=4)
            for path in sorted(SPEC_DIR.glob("*_desk.yaml"))}
    sgld, linear = desk["logistic_sgld_desk"], desk["linear100_desk"]
    solved = ScheduleSpec(kind="solved", h_start=0.001, h_end=0.0001)
    return [*desk.items(),
            ("sgld_burn_solved", replace(sgld, burn_in_m=6, schedules=sgld.schedules + (solved,))),
            ("linear_burn_override_offset", replace(linear, burn_in_m=5, n_override=200,
                                                    offset=7))]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for name, spec in cases():
            truth = None
            if bench.MODEL_KINDS[spec.model].provenance == "long-reference-run":
                d = bench.build_model(spec)[0].dim
                truth = GroundTruth(np.zeros(d), np.ones(d), np.full(d, 0.5), "synthetic")
            (root / name).mkdir()
            report = bench.run_comparison(spec, truth=truth, trajectory_dir=str(root / name))
            outputs = {".csv": report.to_csv(), ".replicates.csv": report.replicate_csv(),
                       ".meta.yaml": yaml.safe_dump(report.metadata, sort_keys=True)}
            for suffix, text in outputs.items():
                (root / f"{name}{suffix}").write_text(text)
            for path in [root / f"{name}{suffix}" for suffix in outputs] + sorted(
                    (root / name).iterdir()):
                print(path.relative_to(root), hashlib.sha256(path.read_bytes()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
