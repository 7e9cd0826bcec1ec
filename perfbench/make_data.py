"""Regenerate the benchmark's stored data in ``perfbench/data``.

Run from the checkout root with single-threaded BLAS:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_data.py [--truth]

``--truth`` first recomputes the SGLD ground truth with
``bench.ground_truth_for`` at the full truth settings of
``specs/logistic_sgld_desk.yaml`` (2^22 steps, 10 chains; about 3 minutes
on a 2-core Xeon).  Then the golden outputs of ``linear100``, ``sgld`` and
``reference`` at the default seed and the digest of ``gen`` at every offset
are recorded in ``golden.json``, next to the truth file's sha256.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from child import machine_facts  # noqa: E402
from workloads import (DATA, DEFAULT_SEED, GEN_M, GEN_OFFSETS,  # noqa: E402
                       WORKLOADS, gen_problems)

TRUTH_SPEC = "specs/logistic_sgld_desk.yaml"
TRUTH_FILE = "sgld_truth.json"


def make_truth() -> dict:
    from lqmc import bench, experiment, models

    spec = experiment.load_spec(TRUTH_SPEC)
    potential, _ = bench.build_model(spec)
    start = time.perf_counter()
    truth = bench.ground_truth_for(spec, potential)
    seconds = time.perf_counter() - start
    models.save_ground_truth(truth, DATA / TRUTH_FILE)
    ts = spec.truth
    return {"spec": TRUTH_SPEC, "h": ts.h, "n_steps": ts.n_steps, "chains": ts.chains,
            "seed": ts.seed, "made_with": "bench.ground_truth_for(spec, "
            "bench.build_model(spec)[0])", "seconds": round(seconds, 1),
            "machine": machine_facts()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--truth", action="store_true",
                        help="recompute the SGLD ground truth (slow)")
    args = parser.parse_args()
    golden_path = DATA / "golden.json"
    golden = json.loads(golden_path.read_text()) if golden_path.exists() else {}
    truths = golden.setdefault("truths", {})
    if args.truth:
        truths[TRUTH_FILE] = make_truth()
    truths[TRUTH_FILE]["sha256"] = hashlib.sha256(
        (DATA / TRUTH_FILE).read_bytes()).hexdigest()
    from lqmc import cli

    work_dir = Path(".perfbench_out")
    work_dir.mkdir(exist_ok=True)
    for name in ("linear100", "sgld", "reference"):
        w = WORKLOADS[name]
        out = w.call(w.setup(DEFAULT_SEED, work_dir, golden))
        golden[name] = {"seed": DEFAULT_SEED, "rows": out} if name != "reference" \
            else dict(seed=DEFAULT_SEED, **out)
    digests = {}
    for offset in GEN_OFFSETS:
        gen_path = work_dir / "gen.csv"
        cli.main(["--output", str(gen_path), "gen", "-m", str(GEN_M),
                  "--offset", str(offset)])
        data = gen_path.read_bytes()
        gen_path.unlink()
        digest = hashlib.sha256(data).hexdigest()
        # Record a digest only for an output that passes the structural checks.
        problems = gen_problems(data, GEN_M)
        if problems:
            raise RuntimeError(f"gen --offset {offset}: {problems}")
        digests[str(offset)] = digest
    golden["gen"] = {"m": GEN_M, "sha256": digests}
    golden_path.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
