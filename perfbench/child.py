"""One workload run in a fresh process: set-up, one timed call, output check.

Started by ``run.py`` from the checkout root with ``src`` on PYTHONPATH and
single-threaded BLAS.  Prints one JSON object as its last stdout line.
With ``--trace 1`` the lqmc modules are wrapped before set-up and the
per-layer metrics of the spans are included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

import lqmc
import numpy
import scipy

from spans import ROOT, Tracer, aggregate
from workloads import WORKLOADS, load_golden

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "lqmc": lqmc.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    golden = load_golden()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    out = {"ok": False, "problems": []}
    try:
        state = workload.setup(args.seed, args.work_dir, golden)
        out["setup_end"] = time.monotonic()
        out["steps"] = workload.steps(state)
        start = time.perf_counter()
        if tracer is None:
            result = workload.call(state)
        else:
            result = tracer.span(ROOT, workload.call, state)
        out["wall_s"] = time.perf_counter() - start
        # Compared across the run's calls; gen returns file names, whose
        # bytes its check compares with stored digests.
        out["digest"] = hashlib.sha256(json.dumps(result).encode()).hexdigest()
        out["problems"] = workload.check(state, result, golden)
        out["mse_ratio"] = workload.mse_ratio(result)
        out["ok"] = not out["problems"]
    except Exception as exc:  # a failed call is counted, not fatal
        traceback.print_exc()
        out["problems"].append(f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.restore()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["machine"] = machine_facts()
    if tracer is not None:
        tracer.write(os.path.join(args.work_dir, f"spans-{args.workload}.json"))
        out["layers"] = aggregate(tracer.spans, tracer.counts)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
