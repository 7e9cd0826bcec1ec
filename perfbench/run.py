"""lqmc benchmark: one workload, several fresh child processes, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload linear100 --seed 0 --seconds 30 --trace 0

Each child (``child.py``) does the set-up a user pays (interpreter start,
``import lqmc``, spec loading, data synthesis, truth loading), makes one
timed call and checks its output.  Children run one after another, with
single-threaded BLAS: at least three, then more while the next one should
end within ``--seconds``.  The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of traced children with ``--trace 1``.
Lines before it, starting with ``#``, give machine facts and every metric
with its unit; the full record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import COUNT_METRICS, SPAN_METRICS  # noqa: E402

WORKLOADS = ("linear100", "sgld", "reference", "gen")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_CHILDREN = 3  # per mode; set-up time is a median over these
CHILD_TIMEOUT = 60
RUN_LIMIT = 100  # start no child after this many seconds, so a run ends within 180 s
WORK_DIR = Path(".perfbench_out")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = dict(
    {m: "count" if m.endswith(".calls") else "s" for m in SPAN_METRICS},
    **{m: "count" for m in COUNT_METRICS},
    **{"samplers.self_us_per_step": "us", "trace.unattributed_frac": "share",
       "trace_overhead_frac": "share"},
)


def child_env() -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload, seed, trace, env) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--work-dir", str(WORK_DIR)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"child timed out after {CHILD_TIMEOUT} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"ok": False, "problems": [f"child exited with {proc.returncode}, no result"]}
    if not out["ok"]:
        sys.stderr.write(proc.stderr)
    if "setup_end" in out:
        out["setup_s"] = out["setup_end"] - spawned
    return out


def median_of(children, key):
    return statistics.median(c[key] for c in children)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src/lqmc/__init__.py").is_file() and Path("specs").is_dir()):
        print("error: run from the root of an lqmc checkout (src/lqmc and specs/ "
              "not found)", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    env = child_env()
    # Byte-compile lqmc once, so no measured set-up pays for it.
    subprocess.run([sys.executable, "-c", "import lqmc.cli"], env=env,
                   timeout=CHILD_TIMEOUT, check=False)

    modes = (0, 1) if args.trace else (0,)
    children = {mode: [] for mode in modes}
    durations = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        short = any(len(children[m]) < MIN_CHILDREN for m in modes)
        # Past the minimum, start a child only if it should end within --seconds.
        if elapsed >= RUN_LIMIT or (
                not short and elapsed + statistics.median(durations) > args.seconds):
            break
        mode = min(modes, key=lambda m: len(children[m]))
        children[mode].append(run_child(args.workload, args.seed, mode, env))
        durations.append(time.monotonic() - start - elapsed)

    every = [c for mode in modes for c in children[mode]]
    # Identical calls must give identical outputs.
    digests = Counter(c.get("digest") for c in every if c["ok"])
    if digests:
        common = digests.most_common(1)[0][0]
        for c in every:
            if c["ok"] and c.get("digest") != common:
                c["ok"] = False
                c["problems"].append("output differs from the other calls of this run")
    plain = [c for c in children[0] if c["ok"]]
    if not plain:
        print("error: no child completed its call", file=sys.stderr)
        return 1
    wall = median_of(plain, "wall_s")
    steps = plain[0]["steps"]
    ratio = plain[0]["mse_ratio"]
    summary = {
        "wall_s": wall,
        "setup_s": median_of(plain, "setup_s"),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
    }
    failed = sum(not c["ok"] for c in every)
    print(f"# machine {json.dumps(plain[0]['machine'])}")
    print(f"# workload {args.workload} seed {args.seed}: {len(every)} calls, "
          f"{failed} failed, {len(plain)} untraced ok")
    for name, unit in END_TO_END.items():
        print(f"# {name} {summary[name]:.6g} {unit}")
    print("# steps_per_s " + (f"{steps / wall:.6g} updates/s" if steps else "n/a"))
    print("# mse_ratio " + (f"{ratio:.6g} ratio" if ratio is not None else "n/a"))
    print(f"# failed_frac {failed / len(every):.6g} share")

    if args.trace:
        traced = [c for c in children[1] if c["ok"]]
        if not traced:
            print("error: no traced child completed its call", file=sys.stderr)
            return 1
        metrics = {name: statistics.median(c["layers"][name] for c in traced)
                   for name in PER_LAYER if name in traced[0]["layers"]}
        metrics["trace_overhead_frac"] = median_of(traced, "wall_s") / wall - 1.0
        units = PER_LAYER
        for name, value in metrics.items():
            print(f"# {name} {value:.6g} {units[name]}")
    else:
        metrics, units = summary, END_TO_END

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "summary": summary, "steps": steps,
              "mse_ratio": ratio, "children": every}
    with open(WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
