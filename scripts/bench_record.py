#!/usr/bin/env python3
"""Write a BENCH_<topic>.json from the perfbench results of two checkouts.

Run ``python3 perfbench/run.py --workload W --seed S --trace 0`` in a
checkout of the parent and in one of the change (each run leaves
``.perfbench_out/result-W-seedS-trace0.json``), then:

    python3 scripts/bench_record.py --parent ../parent --change . --topic cud

Per side and workload the file holds every run's end-to-end metrics, their
median and their quartiles; per workload it holds, over the seeds both
sides ran, how many pairs the change won and tied on each metric, the
median change/parent ratio, and whether the gain is ``resolved``: the
change won at least 9 in 10 of the pairs, and its median is lower than the
parent's by more than the parent's interquartile range (both over those
pairs).  Quartiles are ``statistics.quantiles(..., method="inclusive")``,
numpy's default linear interpolation.  Each side records its git commit
(``-dirty`` when ``src/`` has uncommitted edits) and a sha256 of its
``src/`` files, which names the measured code even when it was not
committed; a side outside any git checkout records ``commit: null`` and
gets a warning on stderr.  Machine facts come from the change's first run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys

METRICS = ("wall_s", "setup_s", "peak_rss_mb")  # all lower is better


def src_digest(root: pathlib.Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: pathlib.Path) -> str | None:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit and git("status", "--porcelain", "--", "src"):
        commit += "-dirty"
    return commit


def read_runs(root: pathlib.Path) -> dict[str, list[dict]]:
    """workload -> runs (seed, metrics, failed share), ordered by seed."""
    runs: dict[str, list[dict]] = {}
    for path in sorted((root / ".perfbench_out").glob("result-*-trace0.json")):
        record = json.loads(path.read_text())
        children = record["children"]
        runs.setdefault(record["workload"], []).append({
            "seed": record["seed"],
            **{m: record["summary"][m] for m in METRICS},
            "failed": sum(not c["ok"] for c in children),
            "attempted": len(children),
            "machine": next((c["machine"] for c in children if "machine" in c), None),
        })
    for group in runs.values():
        group.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values) -> list[float]:
    """[q1, q3] of ``values`` (one value is its own quartiles)."""
    values = list(values)
    if len(values) == 1:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def side(root: pathlib.Path, runs) -> dict:
    return {
        "commit": git_commit(root),
        "src_sha256": src_digest(root),
        "workloads": {
            name: {"runs": [{k: r[k] for k in ("seed", *METRICS, "failed", "attempted")}
                            for r in group],
                   "median": {m: statistics.median(r[m] for r in group) for m in METRICS},
                   "quartiles": {m: quartiles(r[m] for r in group) for m in METRICS}}
            for name, group in sorted(runs.items())
        },
    }


def pairs(parent_runs, change_runs) -> dict:
    out = {}
    for name in sorted(set(parent_runs) & set(change_runs)):
        before = {r["seed"]: r for r in parent_runs[name]}
        after = {r["seed"]: r for r in change_runs[name]}
        seeds = sorted(set(before) & set(after))
        if not seeds:
            continue
        out[name] = {"seeds": seeds, **{m: claim([before[s][m] for s in seeds],
                                                 [after[s][m] for s in seeds])
                                          for m in METRICS}}
    return out


def claim(before: list[float], after: list[float]) -> dict:
    """Wins, ties, median ratio and the claim rule over pairs (before[i], after[i])."""
    wins = sum(a < b for b, a in zip(before, after))
    q1, q3 = quartiles(before)
    gap = statistics.median(before) - statistics.median(after)
    return {
        "change_wins": wins,
        "ties": sum(a == b for b, a in zip(before, after)),
        "median_ratio": statistics.median(a / b for b, a in zip(before, after)),
        "resolved": 10 * wins >= 9 * len(before) and gap > q3 - q1,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout measured as the parent")
    ap.add_argument("--change", required=True, help="checkout measured as the change")
    ap.add_argument("--topic", required=True, help="writes BENCH_<topic>.json")
    ap.add_argument("--out-dir", default=".", help="directory for the BENCH file")
    args = ap.parse_args(argv)

    parent, change = pathlib.Path(args.parent), pathlib.Path(args.change)
    parent_runs, change_runs = read_runs(parent), read_runs(change)
    for label, runs in (("parent", parent_runs), ("change", change_runs)):
        if not runs:
            print(f"error: no .perfbench_out/result-*-trace0.json under the {label} "
                  f"checkout", file=sys.stderr)
            return 2
    first = next(iter(change_runs.values()))[0]
    record = {
        "topic": args.topic,
        "metrics": list(METRICS),
        "machine": first["machine"],
        "parent": side(parent, parent_runs),
        "change": side(change, change_runs),
        "pairs": pairs(parent_runs, change_runs),
    }
    for label, root in (("parent", parent), ("change", change)):
        if record[label]["commit"] is None:
            print(f"warning: the {label} checkout {root} has no git commit; only "
                  f"its src_sha256 names the measured code", file=sys.stderr)
    out = pathlib.Path(args.out_dir) / f"BENCH_{args.topic}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, p in record["pairs"].items():
        print(f"{name}: " + ", ".join(
            f"{m} {p[m]['change_wins']}/{len(p['seeds'])} wins, {p[m]['ties']} ties, "
            f"median ratio {p[m]['median_ratio']:.3f}, "
            f"{'resolved' if p[m]['resolved'] else 'unresolved'}" for m in METRICS))
    print(f"-> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
