"""Smoke tests: each script runs end to end at its smallest settings."""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from lqmc.experiment import load_spec

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_script(name, *args, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_pointset_demo(tmp_path):
    proc = _run_script("pointset_demo.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in ("lfsr_pairs", "lcg_pairs", "iid"):
        assert (tmp_path / f"{name}.csv").stat().st_size > 0
    assert proc.stdout.count("D2*=") == 3


def test_run_desk_suite_double_well(tmp_path):
    proc = _run_script("run_desk_suite.py", "--only", "double_well", "--results",
                       str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for suffix in (".csv", ".replicates.csv", ".csv.meta.yaml"):  # the sidecar as `lqmc run` names it
        assert (tmp_path / f"double_well_desk{suffix}").stat().st_size > 0
    assert "ratio=" in proc.stdout
    cache = tmp_path / "double_well_desk.truth.json"
    err = proc.stderr.splitlines()
    assert err[0] == "truth: computing double_well closed-form"
    assert re.fullmatch(rf"truth: done in \d+\.\d s, saved to {re.escape(str(cache))}",
                        err[1])
    again = _run_script("run_desk_suite.py", "--only", "double_well", "--results",
                        str(tmp_path))
    assert again.returncode == 0, again.stderr
    assert again.stderr == f"truth: loaded from cache {cache}\n"
    ratios = [[line for line in p.stdout.splitlines() if "ratio=" in line]
              for p in (proc, again)]
    assert ratios[0] == ratios[1]  # the cached truth gives the same report


def test_run_desk_suite_prints_ratios_in_spec_order(tmp_path, crossed_truth_file):
    # One line per (m, schedule, test function), in the report's order.  An
    # order taken from a set of schedule labels would put crossed's `solved`
    # schedule first under PYTHONHASHSEED=1.
    if crossed_truth_file is not None:  # the session's truth, not 2^22 steps again
        shutil.copy(crossed_truth_file, tmp_path / "crossed_desk.truth.json")
    proc = _run_script("run_desk_suite.py", "--only", "crossed", "--results", str(tmp_path),
                       PYTHONHASHSEED="1")
    assert proc.returncode == 0, proc.stderr
    if crossed_truth_file is not None:
        assert proc.stderr.startswith("truth: loaded from cache")
    labels = [line.split()[0] for line in proc.stdout.splitlines() if "ratio=" in line]
    spec = load_spec(ROOT / "specs" / "crossed_desk.yaml")
    assert labels == [s.label for s in spec.schedules]


def test_output_digests_lists_every_output():
    proc = _run_script("output_digests.py")
    assert proc.returncode == 0, proc.stderr
    digests = dict(line.split() for line in proc.stdout.splitlines())
    labels = {path.stem: [s.label for s in load_spec(path).schedules]
              for path in (ROOT / "specs").glob("*_desk.yaml")}
    labels["sgld_burn_solved"] = ["constant_h0.001", "solved_0.001to0.0001"]
    labels["linear_burn_override_offset"] = ["constant_h0.001"]
    expected = {f"{name}{suffix}" for name in labels
                for suffix in (".csv", ".replicates.csv", ".meta.yaml")}
    expected |= {f"{name}/{method}_m{m}_{label}_r{r}.csv" for name, names in labels.items()
                 for label in names for method in ("lmc", "lqmc") for m in (8, 10)
                 for r in range(4)}
    assert sorted(digests) == sorted(expected) and len(expected) == 181
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests.values())
    assert len(set(digests.values())) == len(digests)  # no two files alike, none empty


def _perfbench_result(root, workload, seed, wall, failed=0):
    out = root / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    children = [{"ok": i >= failed, "machine": {"nproc": 2}} for i in range(3)]
    record = {"workload": workload, "seed": seed, "trace": 0, "children": children,
              "summary": {"wall_s": wall, "setup_s": 0.5, "peak_rss_mb": 100.0 + seed}}
    (out / f"result-{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_bench_record(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, walls in ((parent, (4.0, 5.0, 4.5)), (change, (2.0, 5.5, 2.2))):
        (root / "src").mkdir(parents=True)
        (root / "src" / "a.py").write_text(f"# {root.name}\n")
        for seed, wall in enumerate(walls):
            _perfbench_result(root, "gen", seed, wall, failed=int(seed == 1))
    _perfbench_result(parent, "sgld", 0, 3.0)  # a workload the change did not run
    proc = _run_script("bench_record.py", "--parent", str(parent), "--change", str(change),
                       "--topic", "demo", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert record["machine"] == {"nproc": 2}
    gen = record["change"]["workloads"]["gen"]
    assert [r["wall_s"] for r in gen["runs"]] == [2.0, 5.5, 2.2]
    assert [r["failed"] for r in gen["runs"]] == [0, 1, 0]
    assert gen["median"] == {"wall_s": 2.2, "setup_s": 0.5, "peak_rss_mb": 101.0}
    assert set(record["parent"]["workloads"]) == {"gen", "sgld"}
    assert record["parent"]["src_sha256"] != record["change"]["src_sha256"]
    assert record["pairs"]["gen"]["seeds"] == [0, 1, 2]
    assert record["pairs"]["gen"]["wall_s"]["change_wins"] == 2
    assert record["pairs"]["gen"]["wall_s"]["median_ratio"] == 0.5  # of 0.5, 1.1, 0.49
    assert set(record["pairs"]) == {"gen"}
    assert "gen: wall_s 2/3 wins" in proc.stdout
    assert gen["quartiles"]["wall_s"] == pytest.approx([2.1, 3.85])  # inclusive method
    assert record["parent"]["workloads"]["gen"]["quartiles"]["wall_s"] == [4.25, 4.75]
    assert record["parent"]["workloads"]["sgld"]["quartiles"]["wall_s"] == [3.0, 3.0]
    pair = record["pairs"]["gen"]
    assert (pair["wall_s"]["ties"], pair["wall_s"]["resolved"]) == (0, False)  # 2 of 3 wins
    assert (pair["setup_s"]["change_wins"], pair["setup_s"]["ties"]) == (0, 3)
    assert "wall_s 2/3 wins, 0 ties, median ratio 0.500, unresolved" in proc.stdout
    assert "setup_s 0/3 wins, 3 ties" in proc.stdout
    # no results under a checkout: refused
    proc = _run_script("bench_record.py", "--parent", str(tmp_path / "none"),
                       "--change", str(change), "--topic", "demo",
                       "--out-dir", str(tmp_path))
    assert proc.returncode == 2


def test_bench_record_claim_rule(tmp_path):
    # Parent wall_s 1.00..1.09 s over seeds 0..9: quartiles 1.0225 and 1.0675.
    parent, change = tmp_path / "parent", tmp_path / "change"
    shifts = {"linear100": [-0.1] * 3 + [0.01] + [-0.1] * 6,  # 9 of 10, gap 0.09
              "sgld": [-0.03] * 10,  # 10 of 10, gap 0.03 < IQR 0.045
              "reference": [-0.1] * 8 + [0.01, 0.0]}  # 8 of 10, one tie
    for root in (parent, change):
        (root / "src").mkdir(parents=True)
        (root / "src" / "a.py").write_text(f"# {root.name}\n")
    for workload, shift in shifts.items():
        for seed in range(10):
            _perfbench_result(parent, workload, seed, 1.0 + 0.01 * seed)
            _perfbench_result(change, workload, seed, 1.0 + 0.01 * seed + shift[seed])
    proc = _run_script("bench_record.py", "--parent", str(parent), "--change", str(change),
                       "--topic", "demo", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert record["parent"]["workloads"]["sgld"]["quartiles"]["wall_s"] == pytest.approx(
        [1.0225, 1.0675])
    wall = {name: record["pairs"][name]["wall_s"] for name in shifts}
    assert {name: (w["change_wins"], w["ties"], w["resolved"]) for name, w in wall.items()} \
        == {"linear100": (9, 0, True), "sgld": (10, 0, False), "reference": (8, 1, False)}
    assert "linear100: wall_s 9/10 wins, 0 ties, median ratio 0.905, resolved" in proc.stdout
    assert "sgld: wall_s 10/10 wins, 0 ties, median ratio 0.971, unresolved" in proc.stdout


def test_bench_record_warns_about_a_side_without_commit(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "src").mkdir(parents=True)
        (root / "src" / "a.py").write_text(f"# {root.name}\n")
        _perfbench_result(root, "gen", 0, 2.0)
    git = ["git", "-C", str(change), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "src"]):
        subprocess.run(git + args, check=True, capture_output=True)
    proc = _run_script("bench_record.py", "--parent", str(parent), "--change", str(change),
                       "--topic", "demo", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert record["parent"]["commit"] is None
    assert re.fullmatch(r"[0-9a-f]{40}", record["change"]["commit"])
    assert proc.stderr == (f"warning: the parent checkout {parent} has no git commit; "
                           "only its src_sha256 names the measured code\n")
