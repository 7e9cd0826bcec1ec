"""Smoke tests: each script runs end to end at its smallest settings."""

import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
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
    for suffix in (".csv", ".replicates.csv", ".meta.yaml"):
        assert (tmp_path / f"double_well_desk{suffix}").stat().st_size > 0
    assert "ratio=" in proc.stdout
    cache = tmp_path / "double_well_desk.truth.json"
    err = proc.stderr.splitlines()
    assert err[0] == "truth: computing double_well quadrature"
    assert re.fullmatch(rf"truth: done in \d+\.\d s, saved to {re.escape(str(cache))}",
                        err[1])
    again = _run_script("run_desk_suite.py", "--only", "double_well", "--results",
                        str(tmp_path))
    assert again.returncode == 0, again.stderr
    assert again.stderr == f"truth: loaded from cache {cache}\n"
    ratios = [[line for line in p.stdout.splitlines() if "ratio=" in line]
              for p in (proc, again)]
    assert ratios[0] == ratios[1]  # the cached truth gives the same report


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
    # no results under a checkout: refused
    proc = _run_script("bench_record.py", "--parent", str(tmp_path / "none"),
                       "--change", str(change), "--topic", "demo",
                       "--out-dir", str(tmp_path))
    assert proc.returncode == 2


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
