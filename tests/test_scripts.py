"""Smoke tests: both scripts run end to end at their smallest settings."""

import os
import pathlib
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
