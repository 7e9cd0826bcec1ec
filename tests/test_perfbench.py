"""The benchmark's own tests, run as a part of this suite.

``perfbench/tests`` traces a minibatch chain and requires one ``sgrad`` and
one ``index_subset`` call per row and step, so it catches a chain loop that
calls around the traced ``Potential.sgrad`` or ``BaselinePrng.index_subset``.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_suite_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "perfbench/tests", "-q"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
