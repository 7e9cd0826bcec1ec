"""``python -m lqmc`` and the ``lqmc`` script: the CLI with single-threaded BLAS.

The thread variables are set before ``cli`` loads numpy, so a report's bytes
do not depend on the caller's BLAS thread setting, and a cell's forked half
(``bench.run_cell``) shares the CPUs with no BLAS threads.  A library caller
of ``lqmc`` keeps its own setting.
"""

import os
import sys


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
