#!/usr/bin/env python3
"""Run every desk-scale experiment spec and write reports under results/.

Ground truths are cached next to the reports (the same cache as
``lqmc run --truth-cache``), so repeated invocations only pay for the
chains under comparison.
"""

import argparse
import pathlib
import sys
import time

import yaml

from lqmc import bench
from lqmc.experiment import load_spec

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--results", default="results")
    ap.add_argument("--only", default=None, help="substring filter on spec names")
    args = ap.parse_args()

    outdir = pathlib.Path(args.results)
    outdir.mkdir(parents=True, exist_ok=True)
    for spec_path in sorted(SPEC_DIR.glob("*_desk.yaml")):
        if args.only and args.only not in spec_path.name:
            continue
        spec = load_spec(spec_path)
        name = spec_path.stem
        print(f"== {name}: model={spec.model} m={list(spec.m_values)} "
              f"R={spec.replicates}", flush=True)
        t0 = time.time()
        truth = bench.cached_ground_truth(spec, outdir / f"{name}.truth.json")
        report = bench.run_comparison(spec, truth=truth)
        out = outdir / f"{name}.csv"
        out.write_text(report.to_csv())
        (outdir / f"{name}.replicates.csv").write_text(report.replicate_csv())
        pathlib.Path(f"{out}.meta.yaml").write_text(  # beside the report, as `lqmc run` writes it
            yaml.safe_dump(report.metadata, sort_keys=True))
        print(f"   done in {time.time() - t0:.0f}s -> {out}")
        for row in report.rows:  # m, then schedule, then test function, as in the report
            if row.method == "lmc":
                lq = report.mse("lqmc", row.m, row.test_fn, row.schedule)
                print(f"   {row.schedule} m={row.m} {row.test_fn}: lmc={row.mse:.3e} "
                      f"lqmc={lq:.3e} ratio={row.mse / lq:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
