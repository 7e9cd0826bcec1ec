"""Command-line front end: gen, discrepancy, run, diagnose.

Every subcommand is deterministic given its full argument/seed set.  Exit
codes: 0 success, 2 validation/configuration failure, 3 runtime failure,
4 numeric divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np
import yaml

from . import bench, models
from .cud_core import (PointSet, builtin_config, generate_cud,
                       star_discrepancy_1d, star_discrepancy_2d, table_listing)
from .drive import build_drive_matrix
from .errors import (ConfigurationError, DataError, DivergenceError,
                     DomainError, LqmcError, SizeError, SpecError)
from .experiment import ExperimentSpec, ScheduleSpec, load_spec
from .prng import BaselinePrng
from .samplers import PseudoRandomDrive, contraction_info, coupling_diagnostic

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_DIVERGENCE = 4

_VALIDATION_ERRORS = (SpecError, ConfigurationError, DomainError, SizeError, DataError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqmc",
        description="Quasi-random Langevin sampling toolkit and MSE benchmark.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for operations that draw random inputs")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--output", default=None, help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a driving sequence or drive matrix as CSV")
    gen.add_argument("-m", type=int, default=None, help="period exponent (period 2^m - 1)")
    gen.add_argument("--offset", type=int, default=None, help="decimation offset override")
    gen.add_argument("--count", type=int, default=None,
                     help="number of values to emit (default: full period)")
    gen.add_argument("--matrix", type=int, default=None, metavar="D",
                     help="emit an n x D drive matrix instead of the raw sequence")
    gen.add_argument("--shift-seed", type=int, default=None,
                     help="draw a rotation shift for --matrix (default: no shift)")
    gen.add_argument("--table", action="store_true",
                     help="print the built-in polynomial/offset table and exit")

    disc = sub.add_parser("discrepancy", help="exact star discrepancy of a points CSV")
    disc.add_argument("points", help="CSV file, one point per row")
    disc.add_argument("--dim", type=int, choices=(1, 2), required=True)
    disc.add_argument("--compare-iid", type=int, default=None, metavar="R",
                      help="also report the median D* of R i.i.d. sets of the same size")

    run = sub.add_parser("run", help="execute an experiment spec and write the MSE report")
    run.add_argument("spec", help="experiment spec file (YAML)")
    run.add_argument("--per-replicate", default=None,
                     help="also write per-replicate squared errors to this CSV")
    run.add_argument("--truth-cache", default=None,
                     help="load ground truth from this file if present, else compute and save")
    run.add_argument("--dump-trajectories", default=None, metavar="DIR",
                     help="re-run every chain alone and dump it as CSV into DIR (large)")

    diag = sub.add_parser("diagnose", help="contraction coupling diagnostic")
    diag.add_argument("--model", default="quadratic",
                      choices=("quadratic", "linear", "logistic", "crossed", "double_well"))
    diag.add_argument("--h", type=float, required=True)
    diag.add_argument("--steps", type=int, default=50)
    diag.add_argument("--dim", type=int, default=2)
    diag.add_argument("--n-obs", type=int, default=20)
    diag.add_argument("--data-seed", type=int, default=1)
    diag.add_argument("-m", type=int, default=14,
                      help="period exponent used for the gcd diagnostic")
    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.table:
        _emit(table_listing(), args.output)
        return EXIT_OK
    if args.m is None:
        raise ConfigurationError("gen requires -m (or --table)")
    config = builtin_config(args.m, offset=args.offset)
    n = config.period
    seq = generate_cud(config)  # refuses a polynomial that is not primitive
    print(f"m={args.m} poly=0x{config.poly.mask:x} offset={config.offset} "
          f"period={n} (implied by primitivity) gcd(offset, period)=1", file=sys.stderr)
    if args.matrix is not None:
        # without --shift-seed: the pre-shift matrix, suitable for bit-comparison
        rng = None if args.shift_seed is None else BaselinePrng(args.shift_seed)
        matrix = build_drive_matrix(seq, args.matrix, rng=rng)
        print(f"matrix {matrix.n}x{matrix.d} (stored width {matrix.d_stored})",
              file=sys.stderr)
        _write_csv(matrix.rows, matrix.n, matrix.d, args.output)
        return EXIT_OK
    count = n if args.count is None else args.count
    if not 1 <= count <= n:
        raise ConfigurationError(f"count must be in 1..{n}")
    _write_csv(lambda lo, hi: seq.values[lo:hi], count, 1, args.output)
    return EXIT_OK


_CSV_BLOCK = 1 << 16  # values formatted and written at a time


def _write_csv(rows, n: int, width: int, output: str | None) -> None:
    """Write ``rows(lo, hi)`` for 0 <= lo < hi <= n as "%.17g" CSV, block by block."""
    block = max(1, _CSV_BLOCK // width)
    line = ",".join(["%.17g"] * width) + "\n"
    with (contextlib.nullcontext(sys.stdout) if output is None
          else open(output, "w")) as fh:
        for lo in range(0, n, block):
            values = rows(lo, min(lo + block, n))
            fh.write(line * len(values) % tuple(values.ravel().tolist()))


# ---------------------------------------------------------------------------
# discrepancy
# ---------------------------------------------------------------------------


def _read_points(path, dim: int) -> PointSet:
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != dim:
                raise DataError(f"{path}: line {lineno}: expected {dim} columns, "
                                f"got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no points")
    return PointSet(dimension=dim, points=np.array(rows))


def _cmd_discrepancy(args) -> int:
    points = _read_points(args.points, args.dim)
    disc = star_discrepancy_1d if args.dim == 1 else star_discrepancy_2d
    value = disc(points)
    lines = [f"n={len(points)} dim={args.dim} star_discrepancy={value:.12g}"]
    if args.compare_iid is not None:
        vals = []
        for i in range(args.compare_iid):
            iid = bench.iid_pointset(len(points), args.dim, args.seed, stream=i)
            vals.append(disc(iid))
        med = float(np.median(vals))
        lines.append(f"iid_median={med:.12g} over {args.compare_iid} sets "
                     f"(input is {'smaller' if value < med else 'not smaller'})")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    spec = load_spec(args.spec)
    truth = bench.cached_ground_truth(spec, args.truth_cache)
    if args.dump_trajectories is not None:
        os.makedirs(args.dump_trajectories, exist_ok=True)
    report = bench.run_comparison(spec, truth=truth, trajectory_dir=args.dump_trajectories)
    output = args.output or spec.output
    if output is None:
        sys.stdout.write(report.to_csv())
    else:
        with open(output, "w") as fh:
            fh.write(report.to_csv())
        with open(output + ".meta.yaml", "w") as fh:
            yaml.safe_dump(report.metadata, fh, sort_keys=True)
        print(f"report -> {output} (+ .meta.yaml)", file=sys.stderr)
    if args.per_replicate is not None:
        with open(args.per_replicate, "w") as fh:
            fh.write(report.replicate_csv())
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _cmd_diagnose(args) -> int:
    if args.model == "quadratic":
        potential = models.standard_gaussian_potential(args.dim)
    else:
        potential, _ = bench.build_model(ExperimentSpec(
            model=args.model, n_obs=args.n_obs, dim=args.dim, data_seed=args.data_seed,
            m_values=(args.m,), schedules=(ScheduleSpec(kind="constant", h=args.h),)))
    d = potential.dim
    theta = np.zeros(d)
    theta_prime = np.ones(d)
    dist = coupling_diagnostic(potential, theta, theta_prime, args.h, args.steps,
                               PseudoRandomDrive(args.seed))
    L, M = potential.smoothness, potential.strong_convexity
    lines = []
    if L is not None and M is not None and 0 < args.h * M < 1:
        n = (1 << args.m) - 1
        info = contraction_info(L, M, args.h, d, n)
        lines.append(f"# L={L:.6g} M={M:.6g} rho={info.rho:.6g} ell={info.ell} "
                     f"gcd(d*ell, 2^{args.m}-1)={info.gcd_d_ell_n}")
        envelope = dist[0] * info.rho ** np.arange(args.steps + 1)
        lines.append("step,distance,envelope")
        lines.extend(f"{k},{dk:.12g},{ek:.12g}"
                     for k, (dk, ek) in enumerate(zip(dist, envelope)))
    else:
        reason = ("constants undeclared" if L is None or M is None
                  else "step size outside the contraction regime")
        lines.append(f"# {reason}: no contraction envelope")
        lines.append("step,distance")
        lines.extend(f"{k},{dk:.12g}" for k, dk in enumerate(dist))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "gen": _cmd_gen,
        "discrepancy": _cmd_discrepancy,
        "run": _cmd_run,
        "diagnose": _cmd_diagnose,
    }[args.command]
    try:
        return handler(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"divergence ({args.command}): {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (LqmcError, OSError, RuntimeError, ValueError) as exc:
        print(f"failure ({args.command}): {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
