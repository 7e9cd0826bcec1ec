"""Command-line front end: gen, discrepancy, run, diagnose.

Every subcommand is deterministic given its full argument/seed set.  Exit
codes: 0 success, 2 validation/configuration failure, 3 runtime failure,
4 numeric divergence.  ``run`` and ``diagnose`` import the chain, model and
spec modules themselves, so that ``gen`` and ``discrepancy`` start without them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

import numpy as np

from .cud_core import (MAX_M, PointSet, builtin_config, generate_cud,
                       star_discrepancy_1d, star_discrepancy_2d, table_listing)
from .drive import build_drive_matrix
from .errors import (ConfigurationError, DataError, DivergenceError,
                     DomainError, LqmcError, SizeError, SpecError)
from .prng import SEED_RANGE, BaselinePrng

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
                     help="write every scored chain, burn-in included, as CSV into DIR (large)")

    diag = sub.add_parser("diagnose", help="contraction coupling diagnostic")
    diag.add_argument("--model", default="quadratic",
                      choices=("quadratic", "linear", "logistic", "crossed", "double_well"))
    diag.add_argument("--h", type=float, required=True)
    diag.add_argument("--steps", type=int, default=50)
    diag.add_argument("--dim", type=int, default=None,
                      help="dimension (default 2; not with double_well)")
    diag.add_argument("--n-obs", type=int, default=None,
                      help="observations of the synthetic data (default 20; "
                           "linear, logistic, crossed)")
    diag.add_argument("--data-seed", type=int, default=None,
                      help="seed of the synthetic data (default 1; linear, logistic, crossed)")
    diag.add_argument("-m", type=int, default=14,
                      help="period exponent used for the gcd diagnostic")
    return parser


def _refuse(args, options, why: str) -> None:
    """Refuse each of ``options`` that was given: it would be silently ignored."""
    for option in options:
        if getattr(args, option.lstrip("-").replace("-", "_")) is not None:
            raise ConfigurationError(f"{args.command} {option} has no effect {why}")


def _check_seeds(args) -> None:
    """Refuse a seed option outside ``SEED_RANGE``: it would alias one inside."""
    for option in ("--seed", "--shift-seed", "--data-seed"):
        value = getattr(args, option.lstrip("-").replace("-", "_"), None)
        if value is not None and value not in SEED_RANGE:
            raise ConfigurationError(f"{args.command} {option} must be in 0..2^64 - 1, "
                                     f"got {value}")


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
        ignored, why = ("-m", "--offset", "--count", "--matrix", "--shift-seed"), "with --table"
    elif args.matrix is not None:
        ignored, why = ("--count",), "with --matrix"
    else:
        ignored, why = ("--shift-seed",), "without --matrix"
    _refuse(args, ignored, why)
    if args.table:
        _emit(table_listing(), args.output)
        return EXIT_OK
    if args.m is None:
        raise ConfigurationError("gen requires -m (or --table)")
    config = builtin_config(args.m, offset=args.offset)
    n = config.period
    # refused before the period is built: at m = 26 that is 2^26 values
    if args.matrix is not None and args.matrix < 1:
        raise ConfigurationError(f"gen --matrix must be >= 1, got {args.matrix}")
    count = n if args.count is None else args.count
    if not 1 <= count <= n:
        raise ConfigurationError(f"gen --count must be in 1..{n}, got {count}")
    seq = generate_cud(config)  # refuses a polynomial that is not primitive
    print(f"m={args.m} poly=0x{config.poly_mask:x} offset={config.offset} "
          f"period={n} (implied by primitivity) gcd(offset, period)=1", file=sys.stderr)
    if args.matrix is not None:
        # without --shift-seed: the pre-shift matrix, suitable for bit-comparison
        rng = None if args.shift_seed is None else BaselinePrng(args.shift_seed)
        matrix = build_drive_matrix(seq, args.matrix, rng=rng)
        print(f"matrix {matrix.n}x{matrix.d} (stored width {matrix.d_stored})",
              file=sys.stderr)
        _write_csv(matrix.rows, matrix.n, matrix.d, args.m, args.output)
        return EXIT_OK
    _write_csv(lambda lo, hi: seq.values[lo:hi, None], count, 1, args.m, args.output)
    return EXIT_OK


# Values formatted and written at a time.  The temporaries of a block stay in
# the heap: three `gen -m 20` calls in one process (perfbench `gen`, 2 vCPUs)
# peaked at 111.1, 112.2, 114.2 and 117.9 MiB with blocks of 2^12 to 2^15,
# against 113.5 MiB for per-value "%.17g" in 2^16 blocks; blocks of 2^12 were
# about 10 % slower.
_CSV_BLOCK = 1 << 13


def _write_csv(rows, n: int, width: int, m: int, output: str | None) -> None:
    """Write the (hi - lo, width) arrays ``rows(lo, hi)`` for 0 <= lo < hi <= n
    as "%.17g" CSV, block by block.

    A block whose values are all k/2^m with 0 < k (the sequence, the unshifted
    matrix) goes through ``_format_dyadic``; any other block, such as a shifted
    matrix on the 2^-52 grid, is formatted value by value.
    """
    block = max(1, _CSV_BLOCK // width)
    line = ",".join(["%.17g"] * width) + "\n"
    with (contextlib.nullcontext(sys.stdout) if output is None
          else open(output, "w")) as fh:
        for lo in range(0, n, block):
            values = rows(lo, min(lo + block, n))
            scaled = values * 2.0**m
            k = scaled.astype(np.int64)
            if np.array_equal(k, scaled) and k.min() > 0:
                fh.write(_format_dyadic(k, m).decode("ascii"))
            else:
                fh.write(line * len(values) % tuple(values.ravel().tolist()))


_POW10 = 10 ** np.arange(19, dtype=np.int64)


@functools.cache  # built on first use, so that the other commands do not pay for it
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Little-endian ASCII words, padded with NULs, for ``_format_dyadic``.

    - digits, at g and 10^4 + g: the 4-digit group g in full, and with its
      trailing zeros (all of "0000") as NULs for the groups from a number's
      last nonzero one on;
    - prefix, at (e * 10 + d) * 2 + more: the start of a value 10^-e <= v <
      10^(1-e) with leading digit d: "0." and e - 1 zeros before d for
      e <= 4, else (where "%g" switches to d.ddde-XX) d and, if more digits
      follow, the point;
    - exponent, at e: "e-XX" for e > 4, else nothing.
    """
    g = np.arange(10_000, dtype=np.uint32)
    digits = np.zeros((2, len(g)), np.uint32)
    for j in range(4):  # byte j is the j-th digit from the left
        char = (48 + g // 10 ** (3 - j) % 10) << 8 * j
        digits[0] |= char
        digits[1] |= char * (g % 10 ** (4 - j) != 0)
    prefix = np.array([int.from_bytes(b"0." + b"0" * (e - 1) + b"%d" % d if e <= 4
                                      else b"%d" % d + b"." * more, "little")
                       for e in range(MAX_M + 1) for d in range(10) for more in (0, 1)],
                      np.uint64)
    exponent = np.array([int.from_bytes(b"e-%02d" % e, "little") if e > 4 else 0
                         for e in range(MAX_M + 1)], np.uint32)
    return digits.ravel(), prefix, exponent


def _format_dyadic(k: np.ndarray, m: int) -> bytes:
    """The "%.17g" CSV of k/2^m, one row of the 2-D ``k`` per line, for 0 < k < 2^m.

    k/2^m = D / 10^m with D = k 5^m, an integer of at most m <= MAX_M = 26
    digits, carried as hi 10^9 + lo in int64.  Rounding D half to even to 17
    significant digits drops at most 9 of them, all from lo.  No value rounds
    up to a power of ten: |k 10^j - 2^m| >= 1 puts every k/2^m at least 2^-m
    (relatively) away from one.  Each value fills 32 bytes (prefix, four
    4-digit words, exponent, separator) padded with NULs, which are dropped
    at the end, so no Python code runs per value.
    """
    flat = k.ravel()
    five_hi, five_lo = divmod(5**m, 10**9)
    lo = flat * five_lo
    hi = flat * five_hi + lo // 10**9
    lo %= 10**9
    # D has more than j digits where k >= 10^j / 5^m
    digits = np.searchsorted([-(-10**j // 5**m) for j in range(m)], flat, "right")
    dropped = np.maximum(digits - 17, 0)
    unit = _POW10[dropped]
    cut, tail = np.divmod(lo, unit)
    q = hi * _POW10[9 - dropped] + cut
    q += 2 * tail + q % 2 > unit  # round half to even
    q *= _POW10[17 - digits + dropped]  # exactly 17 digits
    lead, rest = divmod(q, 10**16)
    top, bottom = divmod(rest, 10**8)
    group = np.empty((len(flat), 4), np.int64)
    group[:, 0], group[:, 1] = divmod(top, 10**4)
    group[:, 2], group[:, 3] = divmod(bottom, 10**4)
    # from the last nonzero group on, trailing zeros are dropped
    group[:, 0] += 10**4 * (rest % 10**12 == 0)
    group[:, 1] += 10**4 * (bottom == 0)
    group[:, 2] += 10**4 * (group[:, 3] == 0)
    group[:, 3] += 10**4

    digit_words, prefix, exponent = _format_tables()
    e = m + 1 - digits
    buf = np.empty((len(flat), 8), "<u4")
    buf.view("<u8")[:, 0] = prefix.take((e * 10 + lead) * 2 + (rest != 0))
    buf[:, 2:6] = digit_words.take(group)
    buf[:, 6] = exponent.take(e)
    sep = buf.reshape(*k.shape, 8)[..., 7]
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0")


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
    if args.compare_iid is not None and args.compare_iid < 1:
        raise ConfigurationError(f"--compare-iid needs R >= 1, got {args.compare_iid}")
    points = _read_points(args.points, args.dim)
    disc = star_discrepancy_1d if args.dim == 1 else star_discrepancy_2d
    value = disc(points)
    lines = [f"n={len(points)} dim={args.dim} star_discrepancy={value:.12g}"]
    if args.compare_iid is not None:
        from . import bench

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
    import yaml

    from . import bench
    from .experiment import load_spec

    spec = load_spec(args.spec)
    output = args.output or spec.output
    folders = [os.path.dirname(p or "") for p in (output, args.per_replicate, args.truth_cache)]
    for folder in folders + [args.dump_trajectories]:  # made before any work, not after it
        if folder:
            os.makedirs(folder, exist_ok=True)
    truth = bench.cached_ground_truth(spec, args.truth_cache)
    report = bench.run_comparison(spec, truth=truth, trajectory_dir=args.dump_trajectories)
    _emit(report.to_csv(), output)
    if output is not None:
        with open(output + ".meta.yaml", "w") as fh:
            yaml.safe_dump(report.metadata, fh, sort_keys=True)
        print(f"report -> {output} (+ .meta.yaml)", file=sys.stderr)
    if args.per_replicate is not None:
        _emit(report.replicate_csv(), args.per_replicate)
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _cmd_diagnose(args) -> int:
    from . import bench, models
    from .experiment import M_RANGE, ExperimentSpec, ScheduleSpec
    from .samplers import PseudoRandomDrive, contraction_info, coupling_diagnostic

    _refuse(args, {"quadratic": ("--n-obs", "--data-seed"),
                   "double_well": ("--dim", "--n-obs", "--data-seed")}.get(args.model, ()),
            f"with --model {args.model}")
    dim = 2 if args.dim is None else args.dim
    n_obs = 20 if args.n_obs is None else args.n_obs
    data_seed = 1 if args.data_seed is None else args.data_seed
    if args.model == "quadratic":  # the other models are checked by their spec
        if args.m not in M_RANGE:
            raise SpecError(f"-m must be in {M_RANGE.start}..{M_RANGE[-1]}, got {args.m}")
        if dim < 1:
            raise ConfigurationError(f"--dim must be >= 1, got {dim}")
        potential = models.standard_gaussian_potential(dim)
    else:
        potential, _ = bench.build_model(ExperimentSpec(
            model=args.model, n_obs=n_obs, dim=dim, data_seed=data_seed,
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
        _check_seeds(args)
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
