"""CLI subcommands, exit codes, and output determinism."""

import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

from lqmc.cli import EXIT_DIVERGENCE, EXIT_OK, EXIT_VALIDATION, _format_dyadic, main
from lqmc.cud_core import MAX_M, builtin_config, generate_cud
from lqmc.drive import build_drive_matrix, coprime_width
from lqmc.experiment import load_spec
from lqmc.models import GroundTruth, save_ground_truth
from lqmc.prng import BaselinePrng


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_sequence_values(self, capsys):
        assert run_cli("gen", "-m", "3", "--offset", "1") == EXIT_OK
        out = capsys.readouterr().out.strip().split("\n")
        assert [float(v) for v in out] == [0.5, 0.125, 0.25, 0.625, 0.375, 0.875, 0.75]

    def test_full_period_distinct(self, tmp_path, capsys):
        out = tmp_path / "seq.csv"
        assert run_cli("--output", str(out), "gen", "-m", "10") == EXIT_OK
        vals = np.loadtxt(out)
        assert len(vals) == 1023
        assert len(np.unique(vals)) == 1023
        assert "period=1023" in capsys.readouterr().err

    def test_below_table_range_rejected(self, capsys):
        assert run_cli("gen", "-m", "2") == EXIT_VALIDATION
        assert "error" in capsys.readouterr().err

    def test_bad_offset_rejected(self):
        assert run_cli("gen", "-m", "4", "--offset", "3") == EXIT_VALIDATION

    def test_count_truncates(self, capsys):
        assert run_cli("gen", "-m", "5", "--count", "4") == EXIT_OK
        assert len(capsys.readouterr().out.strip().split("\n")) == 4

    def test_matrix_emission(self, tmp_path, capsys):
        out = tmp_path / "matrix.csv"
        assert run_cli("--output", str(out), "gen", "-m", "4", "--matrix", "3") == EXIT_OK
        rows = np.loadtxt(out, delimiter=",")
        assert rows.shape == (15, 3)
        assert "stored width 4" in capsys.readouterr().err
        # shifted: the CSV holds the drive rows exactly, on stdout and in --output
        argv = ("gen", "-m", "5", "--matrix", "3", "--shift-seed", "4")
        assert run_cli("--output", str(out), *argv) == EXIT_OK
        assert run_cli(*argv) == EXIT_OK
        assert capsys.readouterr().out == out.read_text()
        expected = build_drive_matrix(generate_cud(builtin_config(5)), 3,
                                      rng=BaselinePrng(4)).rows()
        assert np.array_equal(np.loadtxt(out, delimiter=","), expected)

    def test_table_listing(self, capsys):
        assert run_cli("gen", "--table") == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("# m")
        assert "32  0x1000000af  2" in out
        assert [int(line.split()[0]) for line in out.splitlines()[1:]] == list(range(3, 33))

    @pytest.mark.parametrize("argv, option", [
        (("-m", "5", "--matrix", "3", "--count", "4"), "--count"),
        (("-m", "5", "--count", "4", "--shift-seed", "9"), "--shift-seed"),
        (("--table", "-m", "5"), "-m"),
    ], ids=["count-with-matrix", "shift-seed-without-matrix", "m-with-table"])
    def test_options_it_would_ignore_refused(self, capsys, argv, option):
        assert run_cli("gen", *argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error (gen): gen {option} has no effect")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (("--count", "0"), "gen --count must be in 1..4194303, got 0"),
        (("--count", "4194304"), "gen --count must be in 1..4194303, got 4194304"),
        (("--matrix", "0"), "gen --matrix must be >= 1, got 0"),
    ], ids=["count-zero", "count-above-period", "matrix-zero"])
    def test_bad_size_refused_before_the_period_is_built(self, capsys, monkeypatch,
                                                          argv, message):
        def no_period(config):
            raise AssertionError("generate_cud called")

        monkeypatch.setattr("lqmc.cli.generate_cud", no_period)
        assert run_cli("gen", "-m", "22", *argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"error (gen): {message}\n"
        assert captured.out == ""

    def test_order_above_budget_refused(self, capsys):
        assert run_cli("gen", "-m", str(MAX_M + 4)) == EXIT_VALIDATION
        assert f"budget of 2^{MAX_M}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, rows", [
        (("-m", "17"), None),  # several write blocks
        (("-m", "9", "--count", "100"), None),
        (("-m", "20", "--offset", "7"), None),
        (("-m", "16", "--matrix", "3"), 3),
        (("-m", "12", "--matrix", "5"), 5),
        (("-m", "16", "--matrix", "4", "--shift-seed", "7"), 4),
    ], ids=["sequence", "count", "offset", "matrix", "matrix-5", "matrix-shifted"])
    def test_bytes_equal_per_value_formatting(self, tmp_path, capsys, monkeypatch,
                                              argv, rows):
        offset = int(argv[3]) if "--offset" in argv else None
        seq = generate_cud(builtin_config(int(argv[1]), offset=offset))
        if rows is None:
            count = int(argv[3]) if "--count" in argv else seq.n
            expected = "".join("%.17g\n" % v for v in seq.values[:count])
        else:
            rng = BaselinePrng(int(argv[-1])) if "--shift-seed" in argv else None
            matrix = build_drive_matrix(seq, rows, rng=rng)
            expected = "".join(",".join("%.17g" % v for v in row) + "\n"
                               for row in matrix.rows())
        out = tmp_path / "gen.csv"
        assert run_cli("gen", *argv) == EXIT_OK
        assert capsys.readouterr().out == expected
        assert run_cli("--output", str(out), "gen", *argv) == EXIT_OK
        assert out.read_text() == expected
        text_only = io.StringIO()  # a stdout with no binary .buffer under it
        monkeypatch.setattr(sys, "stdout", text_only)
        assert run_cli("gen", *argv) == EXIT_OK
        assert text_only.getvalue() == expected


def _per_value(k, m):
    return "".join("%.17g\n" % v for v in (np.asarray(k) * 2.0**-m).tolist()).encode()


def _rounding_ties(m, rng, count):
    """Numerators k < 2^m whose k 5^m drops exactly the digits 50...0 when
    rounded to 17 significant digits: k = odd 2^(t-1) with 17 + t digits."""
    ties = []
    for t in range(1, m - 16):
        half = 1 << (t - 1)
        lo = -(-10 ** (16 + t) // 5**m)  # k 5^m has 17 + t digits for lo <= k < hi
        hi = min(-(-10 ** (17 + t) // 5**m), 1 << m)
        j_lo, j_hi = -((half - lo) >> t), -((half - hi) >> t)  # lo <= (2j + 1) half < hi
        if j_lo < j_hi:
            ties += [int(2 * j + 1) * half for j in rng.integers(j_lo, j_hi, count)]
    for k in ties:
        d = str(k * 5**m)
        assert len(d) > 17 and d[17:] == "5" + "0" * (len(d) - 18)
    return ties


class TestFormatDyadic:
    def test_every_numerator(self):
        for m in range(3, 21):
            for lo in range(1, 1 << m, 1 << 16):
                k = np.arange(lo, min(lo + (1 << 16), 1 << m))
                assert _format_dyadic(k[:, None], m) == _per_value(k, m), (m, lo)

    @pytest.mark.parametrize("m", range(21, MAX_M + 1))
    def test_ends_sample_and_ties(self, m):
        rng = np.random.default_rng(m)
        ties = _rounding_ties(m, rng, 256)
        k = np.concatenate([np.arange(1, 4097), np.arange((1 << m) - 4096, 1 << m),
                            rng.integers(1, 1 << m, 1 << 14), ties])
        assert _format_dyadic(k[:, None], m) == _per_value(k, m)


class TestDiscrepancy:
    def test_single_point(self, tmp_path, capsys):
        f = tmp_path / "pts.csv"
        f.write_text("0.5\n")
        assert run_cli("discrepancy", str(f), "--dim", "1") == EXIT_OK
        assert "star_discrepancy=0.5" in capsys.readouterr().out

    def test_empty_file(self, tmp_path, capsys):
        f = tmp_path / "pts.csv"
        f.write_text("")
        assert run_cli("discrepancy", str(f), "--dim", "1") == EXIT_VALIDATION
        assert "no points" in capsys.readouterr().err

    def test_malformed_line_is_located(self, tmp_path, capsys):
        f = tmp_path / "pts.csv"
        f.write_text("0.5,0.5\n0.2,oops\n")
        assert run_cli("discrepancy", str(f), "--dim", "2") == EXIT_VALIDATION
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("dim, rows", [(1, "0.5\nnan\n"), (2, "0.5,0.5\n0.2,nan\n")])
    def test_nan_point_refused(self, tmp_path, capsys, dim, rows):
        f = tmp_path / "pts.csv"
        f.write_text(rows)
        assert run_cli("discrepancy", str(f), "--dim", str(dim)) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "coordinates must lie in [0, 1)" in captured.err

    def test_iid_comparison(self, tmp_path, capsys):
        f = tmp_path / "pts.csv"
        rows = [f"{k / 16},{(3 * k % 16) / 16}" for k in range(1, 16)]
        f.write_text("\n".join(rows) + "\n")
        code = run_cli("discrepancy", str(f), "--dim", "2", "--compare-iid", "5")
        assert code == EXIT_OK
        assert "iid_median=" in capsys.readouterr().out

    @pytest.mark.parametrize("sets", ["0", "-1"])
    def test_iid_comparison_needs_a_set(self, tmp_path, capsys, sets):
        f = tmp_path / "pts.csv"
        f.write_text("0.5,0.5\n")
        code = run_cli("discrepancy", str(f), "--dim", "2", "--compare-iid", sets)
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--compare-iid needs R >= 1, got {sets}" in captured.err


class TestRun:
    SPEC = """
model: {kind: linear, n_obs: 8, dim: 3, data_seed: 2}
drive: {m_values: [4]}
schedules:
  - {kind: constant, h: 0.01}
run: {replicates: 3, seed: 5, test_functions: [coordinate]}
"""

    def test_report_and_sidecar(self, tmp_path):
        spec = tmp_path / "tiny.yaml"
        spec.write_text(self.SPEC)
        out = tmp_path / "report.csv"
        assert run_cli("--output", str(out), "run", str(spec)) == EXIT_OK
        text = out.read_text()
        assert text.startswith("model,method,m,n,schedule,test_fn,mse,stderr,replicates")
        assert (tmp_path / "report.csv.meta.yaml").exists()

    def test_report_bytes_do_not_depend_on_the_blas_threads(self, tmp_path):
        # `python -m lqmc` (and the `lqmc` script) run BLAS with one thread
        # whatever the caller sets.  With two OpenBLAS threads this d = 100
        # cell's report used to move in its 12th significant digit.
        spec = tmp_path / "linear100.yaml"
        spec.write_text("model: {kind: linear, n_obs: 20, dim: 100, noise_var: 0.25, "
                        "data_seed: 51}\n"
                        "drive: {m_values: [6]}\n"
                        "schedules: [{kind: constant, h: 0.001}]\n"
                        "run: {replicates: 6, seed: 0}\n")
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-m", "lqmc", "--output", str(out), "run",
                                   str(spec)], env=env, capture_output=True, text=True,
                                  check=False, timeout=120)
            assert proc.returncode == EXIT_OK, proc.stderr
            outputs.append((out.read_bytes(), pathlib.Path(f"{out}.meta.yaml").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_sidecar_records_the_spec_cells(self, tmp_path):
        # The run writes each m's drive and schedules from spec.cell(m).
        spec_path = tmp_path / "cells.yaml"
        spec_path.write_text("""
model: {kind: linear, n_obs: 8, dim: 3, data_seed: 2}
drive: {m_values: [4, 5], offset: 4, poly_mask: 0x2f}
schedules:
  - {kind: solved, h_start: 0.01, h_end: 0.001}
  - {kind: constant, h: 0.01}
run: {replicates: 3, seed: 5, burn_in_m: 3, n_override: 9, test_functions: [coordinate]}
""")
        out = tmp_path / "report.csv"
        assert run_cli("--output", str(out), "run", str(spec_path)) == EXIT_OK
        meta = yaml.safe_load((tmp_path / "report.csv.meta.yaml").read_text())
        spec = load_spec(spec_path)
        for m in spec.m_values:
            config, n_run, schedules = spec.cell(m)
            assert meta["drive"][m] == {
                "n": config.period, "n_run": n_run, "poly_mask": hex(config.poly_mask),
                "offset": config.offset, "stored_width": coprime_width(config.period, 3)}
            assert {label: by_m[m] for label, by_m in meta["schedules"].items()} == {
                s.label: schedule.label() for s, schedule in zip(spec.schedules, schedules)}
        assert meta["drive"][5]["poly_mask"] == "0x2f" and meta["drive"][4]["offset"] == 4
        assert meta["burn_in_n"] == spec.burn_in_n == 7

    @pytest.mark.parametrize("h", ["1.0e-20", "5.0e-324"])
    def test_step_size_that_rounds_rho_to_one_runs(self, tmp_path, h):
        # 1 - h*M rounds to 1.0: ell divided by log(1.0) = 0, and at 5e-324
        # log(h) / log1p(-h*M) overflows a float
        spec = tmp_path / "tiny.yaml"
        spec.write_text(self.SPEC.replace("h: 0.01", f"h: {h}"))
        out = tmp_path / "report.csv"
        assert run_cli("--output", str(out), "run", str(spec)) == EXIT_OK
        meta = yaml.safe_load((tmp_path / "report.csv.meta.yaml").read_text())
        (info,) = meta["contraction"].values()
        assert info["rho"] == 1.0 and info["ell"] > 10**19

    def test_identical_bytes_on_rerun(self, tmp_path):
        spec = tmp_path / "tiny.yaml"
        spec.write_text(self.SPEC)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("--output", str(a), "run", str(spec)) == EXIT_OK
        assert run_cli("--output", str(b), "--threads", "3", "run", str(spec)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_per_replicate_dump(self, tmp_path):
        spec = tmp_path / "tiny.yaml"
        spec.write_text(self.SPEC)
        out, dump = tmp_path / "r.csv", tmp_path / "reps.csv"
        assert run_cli("--output", str(out), "run", str(spec),
                       "--per-replicate", str(dump)) == EXIT_OK
        lines = dump.read_text().strip().split("\n")
        assert lines[0].startswith("model,method,m,schedule")
        assert len(lines) == 1 + 2 * 3  # methods x replicates for one family

    def test_unknown_model_fails_validation_before_work(self, tmp_path):
        spec = tmp_path / "bad.yaml"
        spec.write_text("model: {kind: pareto}\ndrive: {m_values: [4]}\n"
                        "schedules: [{kind: constant, h: 0.01}]\n")
        assert run_cli("run", str(spec)) == EXIT_VALIDATION

    def test_bad_schedule_label_fails_validation_before_work(self, tmp_path, capsys):
        spec = tmp_path / "label.yaml"
        spec.write_text(self.SPEC.replace("h: 0.01}", "h: 0.01, label: x/y}"))
        dumps = tmp_path / "dumps"
        assert run_cli("run", str(spec), "--dump-trajectories", str(dumps)) == EXIT_VALIDATION
        assert "schedule label 'x/y'" in capsys.readouterr().err
        assert not dumps.exists()

    def test_scalar_test_functions_fails_validation_naming_it(self, tmp_path, capsys):
        spec = tmp_path / "scalar.yaml"
        spec.write_text(self.SPEC.replace("test_functions: [coordinate]",
                                          "test_functions: coordinate"))
        assert run_cli("run", str(spec)) == EXIT_VALIDATION
        assert "test_functions must be a list, got 'coordinate'" in capsys.readouterr().err

    def test_non_string_output_fails_validation_naming_it(self, tmp_path, capsys):
        spec = tmp_path / "fd.yaml"
        spec.write_text(self.SPEC + "output: 7\n")
        assert run_cli("run", str(spec)) == EXIT_VALIDATION
        assert "output must be a nonempty string, got 7" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["spec", "--output", "--per-replicate", "--truth-cache"])
    def test_file_under_a_missing_directory_is_written(self, tmp_path, where):
        spec, path = tmp_path / "tiny.yaml", tmp_path / "results" / "deeper" / "r.csv"
        spec.write_text(self.SPEC + (f"output: {path}\n" if where == "spec" else ""))
        argv = {"spec": ["run", str(spec)],
                "--output": ["--output", str(path), "run", str(spec)]}.get(
                    where, ["run", str(spec), where, str(path)])
        assert run_cli(*argv) == EXIT_OK
        assert path.stat().st_size > 0

    @pytest.mark.parametrize("option", ["--output", "--per-replicate", "--truth-cache"])
    def test_file_under_a_file_fails_before_the_truth(self, tmp_path, capsys, option):
        # The directory is made before any work, so a path that cannot be
        # written fails at once instead of after every chain.
        spec, blocker = tmp_path / "tiny.yaml", tmp_path / "blocker"
        spec.write_text(self.SPEC)
        blocker.write_text("")
        path = str(blocker / "r.csv")
        argv = (["--output", path, "run", str(spec)] if option == "--output"
                else ["run", str(spec), option, path])
        assert run_cli(*argv) != EXIT_OK
        assert "truth: computing" not in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "diverge.yaml"
        spec.write_text(
            "model: {kind: linear, n_obs: 8, dim: 3, data_seed: 2}\n"
            "drive: {m_values: [4]}\n"
            "schedules: [{kind: constant, h: 5.0}]\n"
            "run: {replicates: 2, seed: 0, test_functions: [coordinate]}\n"
        )
        assert run_cli("run", str(spec)) == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert re.search(r"linear (lmc|lqmc) m=4 schedule=constant_h5 replicate [01] "
                         r"diverged at iteration \d+", err), err

    def test_truth_cache_round_trip(self, tmp_path):
        spec = tmp_path / "tiny.yaml"
        spec.write_text(self.SPEC)
        cache = tmp_path / "truth.json"
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli("--output", str(out1), "run", str(spec),
                       "--truth-cache", str(cache)) == EXIT_OK
        assert cache.exists()
        assert run_cli("--output", str(out2), "run", str(spec),
                       "--truth-cache", str(cache)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestRunTruthProgress:
    SPEC = """
model: {kind: crossed, n_obs: 2, dim: 3, data_seed: 4}
drive: {m_values: [4]}
schedules:
  - {kind: constant, h: 0.01}
run: {replicates: 2, seed: 1, test_functions: [coordinate]}
truth: {h: 0.001, n_steps: 1024, chains: 2, seed: 5}
"""

    def test_computed_then_loaded(self, tmp_path, capsys):
        spec = tmp_path / "crossed.yaml"
        spec.write_text(self.SPEC)
        cache = tmp_path / "truth.json"
        assert run_cli("run", str(spec), "--truth-cache", str(cache)) == EXIT_OK
        miss = capsys.readouterr()
        lines = miss.err.strip().split("\n")
        assert lines[0] == ("truth: computing crossed long-reference-run "
                            "h=0.001 n_steps=1024 chains=2")
        assert re.fullmatch(rf"truth: done in \d+\.\d s, saved to {re.escape(str(cache))}",
                            lines[1])
        assert len(lines) == 2 and cache.exists()
        assert miss.out.startswith("model,method,m,n,schedule")

        assert run_cli("run", str(spec), "--truth-cache", str(cache)) == EXIT_OK
        hit = capsys.readouterr()
        assert hit.err == f"truth: loaded from cache {cache}\n"
        assert hit.out == miss.out

    LINEAR = ("model: {kind: linear, n_obs: 8, dim: 4, data_seed: %d}\n"
              "drive: {m_values: [4]}\nschedules: [{kind: constant, h: 0.01}]\n"
              "run: {replicates: 2, seed: 1}\n")
    DOUBLE_WELL = ("model: {kind: double_well}\ndrive: {m_values: [4]}\n"
                   "schedules: [{kind: constant, h: 0.01}]\nrun: {replicates: 2, seed: 1}\n")

    @pytest.mark.parametrize("first, stored", [
        (DOUBLE_WELL, 'holds the truth of {"model": {"kind": "double_well"'),
        (LINEAR % 3, 'holds the truth of {"model": {"kind": "linear", "n_obs": 8, "dim": 4, '
                     '"data_seed": 3'),
        # a damaged copy of the spec's own truth
        (lambda saved: '{"mean": [1', "is not JSON: Expecting ',' delimiter"),
        (lambda saved: json.dumps({k: v for k, v in saved.items() if k != "second_moment"}),
         "has no field 'second_moment'"),
        (lambda saved: json.dumps([saved]), "holds a JSON list, not a truth object"),
        (lambda saved: json.dumps({**saved, "second_moment": None}),
         "has field 'second_moment' = null, not a list of numbers"),
        (lambda saved: json.dumps({**saved, "mean": "abcd"}),
         "has field 'mean' = \"abcd\", not a list of numbers"),
        (lambda saved: json.dumps({**saved, "positive_prob": saved["positive_prob"][:2]}),
         "has field 'positive_prob' of 2 entries, not 4 as 'mean'"),
    ], ids=["other_model", "other_data_seed", "truncated", "no_second_moment", "json_list",
            "null_second_moment", "string_mean", "short_positive_prob"])
    def test_truth_made_for_another_spec_is_recomputed(self, tmp_path, capsys, first, stored):
        cache = tmp_path / "truth.json"
        (tmp_path / "spec.yaml").write_text(self.LINEAR % 4)
        (tmp_path / "first.yaml").write_text(self.LINEAR % 4 if callable(first) else first)
        assert run_cli("run", str(tmp_path / "first.yaml"), "--truth-cache", str(cache)) == EXIT_OK
        if callable(first):
            cache.write_text(first(json.loads(cache.read_text())))
        capsys.readouterr()
        assert run_cli("run", str(tmp_path / "spec.yaml"), "--truth-cache", str(cache)) == EXIT_OK
        cached = capsys.readouterr()
        assert run_cli("run", str(tmp_path / "spec.yaml")) == EXIT_OK
        assert cached.out == capsys.readouterr().out
        why = cached.err.split("\n")[0]
        assert why.startswith(f"truth: cache {cache} ") and stored in why
        assert why.endswith("; recomputing")
        assert not list(tmp_path.glob("*.tmp"))  # the saves left no temporary file

    # The key format written out by hand: a changed key would recompute every
    # truth cached before it, the tests' own reference truths included.
    @pytest.mark.parametrize("text, key", [
        (LINEAR % 4, {"model": {"kind": "linear", "n_obs": 8, "dim": 4, "data_seed": 4,
                                "noise_var": 0.25},
                      "provenance": "closed-form", "truth": None}),
        (SPEC, {"model": {"kind": "crossed", "n_obs": 2, "dim": 3, "data_seed": 4},
                "provenance": "long-reference-run",
                "truth": {"h": 0.001, "n_steps": 1024, "chains": 2, "seed": 5}}),
        (LINEAR.replace("linear", "logistic") % 4,
         {"model": {"kind": "logistic", "n_obs": 8, "dim": 4, "data_seed": 4},
          "provenance": "long-reference-run",
          "truth": {"h": 0.0001, "n_steps": 4194304, "chains": 10, "seed": 101}}),
    ], ids=["linear", "crossed", "logistic_default_truth"])
    def test_cache_key_format(self, tmp_path, capsys, text, key):
        spec, cache = tmp_path / "spec.yaml", tmp_path / "truth.json"
        spec.write_text(text)
        d = 1 + 2 + 3 + 2 if key["model"]["kind"] == "crossed" else 4  # mu, a, b, la, lb
        save_ground_truth(GroundTruth(np.zeros(d), np.ones(d), np.full(d, 0.5), "test"),
                          cache, key)
        assert run_cli("run", str(spec), "--truth-cache", str(cache)) == EXIT_OK
        assert capsys.readouterr().err == f"truth: loaded from cache {cache}\n"

    def test_truth_of_another_size_exits_2(self, tmp_path, capsys):
        spec, cache = tmp_path / "spec.yaml", tmp_path / "truth.json"
        spec.write_text(self.LINEAR % 4)
        assert run_cli("run", str(spec), "--truth-cache", str(cache)) == EXIT_OK
        payload = json.loads(cache.read_text())
        for name in ("mean", "second_moment", "positive_prob"):  # under the spec's own key
            payload[name] = payload[name][:1]
        cache.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("run", str(spec), "--truth-cache", str(cache)) == EXIT_VALIDATION
        assert ("a ground truth of 1 coordinates for the linear model of dimension 4"
                in capsys.readouterr().err)

    def test_uncached_exact_truth(self, tmp_path, capsys):
        spec = tmp_path / "tiny.yaml"
        spec.write_text(TestRun.SPEC)
        assert run_cli("run", str(spec)) == EXIT_OK
        err = capsys.readouterr().err.strip().split("\n")
        assert err[0] == "truth: computing linear closed-form"
        assert re.fullmatch(r"truth: done in \d+\.\d s, not cached", err[1])


class TestSeedRange:
    """A seed outside 0..2^64 - 1 would alias one inside: exit 2, naming the key."""

    @pytest.mark.parametrize("seed", [2**64, -1, 2**64 - 1])
    @pytest.mark.parametrize("key, old, new", [
        ("run: seed", "seed: 1,", "seed: {},"),
        ("model: data_seed", "data_seed: 4", "data_seed: {}"),
        ("truth: seed", "seed: 5", "seed: {}"),
    ], ids=["run", "model", "truth"])
    def test_spec_seeds(self, tmp_path, capsys, key, old, new, seed):
        spec = tmp_path / "spec.yaml"
        spec.write_text(TestRunTruthProgress.SPEC.replace(old, new.format(seed)))
        code = run_cli("--output", str(tmp_path / "report.csv"), "run", str(spec))
        if seed == 2**64 - 1:
            assert code == EXIT_OK
        else:
            assert code == EXIT_VALIDATION
            assert f"{key} must be in 0..2^64 - 1, got {seed}" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [2**64, -1, 2**64 - 1])
    @pytest.mark.parametrize("option, argv", [
        ("--seed", ["discrepancy", "{points}", "--dim", "1", "--compare-iid", "2"]),
        ("--shift-seed", ["gen", "-m", "5", "--matrix", "2"]),
        ("--data-seed", ["diagnose", "--model", "linear", "--h", "0.01", "--steps", "3"]),
    ])
    def test_option_seeds(self, tmp_path, capsys, option, argv, seed):
        points = tmp_path / "pts.csv"
        points.write_text("0.5\n")
        argv = [a.format(points=points) for a in argv]
        argv = ([f"--seed={seed}"] + argv if option == "--seed"
                else argv + [f"{option}={seed}"])
        code = run_cli("--output", str(tmp_path / "out.csv"), *argv)
        if seed == 2**64 - 1:
            assert code == EXIT_OK
        else:
            assert code == EXIT_VALIDATION
            assert f"{option} must be in 0..2^64 - 1, got {seed}" in capsys.readouterr().err


class TestDiagnose:
    def test_quadratic_exact_ratio(self, capsys):
        assert run_cli("diagnose", "--model", "quadratic", "--dim", "1",
                       "--h", "0.5", "--steps", "4") == EXIT_OK
        out = capsys.readouterr().out
        lines = [l for l in out.strip().split("\n") if not l.startswith(("#", "step"))]
        dists = [float(l.split(",")[1]) for l in lines]
        ratios = np.array(dists[1:]) / np.array(dists[:-1])
        assert np.allclose(ratios, 0.5, atol=1e-12)
        assert "rho=0.5" in out

    def test_envelope_bounds_linear_model(self, capsys):
        assert run_cli("diagnose", "--model", "linear", "--dim", "10",
                       "--n-obs", "15", "--h", "0.0005", "--steps", "30") == EXIT_OK
        out = capsys.readouterr().out
        rows = [l.split(",") for l in out.strip().split("\n")
                if not l.startswith(("#", "step"))]
        dist = np.array([float(r[1]) for r in rows])
        env = np.array([float(r[2]) for r in rows])
        assert (dist <= env + 1e-12).all()

    def test_double_well_has_no_envelope(self, capsys):
        assert run_cli("diagnose", "--model", "double_well",
                       "--h", "0.01", "--steps", "3") == EXIT_OK
        out = capsys.readouterr().out
        assert "constants undeclared" in out

    def test_theory_violation_warns_but_runs(self, capsys):
        with pytest.warns(UserWarning):
            code = run_cli("diagnose", "--model", "quadratic", "--dim", "1",
                           "--h", "1.5", "--steps", "3")
        assert code == EXIT_OK

    @pytest.mark.parametrize("model", ["quadratic", "linear"])
    @pytest.mark.parametrize("flag, value", [
        ("-m", "-1"), ("-m", "2"), ("-m", str(MAX_M + 1)), ("-m", "40"),
        ("--dim", "0"), ("--dim", "-2"),
    ])
    def test_bad_order_or_dimension_exits_2(self, capsys, model, flag, value):
        assert run_cli("diagnose", "--model", model, "--h", "0.01", "--steps", "3",
                       flag, value) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error (diagnose): ")

    @pytest.mark.parametrize("model", ["quadratic", "linear", "double_well"])
    @pytest.mark.parametrize("h", ["inf", "nan", "-inf", "0"])
    def test_step_size_that_is_not_positive_and_finite_exits_2(self, capsys, model, h):
        # --h inf used to run into a divergence (exit 4).
        assert run_cli("diagnose", "--model", model, f"--h={h}", "--steps", "3") == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error (diagnose): ")
        assert "step size must be positive and finite" in captured.err

    @pytest.mark.parametrize("model, option", [
        ("double_well", "--dim"), ("double_well", "--n-obs"), ("double_well", "--data-seed"),
        ("quadratic", "--n-obs"), ("quadratic", "--data-seed"),
    ])
    def test_options_its_model_ignores_refused(self, capsys, model, option):
        assert run_cli("diagnose", "--model", model, "--h", "0.01", "--steps", "3",
                       option, "5") == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error (diagnose): diagnose {option} has no effect "
                                f"with --model {model}\n")

    @pytest.mark.parametrize("model, defaults", [
        ("quadratic", ("--dim", "2")),
        ("linear", ("--dim", "2", "--n-obs", "20", "--data-seed", "1")),
    ])
    def test_options_default_for_the_models_that_read_them(self, capsys, model, defaults):
        argv = ("diagnose", "--model", model, "--h", "0.01", "--steps", "5")
        assert run_cli(*argv) == EXIT_OK
        implicit = capsys.readouterr().out
        assert run_cli(*argv, *defaults) == EXIT_OK
        assert capsys.readouterr().out == implicit

    def test_order_range_ends_are_accepted(self, capsys):
        for m in (3, MAX_M):
            assert run_cli("diagnose", "--h", "0.5", "--steps", "1", "-m", str(m)) == EXIT_OK
            assert f"gcd(d*ell, 2^{m}-1)=" in capsys.readouterr().out


class TestStartup:
    def test_commands_drawing_no_normal_load_no_scipy(self, tmp_path):
        # Import order is per process, so the check needs a fresh interpreter.
        code = f"""
import sys
import numpy as np
import lqmc, lqmc.cli
points = {str(tmp_path / "gen.csv")!r}
for argv in (["--output", points, "gen", "-m", "10"], ["gen", "--table"],
             ["gen", "-m", "8", "--matrix", "3", "--shift-seed", "1"],
             ["discrepancy", points, "--dim", "1"]):
    assert lqmc.cli.main(argv) == 0, argv
chain = ("yaml", "lqmc.bench", "lqmc.models", "lqmc.samplers", "lqmc.experiment")
loaded = [m for m in chain if m in sys.modules]
assert not loaded, loaded
assert lqmc.cli.main(["discrepancy", points, "--dim", "1", "--compare-iid", "2"]) == 0
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded
u = np.arange(1, 2**12) / 2.0**12
z = lqmc.inverse_normal_cdf(u)
assert "scipy.special" in sys.modules
from scipy.special import ndtri
reference = np.where(u > 0.5, -ndtri(1.0 - u), ndtri(u))
assert np.array_equal(z.view(np.int64), reference.view(np.int64))
"""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr


class TestNamespace:
    """``lqmc`` exports the same names as when it imported every submodule."""

    NAMES = [
        "BaselinePrng", "ChainBatch", "ChainConfig", "ChainRun", "ConfigurationError",
        "ConstantSchedule", "CudSequence", "DataError", "DivergenceError", "DomainError",
        "DriveMatrix", "ExperimentSpec", "GaussianDrive", "GroundTruth", "LfsrConfig",
        "LqmcError", "MseReport", "PointSet", "PolynomialSchedule", "Potential",
        "PseudoRandomDrive", "ScheduleSpec", "SizeError", "SpecError", "SyntheticDataset",
        "TruthSpec", "build_drive_matrix", "builtin_config", "builtin_poly",
        "closed_form_posterior", "continue_chain", "contraction_info", "coprime_width",
        "coupling_diagnostic", "crossed_effects_potential", "double_well_potential",
        "double_well_truth", "gaussian_rows", "generate_cud", "iid_pointset",
        "inverse_normal_cdf", "is_primitive", "lcg_demo", "lfsr_bitstream", "lfsr_period",
        "linear_regression_potential", "load_spec", "logistic_potential",
        "overlapping_tuples", "reference_ground_truth", "run_chain", "run_comparison",
        "smallest_primitive_root", "solve_polynomial_schedule",
        "standard_gaussian_potential", "star_discrepancy_1d", "star_discrepancy_2d",
        "synthesize_data", "table_listing",
    ]

    def test_all_lists_the_exported_names(self):
        import lqmc

        assert sorted(lqmc.__all__) == self.NAMES
        assert set(self.NAMES) <= set(dir(lqmc))
        namespace = {}
        exec("from lqmc import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(self.NAMES)

    def test_each_name_is_its_submodules_object(self):
        import lqmc

        for name in self.NAMES:
            obj = getattr(lqmc, name)
            assert obj.__module__.startswith("lqmc."), name
            assert obj is getattr(sys.modules[obj.__module__], name), name

    def test_unknown_name_raises_attribute_error(self):
        import lqmc

        with pytest.raises(AttributeError, match="'no_such_name'"):
            lqmc.no_such_name  # noqa: B018

    def test_reading_names_caches_nothing(self):
        import importlib

        import lqmc

        for module in ("bench", "cud_core", "drive", "errors", "experiment", "models",
                       "prng", "samplers"):
            importlib.import_module(f"lqmc.{module}")
        before = dict(vars(lqmc))
        for name in self.NAMES:
            getattr(lqmc, name)
        assert dict(vars(lqmc)) == before
        assert not set(self.NAMES) & set(vars(lqmc))  # nor did any earlier read
