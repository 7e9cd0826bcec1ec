"""Harness mechanics: the LCG demo, the comparison and report plumbing."""

from dataclasses import astuple, replace

import numpy as np
import pytest

from lqmc import bench, prng, samplers
from lqmc.bench import (MseReport, iid_pointset, is_primitive_root, lcg_demo,
                        run_comparison, smallest_primitive_root)
from lqmc.cud_core import builtin_config, generate_cud
from lqmc.drive import build_drive_matrix
from lqmc.errors import ConfigurationError
from lqmc.experiment import DEFAULT_TRUTH, MODELS, ExperimentSpec, ScheduleSpec, TruthSpec
from lqmc.models import GroundTruth, closed_form_posterior, standard_gaussian_potential
from lqmc.prng import BaselinePrng
from lqmc.samplers import (ChainConfig, ConstantSchedule, PseudoRandomDrive, continue_chain,
                           run_chain)


def _flat_truth(d):
    return GroundTruth(np.zeros(d), np.ones(d), np.full(d, 0.5), "test")


def _tiny_spec(**overrides):
    base = dict(
        model="linear", m_values=(3, 4), n_obs=8, dim=3, data_seed=2, seed=5,
        replicates=3, schedules=(ScheduleSpec(kind="constant", h=0.01),),
        test_functions=("coordinate", "square", "indicator"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestEstimate:
    def test_long_quasi_random_second_moment(self):
        # standard normal target, one full m=14 drive: E[x^2] recovered.
        # Second-moment accuracy hinges on lagged-pair equidistribution,
        # which the gcd-only default offset does not control; override with
        # an offset whose lag projections are clean (see the table note).
        from lqmc.cud_core import builtin_config, generate_cud
        from lqmc.drive import build_drive_matrix
        from lqmc.prng import BaselinePrng

        seq = generate_cud(builtin_config(14, offset=101))
        matrix = build_drive_matrix(seq, 1, rng=BaselinePrng(6))
        run = run_chain(
            standard_gaussian_potential(1),
            ChainConfig(np.zeros(1), seq.n, ConstantSchedule(0.05), matrix),
        )
        est = float((run.trajectory[:, 0] ** 2).mean())
        assert abs(est - 1.0) < 0.05


class TestLcgDemo:
    def test_p5_sequence(self):
        ps = lcg_demo(5, 2, seed=1)  # 1, 2, 4, 3 then back to 1
        assert len(ps) == 4
        expect = np.array([[1, 2], [2, 4], [4, 3], [3, 1]]) / 5.0
        assert np.allclose(ps.points, expect)

    def test_short_order_multiplier_rejected(self):
        with pytest.raises(ConfigurationError):
            lcg_demo(5, 4)  # 4 has order 2 mod 5

    def test_composite_modulus_rejected(self):
        with pytest.raises(ConfigurationError):
            lcg_demo(9, 2)

    def test_primitive_root_search(self):
        assert smallest_primitive_root(5) == 2
        assert smallest_primitive_root(251) == 6
        assert is_primitive_root(6, 251)
        assert not is_primitive_root(4, 5)
        # brute-force order check for the found root
        order = next(k for k in range(1, 251) if pow(6, k, 251) == 1)
        assert order == 250

    def test_full_period_pair_count(self):
        ps = lcg_demo(251, 6)
        assert len(ps) == 250
        assert len(np.unique(ps.points[:, 0])) == 250


class TestRunComparison:
    def test_report_rows_complete(self):
        report = run_comparison(_tiny_spec())
        assert len(report.rows) == 2 * 2 * 3  # m-values x methods x families
        for row in report.rows:
            assert row.mse >= 0
            assert row.stderr >= 0
            assert row.replicates == 3

    def test_byte_identical_reports(self):
        a = run_comparison(_tiny_spec()).to_csv()
        b = run_comparison(_tiny_spec()).to_csv()
        assert a == b

    def test_block_length_does_not_change_the_report(self, monkeypatch):
        spec = _tiny_spec(m_values=(5,), burn_in_m=3)
        a = run_comparison(spec).rows
        monkeypatch.setattr(samplers, "_BLOCK", 7)
        monkeypatch.setattr(samplers, "_BLOCK_NORMALS", 7)  # d = 3 blocks are 7 steps, not 342
        b = run_comparison(spec).rows
        assert [r[:6] for r in map(astuple, a)] == [r[:6] for r in map(astuple, b)]
        for x, y in zip(a, b):
            assert y.mse == pytest.approx(x.mse, rel=1e-12, abs=0)
            assert y.stderr == pytest.approx(x.stderr, rel=1e-12, abs=0)

    def test_index_set_block_does_not_change_the_report(self, monkeypatch):
        spec = ExperimentSpec(
            model="logistic", m_values=(5,), n_obs=12, dim=2, replicates=2,
            minibatch=3, burn_in_m=3, schedules=(ScheduleSpec(kind="constant", h=0.01),))
        a = run_comparison(spec, truth=_flat_truth(2))
        for size in (1, 7):  # blocks of one index set, and of 7 // minibatch = 2
            monkeypatch.setattr(prng, "_SETS_AHEAD", size)
            b = run_comparison(spec, truth=_flat_truth(2))
            assert b.rows == a.rows and b.to_csv() == a.to_csv()

    def test_minibatch_streams_distinct_after_burn_in(self, monkeypatch):
        # Each chain reads one minibatch stream, the main segment carrying
        # on after the burn-in; no uniform of any stream is drawn twice.
        draws = []
        original = BaselinePrng.index_subset

        def recording(self, n, k):
            draws.extend((self.seed, self.stream, self._counter + i) for i in range(k))
            return original(self, n, k)

        monkeypatch.setattr(BaselinePrng, "index_subset", recording)
        spec = ExperimentSpec(
            model="logistic", m_values=(4,), n_obs=12, dim=2, replicates=3,
            minibatch=4, burn_in_m=3, schedules=(ScheduleSpec(kind="constant", h=0.01),),
        )
        run_comparison(spec, truth=_flat_truth(2))
        assert len(draws) == 2 * spec.replicates * (7 + 15) * spec.minibatch
        assert len(set(draws)) == len(draws)
        assert len({d[:2] for d in draws}) == 2 * spec.replicates

    @pytest.mark.parametrize("spec", [
        _tiny_spec(m_values=(4, 5)),
        ExperimentSpec(model="logistic", m_values=(5,), n_obs=12, dim=2, seed=3,
                       replicates=2, minibatch=4, burn_in_m=3,
                       schedules=(ScheduleSpec(kind="constant", h=0.01),)),
        ExperimentSpec(model="double_well", m_values=(6,), seed=1, replicates=3,
                       burn_in_m=3, schedules=(ScheduleSpec(kind="constant", h=0.05),)),
    ], ids=["linear", "logistic-minibatch", "double-well-burn-in"])
    def test_dumped_chains_reproduce_the_batched_errors(self, spec, tmp_path):
        # Each dump holds one scored chain; its errors must match the ones
        # the batched cell reduced online.
        truth = _flat_truth(spec.dim) if spec.model == "logistic" else None
        report = run_comparison(spec, truth=truth, trajectory_dir=str(tmp_path))
        if truth is None:
            truth = bench.ground_truth_for(spec, bench.build_model(spec)[0])
        burn = report.metadata["burn_in_n"]
        for _, method, m, sched, fn, r, sq_err in report.replicate_rows:
            traj = np.loadtxt(tmp_path / f"{method}_m{m}_{sched}_r{r}.csv",
                              delimiter=",", ndmin=2)[burn:, 1:]
            est = {"coordinate": traj.mean(axis=0), "square": (traj**2).mean(axis=0),
                   "indicator": (traj > 0).mean(axis=0)}[fn]
            redone = float(((est - truth.values(fn)) ** 2).mean())
            assert redone == pytest.approx(sq_err, rel=1e-10, abs=0), (method, m, fn, r)

    @pytest.mark.parametrize("spec", [
        ExperimentSpec(model="double_well", m_values=(6,), seed=1, replicates=2,
                       burn_in_m=3, schedules=(ScheduleSpec(kind="constant", h=0.05),)),
        ExperimentSpec(model="logistic", m_values=(5,), n_obs=12, dim=2, seed=3,
                       replicates=2, minibatch=4, burn_in_m=3,
                       schedules=(ScheduleSpec(kind="solved", h_start=0.01, h_end=0.001),)),
    ], ids=["double-well", "logistic-minibatch-solved"])
    def test_streamed_dump_equals_a_saved_continued_run(self, spec, tmp_path):
        # A dump is written block by block as its chain re-runs; its bytes are
        # those of the same chain run alone over the burn-in, continued over
        # the main period, and saved whole.
        truth = _flat_truth(spec.dim) if spec.model == "logistic" else None
        run_comparison(spec, truth=truth, trajectory_dir=str(tmp_path))
        potential = bench.build_model(spec)[0]
        (m,), d, label = spec.m_values, potential.dim, spec.schedules[0].label
        config, n_run, (schedule,) = spec.cell(m)
        seqs = (generate_cud(builtin_config(spec.burn_in_m)), generate_cud(config))
        for r in range(spec.replicates):
            noise = PseudoRandomDrive(spec.seed, bench._stream(0, bench._ROLE_NOISE, m, r))
            shifts = BaselinePrng(spec.seed, bench._stream(0, bench._ROLE_SHIFT, m, r))
            lqmc = [build_drive_matrix(seq, d, rng=shifts) for seq in seqs]
            for method, (burn, main), role in (("lmc", (noise, noise), bench._ROLE_MINIBATCH_LMC),
                                               ("lqmc", lqmc, bench._ROLE_MINIBATCH_LQMC)):
                run = run_chain(potential, ChainConfig(
                    np.zeros(d), spec.burn_in_n, schedule, burn, minibatch=spec.minibatch,
                    minibatch_seed=spec.seed, minibatch_stream=bench._stream(0, role, m, r)))
                continue_chain(run, main, n_run).save_trajectory(tmp_path / "whole.csv")
                assert ((tmp_path / f"{method}_m{m}_{label}_r{r}.csv").read_bytes()
                        == (tmp_path / "whole.csv").read_bytes()), (method, r)

    def test_dump_holds_the_scored_chains(self, monkeypatch, tmp_path):
        # Each dump holds the states its chain's batch made, burn-in included,
        # bit for bit; a chain stepped alone could round its d = 100 BLAS
        # gradients otherwise.  One batched pass per phase steps them all.
        spec = ExperimentSpec(model="linear", m_values=(6,), n_obs=20, dim=100, replicates=2,
                              burn_in_m=3, schedules=(ScheduleSpec(kind="constant", h=0.001),))
        passes, original = [], samplers.run_chain

        def recording(potential, config, observe=None):
            blocks = []
            passes.append((len(config.chains), blocks))

            def record(block):
                blocks.append(block.copy())
                if observe is not None:
                    observe(block)

            return original(potential, config, record)

        monkeypatch.setattr(samplers, "run_chain", recording)
        monkeypatch.setattr(bench, "run_chain", recording)
        run_comparison(spec, trajectory_dir=str(tmp_path))
        batch = 2 * spec.replicates
        states = np.concatenate([block for b, blocks in passes if b == batch for block in blocks])
        assert states.shape == (7 + 63, batch, spec.dim)
        differ = []
        for i, (method, r) in enumerate((k, r) for k in ("lmc", "lqmc") for r in range(2)):
            body = np.loadtxt(tmp_path / f"{method}_m6_constant_h0.001_r{r}.csv", delimiter=",")
            assert np.array_equal(body[:, 0], np.arange(1, 71)), (method, r)
            if not np.array_equal(body[:, 1:], states[:, i]):
                differ.append((method, r))
        assert differ == []
        assert [b for b, _ in passes] == [batch] * 2  # burn-in, main phase

    def test_cell_means_depend_only_on_the_cell(self):
        # Streams derive from (seed, m, schedule index, replicate) alone, so
        # the other m values and schedules of a spec leave a cell unchanged.
        spec = _tiny_spec(m_values=(5,), burn_in_m=3)
        potential = bench.build_model(spec)[0]
        phases = [(generate_cud(builtin_config(3)), 7), (generate_cud(builtin_config(5)), 31)]
        means = bench.run_cell(spec, potential, 5, 0, phases)
        assert means.shape == (3, 2 * spec.replicates, spec.dim)
        solved = ScheduleSpec(kind="solved", h_start=0.01, h_end=0.001)
        for other in (replace(spec, m_values=(4, 5)),
                      replace(spec, schedules=spec.schedules + (solved,))):
            assert np.array_equal(bench.run_cell(other, potential, 5, 0, phases), means)
        # The same schedule at another index reads other streams.
        swapped = replace(spec, schedules=(solved,) + spec.schedules)
        assert not np.array_equal(bench.run_cell(swapped, potential, 5, 1, phases), means)

    def test_mse_rederivable_from_replicate_dump(self):
        report = run_comparison(_tiny_spec())
        for row in report.rows:
            errs = [
                v for (_, method, m, sched, fn, _, v) in report.replicate_rows
                if method == row.method and m == row.m and fn == row.test_fn
            ]
            assert len(errs) == row.replicates
            assert row.mse == pytest.approx(np.mean(errs), rel=1e-12)
            assert row.stderr == pytest.approx(
                np.std(errs, ddof=1) / np.sqrt(len(errs)), rel=1e-12)

    def test_single_step_edge_is_well_formed(self):
        report = run_comparison(_tiny_spec(m_values=(3,), n_override=1))
        for row in report.rows:
            assert row.n == 1
            assert np.isfinite(row.mse)

    def test_metadata_resolves_configuration(self):
        spec = _tiny_spec(
            m_values=(4,),
            schedules=(ScheduleSpec(kind="solved", h_start=0.01, h_end=0.001),
                       ScheduleSpec(kind="constant", h=0.01)),
        )
        report = run_comparison(spec)
        meta = report.metadata
        assert meta["drive"][4]["poly_mask"] == "0x13"
        assert meta["drive"][4]["stored_width"] == 4  # gcd(15, 3) = 3
        label = spec.schedules[0].label
        assert "c0" in meta["schedules"][label][4]
        # the constant schedule on a model with declared (L, M) gets
        # contraction diagnostics in the sidecar
        assert "constant_h0.01/m4" in meta["contraction"]
        info = meta["contraction"]["constant_h0.01/m4"]
        assert 0 < info["rho"] < 1 and info["ell"] >= 1

    def test_counts_record_the_work_of_the_run(self):
        # 2 methods x 3 replicates per cell; every chain is burn-in (7)
        # plus the main period (15 at m=4, 31 at m=5), one minibatch
        # gradient of 4 indices and d = 2 normals per step.
        spec = ExperimentSpec(
            model="logistic", m_values=(4, 5), n_obs=12, dim=2, replicates=3,
            minibatch=4, burn_in_m=3, schedules=(ScheduleSpec(kind="constant", h=0.01),),
        )
        steps = 2 * 3 * ((7 + 15) + (7 + 31))
        assert run_comparison(spec, truth=_flat_truth(2)).metadata["counts"] == {
            "chain_steps": steps, "exact_gradients": 0, "minibatch_gradients": steps,
            "minibatch_indices": 4 * steps, "normals": 2 * steps, "cud_values": 7 + 15 + 31}
        exact = run_comparison(_tiny_spec(m_values=(3,))).metadata["counts"]
        assert exact["exact_gradients"] == exact["chain_steps"] == 2 * 3 * 7
        assert exact["normals"] == 3 * exact["chain_steps"]  # d = 3
        assert exact["minibatch_gradients"] == exact["minibatch_indices"] == 0

    def test_csv_layout(self):
        report = run_comparison(_tiny_spec(m_values=(3,)))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == MseReport.CSV_HEADER
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert first[0] == "linear" and first[1] in ("lmc", "lqmc")

    def test_offset_override_propagates(self):
        report = run_comparison(_tiny_spec(m_values=(4,), offset=4))
        assert report.metadata["drive"][4]["offset"] == 4

    def test_double_well_with_burn_in(self):
        spec = ExperimentSpec(
            model="double_well", m_values=(6,), seed=1, replicates=3,
            schedules=(ScheduleSpec(kind="constant", h=0.01),),
            burn_in_m=3, test_functions=("coordinate",),
        )
        report = run_comparison(spec)
        assert report.metadata["burn_in_n"] == 7
        assert all(np.isfinite(r.mse) for r in report.rows)


class TestModelKinds:
    def test_one_entry_per_model_kind(self):
        assert set(bench.MODEL_KINDS) == set(MODELS)
        assert {kind for kind, entry in bench.MODEL_KINDS.items()
                if entry.provenance == "long-reference-run"} == set(DEFAULT_TRUTH)

    @pytest.mark.parametrize("kind", MODELS)
    def test_oracle_gives_the_entrys_provenance(self, kind):
        truth = TruthSpec(h=1e-3, n_steps=64, chains=2) if kind in DEFAULT_TRUTH else None
        spec = _tiny_spec(model=kind, truth=truth)
        got = bench.ground_truth_for(spec, bench.build_model(spec)[0])
        assert got.provenance == bench.MODEL_KINDS[kind].provenance

    def test_linear_truth_is_the_closed_form_of_the_built_dataset(self):
        spec = _tiny_spec()
        potential, data = bench.build_model(spec)
        assert (bench.ground_truth_for(spec, potential).to_dict()
                == closed_form_posterior(data).to_dict())


class TestIidPointset:
    def test_shape_and_range(self):
        ps = iid_pointset(100, 2, seed=0)
        assert ps.points.shape == (100, 2)
        assert ps.points.min() >= 0 and ps.points.max() < 1

    def test_streams_differ(self):
        a = iid_pointset(50, 2, seed=0, stream=0)
        b = iid_pointset(50, 2, seed=0, stream=1)
        assert not np.array_equal(a.points, b.points)
