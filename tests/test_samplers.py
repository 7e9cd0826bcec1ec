"""Chain mechanics: updates, schedules, drives, continuation, coupling."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmc import samplers
from lqmc.cud_core import builtin_config, generate_cud
from lqmc.drive import GaussianDrive, build_drive_matrix, clamped_normal, gaussian_rows
from lqmc.errors import ConfigurationError, DivergenceError, DomainError
from lqmc.models import (linear_regression_potential, logistic_potential,
                         standard_gaussian_potential, synthesize_data)
from lqmc.prng import BaselinePrng
from lqmc.samplers import (ChainBatch, ChainConfig, ConstantSchedule, PolynomialSchedule,
                           PseudoRandomDrive, ContractionInfo, continue_chain,
                           contraction_info, coupling_diagnostic, run_chain,
                           solve_polynomial_schedule)


class TestLmcStep:
    def test_run_chain_iterates_the_same_update(self):
        pot = standard_gaussian_potential(2)
        xi = np.array([[0.3, -1.2]])
        run = run_chain(pot, ChainConfig(np.array([1.0, 2.0]), 1,
                                         ConstantSchedule(0.05),
                                         GaussianDrive(xi=xi)))
        theta = np.array([1.0, 2.0])
        manual = theta - 0.05 * pot.grad(theta) + np.sqrt(2.0 * 0.05) * xi[0]
        assert np.array_equal(run.trajectory[0], manual)
        # three chains, one per drive kind, over more steps than one xi block
        # holds (_BLOCK = 256) on a decreasing schedule: the loop's per-block
        # noise equals sqrt(2 h_k) xi_k formed step by step, bit for bit
        d, n = 3, 600
        assert n > samplers._BLOCK
        schedule = PolynomialSchedule(c0=0.2, c1=3.0)
        matrix = build_drive_matrix(generate_cud(builtin_config(10)), d, rng=BaselinePrng(2))
        drives = (GaussianDrive(xi=clamped_normal(BaselinePrng(9).uniform(n * d)).reshape(n, d)),
                  matrix, PseudoRandomDrive(5, stream=3))
        xis = np.stack([drives[0].xi, gaussian_rows(matrix).xi[:n],
                        clamped_normal(BaselinePrng(5, 3).uniform(n * d)).reshape(n, d)], axis=1)
        theta0 = np.array([[0.5, -1.0, 2.0], [0.0, 0.0, 0.0], [-3.0, 1.0, 0.25]])
        chains = tuple(ChainConfig(t0, n, schedule, drv) for t0, drv in zip(theta0, drives))
        pot3, blocks = standard_gaussian_potential(d), []
        final = run_chain(pot3, ChainBatch(chains, ("gauss", "matrix", "prng")), blocks.append)
        assert [len(blk) for blk in blocks] == [256, 256, 88]
        hs, theta, manual = schedule.step_sizes(n), theta0, []
        for k in range(n):
            theta = theta - hs[k] * pot3.grad_batch(theta) + np.sqrt(2.0 * hs[k]) * xis[k]
            manual.append(theta)
        assert np.array_equal(np.concatenate(blocks), np.array(manual))
        assert np.array_equal(final, manual[-1])  # a batch returns its final states


class TestChainBatch:
    BASE = ChainConfig(np.zeros(2), 10, ConstantSchedule(0.01), PseudoRandomDrive(0),
                       minibatch=2)

    @pytest.mark.parametrize("change", [
        dict(theta0=np.zeros(3)), dict(n_steps=11), dict(schedule=ConstantSchedule(0.02)),
        dict(minibatch=3), dict(minibatch=None), dict(schedule_start=2),
    ], ids=["d", "n_steps", "schedule", "minibatch", "no-minibatch", "schedule_start"])
    def test_chains_must_share_the_loop_fields(self, change):
        other = replace(self.BASE, **change)
        with pytest.raises(ConfigurationError, match="must share"):
            ChainBatch((self.BASE, other), ("a", "b"))

    def test_one_name_per_chain(self):
        with pytest.raises(ConfigurationError):
            ChainBatch((self.BASE,), ("a", "b"))
        with pytest.raises(ConfigurationError):
            ChainBatch((), ())


class TestSchedules:
    def test_constant(self):
        assert ConstantSchedule(0.01).step_sizes(3).tolist() == [0.01] * 3

    def test_polynomial_formula(self):
        s = PolynomialSchedule(c0=2.0, c1=1.0, exponent=-0.5)
        assert s.step_sizes(2).tolist() == [2.0 * 2.0**-0.5, 2.0 * 3.0**-0.5]

    @settings(max_examples=40)
    @given(st.floats(0.001, 10), st.floats(-0.999, 100), st.integers(2, 200))
    def test_negative_exponent_strictly_decreases(self, c0, c1, n):
        hs = PolynomialSchedule(c0, c1).step_sizes(n)
        assert (np.diff(hs) < 0).all()
        assert (hs > 0).all()

    def test_solved_schedule_hits_endpoints(self):
        n = 16383
        s = solve_polynomial_schedule(1e-2, 1e-4, n)
        hs = s.step_sizes(n)
        assert hs[0] == pytest.approx(1e-2, rel=1e-12)
        assert hs[-1] == pytest.approx(1e-4, rel=1e-12)
        assert (np.diff(hs) < 0).all()

    def test_solved_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            solve_polynomial_schedule(1e-4, 1e-2, 100)
        with pytest.raises(ConfigurationError):
            ConstantSchedule(0.0)


class TestRunChain:
    def test_pseudo_random_determinism(self):
        pot = standard_gaussian_potential(2)
        cfg = ChainConfig(np.zeros(2), 500, ConstantSchedule(0.01),
                          PseudoRandomDrive(9))
        a = run_chain(pot, cfg)
        b = run_chain(pot, cfg)
        assert np.array_equal(a.trajectory, b.trajectory)

    def test_zero_drive_is_gradient_descent(self):
        pot = standard_gaussian_potential(1)
        drive = GaussianDrive(xi=np.zeros((100, 1)))
        run = run_chain(pot, ChainConfig(np.array([3.0]), 100,
                                         ConstantSchedule(0.1), drive))
        x = np.concatenate([[3.0], run.trajectory[:, 0]])
        assert (np.diff(np.abs(x)) < 0).all()
        assert abs(x[-1]) < 1e-4

    def test_cud_drive_long_run_mean(self):
        seq = generate_cud(builtin_config(13))
        matrix = build_drive_matrix(seq, 1, rng=BaselinePrng(4))
        run = run_chain(
            standard_gaussian_potential(1),
            ChainConfig(np.zeros(1), seq.n, ConstantSchedule(0.01), matrix),
        )
        assert abs(run.trajectory.mean()) < 5e-2

    def test_divergence_guard_names_iteration(self):
        pot = standard_gaussian_potential(1)
        drive = GaussianDrive(xi=np.zeros((200, 1)))
        cfg = ChainConfig(np.array([1.0]), 200, ConstantSchedule(3.0), drive)
        with pytest.raises(DivergenceError) as err:
            run_chain(pot, cfg)
        assert 0 < err.value.iteration <= 200

    def test_drive_agnostic_core(self):
        # feeding the captured xi of a pseudo-random run back in as a fixed
        # gaussian drive reproduces the trajectory bit for bit
        pot = standard_gaussian_potential(3)
        xi = clamped_normal(BaselinePrng(21).uniform(400 * 3)).reshape(400, 3)
        a = run_chain(pot, ChainConfig(np.zeros(3), 400, ConstantSchedule(0.05),
                                       PseudoRandomDrive(21)))
        b = run_chain(pot, ChainConfig(np.zeros(3), 400, ConstantSchedule(0.05),
                                       GaussianDrive(xi=xi)))
        assert np.array_equal(a.trajectory, b.trajectory)

    def test_matrix_dimension_checked(self):
        seq = generate_cud(builtin_config(4))
        matrix = build_drive_matrix(seq, 2, rng=BaselinePrng(0))
        with pytest.raises(ConfigurationError):
            run_chain(standard_gaussian_potential(3),
                      ChainConfig(np.zeros(3), 10, ConstantSchedule(0.1), matrix))
        with pytest.raises(ConfigurationError):
            run_chain(standard_gaussian_potential(2),
                      ChainConfig(np.zeros(2), 16, ConstantSchedule(0.1), matrix))

    def test_trajectory_dump(self, tmp_path):
        run = run_chain(
            standard_gaussian_potential(2),
            ChainConfig(np.zeros(2), 5, ConstantSchedule(0.1), PseudoRandomDrive(0)),
        )
        path = tmp_path / "traj.csv"
        run.save_trajectory(path)
        body = np.loadtxt(path, delimiter=",")
        assert body.shape == (5, 3)
        assert np.array_equal(body[:, 1:], run.trajectory)


class TestStochasticGradients:
    def test_sgld_runs_and_is_deterministic(self):
        data = synthesize_data("logistic", 50, 4, seed=2)
        pot = logistic_potential(data)
        cfg = ChainConfig(np.zeros(4), 300, ConstantSchedule(0.001),
                          PseudoRandomDrive(5), minibatch=10, minibatch_seed=3)
        a = run_chain(pot, cfg)
        b = run_chain(pot, cfg)
        assert np.array_equal(a.trajectory, b.trajectory)
        assert np.isfinite(a.trajectory).all()

    def test_minibatch_changes_the_path(self):
        data = synthesize_data("logistic", 50, 4, seed=2)
        pot = logistic_potential(data)
        base = ChainConfig(np.zeros(4), 100, ConstantSchedule(0.001),
                           PseudoRandomDrive(5))
        mb = ChainConfig(np.zeros(4), 100, ConstantSchedule(0.001),
                         PseudoRandomDrive(5), minibatch=5)
        assert not np.array_equal(run_chain(pot, base).trajectory,
                                  run_chain(pot, mb).trajectory)

    @pytest.mark.parametrize("schedule", [ConstantSchedule(0.01), PolynomialSchedule(1.0, 0.0)])
    @pytest.mark.parametrize("start", [0, -3])
    def test_schedule_start_below_one_refused(self, schedule, start):
        with pytest.raises(ConfigurationError, match="schedule_start"):
            ChainConfig(np.zeros(2), 10, schedule, PseudoRandomDrive(0), minibatch=4,
                        schedule_start=start)

    def test_requires_sgrad_support(self):
        pot = standard_gaussian_potential(2)
        cfg = ChainConfig(np.zeros(2), 10, ConstantSchedule(0.01),
                          PseudoRandomDrive(0), minibatch=2)
        with pytest.raises(ConfigurationError):
            run_chain(pot, cfg)


class TestContinueChain:
    def _dw_run(self, theta0=5.0):
        seq = generate_cud(builtin_config(10))
        matrix = build_drive_matrix(seq, 1, rng=BaselinePrng(1))
        return run_chain(
            standard_gaussian_potential(1),
            ChainConfig(np.array([theta0]), seq.n, ConstantSchedule(0.01), matrix),
        )

    def test_burn_in_length_arithmetic(self):
        run = self._dw_run()
        seq13 = generate_cud(builtin_config(13))
        main = build_drive_matrix(seq13, 1, rng=BaselinePrng(2))
        combined = continue_chain(run, main, seq13.n)
        assert combined.n == (2**10 - 1) + (2**13 - 1)
        assert combined.segments == (2**10 - 1, 2**13 - 1)
        # first segment untouched
        assert np.array_equal(combined.trajectory[: run.n], run.trajectory)

    def test_zero_extension_is_identity(self):
        run = self._dw_run()
        assert continue_chain(run, PseudoRandomDrive(0), 0) is run

    def test_second_segment_has_smaller_bias(self):
        # start far away: the continuation chain has forgotten the start
        seq13 = generate_cud(builtin_config(13))
        first_bias, second_bias = [], []
        for stream in range(20):
            seq10 = generate_cud(builtin_config(10))
            burn = build_drive_matrix(seq10, 1, rng=BaselinePrng(8, stream))
            main = build_drive_matrix(seq13, 1, rng=BaselinePrng(9, stream))
            run = run_chain(
                standard_gaussian_potential(1),
                ChainConfig(np.array([5.0]), seq10.n, ConstantSchedule(0.01), burn),
            )
            combined = continue_chain(run, main, seq13.n)
            first_bias.append(abs(combined.trajectory[: run.n].mean()))
            second_bias.append(abs(combined.trajectory[run.n :].mean()))
        assert np.mean(second_bias) < np.mean(first_bias)

    def test_minibatch_continuation_matches_one_run(self):
        # A continuation carries the minibatch stream on, so splitting a
        # run in two over the same xi changes nothing.
        pot = logistic_potential(synthesize_data("logistic", 12, 2, seed=4))
        xi = clamped_normal(BaselinePrng(3).uniform(2 * 50)).reshape(50, 2)
        cfg = ChainConfig(np.zeros(2), 50, PolynomialSchedule(0.05, 3.0),
                          GaussianDrive(xi), minibatch=4, minibatch_seed=7,
                          minibatch_stream=5)
        whole = run_chain(pot, cfg)
        head = run_chain(pot, replace(cfg, n_steps=20))
        split = continue_chain(head, GaussianDrive(xi[20:]), 30)
        assert np.array_equal(split.trajectory, whole.trajectory)

    def test_pseudo_random_continuation_matches_one_run(self):
        # A continuation over the same pseudo-random drive carries its noise
        # on instead of replaying the head's draws.
        pot = standard_gaussian_potential(2)
        cfg = ChainConfig(np.zeros(2), 50, PolynomialSchedule(0.05, 3.0),
                          PseudoRandomDrive(6, stream=2))
        whole = run_chain(pot, cfg)
        head = run_chain(pot, replace(cfg, n_steps=20))
        split = continue_chain(head, cfg.drive, 30)
        assert np.array_equal(split.trajectory, whole.trajectory)

    def test_dimension_mismatch(self):
        run = self._dw_run()
        seq = generate_cud(builtin_config(11))
        wrong = build_drive_matrix(seq, 2, rng=BaselinePrng(0))
        with pytest.raises(ConfigurationError):
            continue_chain(run, wrong, seq.n)


class TestCouplingDiagnostic:
    def test_quadratic_is_exact(self):
        pot = standard_gaussian_potential(1)
        dist = coupling_diagnostic(pot, np.array([1.0]), np.array([-1.0]), 0.5,
                                   10, PseudoRandomDrive(3))
        expect = 2.0 * 0.5 ** np.arange(11)
        assert np.allclose(dist, expect, atol=1e-12, rtol=0)

    def test_identical_starts_stay_merged(self):
        pot = standard_gaussian_potential(2)
        dist = coupling_diagnostic(pot, np.ones(2), np.ones(2), 0.1, 5,
                                   PseudoRandomDrive(0))
        assert (dist == 0).all()

    def test_linear_regression_respects_bound(self):
        data = synthesize_data("linear", 20, 30, seed=7)
        pot = linear_regression_potential(data)
        h = 1.0 / (pot.smoothness + pot.strong_convexity)
        dist = coupling_diagnostic(pot, np.zeros(30), np.ones(30), h, 100,
                                   PseudoRandomDrive(1))
        ratios = dist[1:] / dist[:-1]
        assert (ratios <= 1.0 - h * pot.strong_convexity + 1e-12).all()

    def test_warns_when_step_size_violates_theory(self):
        pot = standard_gaussian_potential(1)
        with pytest.warns(UserWarning):
            coupling_diagnostic(pot, np.zeros(1), np.ones(1), 1.5, 3,
                                PseudoRandomDrive(0))


class TestContractionInfo:
    def test_quadratic_values(self):
        info = contraction_info(L=1.0, M=1.0, h=0.5, d=2, n=8191)
        assert info == ContractionInfo(rho=0.5, ell=1, gcd_d_ell_n=1)

    def test_ell_grows_as_h_shrinks(self):
        a = contraction_info(1.0, 1.0, 0.01, 3, 8191)
        b = contraction_info(1.0, 1.0, 0.001, 3, 8191)
        assert b.ell > a.ell >= 1
        assert a.gcd_d_ell_n == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            contraction_info(1.0, 1.0, 2.0, 1, 7)
