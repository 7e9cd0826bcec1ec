"""Benchmark targets: gradients, closed forms, quadrature, reference runs."""

import ast
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from lqmc.drive import clamped_normal
from lqmc.errors import ConfigurationError, DataError, DivergenceError
from lqmc.models import (GroundTruth, SyntheticDataset,
                         closed_form_posterior, covariance_matrix,
                         crossed_effects_potential, double_well_potential,
                         double_well_truth, finite_difference_gradient,
                         linear_regression_potential, load_ground_truth,
                         logistic_potential, max_gradient_error,
                         reference_ground_truth, save_ground_truth,
                         standard_gaussian_potential, synthesize_data)
from lqmc.models import _dw_moment_bessel, _dw_moment_hermite
from lqmc.prng import BaselinePrng
from lqmc.samplers import (ChainBatch, ChainConfig, ConstantSchedule,
                           PseudoRandomDrive, run_chain)


class TestSynthesizeData:
    def test_covariance_d3(self):
        expect = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1.0]])
        assert np.array_equal(covariance_matrix(3), expect)

    def test_d1_is_standard_normal_design(self):
        assert covariance_matrix(1).tolist() == [[1.0]]

    def test_deterministic(self):
        a = synthesize_data("linear", 10, 4, seed=5)
        b = synthesize_data("linear", 10, 4, seed=5)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        c = synthesize_data("linear", 10, 4, seed=6)
        assert not np.array_equal(a.X, c.X)

    def test_logistic_labels_binary(self):
        data = synthesize_data("logistic", 40, 3, seed=1)
        assert set(np.unique(data.y)) <= {0.0, 1.0}

    def test_crossed_shapes(self):
        data = synthesize_data("crossed", 3, 5, seed=2)
        assert data.y.shape == (3, 5)
        assert data.X is None
        assert len(data.beta) == 3 + 5 + 2 + 1

    def test_sample_covariance_tracks_sigma(self):
        data = synthesize_data("linear", 4000, 3, seed=9)
        emp = data.X.T @ data.X / 4000
        assert np.abs(emp - covariance_matrix(3)).max() < 0.1

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            synthesize_data("poisson", 5, 2, seed=0)


class TestLogisticPotential:
    def test_gradient_at_zero(self):
        data = synthesize_data("logistic", 15, 4, seed=1)
        pot = logistic_potential(data)
        expect = data.X.T @ (0.5 - data.y)
        assert np.allclose(pot.grad(np.zeros(4)), expect, atol=1e-12)

    def test_no_data_reduces_to_prior(self):
        data = SyntheticDataset("logistic", np.empty((0, 3)), np.empty(0),
                                np.zeros(3), seed=0)
        pot = logistic_potential(data)
        theta = np.array([1.0, -2.0, 0.5])
        assert pot.value(theta) == pytest.approx(0.5 * theta @ theta)
        assert np.allclose(pot.grad(theta), theta)

    def test_finite_difference_match(self):
        pot = logistic_potential(synthesize_data("logistic", 20, 10, seed=3))
        assert max_gradient_error(pot, n_probes=100, seed=1) < 1e-5

    def test_label_validation(self):
        data = SyntheticDataset("logistic", np.ones((2, 2)),
                                np.array([0.0, 2.0]), np.zeros(2), seed=0)
        with pytest.raises(DataError):
            logistic_potential(data)

    def test_overflow_guard(self):
        data = synthesize_data("logistic", 5, 2, seed=4)
        pot = logistic_potential(data)
        assert np.isfinite(pot.value(np.array([500.0, -500.0])))

    def test_sgrad_full_batch_equals_grad(self):
        data = synthesize_data("logistic", 12, 3, seed=7)
        pot = logistic_potential(data)
        theta = np.array([0.3, -0.2, 1.0])
        assert np.allclose(pot.sgrad(theta, np.arange(12)), pot.grad(theta))

    def test_sgrad_is_unbiased_over_singletons(self):
        data = synthesize_data("logistic", 9, 3, seed=8)
        pot = logistic_potential(data)
        theta = np.array([0.1, 0.4, -0.6])
        singles = np.mean([pot.sgrad(theta, np.array([i])) for i in range(9)], axis=0)
        assert np.allclose(singles, pot.grad(theta), atol=1e-12)


class TestLinearPotential:
    def test_zero_design_is_pure_prior(self):
        data = SyntheticDataset("linear", np.zeros((4, 3)), np.zeros(4),
                                np.zeros(3), seed=0, noise_var=0.25)
        pot = linear_regression_potential(data)
        assert np.allclose(pot.grad(np.zeros(3)), 0)
        assert (pot.smoothness, pot.strong_convexity) == (1.0, 1.0)

    def test_conjugate_minimizer(self):
        data = SyntheticDataset("linear", np.array([[1.0]]), np.array([1.0]),
                                np.zeros(1), seed=0, noise_var=1.0)
        pot = linear_regression_potential(data)
        assert abs(pot.grad(np.array([0.5]))[0]) < 1e-14

    def test_finite_difference_match(self):
        pot = linear_regression_potential(synthesize_data("linear", 20, 100, seed=51))
        assert max_gradient_error(pot, n_probes=100, seed=2, scale=0.3) < 1e-5

    def test_posterior_mean_is_minimizer(self):
        data = synthesize_data("linear", 20, 30, seed=13)
        pot = linear_regression_potential(data)
        truth = closed_form_posterior(data)
        assert np.abs(pot.grad(truth.mean)).max() < 1e-10


class TestClosedFormPosterior:
    def test_zero_design(self):
        data = SyntheticDataset("linear", np.zeros((2, 3)), np.zeros(2),
                                np.zeros(3), seed=0, noise_var=0.25)
        gt = closed_form_posterior(data)
        assert np.allclose(gt.mean, 0)
        assert np.allclose(gt.second_moment, 1.0)
        assert np.allclose(gt.positive_prob, 0.5)

    def test_conjugate_d1(self):
        data = SyntheticDataset("linear", np.array([[1.0]]), np.array([1.0]),
                                np.zeros(1), seed=0, noise_var=1.0)
        gt = closed_form_posterior(data)
        assert gt.mean[0] == pytest.approx(0.5)
        assert gt.second_moment[0] == pytest.approx(0.75)

    def test_provenance(self):
        data = synthesize_data("linear", 5, 2, seed=1)
        assert closed_form_posterior(data).provenance == "closed-form"


def residual_crossed_grad(Y, thetas):
    """The crossed gradient from the residual tensor r_sij = Y_ij - mu_s - a_si - b_sj,
    reduced three ways: an independent reference for the sufficient-statistic form."""
    thetas = np.atleast_2d(thetas)
    i_sz, j_sz = Y.shape
    mu, la, lb = thetas[:, 0], thetas[:, -2], thetas[:, -1]
    a, b = thetas[:, 1 : 1 + i_sz], thetas[:, 1 + i_sz : 1 + i_sz + j_sz]
    r = Y[None] - mu[:, None, None] - a[:, :, None] - b[:, None, :]
    g = np.empty_like(thetas)
    g[:, 0] = -r.sum(axis=(1, 2)) + mu
    g[:, 1 : 1 + i_sz] = -r.sum(axis=2) + a * np.exp(-la)[:, None]
    g[:, 1 + i_sz : 1 + i_sz + j_sz] = -r.sum(axis=1) + b * np.exp(-lb)[:, None]
    g[:, -2] = -0.5 * np.exp(-la) * (a * a).sum(axis=1) + 0.5 * i_sz + la
    g[:, -1] = -0.5 * np.exp(-lb) * (b * b).sum(axis=1) + 0.5 * j_sz + lb
    return g


class TestCrossedEffects:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (4, 3), (7, 2)])
    @pytest.mark.parametrize("stacked", [False, True], ids=["vector", "stack"])
    def test_gradient_matches_residual_form(self, shape, stacked):
        data = synthesize_data("crossed", *shape, seed=7)
        pot = crossed_effects_potential(data.y)
        thetas = np.linspace(-2, 2, 6 * pot.dim).reshape(6, pot.dim)
        expect = residual_crossed_grad(data.y, thetas)
        if stacked:
            got = pot.grad_batch(thetas)
        else:
            got = np.stack([pot.grad(t) for t in thetas])
        assert got.shape == expect.shape
        for g, e in zip(got, expect):
            assert np.allclose(g, e, rtol=0, atol=1e-12 * max(np.linalg.norm(e), 1.0))

    @pytest.mark.parametrize("shape", [(1, 1), (4, 3)])
    def test_finite_difference_match_other_shapes(self, shape):
        data = synthesize_data("crossed", *shape, seed=11)
        pot = crossed_effects_potential(data.y)
        assert max_gradient_error(pot, n_probes=100, seed=3) < 1e-5

    def test_gradient_at_zero_with_zero_data(self):
        pot = crossed_effects_potential(np.zeros((3, 5)))
        g = pot.grad(np.zeros(11))
        assert np.allclose(g[:-2], 0)
        assert g[-2] == pytest.approx(1.5)  # I/2
        assert g[-1] == pytest.approx(2.5)  # J/2

    def test_finite_difference_match(self):
        data = synthesize_data("crossed", 3, 5, seed=11)
        pot = crossed_effects_potential(data.y)
        assert max_gradient_error(pot, n_probes=100, seed=3) < 1e-5

    def test_batched_gradient_matches_single(self):
        data = synthesize_data("crossed", 4, 3, seed=5)
        pot = crossed_effects_potential(data.y)
        thetas = np.linspace(-1, 1, 10 * pot.dim).reshape(10, pot.dim)
        batch = pot.grad_batch(thetas)
        single = np.stack([pot.grad(t) for t in thetas])
        assert np.allclose(batch, single, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            crossed_effects_potential(np.zeros((0, 3)))

    # The callers' state shapes: a lone vector, a lone chain (1, d), the
    # reference oracle's 10 chains and a crossed_desk cell batch of 40.
    @pytest.mark.parametrize("rows", [None, 1, 10, 40], ids=["d", "1xd", "10xd", "40xd"])
    def test_residual_form_at_every_caller_shape(self, rows):
        data = synthesize_data("crossed", 3, 5, seed=11)
        pot = crossed_effects_potential(data.y)
        shape = (pot.dim,) if rows is None else (rows, pot.dim)
        theta = BaselinePrng(5, 1).uniform(math.prod(shape)).reshape(shape) * 4 - 2
        got = pot.grad_batch(theta)
        assert got.shape == shape
        expect = residual_crossed_grad(data.y, theta).reshape(shape)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("la", [-30.0, 30.0])
    @pytest.mark.parametrize("lb", [-30.0, 30.0])
    def test_residual_form_at_extreme_log_variances(self, la, lb):
        # e^{-l} spans 1e-13..1e13, so entries span about 26 decades: each
        # entry is held to a tolerance relative to itself.
        data = synthesize_data("crossed", 3, 5, seed=11)
        pot = crossed_effects_potential(data.y)
        theta = np.linspace(-2, 2, 4 * pot.dim).reshape(4, pot.dim)
        theta[:, -2:] = la, lb
        np.testing.assert_allclose(pot.grad_batch(theta), residual_crossed_grad(data.y, theta),
                                   rtol=1e-12, atol=0)

    def test_overflowing_variance_weight_diverges_naming_the_chain(self):
        # e^{-la} overflows at la = -1000, a state well inside the norm cap:
        # the step must not come back finite.
        data = synthesize_data("crossed", 3, 5, seed=11)
        pot = crossed_effects_potential(data.y)
        bad = np.full(pot.dim, 0.5)
        bad[-2] = -1000.0
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(pot.grad_batch(np.stack([np.zeros(pot.dim), bad]))[1]).all()
        chains = tuple(ChainConfig(theta0, 3, ConstantSchedule(1e-4), PseudoRandomDrive(1, i))
                       for i, theta0 in enumerate((np.zeros(pot.dim), bad)))
        with pytest.raises(DivergenceError, match="^bad diverged at iteration 1$"):
            run_chain(pot, ChainBatch(chains, ("good", "bad")))
        with pytest.raises(DivergenceError, match="^chain diverged at iteration 1$"):
            run_chain(pot, chains[1])


def same_bits(got, expect):
    assert got.shape == expect.shape and got.dtype == expect.dtype == np.float64
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))


class TestGradientBits:
    """Each gradient closure returns the bits of its plain ``X[idx]`` and ``@``
    expression, written out here, on every state shape and index set its
    callers pass: ``.dot`` makes the same BLAS call as ``@``, and the in-place
    finish keeps the order of the operations."""

    @staticmethod
    def states(d, seed):
        """A vector, a lone chain, the oracle's 10 chains and a cell's 40."""
        for shape in [(d,), (1, d), (10, d), (40, d)]:
            yield BaselinePrng(seed, 3).uniform(math.prod(shape)).reshape(shape) * 2 - 1

    @staticmethod
    def index_sets(n):
        draws = BaselinePrng(9, 2)
        return [draws.index_subset(n, 10), draws.index_subset(n, 10), np.array([7]),
                np.array([4, 4, 4, 17, 4]), np.arange(n), np.arange(n)[::-1].copy()]

    def test_logistic(self):
        from scipy.special import expit

        data = synthesize_data("logistic", 100, 10, seed=3)
        pot, X, y = logistic_potential(data), data.X, data.y
        for beta in self.states(10, 1):
            same_bits(pot.grad(beta), (expit(beta @ X.T) - y) @ X + beta)
        beta = next(self.states(10, 2))  # sgrad takes one chain's vector
        for idx in self.index_sets(100):
            xb = X[idx]
            scale = 100 / len(idx)
            same_bits(pot.sgrad(beta, idx), beta + scale * (xb.T @ (expit(xb @ beta) - y[idx])))

    @pytest.mark.parametrize("noise_var", [0.25, 0.3])  # 0.3: dividing by it rounds
    def test_linear(self, noise_var):
        data = synthesize_data("linear", 20, 100, seed=51, noise_var=noise_var)
        pot, X, y, sigma2 = linear_regression_potential(data), data.X, data.y, data.noise_var
        for beta in self.states(100, 1):
            same_bits(pot.grad(beta), (beta @ X.T - y) @ X / sigma2 + beta)
        beta = next(self.states(100, 2))
        for idx in self.index_sets(20):
            xb = X[idx]
            scale = 20 / len(idx)
            same_bits(pot.sgrad(beta, idx),
                      beta + scale * (xb.T @ (xb @ beta - y[idx])) / sigma2)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5)])
    def test_crossed(self, shape):
        pot = crossed_effects_potential(synthesize_data("crossed", *shape, seed=11).y)
        const = dict(zip(pot.grad.__code__.co_freevars,
                         (cell.cell_contents for cell in pot.grad.__closure__)))
        B, S, c = const["B"], const["S"], const["c"]
        for th in self.states(pot.dim, 4):
            ab = th[..., 1:-2]
            p = ab * np.exp(th @ S)
            same_bits(pot.grad(th), np.concatenate([th, p, p * ab], axis=-1) @ B - c)


class TestDoubleWell:
    def test_stationary_points(self):
        pot = double_well_potential()
        assert pot.grad(np.array([0.0]))[0] == 0.0
        assert pot.grad(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)
        assert pot.grad(np.array([-1.0]))[0] == pytest.approx(0.0, abs=1e-15)

    def test_probe_value(self):
        pot = double_well_potential()
        assert pot.grad(np.array([2.0]))[0] == pytest.approx(0.6, abs=1e-15)

    def test_finite_difference_match(self):
        assert max_gradient_error(double_well_potential(), 100, seed=4, scale=2.0) < 1e-5

    def test_truth_symmetry_values(self):
        gt = double_well_truth()
        assert gt.mean[0] == 0.0
        assert gt.positive_prob[0] == 0.5
        assert gt.second_moment[0] == 3.1202821552083573
        assert gt.provenance == "closed-form"
        assert gt.error_estimate is None

    def test_closed_form_within_two_ulp_of_mpmath(self):
        with mpmath.workdps(40):
            y = mpmath.mpf(1) / 8
            k0, k1 = mpmath.besselk(0, y), mpmath.besselk(1, y)
            m2_ref, z_ref = 4 * k1 / (k0 + k1), mpmath.exp(y) / 2 * (k0 + k1)
            # the Bessel form is checked against the defining integral too
            z_int = mpmath.quad(lambda x: mpmath.exp(-x * x / 4) * mpmath.sqrt(1 + x * x),
                                [-mpmath.inf, 0, mpmath.inf])
            m2_int = mpmath.quad(lambda x: x * x * mpmath.exp(-x * x / 4)
                                 * mpmath.sqrt(1 + x * x), [-mpmath.inf, 0, mpmath.inf])
            assert abs(z_int - z_ref) < mpmath.mpf(10) ** -30 * z_ref
            assert abs(m2_int / z_int - m2_ref) < mpmath.mpf(10) ** -30
            m2_ref, z_ref = float(m2_ref), float(z_ref)
        m2, z = _dw_moment_bessel()
        assert abs(m2 - m2_ref) <= 2 * math.ulp(m2_ref)
        assert abs(z - z_ref) <= 2 * math.ulp(z_ref)

    def test_closed_form_matches_gauss_hermite(self):
        m2_b, z_b = _dw_moment_bessel()
        m2_h, z_h = _dw_moment_hermite()
        assert m2_b == pytest.approx(m2_h, abs=1e-8)
        assert z_b == pytest.approx(z_h, rel=1e-10)
        assert 1.0 < m2_b < 5.0  # sanity band around the heavy-shouldered value

    def test_truth_loads_no_heavy_scipy(self):
        # Import order is per process, so the check needs a fresh interpreter.
        code = """
import sys
import lqmc, lqmc.cli
from lqmc.models import _dw_moment_hermite, double_well_truth
gt = double_well_truth()
heavy = ("scipy.integrate", "scipy.optimize", "scipy.sparse")
loaded = [m for m in heavy if m in sys.modules]
assert not loaded, loaded
assert abs(gt.second_moment[0] - _dw_moment_hermite()[0]) <= 1e-8
"""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr

    def test_package_imports_no_scipy_but_special(self):
        # Static, so it covers paths no test calls: module-level and in-function
        # imports alike.  Only functions may import scipy.special, so that
        # `import lqmc` loads no scipy module at all.
        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "lqmc"
        found, module_level = [], []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            in_functions = {id(inner) for node in ast.walk(tree)
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            for inner in ast.walk(node)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                    names = [f"scipy.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                where = f"{path.name}:{node.lineno}"
                scipy = [name for name in names if name.split(".")[0] == "scipy"]
                found += [f"{where} {name}" for name in scipy
                          if name.split(".")[:2] != ["scipy", "special"]]
                if scipy and id(node) not in in_functions:
                    module_level.append(where)
        assert not found, found
        assert not module_level, module_level

    def test_package_and_cli_import_no_chain_module_at_module_level(self):
        # `import lqmc` and the commands that run no chain (gen, discrepancy)
        # load only these submodules; the others load on first use.
        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "lqmc"

        def refused(name):
            if name.startswith("."):
                return name[1:] not in {"errors", "cud_core", "drive", "prng"}
            return name.split(".")[0] not in {"numpy", *sys.stdlib_module_names}

        found = []
        for path in (src / "__init__.py", src / "cli.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            in_functions = {id(inner) for node in ast.walk(tree)
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            for inner in ast.walk(node)}
            for node in ast.walk(tree):
                if id(node) in in_functions:
                    continue
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    dots = "." * node.level
                    names = ([dots + node.module] if node.module
                             else [dots + alias.name for alias in node.names])
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}" for name in names
                          if refused(name)]
        assert not found, found


class TestGroundTruthIO:
    def test_json_round_trip(self, tmp_path):
        gt = GroundTruth(mean=np.array([0.1]), second_moment=np.array([1.2]),
                         positive_prob=np.array([0.6]),
                         provenance="long-reference-run",
                         mean_se=np.array([0.01]),
                         second_moment_se=np.array([0.02]),
                         positive_prob_se=np.array([0.005]))
        path = tmp_path / "truth.json"
        save_ground_truth(gt, path)
        back = load_ground_truth(path)
        assert back.provenance == gt.provenance
        assert np.array_equal(back.mean, gt.mean)
        assert np.array_equal(back.positive_prob_se, gt.positive_prob_se)

    def test_standard_errors_may_be_null(self, tmp_path):
        path = tmp_path / "truth.json"
        save_ground_truth(double_well_truth(), path)
        back = load_ground_truth(path)
        assert back.mean_se is None
        assert np.array_equal(back.second_moment, double_well_truth().second_moment)

    @pytest.mark.parametrize("field, value", [
        ("second_moment", None), ("mean", "abcd"), ("mean", [[0.0]]), ("mean", [True]),
        ("positive_prob", ["0.5"]), ("mean_se", 0.1), ("positive_prob_se", [None]),
    ])
    def test_field_that_is_not_a_list_of_numbers(self, tmp_path, field, value):
        path = tmp_path / "truth.json"
        save_ground_truth(double_well_truth(), path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, field: value}))
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))} has field "
                                            rf"'{field}' = .*, not a list of numbers$"):
            load_ground_truth(path)

    @pytest.mark.parametrize("field", ["second_moment", "positive_prob", "mean_se",
                                       "positive_prob_se"])
    def test_arrays_of_unequal_length_are_refused(self, tmp_path, field):
        arrays = {name: np.full(3, 0.5) for name in GroundTruth._ARRAYS}
        message = f"has field '{field}' of 2 entries, not 3 as 'mean'"
        with pytest.raises(ValueError, match=f"^{message}$"):
            GroundTruth(provenance="test", **{**arrays, field: np.full(2, 0.5)})
        path = tmp_path / "truth.json"
        save_ground_truth(GroundTruth(provenance="test", **arrays), path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, field: payload[field][:2]}))
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))} {message}$"):
            load_ground_truth(path)

    def test_values_accessor(self):
        gt = double_well_truth()
        assert gt.values("square")[0] == gt.second_moment[0]
        assert gt.se("coordinate") is None


class TestReferenceGroundTruth:
    def test_recovers_gaussian_moments(self):
        pot = standard_gaussian_potential(2)
        gt = reference_ground_truth(pot, h=0.01, n_steps=60_000, n_chains=6,
                                    seed=3)
        # Euler chains inflate the variance to 1/(1 - h/2)
        target_sm = 1.0 / (1.0 - 0.005)
        assert np.abs(gt.mean).max() < 4 * gt.mean_se.max() + 0.02
        assert np.allclose(gt.second_moment, target_sm,
                           atol=4 * gt.second_moment_se.max() + 0.02)
        assert np.allclose(gt.positive_prob, 0.5,
                           atol=4 * gt.positive_prob_se.max() + 0.01)
        assert gt.provenance == "long-reference-run"

    @pytest.mark.parametrize("n_chains, n_steps", [(0, 100), (1, 100), (2, 0)])
    def test_refuses_no_standard_error_or_no_kept_steps(self, n_chains, n_steps):
        pot = standard_gaussian_potential(1)
        with pytest.raises(ConfigurationError):
            reference_ground_truth(pot, h=0.05, n_steps=n_steps, n_chains=n_chains,
                                   seed=0)

    @staticmethod
    def _hand_loop(potential, h, n_steps, n_chains, seed):
        """Per-chain averages, (3, s, d), of the oracle's stream layout, spelled
        out: step k reads s*d uniforms of stream (seed, 777) chain by chain,
        noise comes in 4096-step chunks, and the first 1/8 is left out."""
        s, d = n_chains, potential.dim
        rng = BaselinePrng(seed, 777)
        theta, sums, discard = np.zeros((s, d)), np.zeros((3, s, d)), n_steps // 8
        for lo in range(0, n_steps, 4096):
            b = min(4096, n_steps - lo)
            noise = np.sqrt(2 * h) * clamped_normal(rng.uniform(b * s * d)).reshape(b, s, d)
            for k in range(b):
                theta = theta - h * potential.grad_batch(theta) + noise[k]
                if lo + k >= discard:
                    sums += [theta, theta**2, theta > 0]
        return sums / (n_steps - discard)

    @pytest.mark.parametrize("name, n_steps", [("gaussian", 5000), ("crossed", 700)])
    def test_stream_layout(self, name, n_steps):
        # Past one chunk of the hand loop and several blocks of run_chain;
        # the burn-in ends mid-block (625 and 87 steps).
        pot = (standard_gaussian_potential(3) if name == "gaussian" else
               crossed_effects_potential(synthesize_data("crossed", 3, 2, seed=8).y))
        gt = reference_ground_truth(pot, h=0.02, n_steps=n_steps, n_chains=3, seed=6)
        per_chain = self._hand_loop(pot, 0.02, n_steps, 3, 6)
        for i, kind in enumerate(("coordinate", "square", "indicator")):
            np.testing.assert_allclose(gt.values(kind), per_chain[i].mean(axis=0),
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(gt.se(kind), per_chain[i].std(axis=0, ddof=1)
                                       / np.sqrt(3), rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("n_steps", [200, 400])  # burn-in of 25 and of 50 steps
    def test_divergence_carries_its_iteration(self, n_steps):
        pot, h = standard_gaussian_potential(2), 3.0  # theta <- -2 theta + noise
        rng, theta, first = BaselinePrng(4, 777), np.zeros(4), None
        for k in range(1, n_steps + 1):
            theta = theta - h * theta + np.sqrt(2 * h) * clamped_normal(rng.uniform(4))
            if theta @ theta > 1e16:
                first = k
                break
        assert first == 27
        with pytest.raises(DivergenceError, match="iteration 27$") as exc:
            reference_ground_truth(pot, h=h, n_steps=n_steps, n_chains=2, seed=4)
        assert exc.value.iteration == first

    def test_deterministic(self):
        pot = standard_gaussian_potential(1)
        a = reference_ground_truth(pot, h=0.05, n_steps=2000, n_chains=3, seed=1)
        b = reference_ground_truth(pot, h=0.05, n_steps=2000, n_chains=3, seed=1)
        assert np.array_equal(a.mean, b.mean)


class TestFiniteDifferences:
    def test_matches_analytic_quadratic(self):
        fd = finite_difference_gradient(lambda t: float(0.5 * t @ t),
                                        np.array([1.0, -2.0]))
        assert np.allclose(fd, [1.0, -2.0], atol=1e-7)


def test_closed_form_posterior_matches_reference_run():
    """Dual route for the 100-dim posterior: the analytic moments agree
    with an independent reference-chain estimate.

    The reference SE is the spread of ``n_chains`` per-chain averages, so
    each z-score is Student-t with ``n_chains - 1`` degrees of freedom.
    With 8 chains (t_7) P(|z| > 3) is about 2%: some 6 of the 300
    comparisons would exceed 3 SEs on average, past the 99% gate.  With
    32 chains (t_31) it is about 0.5%, some 1.6 expected excursions, and a
    5-SE excursion is rare, so the gates of 99% within 3 SEs and all
    within 5 SEs are within reach of a correct oracle.  32 chains of 2^17 steps draw
    the same uniforms from the same stream as 8 chains of 2^19 steps, so
    the extra chains cost nothing; the 2^14-step burn-in is still 3.3
    relaxation times of the slowest mode.
    """
    data = synthesize_data("linear", 20, 100, seed=51)
    pot = linear_regression_potential(data)
    exact = closed_form_posterior(data)
    ref = reference_ground_truth(pot, h=2e-4, n_steps=1 << 17, n_chains=32, seed=77)
    zscores = []
    for kind in ("coordinate", "square", "indicator"):
        se = np.maximum(ref.se(kind), 1e-12)
        zscores.append(np.abs(ref.values(kind) - exact.values(kind)) / se)
    z = np.concatenate(zscores)
    assert (z <= 3.0).mean() >= 0.99, (z.max(), (z > 3).sum())
    assert z.max() <= 5.0
