"""Drive matrices, rotation, and the inverse normal CDF."""

import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, ndtri

from lqmc.cud_core import builtin_config, generate_cud
from lqmc.drive import (DriveMatrix, build_drive_matrix, clamped_normal,
                        coprime_width, gaussian_rows, inverse_normal_cdf,
                        quantize_shift, rotate)
from lqmc.errors import ConfigurationError, DomainError
from lqmc.prng import BaselinePrng


class TestCoprimeWidth:
    def test_examples(self):
        assert coprime_width(7, 2) == 2
        assert coprime_width(15, 3) == 4
        assert coprime_width(15, 5) == 7
        assert coprime_width(8191, 10) == 10

    @given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=500))
    def test_result_is_minimal_and_coprime(self, n, d):
        import math

        w = coprime_width(n, d)
        assert w >= d and math.gcd(w, n) == 1
        assert all(math.gcd(k, n) != 1 for k in range(d, w))


class TestDriveMatrixLayout:
    def test_rows_consume_sequence_in_order(self):
        seq = generate_cud(builtin_config(3, offset=1))
        m = build_drive_matrix(seq, 2, shift=np.zeros(2))
        v = seq.values
        assert m.rows()[0].tolist() == [v[0], v[1]]
        assert m.rows()[1].tolist() == [v[2], v[3]]
        # 7 values repeated twice: row 4 wraps to the start
        assert m.rows()[3].tolist() == [v[6], v[0]]

    def test_width_adjustment_exposes_first_d(self):
        seq = generate_cud(builtin_config(4))
        m = build_drive_matrix(seq, 3, shift=np.zeros(4))
        assert (m.d_stored, m.d) == (4, 3)
        assert m.rows().shape == (15, 3)
        assert m.base.shape == (15, 4)

    def test_columns_are_permutations_of_the_value_set(self):
        seq = generate_cud(builtin_config(8))
        width = coprime_width(seq.n, 5)  # gcd(255, 5) = 5, so width is 7
        m = build_drive_matrix(seq, 5, shift=np.zeros(width))
        assert m.d_stored == 7
        target = set(seq.values.tolist())
        for j in range(m.d_stored):
            assert set(m.base[:, j].tolist()) == target

    def test_shift_length_validated(self):
        seq = generate_cud(builtin_config(4))
        with pytest.raises(ConfigurationError):
            build_drive_matrix(seq, 3, shift=np.zeros(3))  # stored width is 4

    @pytest.mark.parametrize("shift", [[-0.1, 0.1], [0.1, 1.0], [np.nan, 0.1], [0.1, np.nan]])
    def test_shift_range_validated(self, shift):
        seq = generate_cud(builtin_config(4))
        with pytest.raises(ConfigurationError, match=re.escape("lie in [0, 1)")):
            build_drive_matrix(seq, 2, shift=np.array(shift))

    def test_shift_drawn_from_rng_is_reproducible(self):
        seq = generate_cud(builtin_config(5))
        a = build_drive_matrix(seq, 2, rng=BaselinePrng(3, 1))
        b = build_drive_matrix(seq, 2, rng=BaselinePrng(3, 1))
        assert np.array_equal(a.shift, b.shift)
        assert np.array_equal(a.rows(), b.rows())

    def test_values_are_the_period_itself(self):
        seq = generate_cud(builtin_config(6))
        assert build_drive_matrix(seq, 4, rng=BaselinePrng(2)).values is seq.values

    def test_no_shift_or_rng_is_unshifted(self):
        seq = generate_cud(builtin_config(4))
        m = build_drive_matrix(seq, 3)
        assert not m.shift.any()
        assert np.array_equal(m.rows(), m.base[:, :3])

    @pytest.mark.parametrize("m, d", [(3, 2), (8, 5)])
    def test_row_ranges_read_the_period_rule(self, m, d):
        # m=3, d=2: rows span two periods; m=8, d=5: stored width 7
        seq = generate_cud(builtin_config(m))
        matrix = build_drive_matrix(seq, d, rng=BaselinePrng(m, d))
        n, ds = seq.n, matrix.d_stored
        k, j = np.meshgrid(np.arange(n), np.arange(d), indexing="ij")
        expected = (seq.values[(k * ds + j) % n] + matrix.shift[j]) % 1.0
        assert np.array_equal(matrix.rows(), expected)
        full = gaussian_rows(matrix).xi
        for lo, hi in [(0, 1), (1, 4), (3, n), (1, n - 1), (n - 2, n), (0, n), (5, 5)]:
            assert np.array_equal(matrix.rows(lo, hi), expected[lo:hi])
            assert np.array_equal(gaussian_rows(matrix, lo, hi).xi, full[lo:hi])


class TestRotation:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=3, max_value=20), st.integers(min_value=0, max_value=2**32))
    def test_exact_inverse(self, m, raw):
        values = np.arange(1, 2**m, 7)[:100] / 2.0**m
        delta = quantize_shift(np.array([raw / 2.0**32]))
        shifted = rotate(values, delta[0])
        inverse = quantize_shift((1.0 - delta) % 1.0)
        assert np.array_equal(rotate(shifted, inverse[0]), values)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 32), st.data())
    def test_same_bits_as_float_remainder(self, m, data):
        # dyadic values k/2^m plus shifts on the 2^-52 grid, some summing to 1
        k = np.array(data.draw(st.lists(st.integers(0, 2**m - 1), min_size=1, max_size=50)))
        values = k / 2.0**m
        grid = np.array(data.draw(st.lists(st.integers(0, 2**52 - 1), min_size=len(k),
                                           max_size=len(k)))) / 2.0**52
        exact_one = 1.0 - values  # exact: 1 - k/2^m is on the 2^-52 grid for m <= 32
        edge = (np.arange(len(k)) % 3 == 0) & (k > 0)
        shift = np.where(edge, exact_one, grid)
        assert np.all(values[edge] + shift[edge] == 1.0)
        assert rotate(values, shift).tobytes() == ((values + shift) % 1.0).tobytes()

    def test_rotation_keeps_unit_interval(self):
        seq = generate_cud(builtin_config(10))
        m = build_drive_matrix(seq, 3, rng=BaselinePrng(11))
        assert m.rows().min() >= 0.0
        assert m.rows().max() < 1.0

    def test_stratification_survives_rotation(self):
        # after any shift: at most one point per dyadic interval, except the
        # interval containing the wrap point, which may hold two
        seq = generate_cud(builtin_config(8))
        for stream in range(5):
            m = build_drive_matrix(seq, 1, rng=BaselinePrng(5, stream))
            col = m.rows()[:, 0]
            counts = np.bincount((col * 256).astype(int), minlength=256)
            assert counts.max() <= 2
            assert (counts == 2).sum() <= 1

    def test_kolmogorov_distance_bound_over_shifts(self):
        from lqmc.cud_core import PointSet, star_discrepancy_1d

        seq = generate_cud(builtin_config(8))
        n = seq.n
        for stream in range(20):
            m = build_drive_matrix(seq, 1, rng=BaselinePrng(17, stream))
            d = star_discrepancy_1d(PointSet(1, m.rows()[:, 0]))
            assert d <= 2.0 / n + 1e-12


class TestInverseNormalCdf:
    def test_median(self):
        assert inverse_normal_cdf(0.5) == 0.0

    def test_upper_tail_value(self):
        # 1.959963984540054 from a high-precision quantile computation
        assert inverse_normal_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-6)

    def test_lower_tail_value(self):
        # Phi(-3) = 0.0013498980316300945
        assert inverse_normal_cdf(0.00134990) == pytest.approx(-3.0, abs=1e-4)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                inverse_normal_cdf(bad)
        with pytest.raises(DomainError):
            inverse_normal_cdf(np.array([0.5, 1.0]))

    def test_odd_symmetry_is_exact_on_dyadic_grid(self):
        u = np.arange(1, 4096) / 4096.0
        assert np.array_equal(inverse_normal_cdf(1.0 - u), -inverse_normal_cdf(u))

    def test_accuracy_against_library_quantile(self):
        u = np.concatenate([
            np.geomspace(1e-12, 0.5, 4000),
            1.0 - np.geomspace(1e-12, 0.4999, 4000),
        ])
        z = inverse_normal_cdf(u)
        assert np.abs(0.5 * erfc(-z / np.sqrt(2)) - u).max() <= 1e-9
        assert np.abs(z - ndtri(u)).max() <= 1e-8

    def test_accuracy_against_50_digit_quantile_over_clamp_range(self):
        # Both tails down to the clamp bounds 2**-53 and 1 - 2**-53 that
        # gaussian_rows and clamped_normal feed in.
        tail = np.geomspace(2.0**-53, 0.5, 400)
        u = np.unique(np.concatenate([tail, 1.0 - tail]))
        assert u[0] == 2.0**-53 and u[-1] == 1.0 - 2.0**-53
        with mpmath.workdps(50):
            z_ref = np.array([float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(x) - 1))
                              for x in u])
        z = inverse_normal_cdf(u)
        assert np.all(np.abs(z - z_ref) <= 1e-13 * np.maximum(1.0, np.abs(z)))

    @given(st.floats(min_value=1e-12, max_value=1 - 1e-12))
    def test_round_trip_through_phi(self, u):
        z = inverse_normal_cdf(u)
        assert 0.5 * erfc(-z / np.sqrt(2)) == pytest.approx(u, abs=1e-9)

    def test_vector_shape_and_scalar_type(self):
        out = inverse_normal_cdf(np.full((3, 2), 0.5))
        assert out.shape == (3, 2)
        assert isinstance(inverse_normal_cdf(0.25), float)


class TestGaussianRows:
    def test_half_maps_to_zero(self):
        seq = generate_cud(builtin_config(3, offset=1))
        m = build_drive_matrix(seq, 2, shift=np.zeros(2))
        xi = gaussian_rows(m).xi
        # row values 0.5 map to exactly 0
        assert xi[0, 0] == 0.0

    def test_reflected_rows_negate(self):
        u = np.array([[0.25, 0.625], [0.75, 0.375]])
        out = inverse_normal_cdf(u)
        assert np.array_equal(out[0], -out[1])

    def test_clamping_handles_exact_zero(self):
        z = clamped_normal(np.array([0.0, 0.5]))
        assert np.isfinite(z).all()
        assert z[0] == pytest.approx(-8.2, abs=0.1)

    def test_column_means_nearly_cancel(self):
        seq = generate_cud(builtin_config(10))
        m = build_drive_matrix(seq, 2, rng=BaselinePrng(3))
        xi = gaussian_rows(m).xi
        assert np.abs(xi.mean(axis=0)).max() < 4 / np.sqrt(seq.n)

    def test_drive_matrix_is_frozen(self):
        seq = generate_cud(builtin_config(4))
        m = build_drive_matrix(seq, 1, shift=np.zeros(1))
        with pytest.raises(AttributeError):
            m.d = 2


def _old_formula(u):
    """The clip-free reflect-and-negate formula the drive used to apply."""
    return np.where(u > 0.5, -ndtri(1.0 - u), ndtri(u))


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestReflectedKernelBits:
    """min/copysign reflection: the same bits as where(u > .5, -ndtri(1 - u), ndtri(u))."""

    @staticmethod
    def _uniforms():
        grid = np.arange(1, 2**14) / 2.0**14
        edges = np.array([2.0**-53, 1.0 - 2.0**-53, 0.5,
                          np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)])
        prng = np.clip(BaselinePrng(11).uniform(10**5), 2.0**-53, 1.0 - 2.0**-53)
        return np.concatenate([grid, edges, prng])

    def test_inverse_normal_cdf(self):
        u = self._uniforms()
        before = u.copy()
        assert np.array_equal(_bits(inverse_normal_cdf(u)), _bits(_old_formula(u)))
        assert np.array_equal(u, before)  # the argument is not overwritten
        assert _bits(inverse_normal_cdf(0.5)) == _bits(0.0)  # +0.0, not -0.0

    def test_clamped_normal(self):
        u = np.concatenate([[0.0, 0.5], self._uniforms()])
        before = u.copy()
        expect = _old_formula(np.clip(u, 2.0**-53, 1.0 - 2.0**-53))
        assert np.array_equal(_bits(clamped_normal(u)), _bits(expect))
        assert np.array_equal(u, before)
        assert _bits(clamped_normal(np.array([0.5]))[0]) == _bits(0.0)

    @pytest.mark.parametrize("rng", [BaselinePrng(4), None], ids=["shifted", "unshifted"])
    def test_gaussian_rows_on_an_m10_matrix(self, rng):
        seq = generate_cud(builtin_config(10))  # unshifted, 512/1024 = 0.5 is a value
        period = seq.values.copy()
        m = build_drive_matrix(seq, 7, rng=rng)
        expect = _old_formula(np.clip(m.rows(), 2.0**-53, 1.0 - 2.0**-53))
        assert np.array_equal(_bits(gaussian_rows(m).xi), _bits(expect))
        assert np.array_equal(_bits(gaussian_rows(m, 100, 600).xi), _bits(expect[100:600]))
        assert np.array_equal(seq.values, period)  # the shared period is never written
