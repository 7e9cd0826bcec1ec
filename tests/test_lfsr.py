"""LFSR bitstreams and full-period driving sequences."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_gf2 import coeffs_of, naive_lfsr_period

from lqmc.cud_core import (MAX_M, LfsrConfig, builtin_config, builtin_poly,
                           generate_cud, is_primitive, lfsr_bitstream, lfsr_period)
from lqmc.errors import ConfigurationError, SizeError

X3_X_1 = 0b1011  # x^3 + x + 1


def start(m):
    """The register's fixed start (1, 0, ..., 0)."""
    return [1] + [0] * (m - 1)


def oracle_bits(coeffs, seed, count):
    """The recursion evaluated directly on Python lists."""
    bits = list(seed)
    m = len(coeffs)
    while len(bits) < count:
        bits.append(sum(a * b for a, b in zip(coeffs, bits[-m:])) % 2)
    return bits[:count]


class TestBitstream:
    def test_matches_hand_recursion(self):
        cfg = LfsrConfig(X3_X_1, offset=1)
        got = lfsr_bitstream(cfg, 20)
        assert got.tolist() == oracle_bits([1, 1, 0], [1, 0, 0], 20)
        assert lfsr_period(cfg) == 7

    def test_all_ones_seed_never_hits_zero_state(self):
        # another start only rotates the period: the stream seeded at all
        # ones is the fixed start's stream read from its all-ones window
        bits = lfsr_bitstream(LfsrConfig(X3_X_1, offset=1), 7 + 64).tolist()
        k = next(i for i in range(7) if bits[i : i + 3] == [1, 1, 1])
        assert bits[k : k + 64] == oracle_bits([1, 1, 0], [1, 1, 1], 64)
        windows = [tuple(bits[i : i + 3]) for i in range(7 + 61)]
        assert (0, 0, 0) not in windows

    def test_m4_windows_enumerate_nonzero_patterns(self):
        cfg = LfsrConfig(0x13, offset=1)
        bits = lfsr_bitstream(cfg, 15 + 3)
        windows = {tuple(bits[i : i + 4]) for i in range(15)}
        assert len(windows) == 15
        assert all(any(w) for w in windows)

    def test_determinism(self):
        cfg = builtin_config(8)
        assert np.array_equal(lfsr_bitstream(cfg, 500), lfsr_bitstream(cfg, 500))

    def test_zero_count(self):
        assert len(lfsr_bitstream(builtin_config(5), 0)) == 0


@st.composite
def _register(draw, primitive=None):
    """The mask of a register of order m <= 10; table (primitive) or random taps."""
    m = draw(st.integers(2, 10))
    if m >= 3 and (draw(st.booleans()) if primitive is None else primitive):
        return builtin_poly(m)
    return (1 << m) | (draw(st.integers(0, (1 << (m - 1)) - 1)) << 1) | 1


class TestLaneStepper:
    """The lane-parallel stepper against the recursion on plain lists."""

    @settings(max_examples=80, deadline=None)
    @given(_register(), st.data())
    def test_bitstream_matches_oracle(self, mask, data):
        m = mask.bit_length() - 1
        count = data.draw(st.integers(0, 3 * 2**m + 2 * m))  # beyond the period
        cfg = LfsrConfig(mask, offset=1)
        assert lfsr_bitstream(cfg, count).tolist() == oracle_bits(coeffs_of(mask), start(m),
                                                                  count)

    @settings(max_examples=60, deadline=None)
    @given(_register(primitive=False).filter(lambda mask: not is_primitive(mask)))
    def test_period_of_non_primitive_matches_naive(self, mask):
        cfg = LfsrConfig(mask, offset=1)
        assert lfsr_period(cfg) == naive_lfsr_period(coeffs_of(mask), start(cfg.m))

    @pytest.mark.parametrize("m", [*range(3, 13), 18])
    def test_cud_matches_window_formula(self, m):
        n = 2**m - 1
        cfg = builtin_config(m)
        bits = np.array(oracle_bits(coeffs_of(cfg.poly_mask), start(m), n + m - 1))
        # m = 18 spans several decimation blocks; 7 divides 2^18 - 1, so 5 stands in
        offsets = range(1, 20) if m <= 12 else (1, 2, 5, n - 1, n + 2)
        for s in (s for s in offsets if math.gcd(s, n) == 1):
            starts = np.arange(n) * s % n
            expected = np.zeros(n)
            for j in range(m):
                expected += bits[starts + j] * 2.0 ** -(j + 1)
            assert np.array_equal(generate_cud(builtin_config(m, s)).values, expected), s

    def test_cud_peak_memory_below_two_and_a_half_outputs(self):
        # the states and the values, plus one block of index and gather
        tracemalloc.start()
        try:
            values = generate_cud(builtin_config(20, 7)).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * values.nbytes

    def test_cud_peak_memory_is_the_period_for_every_order(self):
        # Short periods too: the lane jumps use (k,) temporaries, so beyond
        # the states and the values only a few lane-long arrays remain
        allowance = 5 * 4096 * 8
        for m in range(3, 21):
            tracemalloc.start()
            try:
                values = generate_cud(builtin_config(m)).values
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.1 * values.nbytes + allowance, m

    def test_sizes_above_the_budget_refused(self):
        big = builtin_config(MAX_M + 1)
        with pytest.raises(SizeError):
            generate_cud(big)
        with pytest.raises(SizeError):
            lfsr_period(big)
        with pytest.raises(SizeError):
            lfsr_bitstream(builtin_config(5), (1 << MAX_M) + 1)


class TestConfigValidation:
    def test_offset_must_be_coprime(self):
        with pytest.raises(ConfigurationError):
            LfsrConfig(builtin_config(4).poly_mask, offset=3)  # gcd(3, 15) = 3

    def test_offset_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LfsrConfig(X3_X_1, offset=0)

    def test_default_seed_and_offset(self):
        cfg = builtin_config(6)
        assert lfsr_bitstream(cfg, 6).tolist() == [1, 0, 0, 0, 0, 0]
        assert cfg.offset == 2
        assert math.gcd(cfg.offset, cfg.period) == 1


class TestGenerateCud:
    def test_m3_values_from_bit_windows(self):
        cfg = LfsrConfig(X3_X_1, offset=1)
        bits = oracle_bits([1, 1, 0], [1, 0, 0], 16)
        expected = [
            sum(bits[i + j] * 2.0 ** -(j + 1) for j in range(3)) for i in range(7)
        ]
        seq = generate_cud(cfg)
        assert seq.values.tolist() == expected
        assert len(set(seq.values)) == 7
        assert set(seq.values) <= {k / 8 for k in range(1, 8)}

    def test_offset_respects_decimation(self):
        cfg = LfsrConfig(X3_X_1, offset=2)
        bits = oracle_bits([1, 1, 0], [1, 0, 0], 32)
        expected = [
            sum(bits[2 * i + j] * 2.0 ** -(j + 1) for j in range(3)) for i in range(7)
        ]
        assert generate_cud(cfg).values.tolist() == expected

    @pytest.mark.parametrize("m", range(3, 13))
    def test_sorted_values_are_the_dyadic_grid(self, m):
        seq = generate_cud(builtin_config(m))
        n = 2**m - 1
        assert seq.n == n
        assert np.array_equal(np.sort(seq.values), np.arange(1, n + 1) / 2**m)

    def test_non_primitive_poly_rejected(self):
        with pytest.raises(ConfigurationError, match="polynomial 0x1f is not primitive"):
            generate_cud(LfsrConfig(0x1F, offset=1))

    def test_pure_function_of_config(self):
        a = generate_cud(builtin_config(9))
        b = generate_cud(builtin_config(9))
        assert np.array_equal(a.values, b.values)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=3, max_value=10), st.data())
    def test_decimated_stream_period(self, m, data):
        n = 2**m - 1
        s = data.draw(
            st.integers(min_value=1, max_value=n).filter(lambda v: math.gcd(v, n) == 1)
        )
        cfg = builtin_config(m, offset=s)
        bits = lfsr_bitstream(cfg, s * 2 * n + 1)
        decimated = bits[::s]
        assert np.array_equal(decimated[:n], decimated[n : 2 * n])
        # period is exactly n: no proper divisor p shifts the block onto itself
        for p in range(1, n):
            if n % p == 0:
                assert not np.array_equal(decimated[:n], decimated[p : n + p])
