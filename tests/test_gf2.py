"""GF(2) polynomial arithmetic and the primitivity test.

The independent oracles live in this file: an LFSR stepped straight from
the recursion definition on plain lists, and brute-force order computation
by repeated naive polynomial multiplication.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lqmc.cud_core import LfsrConfig, builtin_poly, factorize, is_primitive
from lqmc.errors import ConfigurationError, SizeError


def coeffs_of(mask):
    """[a_0, ..., a_{m-1}] of the polynomial with coefficient mask ``mask``
    (bit j is a_j, the top bit the leading 1)."""
    return [(mask >> j) & 1 for j in range(mask.bit_length() - 1)]


def naive_lfsr_period(coeffs, seed):
    """Step the recursion on plain lists until the seed window recurs."""
    m = len(coeffs)
    window = list(seed)
    start = tuple(window)
    for step in range(1, 2**m + 2):
        new = sum(a * b for a, b in zip(coeffs, window)) % 2
        window = window[1:] + [new]
        if tuple(window) == start:
            return step
    raise AssertionError("no period found")


def naive_polymul_mod(a, b, f):
    """Multiply coefficient lists mod the monic polynomial list f."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] ^= ai & bj
    deg_f = len(f) - 1
    while len(prod) - 1 >= deg_f:
        if prod[-1]:
            shift = len(prod) - 1 - deg_f
            for k, fk in enumerate(f):
                prod[shift + k] ^= fk
        prod.pop()
    return prod


def naive_order_of_x(mask):
    """Multiplicative order of x modulo the polynomial ``mask`` by brute-force powers."""
    f = coeffs_of(mask) + [1]
    m = len(f) - 1
    acc = [0, 1] + [0] * max(0, m - 2)  # the polynomial x
    x = list(acc)
    for k in range(1, 2**m + 1):
        if acc[0] == 1 and not any(acc[1:]):
            return k
        acc = naive_polymul_mod(acc, x, f)
    return None


class TestGf2Poly:
    """Polynomial masks that no generator can have, refused by LfsrConfig."""

    def test_rejects_even_constant_term(self):
        with pytest.raises(ConfigurationError, match="a_0"):
            LfsrConfig(0b1110)  # x^3 + x^2 + x: x divides it

    def test_rejects_degree_below_two(self):
        with pytest.raises(ConfigurationError, match="degree"):
            LfsrConfig(0b11, offset=1)  # x + 1


class TestIsPrimitive:
    def test_standard_trinomial(self):
        # brute force: the recursion with these taps has period exactly 7
        assert naive_lfsr_period([1, 1, 0], [1, 0, 0]) == 7
        assert is_primitive(0b1011)  # x^3 + x + 1

    def test_square_of_x_plus_one(self):
        assert not is_primitive(0b101)  # (x+1)^2

    def test_irreducible_but_short_order(self):
        # x^4+x^3+x^2+x+1 divides x^5 - 1: order of x is 5, not 15
        assert naive_order_of_x(0x1F) == 5
        assert not is_primitive(0x1F)

    def test_degree_out_of_range(self):
        with pytest.raises(SizeError):
            is_primitive((1 << 33) | 1)

    def test_matches_brute_force_period(self):
        # every polynomial with a_0 = 1 of degree 2..10: 1,022 of them
        for mask in range(5, 1 << 11, 2):
            m = mask.bit_length() - 1
            full = naive_lfsr_period(coeffs_of(mask), [1] + [0] * (m - 1)) == 2**m - 1
            assert is_primitive(mask) == full, hex(mask)


class TestBuiltinTable:
    def test_every_entry_is_primitive(self):
        for m in range(3, 33):
            assert is_primitive(builtin_poly(m)), m

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            builtin_poly(2)
        with pytest.raises(ConfigurationError):
            builtin_poly(33)


class TestFactorize:
    def test_known_factorizations(self):
        assert factorize(2**16 - 1) == [3, 5, 17, 257]
        assert factorize(2**13 - 1) == [8191]
        assert factorize(12) == [2, 3]
        assert factorize(1) == []
        assert factorize(65537 * 65539) == [65537, 65539]  # both factors above 2^16

    @given(st.integers(min_value=2, max_value=10**6))
    def test_factors_are_prime_divisors(self, n):
        fac = factorize(n)
        rem = n
        for p in fac:
            assert n % p == 0
            assert all(p % q for q in range(2, int(p**0.5) + 1))
            while rem % p == 0:
                rem //= p
        assert rem == 1
