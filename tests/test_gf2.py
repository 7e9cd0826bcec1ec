"""GF(2) polynomial arithmetic and the primitivity test.

The independent oracles live in this file: an LFSR stepped straight from
the recursion definition on plain lists, and brute-force order computation
by repeated naive polynomial multiplication.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lqmc.cud_core import Gf2Poly, builtin_poly, factorize, is_primitive
from lqmc.errors import ConfigurationError, SizeError


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


def naive_order_of_x(poly: Gf2Poly):
    """Multiplicative order of x modulo poly by brute-force powers."""
    f = list(poly.coeffs) + [1]
    acc = [0, 1] + [0] * max(0, poly.degree - 2)  # the polynomial x
    x = list(acc)
    for k in range(1, 2**poly.degree + 1):
        if acc[0] == 1 and not any(acc[1:]):
            return k
        acc = naive_polymul_mod(acc, x, f)
    return None


class TestGf2Poly:
    def test_mask_round_trip(self):
        p = Gf2Poly(3, (1, 1, 0))
        assert p.mask == 0b1011
        assert Gf2Poly.from_mask(0b1011) == p
        assert str(p) == "x^3 + x + 1"

    def test_rejects_even_constant_term(self):
        with pytest.raises(ConfigurationError):
            Gf2Poly(3, (0, 1, 1))

    def test_rejects_degree_below_two(self):
        with pytest.raises(ConfigurationError):
            Gf2Poly(1, (1,))

    def test_rejects_wrong_coefficient_count(self):
        with pytest.raises(ConfigurationError):
            Gf2Poly(3, (1, 1))

    @given(st.integers(min_value=2, max_value=12), st.data())
    def test_from_mask_inverts_mask(self, degree, data):
        coeffs = tuple([1] + [data.draw(st.integers(0, 1)) for _ in range(degree - 1)])
        p = Gf2Poly(degree, coeffs)
        assert Gf2Poly.from_mask(p.mask) == p


class TestIsPrimitive:
    def test_standard_trinomial(self):
        # brute force: the recursion with these taps has period exactly 7
        assert naive_lfsr_period([1, 1, 0], [1, 0, 0]) == 7
        assert is_primitive(Gf2Poly(3, (1, 1, 0)))

    def test_square_of_x_plus_one(self):
        assert not is_primitive(Gf2Poly(2, (1, 0)))  # (x+1)^2

    def test_irreducible_but_short_order(self):
        # x^4+x^3+x^2+x+1 divides x^5 - 1: order of x is 5, not 15
        p = Gf2Poly(4, (1, 1, 1, 1))
        assert naive_order_of_x(p) == 5
        assert not is_primitive(p)

    def test_degree_out_of_range(self):
        with pytest.raises(SizeError):
            is_primitive(Gf2Poly(33, (1,) + (0,) * 32))

    def test_matches_brute_force_period(self):
        # every polynomial with a_0 = 1 of degree 2..10: 1,022 of them
        for mask in range(5, 1 << 11, 2):
            poly = Gf2Poly.from_mask(mask)
            m = poly.degree
            full = naive_lfsr_period(list(poly.coeffs), [1] + [0] * (m - 1)) == 2**m - 1
            assert is_primitive(poly) == full, poly


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
