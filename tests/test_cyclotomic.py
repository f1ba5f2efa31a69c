"""Exact cyclotomic arithmetic."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from blockext.cyclotomic import CycloNumber, cyclotomic_coeffs, isprime, zeta


def test_cyclotomic_coeffs_small():
    # constant term first
    assert cyclotomic_coeffs(1) == (-1, 1)
    assert cyclotomic_coeffs(2) == (1, 1)
    assert cyclotomic_coeffs(3) == (1, 1, 1)
    assert cyclotomic_coeffs(4) == (1, 0, 1)
    assert cyclotomic_coeffs(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_coeffs(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_coeffs(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)
    assert cyclotomic_coeffs(30) == (1, 1, 0, -1, -1, -1, 0, 1, 1)
    # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
    assert cyclotomic_coeffs(105) == (
        1, 1, 1, 0, 0, -1, -1, -2, -1, -1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, -1,
        0, -1, 0, -1, 0, -1, 0, -1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, -1, -1, -2,
        -1, -1, 0, 0, 1, 1, 1)


def test_cyclotomic_product_is_x_m_minus_1():
    # prod_{d | m} Phi_d = x^m - 1, and Phi_m is monic of degree phi(m)
    for m in range(1, 400):
        acc = np.array([1], dtype=object)
        for d in range(1, m + 1):
            if m % d == 0:
                acc = np.convolve(acc, np.array(cyclotomic_coeffs(d),
                                                dtype=object))
        assert acc.tolist() == [-1] + [0] * (m - 1) + [1], m
        totient = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
        assert len(cyclotomic_coeffs(m)) == totient + 1
        assert cyclotomic_coeffs(m)[-1] == 1


def test_isprime_matches_a_sieve():
    n = 50_000
    sieve = [False, False] + [True] * (n - 2)
    for q in range(2, n):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, n, q))
    assert [isprime(k) for k in range(n)] == sieve
    assert not any(isprime(k) for k in range(-5, 0))


def test_zeta_orders():
    for m in (2, 3, 4, 5, 8, 9, 12):
        z = zeta(m)
        assert z ** m == CycloNumber.from_rational(1)
        for d in range(1, m):
            if m % d == 0 and d < m:
                assert z ** d != CycloNumber.from_rational(1)


def test_arithmetic_identities():
    z3 = zeta(3)
    # 1 + z + z^2 = 0
    s = CycloNumber.from_rational(1) + z3 + z3 * z3
    assert s.is_zero()
    z4 = zeta(4)
    assert (z4 * z4) == CycloNumber.from_rational(-1)
    # mixed conductors land in Q(zeta_12)
    w = z3 * z4
    assert w ** 12 == CycloNumber.from_rational(1)
    assert w ** 6 != CycloNumber.from_rational(1)


def test_minimal_descends():
    z8 = zeta(8)
    v = z8 * z8  # = zeta_4 but represented at conductor 8
    assert v.minimal().m == 4
    assert v == zeta(4)
    r = z8 ** 8
    assert r.is_rational() and r.as_fraction() == 1


def test_galois_and_conj():
    z5 = zeta(5)
    tot = sum((z5 ** k for k in range(1, 5)), CycloNumber.from_rational(0))
    assert tot == CycloNumber.from_rational(-1)
    c = z5.conj()
    assert c == z5 ** 4
    assert (z5 * c) == CycloNumber.from_rational(1)


def test_from_root_powers_and_rational():
    # 2*zeta_3 + 1/2
    v = CycloNumber.from_root_powers(3, {1: Fraction(2), 0: Fraction(1, 2)})
    assert v == zeta(3) + zeta(3) + CycloNumber.from_rational(Fraction(1, 2))
    assert not v.is_rational()
    assert CycloNumber.from_rational(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
    with pytest.raises(ValueError):
        zeta(3).as_int()


def test_sort_key_stable():
    vals = [zeta(3), zeta(3) ** 2, CycloNumber.from_rational(2)]
    keys = [v.sort_key() for v in vals]
    assert len(set(keys)) == 3
    assert sorted(keys) == sorted(keys)  # total order, no exceptions
