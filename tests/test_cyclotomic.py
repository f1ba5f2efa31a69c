"""Exact cyclotomic arithmetic."""

import random
from fractions import Fraction
from math import gcd, lcm

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
        assert zeta(m, m) == CycloNumber.from_rational(1)
        for d in range(1, m):
            if m % d == 0 and d < m:
                assert zeta(m, d) != CycloNumber.from_rational(1)


def test_arithmetic_identities():
    z3 = zeta(3)
    # 1 + z + z^2 = 0
    s = CycloNumber.from_rational(1) + z3 + z3 * z3
    assert s.is_zero()
    z4 = zeta(4)
    assert (z4 * z4) == CycloNumber.from_rational(-1)
    # mixed conductors land in Q(zeta_12)
    w = z3 * z4
    assert w.m == 12 and w == zeta(12, 7)
    # the primitive fifth roots of unity sum to -1
    tot = sum((zeta(5, k) for k in range(1, 5)), CycloNumber.from_rational(0))
    assert tot == CycloNumber.from_rational(-1)
    assert zeta(5) * zeta(5, 4) == CycloNumber.from_rational(1)


def test_minimal_descends():
    z8 = zeta(8)
    v = z8 * z8  # = zeta_4 but represented at conductor 8
    assert v.minimal().m == 4
    assert v == zeta(4)
    r = zeta(8, 8)
    assert r.is_rational() and r.as_fraction() == 1
    # zeta_12^4 + zeta_12^8 = -1 is rational; zeta_12^3 - zeta_12^9 = 2i
    assert (zeta(12, 4) + zeta(12, 8)).minimal().coeffs == (-1,)
    two_i = (zeta(12, 3) - zeta(12, 9)).minimal()
    assert (two_i.m, two_i.coeffs) == (4, (0, 2))


# -- the least conductor, against the divisor search it replaced ---------

def _solve_rational(basis, targets):
    """Solve sum c_i basis[i] = t over Q for every t in targets at once:
    one solution per target, or None where the system is inconsistent.
    Gauss-Jordan on integers: the targets are scaled by a common
    denominator, rows are combined by cross-multiplication and divided by
    their content, and each solution is read off as a quotient at the end."""
    rows, cols, k = len(basis), len(targets[0]), len(targets)
    den = lcm(*(Fraction(c).denominator for t in targets for c in t))
    aug = [[basis[r][c] for r in range(rows)]
           + [int(t[c] * den) for t in targets] for c in range(cols)]
    pivots, row = [], 0
    for col in range(rows):
        pr = next((r for r in range(row, cols) if aug[r][col] != 0), None)
        if pr is None:
            continue
        aug[row], aug[pr] = aug[pr], aug[row]
        pv = aug[row][col]
        for r in range(cols):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                new = [pv * x - f * y for x, y in zip(aug[r], aug[row])]
                g = gcd(*new)
                aug[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
        row += 1
    out = []
    for j in range(rows, rows + k):
        if any(aug[r][j] != 0 for r in range(row, cols)):
            out.append(None)
            continue
        sol = [Fraction(0)] * rows
        for r, col in enumerate(pivots):
            sol[col] = Fraction(aug[r][j], aug[r][col] * den)
        out.append(sol)
    return out


def _root_coords(m, k):
    """zeta_m^k on the power basis of Q(zeta_m): x^k mod Phi_m."""
    c = cyclotomic_coeffs(m)
    deg = len(c) - 1
    v = [0] * max(k + 1, deg)
    v[k] = 1
    for top in range(len(v) - 1, deg - 1, -1):
        if v[top]:
            t = v[top]
            for i, y in enumerate(c):
                v[top - deg + i] -= t * y
    return v[:deg]


def minimal_by_divisors(values):
    """For values of one conductor m, each rewritten over the least d | m
    whose Q(zeta_d) holds it, by a linear solve per divisor d."""
    m = values[0].m
    out = list(values)
    todo = list(range(len(values)))
    for d in range(1, m):
        if m % d or not todo:
            continue
        basis = [_root_coords(m, i * (m // d))
                 for i in range(len(cyclotomic_coeffs(d)) - 1)]
        sols = _solve_rational(basis, [values[j].coeffs for j in todo])
        for j, sol in zip(list(todo), sols):
            if sol is not None:
                out[j] = CycloNumber(d, sol)
                todo.remove(j)
    return out


def test_minimal_matches_the_divisor_search():
    rng = random.Random(7)
    for m in range(1, 121):
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        values = []
        for _ in range(6):
            d = rng.choice(divisors)
            dim = len(cyclotomic_coeffs(d)) - 1
            coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                      if rng.random() < 0.6 else 0 for _ in range(dim)]
            values.append(CycloNumber(d, coeffs).embed(m))
        for v, want in zip(values, minimal_by_divisors(values)):
            got = v.minimal()
            assert (got.m, got.coeffs) == (want.m, want.coeffs), m


def test_from_root_powers_and_rational():
    # 2*zeta_3 + 1/2
    v = CycloNumber.from_root_powers(3, {1: Fraction(2), 0: Fraction(1, 2)})
    assert v == zeta(3) + zeta(3) + CycloNumber.from_rational(Fraction(1, 2))
    assert not v.is_rational()
    assert CycloNumber.from_rational(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
    with pytest.raises(ValueError):
        zeta(3).as_int()


def test_sort_key_stable():
    vals = [zeta(3), zeta(3, 2), CycloNumber.from_rational(2)]
    keys = [v.sort_key() for v in vals]
    assert len(set(keys)) == 3
    assert sorted(keys) == sorted(keys)  # total order, no exceptions
