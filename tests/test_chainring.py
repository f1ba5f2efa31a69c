"""The truncated chain ring (Z/p^N)[x,z]/(h(x), Psi(z))."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from blockext.chainring import _smallest_factor_modp, chain_ring
from blockext.cyclotomic import CycloNumber, cyclotomic_coeffs, zeta

from ringref import RefRing

eq = np.array_equal


def x_elt(R):
    """The class of x: for f = 1 the root -h[0] of the linear factor."""
    return R.monomial(1, 0) if R.f > 1 else R.from_int(-R.h[0])


def power(R, u, n):
    out = R.one
    for _ in range(n):
        out = R.mul(out, u)
    return out


def test_parameters_and_psi():
    R = chain_ring(3, 4, 2, 4)  # O = W(F_9)[zeta_9], N = 4
    assert (R.f, R.e, R.cap, R.dim) == (2, 6, 24, 12)
    # Psi = Phi_9(1+z) is Eisenstein with constant term p
    assert R.psi[0] == 3 and R.psi[-1] == 1
    assert all(c % 3 == 0 for c in R.psi[:-1])


def test_h_is_hensel_factor():
    R = chain_ring(3, 5, 0, 4)
    # Phi_4 = x^2 + 1 is irreducible mod 3, so h is Phi_4 itself
    assert R.h == [1, 0, 1]
    x = x_elt(R)
    assert eq(R.mul(x, x), R.from_int(-1))
    assert eq(power(R, x, 4), R.one)
    # a split case: Phi_8 mod 7 factors, h must divide Phi_8 mod 7^3
    S = chain_ring(7, 3, 0, 8)
    assert S.f == 2 and len(S.h) == 3
    x8 = x_elt(S)
    assert eq(power(S, x8, 8), S.one)
    assert eq(power(S, x8, 4), S.from_int(-1))


# the least factor mod p, constant term first, computed once with an
# independent computer-algebra system
LEAST_FACTORS = {
    (2, 3): [1, 1, 1], (3, 4): [1, 0, 1], (2, 7): [1, 0, 1, 1],
    (2, 15): [1, 0, 0, 1, 1], (5, 12): [4, 2, 1], (7, 19): [6, 0, 5, 1],
    (11, 60): [3, 3, 1], (2, 63): [1, 0, 0, 0, 0, 1, 1],
    (3, 80): [2, 0, 0, 1, 1], (2, 127): [1, 0, 0, 0, 0, 0, 1, 1],
    (13, 157): [1, 0, 7, 12, 7, 0, 1]}


@pytest.mark.parametrize("p, mprime", sorted(LEAST_FACTORS))
def test_smallest_factor_table(p, mprime):
    assert _smallest_factor_modp(mprime, p) == LEAST_FACTORS[p, mprime]


def _monic_divisors(p, mprime, f):
    """Every monic degree-f divisor of Phi_{m'} mod p, in lexicographic
    order, by dividing Phi_{m'} by all p^f candidates at once."""
    low = np.array(list(itertools.product(range(p), repeat=f)))
    cands = np.concatenate([low, np.ones((len(low), 1), dtype=int)], axis=1)
    r = np.tile(np.array(cyclotomic_coeffs(mprime)) % p, (len(cands), 1))
    for k in range(r.shape[1] - 1 - f, -1, -1):
        r[:, k:k + f + 1] = (r[:, k:k + f + 1]
                             - r[:, k + f, None] * cands) % p
    return cands[~r.any(axis=1)].tolist()


def test_smallest_factor_is_the_least_divisor():
    # for p^f <= 5000: no monic degree-f divisor sorts below the chosen
    # factor, and Phi_{m'} has phi(m')/f of them
    for p in (2, 3, 5, 7, 11, 13):
        for mprime in range(1, 160):
            if mprime % p == 0:
                continue
            f = 1
            while pow(p, f, mprime) != 1 % mprime:
                f += 1
            if p**f > 5000:
                continue
            divs = _monic_divisors(p, mprime, f)
            assert len(divs) * f == len(cyclotomic_coeffs(mprime)) - 1
            assert _smallest_factor_modp(mprime, p) == divs[0], (p, mprime)


def test_valuations():
    R = chain_ring(3, 4, 2, 1)
    assert R.val(R.zero) == R.cap
    assert R.val(R.one) == 0
    assert R.val(R.z_elt) == 1
    assert R.val(R.from_int(3)) == R.e
    assert R.val(R.from_int(9)) == 2 * R.e
    assert R.val(R.mul(R.from_int(3), R.z_elt)) == R.e + 1
    # v(1 - zeta_9) = 1 in pi-units, i.e. 1/e = 1/6 normalized
    y = R.one + R.z_elt
    assert R.val((R.one - y) % R.pN) == 1
    # the batched form agrees element by element
    A = np.array([R.zero, R.one, R.z_elt, R.from_int(3)])
    assert R.valuations(A).tolist() == [R.cap, 0, 1, R.e]


@pytest.mark.parametrize("mprime", [1, 3])
def test_unramified_over_z2(mprime):
    # p = 2, a = 1: e = 1 and Psi(z) = z + 2, so pi = z = -2
    R = chain_ring(2, 4, 1, mprime)
    assert R.e == 1
    assert R.val(R.pi) == 1
    assert eq(R.zeta_elt(2), R.from_int(-1))


def test_root_orders():
    R = chain_ring(3, 3, 2, 4)
    y = R.one + R.z_elt
    assert eq(power(R, y, 9), R.one)
    assert not eq(power(R, y, 3), R.one)
    z9 = R.zeta_elt(9)
    assert eq(power(R, z9, 9), R.one) and not eq(power(R, z9, 3), R.one)
    z4 = R.zeta_elt(4)
    assert eq(power(R, z4, 4), R.one) and not eq(power(R, z4, 2), R.one)
    z12 = R.zeta_elt(12)
    assert eq(power(R, z12, 12), R.one)
    assert eq(power(R, z12, 4), R.zeta_elt(3))
    assert eq(power(R, z12, 3), R.zeta_elt(4))
    assert eq(R.root_powers(12)[5], power(R, z12, 5))
    with pytest.raises(ValueError):
        R.zeta_elt(27)
    with pytest.raises(ValueError):
        R.zeta_elt(8)


def test_div_pi_power():
    R = chain_ring(3, 4, 1, 4)  # e = 2
    # c_v = p^(v // e) pi^(v % e) has valuation v, and A = c_v * (A / c_v)
    unit = R.one + x_elt(R)
    for v in range(R.cap):
        c = R.mul(power(R, R.from_int(3), v // R.e), power(R, R.pi, v % R.e))
        assert R.val(c) == v
        A = np.array([R.mul(c, unit), R.mul(c, R.z_elt), R.zero])
        Q = R.div_pi_power(A, v)
        assert eq(R.mul_arrays(Q, c), A)
        assert R.val(Q[0]) == 0
    # one division by pi: the old divide_by_pi cases
    for elt in [R.z_elt, R.mul(R.z_elt, x_elt(R)), R.from_int(6)]:
        assert eq(R.mul(R.pi, R.div_pi_power(elt, 1)), elt)


def test_unit_inverse():
    R = chain_ring(3, 4, 2, 4)
    for elt in [R.one, x_elt(R), R.one + R.z_elt,
                (R.from_int(2) + R.mul(R.z_elt, x_elt(R))) % R.pN]:
        w = R.inv(elt)
        assert eq(R.mul(elt, w), R.one)
    with pytest.raises(ValueError):
        R.inv(R.z_elt)


def test_memoized_elements_are_read_only():
    R = chain_ring(3, 4, 2, 4)
    u = R.one + x_elt(R)
    w = R.inv(u)
    z = R.zeta_elt(9)
    for memo in (w, z, R.one, R.zero, R.mult_tensor):
        with pytest.raises(ValueError, match="read-only"):
            memo[0] = 7
    assert R.inv(u) is w and eq(R.mul(u, R.inv(u)), R.one)
    assert R.zeta_elt(9) is z and eq(power(R, z, 9), R.one)


def test_div_dominated():
    R = chain_ring(3, 3, 1, 1)
    a = R.mul(R.from_int(2), R.z_elt)          # val 1
    b = R.mul(R.from_int(3), R.z_elt)          # val 3
    q = R.div_dominated(b, a)
    assert eq(R.mul(q, a), b)
    assert eq(R.div_dominated(R.zero, a), R.zero)
    with pytest.raises(ValueError):
        R.div_dominated(a, b)


def test_embed_cyclo():
    R = chain_ring(3, 4, 2, 4)
    i = R.embed_cyclo(zeta(4))
    assert eq(R.mul(i, i), R.from_int(-1))
    # same value at different conductors embeds identically
    assert eq(R.embed_cyclo(zeta(12, 3)), R.embed_cyclo(zeta(4)))
    assert eq(R.embed_cyclo(zeta(12, 4)), R.embed_cyclo(zeta(3)))
    # rational with p'-denominator
    half = R.embed_cyclo(CycloNumber.from_rational(Fraction(1, 2)))
    assert eq(R.mul(R.from_int(2), half), R.one)
    with pytest.raises(ValueError):
        R.embed_cyclo(CycloNumber.from_rational(Fraction(1, 3)))


def test_residue_and_precision_maps():
    R = chain_ring(3, 4, 1, 4)
    k = R.residue_ring()
    assert (k.p, k.N, k.a, k.mprime) == (3, 1, 0, 4)
    # reduction mod pi keeps the z^0 coefficients mod p
    assert eq(R.z_elt[::R.e] % R.p, k.zero)
    assert eq(x_elt(R)[::R.e] % R.p, x_elt(k))


# (p, N, a, m'): f > 1 and e > 1 together, e = 1 at p = 2, a = 0, and two
# rings past the int64 bound that keep Python integers
REF_SHAPES = [(3, 2, 1, 4), (3, 4, 2, 4), (7, 3, 0, 8), (2, 4, 1, 3),
              (2, 6, 2, 3), (5, 3, 1, 4), (3, 25, 1, 4), (2, 40, 2, 3)]


def test_mult_tensor_matches_mul():
    rng = np.random.default_rng(0)
    for shape in REF_SHAPES:
        R = chain_ring(*shape)
        ref = RefRing(R)
        T = R.mult_tensor
        assert T.dtype == R.dtype
        for _ in range(5):
            u = tuple(int(c) % R.pN for c in rng.integers(0, 1 << 62, R.dim))
            v = tuple(int(c) % R.pN for c in rng.integers(0, 1 << 62, R.dim))
            U, V = np.array(u, dtype=R.dtype), np.array(v, dtype=R.dtype)
            w = np.einsum("i,j,kij->k", U, V, T) % R.pN
            assert w.tolist() == list(ref.mul(u, v))
            assert R.mul(U, V).tolist() == list(ref.mul(u, v))
            assert R.val(U) == ref.val(u)
            if ref.val(u) == 0:
                assert R.inv(U).tolist() == list(ref.inv(u))
