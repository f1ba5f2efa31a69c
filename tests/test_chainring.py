"""The truncated chain ring (Z/p^N)[x,z]/(h(x), Psi(z))."""

import pytest

from blockext.chainring import ChainRing, chain_ring
from blockext.cyclotomic import zeta


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
    x = R.x_elt
    assert R.mul(x, x) == R.from_int(-1)
    assert R.power(x, 4) == R.one
    # a split case: Phi_8 mod 7 factors, h must divide Phi_8 mod 7^3
    S = chain_ring(7, 3, 0, 8)
    assert S.f == 2 and len(S.h) == 3
    x8 = S.x_elt
    assert S.power(x8, 8) == S.one
    assert S.power(x8, 4) == S.from_int(-1)


def test_valuations():
    R = chain_ring(3, 4, 2, 1)
    assert R.val(R.zero) == R.cap
    assert R.val(R.one) == 0
    assert R.val(R.z_elt) == 1
    assert R.val(R.from_int(3)) == R.e
    assert R.val(R.from_int(9)) == 2 * R.e
    assert R.val(R.mul(R.from_int(3), R.z_elt)) == R.e + 1
    # v(1 - zeta_9) = 1 in pi-units, i.e. 1/e = 1/6 normalized
    y = R.add(R.one, R.z_elt)
    assert R.val(R.sub(R.one, y)) == 1


@pytest.mark.parametrize("mprime", [1, 3])
def test_unramified_over_z2(mprime):
    # p = 2, a = 1: e = 1 and Psi(z) = z + 2, so pi = z = -2
    R = chain_ring(2, 4, 1, mprime)
    assert R.e == 1
    assert R.val(R.pi) == 1
    assert R.zeta_elt(2) == R.from_int(-1)


def test_root_orders():
    R = chain_ring(3, 3, 2, 4)
    y = R.add(R.one, R.z_elt)
    assert R.power(y, 9) == R.one
    assert R.power(y, 3) != R.one
    z9 = R.zeta_elt(9)
    assert R.power(z9, 9) == R.one and R.power(z9, 3) != R.one
    z4 = R.zeta_elt(4)
    assert R.power(z4, 4) == R.one and R.power(z4, 2) != R.one
    z12 = R.zeta_elt(12)
    assert R.power(z12, 12) == R.one
    assert R.power(z12, 4) == R.zeta_elt(3)
    assert R.power(z12, 3) == R.zeta_elt(4)
    with pytest.raises(ValueError):
        R.zeta_elt(27)
    with pytest.raises(ValueError):
        R.zeta_elt(8)


def test_divide_by_pi_and_unit_part():
    R = chain_ring(3, 4, 1, 4)
    p_elt = R.from_int(3)
    u = R.unit_part(p_elt)
    # p = unit * pi^e exactly
    assert R.mul(R.pi_pow(R.e), u) == p_elt
    # round trip through divide_by_pi
    for elt in [R.z_elt, R.mul(R.z_elt, R.x_elt), R.from_int(6)]:
        q = R.divide_by_pi(elt)
        assert R.mul(R.pi, q) == elt
    with pytest.raises(ValueError):
        R.divide_by_pi(R.one)


def test_unit_inverse():
    R = chain_ring(3, 4, 2, 4)
    for elt in [R.one, R.x_elt, R.add(R.one, R.z_elt),
                R.add(R.from_int(2), R.mul(R.z_elt, R.x_elt))]:
        w = R.inv(elt)
        assert R.mul(elt, w) == R.one
    with pytest.raises(ValueError):
        R.inv(R.z_elt)


def test_div_dominated():
    R = chain_ring(3, 3, 1, 1)
    a = R.mul(R.from_int(2), R.z_elt)          # val 1
    b = R.mul(R.from_int(3), R.z_elt)          # val 3
    q = R.div_dominated(b, a)
    assert R.mul(q, a) == b
    assert R.div_dominated(R.zero, a) == R.zero
    with pytest.raises(ValueError):
        R.div_dominated(a, b)


def test_embed_cyclo():
    from fractions import Fraction

    from blockext.cyclotomic import CycloNumber

    R = chain_ring(3, 4, 2, 4)
    i = R.embed_cyclo(zeta(4))
    assert R.mul(i, i) == R.from_int(-1)
    # same value at different conductors embeds identically
    z12 = zeta(12)
    assert R.embed_cyclo(z12 ** 3) == R.embed_cyclo(zeta(4))
    assert R.embed_cyclo(z12 ** 4) == R.embed_cyclo(zeta(3))
    # rational with p'-denominator
    half = R.embed_cyclo(CycloNumber.from_rational(Fraction(1, 2)))
    assert R.mul(R.from_int(2), half) == R.one
    with pytest.raises(ValueError):
        R.embed_cyclo(CycloNumber.from_rational(Fraction(1, 3)))


def test_residue_and_precision_maps():
    R = chain_ring(3, 4, 1, 4)
    k = R.residue_ring()
    assert (k.p, k.N, k.a, k.mprime) == (3, 1, 0, 4)
    assert R.to_residue(R.z_elt) == k.zero
    assert R.to_residue(R.x_elt) == k.x_elt


def test_mult_tensor_matches_mul():
    import numpy as np
    R = chain_ring(3, 2, 1, 4)
    T = R.mult_tensor
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = tuple(int(c) for c in rng.integers(0, R.pN, R.dim))
        v = tuple(int(c) for c in rng.integers(0, R.pN, R.dim))
        w = np.einsum("i,j,kij->k", np.array(u), np.array(v), T) % R.pN
        assert tuple(int(c) for c in w) == R.mul(u, v)
