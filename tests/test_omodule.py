"""Isomorphism classes of finitely generated O-modules."""

from fractions import Fraction

import pytest

from blockext.omodule import (
    OModuleClass,
    kunneth_assemble,
    tensor_tor,
    val_one_minus_zeta,
    verify_cyclotomic_identity,
)

F = Fraction


def test_val_one_minus_zeta():
    assert val_one_minus_zeta(3, 1) == F(1, 2)
    assert val_one_minus_zeta(3, 2) == F(1, 6)
    assert val_one_minus_zeta(2, 1) == F(1)
    assert val_one_minus_zeta(2, 3) == F(1, 4)
    assert val_one_minus_zeta(5, 1) == F(1, 4)
    with pytest.raises(ValueError):
        val_one_minus_zeta(4, 1)


def test_cyclotomic_identity():
    for p, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        assert verify_cyclotomic_identity(p, n)


def test_module_class_basics():
    z = OModuleClass.zero(3)
    assert z.is_zero() and z.pretty() == "0"
    fr = OModuleClass.free(3, 2)
    t = OModuleClass(3, 0, (F(2), F(1, 2)))
    assert t.torsion == (F(2), F(1, 2))  # sorted descending
    s = fr + t
    assert s.free_rank == 2 and s.torsion == (F(2), F(1, 2))
    with pytest.raises(ValueError):
        OModuleClass.free(3, 1) + OModuleClass.free(5, 1)


def test_pretty_forms():
    m = OModuleClass(3, 0, (F(2),))
    assert m.pretty() == "O/p^2"
    m = OModuleClass(3, 0, (F(1),))
    assert m.pretty() == "O/p"
    m = OModuleClass(3, 0, (F(1, 2),))
    assert m.pretty() == "O/(1-zeta_3)"
    m = OModuleClass(3, 0, (F(1, 6),))
    assert m.pretty() == "O/(1-zeta_9)"
    m = OModuleClass(2, 1, (F(1, 4),))
    assert m.pretty() == "O + O/(1-zeta_8)"


def test_tensor_and_tor():
    p = 3
    a = OModuleClass(p, 1, (F(2),))
    b = OModuleClass(p, 0, (F(1), F(1, 2)))
    t = tensor_tor(a, b, "tensor")
    # free x free: 0, plus pairwise mins, plus free x torsion copies
    assert t.free_rank == 0
    assert sorted(t.torsion, reverse=True) == sorted(
        [F(1), F(1, 2), F(1), F(1, 2)], reverse=True)
    tor = tensor_tor(a, b, "tor1")
    assert tor.free_rank == 0 and tor.torsion == (F(1), F(1, 2))
    # Tor kills free modules
    assert tensor_tor(OModuleClass.free(p, 3), b, "tor1").is_zero()


def test_kunneth_assemble():
    p = 3
    O = OModuleClass.free(p, 1)
    zero = OModuleClass.zero(p)
    # H^*(C_3, O) for the trivial character: [O, 0, O/3, 0, O/3]
    left = [O, zero, OModuleClass(p, 0, (F(1),)), zero, OModuleClass(p, 0, (F(1),))]
    # H^*(C_3, O_mu) for mu nontrivial: [0, w, 0, w, 0] with w = O/(1-zeta_3)
    w = OModuleClass(p, 0, (F(1, 2),))
    right = [zero, w, zero, w, zero]
    h2 = kunneth_assemble(left, right, 2)
    # tensor part all vanishes; Tor(O/3, w) survives with the smaller valuation
    assert h2.free_rank == 0 and h2.torsion == (F(1, 2),)
    h1 = kunneth_assemble(left, right, 1)
    assert h1.torsion == (F(1, 2),) and h1.free_rank == 0
    with pytest.raises(ValueError):
        kunneth_assemble(left[:2], right, 2)
