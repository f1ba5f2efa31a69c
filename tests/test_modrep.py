"""Module representations: Cayley relations, induction, duals, splitting."""

import pytest

from blockext import (BlockContext, ModuleRep, build_irr_B, build_module_rep,
                      chain_ring)
from blockext.chars import char_table
from blockext.errors import BlockExtError
from blockext.groups import build_group
from blockext.modrep import _vchi_matrices


@pytest.fixture(scope="module")
def ring_a():
    return chain_ring(3, 4, 1, 4)


def test_linear_module_is_rank_one(example_a, ring_a):
    irr = build_irr_B(example_a)
    rep = build_module_rep(example_a, irr[0], ring_a)
    assert rep.rank == 1
    assert rep.dchars[0].vec == irr[0].lam.vec
    rep.verify(example_a.G)


def test_induced_module_rank_and_dchars(example_a, ring_a):
    irr = build_irr_B(example_a)
    big = next(c for c in irr if c.degree == 2)
    rep = build_module_rep(example_a, big, ring_a)
    assert rep.rank == 2
    # D restricts diagonally along the orbit of lambda
    vecs = sorted(ch.vec for ch in rep.dchars)
    orbit = sorted(o["orbit"] for o in example_a.G.char_orbits()
                   if big.lam.vec in o["orbit"])[0]
    assert vecs == sorted(orbit)


def test_module_trace_is_induced_character(example_a, ring_a):
    # trace of the E-matrices embeds the chi-side of the character
    irr = build_irr_B(example_a)
    big = next(c for c in irr if c.degree == 2)
    rep = build_module_rep(example_a, big, ring_a)
    R = ring_a
    E = example_a.G.E
    for e in range(E.n):
        tr = R.zero
        for i in range(rep.rank):
            tr = R.add(tr, rep.emats[e][i][i])
        assert isinstance(tr, tuple)


def test_tensor_rank_multiplies(example_a, ring_a):
    irr = build_irr_B(example_a)
    rep = build_module_rep(example_a, irr[2], ring_a)
    t = rep.tensor(rep)
    assert t.rank == 4
    t.verify(example_a.G)


def test_modules_are_built_once_per_ring(example_a, ring_a):
    irr = build_irr_B(example_a)
    rep = build_module_rep(example_a, irr[2], ring_a)
    assert build_module_rep(example_a, irr[2], ring_a) is rep
    other = build_module_rep(example_a, irr[2], chain_ring(3, 6, 1, 4))
    assert other is not rep and other.rank == rep.rank
    with pytest.raises(TypeError):  # a cached module cannot be edited
        rep.emats[0] = rep.emats[1]


def test_cayley_violation_detected(example_a, ring_a):
    irr = build_irr_B(example_a)
    rep = build_module_rep(example_a, irr[0], ring_a)
    emats = list(rep.emats)
    emats[1] = ((ring_a.from_int(2),),)
    bad = ModuleRep(ring_a, rep.F, rep.embed, rep.dchars, emats, "corrupted")
    with pytest.raises(BlockExtError, match="Cayley"):
        bad.verify(example_a.G)


def test_degree_two_idempotent_split():
    # Q_8: the 2-dimensional character splits out of the regular module
    perm_i = (2, 3, 1, 0, 6, 7, 5, 4)
    perm_j = (4, 5, 7, 6, 1, 0, 2, 3)
    Q8 = build_group([perm_i, perm_j])
    chi = next(c for c in char_table(Q8) if c.degree() == 2)
    R = chain_ring(3, 4, 1, 8)
    mats = _vchi_matrices(R, Q8, chi)
    assert len(mats) == 8
    for a in range(8):
        for b in range(8):
            prod = tuple(
                tuple(_dotrow(R, mats[a], mats[b], i, j) for j in range(2))
                for i in range(2))
            assert prod == mats[Q8.table[a][b]]
    # traces recover the character exactly
    for g in range(8):
        tr = R.add(mats[g][0][0], mats[g][1][1])
        assert tr == R.embed_cyclo(chi.values[Q8.class_of[g]])


def _dotrow(R, A, B, i, j):
    acc = R.zero
    for k in range(2):
        acc = R.add(acc, R.mul(A[i][k], B[k][j]))
    return acc
