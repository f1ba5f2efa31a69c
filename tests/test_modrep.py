"""Module representations: Cayley relations, induction, duals, splitting."""

import numpy as np
import pytest

from blockext import (BlockContext, ModuleRep, build_irr_B, build_module_rep,
                      chain_ring)
from blockext.chars import char_table
from blockext.errors import BlockExtError
from blockext.groups import build_group
from blockext.modrep import _vchi_matrices
from charref import induce


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
    # the trace of the E-matrices is chi induced from E_lambda to E
    E = example_a.G.E
    for c in build_irr_B(example_a):
        rep = build_module_rep(example_a, c, ring_a)
        traces = rep.mats[:, range(rep.rank), range(rep.rank)].sum(axis=1)
        ind = induce(E, c.stab_embed, c.chi)
        for e in range(E.n):
            assert np.array_equal(traces[e] % ring_a.pN,
                                  ring_a.embed_cyclo(ind(e)))


def test_modules_are_built_once_per_ring(example_a, ring_a):
    irr = build_irr_B(example_a)
    rep = build_module_rep(example_a, irr[2], ring_a)
    assert build_module_rep(example_a, irr[2], ring_a) is rep
    other = build_module_rep(example_a, irr[2], chain_ring(3, 6, 1, 4))
    assert other is not rep and other.rank == rep.rank
    with pytest.raises(ValueError, match="read-only"):
        rep.mats[0] = rep.mats[1]  # a cached module cannot be edited


def test_cayley_violation_detected(example_a, ring_a):
    irr = build_irr_B(example_a)
    rep = build_module_rep(example_a, irr[0], ring_a)
    mats = rep.mats.copy()
    mats[1] = ring_a.from_int(2)
    bad = ModuleRep(ring_a, rep.F, rep.embed, rep.dchars, mats)
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
    assert mats.shape == (8, 2, 2, R.dim)
    table = np.array(Q8.table)
    assert np.array_equal(R.matmul(mats[:, None], mats[None, :]),
                          mats[table])
    # traces recover the character exactly
    for g in range(8):
        tr = (mats[g, 0, 0] + mats[g, 1, 1]) % R.pN
        assert np.array_equal(tr, R.embed_cyclo(chi.values[Q8.class_of[g]]))
