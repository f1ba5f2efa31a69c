"""Linear-source module representations over a chain ring.

Every module handled here restricts to D as a direct sum of rank-1
characters, so a ModuleRep keeps the D-action as a list of LinearChars
(one per basis vector) and the F-action as one read-only element array
of shape (F.n, rank, rank, dim), one matrix per element of F.  V_chi for
linear chi is a rank-1 line; for chi(1) > 1 it is split out of the
regular module by the central idempotent e_chi refined with a cyclic
eigen-idempotent.  Induction to G is the usual block construction along
coset representatives.  Lines and induced modules are built once per
block and ring, through BlockContext.memo.
"""

from __future__ import annotations

import numpy as np

from .chars import BlockCharacter, ClassFunction
from .chainlinalg import free_basis
from .chainring import ChainRing
from .errors import BlockExtError, IdempotentNotSplit
from .groups import BlockContext, FiniteGroup, LinearChar, SemidirectGroup


class ModuleRep:
    """A G = D x| F module: diagonal D-characters plus F-matrices."""

    def __init__(self, ring: ChainRing, F: FiniteGroup, embed,
                 dchars: list[LinearChar], mats):
        self.ring = ring
        self.F = F
        self.embed = tuple(embed)   # F's element indices inside the parent E
        self.dchars = tuple(dchars)
        self.rank = len(self.dchars)
        self.mats = np.array(mats, dtype=ring.dtype)  # (F.n, rank, rank, dim)
        self.mats.flags.writeable = False
        assert self.mats.shape == (F.n, self.rank, self.rank, ring.dim)

    def verify(self, G: SemidirectGroup):
        """Cayley relations and the semidirect compatibility, exactly."""
        R, M = self.ring, self.mats
        prods = R.matmul(M[:, None], M[None, :])
        if not np.array_equal(prods, M[np.array(self.F.table)]):
            raise BlockExtError("module matrices violate the Cayley table")
        # f . d = (A(f) d) . f  on a D-eigenbasis: rho(f) diag(lam_k(d))
        # must equal diag(lam_k(A(f) d)) rho(f)
        zpow = R.root_powers(G.D.exponent)
        gens = [tuple(1 if i == j else 0 for i in range(G.D.t))
                for j in range(G.D.t)]
        for fi, fe in enumerate(self.embed):
            for d in gens:
                ad = G.action.apply(fe, d)
                zl = zpow[[lam.value_exponent(ad) for lam in self.dchars]]
                zr = zpow[[lam.value_exponent(d) for lam in self.dchars]]
                if not np.array_equal(R.mul_arrays(M[fi], zl[:, None]),
                                      R.mul_arrays(M[fi], zr[None, :])):
                    raise BlockExtError(
                        "module violates the semidirect relation")
        return True

    def restrict_to(self, sub: FiniteGroup, sub_embed_in_F,
                    parent_embed) -> "ModuleRep":
        """Restriction along a subgroup of F given by F-indices."""
        return ModuleRep(self.ring, sub, parent_embed, self.dchars,
                         self.mats[list(sub_embed_in_F)])


def kron_array(ring: ChainRing, A, B) -> np.ndarray:
    """F-matrices of a tensor product from the factors' (F.n, r, r, dim)
    arrays: entry ((i, j), (k, l)) is A[i, k] B[j, l]."""
    n = A.shape[1] * B.shape[1]
    return ring.mul_arrays(A[:, :, None, :, None], B[:, None, :, None, :]
                           ).reshape(len(A), n, n, ring.dim)


def _vchi_matrices(ring, F: FiniteGroup, chi: ClassFunction) -> np.ndarray:
    """Matrices (F.n, deg, deg, dim) of V_chi over the chain ring, split
    out of the regular module.

    On the regular module sum_g w_g g has matrix entry (y, x) = w[y x^-1],
    and g sends a vector v to v[g^-1 y]: both are gathers over F.table.
    The columns of e_chi e_eta, e_eta running over the eigen-idempotents
    of a maximal cyclic subgroup, are tried in order; the first whose
    translates have a free basis of rank deg spans V_chi."""
    n, deg, dt = F.n, chi.degree(), ring.dtype
    vals = np.array([ring.embed_cyclo(chi.values[F.class_of[g]])
                     for g in range(n)], dtype=dt)
    if deg == 1:
        return vals.reshape(n, 1, 1, ring.dim)
    T = np.array(F.table, dtype=np.intp)
    inv = np.array(F.inverse, dtype=np.intp)
    quot, act = T[:, inv], T[inv]  # y x^-1; g^-1 y
    c0 = ring.mul(ring.from_int(deg), ring.inv(ring.from_int(n)))
    e_chi = ring.mul_arrays(vals[inv], c0)[quot]
    c = max(range(n), key=lambda g: F.order_of[g])
    corder = F.order_of[c]
    powers = [0]
    while len(powers) < corder:
        powers.append(F.table[powers[-1]][c])
    # eta_s(c^k) / corder = zeta^(-s k) / corder
    zpow = ring.mul_arrays(ring.root_powers(corder),
                           ring.inv(ring.from_int(corder)))
    for s in range(corder):
        w_eta = np.zeros((n, ring.dim), dtype=dt)
        w_eta[powers] = zpow[-s * np.arange(corder) % corder]
        idem = ring.matmul(e_chi, w_eta[quot])
        for x0 in range(n):
            v = idem[:, x0]
            if not v.any():
                continue
            translates = v[act]  # row g is g . v
            kept, L = free_basis(ring, translates)
            if len(kept) != deg:
                continue
            B = translates[kept].swapaxes(0, 1)
            images = B[act]  # g . B for every g
            mats = ring.matmul(L, images)
            if not np.array_equal(ring.matmul(B, mats), images):
                raise IdempotentNotSplit(
                    "vector does not lie in the split summand")
            if not np.array_equal(
                    mats[:, range(deg), range(deg)].sum(axis=1) % ring.pN,
                    vals):
                raise IdempotentNotSplit(
                    "split summand has the wrong character")
            return mats
    raise IdempotentNotSplit(
        "no free splitting of the chi-isotypic ideal was found")


def vchi_rep(ctx: BlockContext, c: BlockCharacter,
             ring: ChainRing) -> ModuleRep:
    """lam (x) V_chi over D x| E_lam, the module M_c is induced from;
    built once per ring, then read from the block's cache."""
    return ctx.memo(("vchi", c.key(), ring.key()), _vchi_rep, c, ring)


def _vchi_rep(c: BlockCharacter, ring: ChainRing) -> ModuleRep:
    return ModuleRep(ring, c.stab, c.stab_embed, [c.lam] * c.chi.degree(),
                     _vchi_matrices(ring, c.stab, c.chi))


def build_module_rep(ctx: BlockContext, c: BlockCharacter,
                     ring: ChainRing) -> ModuleRep:
    """The G-module of the block character, induced from D x| E_lambda;
    built and verified once per ring, then read from the block's cache."""
    return ctx.memo(("module", c.key(), ring.key()), _induced_rep, ctx, c,
                    ring)


def _induced_rep(ctx: BlockContext, c: BlockCharacter,
                 ring: ChainRing) -> ModuleRep:
    G = ctx.G
    E = G.E
    stab_set = set(c.stab_embed)
    # deterministic left coset reps of E_lambda in E: least index first
    reps, covered = [], set()
    for g in range(E.n):
        if g in covered:
            continue
        reps.append(g)
        covered.update(E.table[g][h] for h in c.stab_embed)
    pos_stab = {e: i for i, e in enumerate(c.stab_embed)}
    W = vchi_rep(ctx, c, ring).mats
    deg = c.chi.degree()
    dchars = [G.action.on_char(t, c.lam) for t in reps for _ in range(deg)]
    mats = np.zeros((E.n, len(dchars), len(dchars), ring.dim),
                    dtype=ring.dtype)
    for e in range(E.n):
        # e . t_i = t_j h with h in E_lambda: block (j, i) is W(h)
        for i, t in enumerate(reps):
            et = E.table[e][t]
            j = next(a for a, tr in enumerate(reps)
                     if E.table[E.inverse[tr]][et] in stab_set)
            h = E.table[E.inverse[reps[j]]][et]
            mats[e, j * deg:(j + 1) * deg, i * deg:(i + 1) * deg] = \
                W[pos_stab[h]]
    rep = ModuleRep(ring, E, range(E.n), dchars, mats)
    rep.verify(G)
    return rep
