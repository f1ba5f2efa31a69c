"""Linear-source module representations over a chain ring.

Every module handled here restricts to D as a direct sum of rank-1
characters, so a ModuleRep keeps the D-action as a list of LinearChars
(one per basis vector) and explicit matrices only for the p'-part.  V_chi
for linear chi is a rank-1 line; for chi(1) > 1 it is split out of the
regular module by the central idempotent e_chi refined with a cyclic
eigen-idempotent.  Induction to G is the usual block construction along
coset representatives.
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

    def __init__(self, ring: ChainRing, F: FiniteGroup, embed: list[int],
                 dchars: list[LinearChar], emats, provenance: str):
        self.ring = ring
        self.F = F
        self.embed = embed          # F's element indices inside the parent E
        self.dchars = tuple(dchars)
        self.emats = tuple(emats)   # one rank x rank matrix per F element
        self.rank = len(self.dchars)
        self.provenance = provenance
        assert len(self.emats) == F.n

    def array(self) -> np.ndarray:
        """The F-matrices as an element array (F.n, rank, rank, dim)."""
        R = self.ring
        return np.array(self.emats, dtype=R.dtype).reshape(
            self.F.n, self.rank, self.rank, R.dim)

    def verify(self, G: SemidirectGroup):
        """Cayley relations and the semidirect compatibility, exactly."""
        R, M = self.ring, self.array()
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

    def tensor(self, other: "ModuleRep") -> "ModuleRep":
        assert self.F is other.F and self.ring is other.ring
        R = self.ring
        dchars = [a.mul(b) for a in self.dchars for b in other.dchars]
        emats = [tuple(tuple(map(tuple, row)) for row in M.tolist())
                 for M in kron_array(R, self.array(), other.array())]
        return ModuleRep(R, self.F, self.embed, dchars, emats,
                         f"({self.provenance})x({other.provenance})")

    def restrict_to(self, sub: FiniteGroup, sub_embed_in_F: list[int],
                    parent_embed: list[int]) -> "ModuleRep":
        """Restriction along a subgroup of F given by F-indices."""
        emats = [self.emats[i] for i in sub_embed_in_F]
        return ModuleRep(self.ring, sub, parent_embed, self.dchars, emats,
                         f"res({self.provenance})")


def kron_array(ring: ChainRing, A, B) -> np.ndarray:
    """F-matrices of a tensor product from the factors' (F.n, r, r, dim)
    arrays: entry ((i, j), (k, l)) is A[i, k] B[j, l]."""
    n = A.shape[1] * B.shape[1]
    return ring.mul_arrays(A[:, :, None, :, None], B[:, None, :, None, :]
                           ).reshape(len(A), n, n, ring.dim)


def _embed_char_values(ring, F, chi: ClassFunction):
    return [ring.embed_cyclo(chi.values[F.class_of[g]]) for g in range(F.n)]


def _vchi_matrices(ring, F: FiniteGroup, chi: ClassFunction):
    """Matrices of V_chi over the chain ring; regular-module idempotent."""
    deg = chi.degree()
    if deg == 1:
        vals = _embed_char_values(ring, F, chi)
        return [((v,),) for v in vals]
    n = F.n
    inv_n = ring.inv(ring.from_int(n))
    chi_vals = _embed_char_values(ring, F, chi)
    # e_chi = (deg/|F|) sum chi(g^-1) g on the regular module
    def idem_cols(weights):
        cols = [[ring.zero] * n for _ in range(n)]
        for g in range(n):
            w = weights[g]
            if w == ring.zero:
                continue
            for x in range(n):
                y = F.table[g][x]
                cols[x][y] = ring.add(cols[x][y], w)
        return cols
    w_chi = [ring.mul(ring.mul(ring.from_int(deg), inv_n),
                      chi_vals[F.inverse[g]]) for g in range(n)]
    e_chi = idem_cols(w_chi)
    # refine with a linear eigen-idempotent of a maximal cyclic subgroup
    c = max(range(n), key=lambda g: F.order_of[g])
    corder = F.order_of[c]
    powers = [0]
    while len(powers) < corder:
        powers.append(F.table[powers[-1]][c])
    zc = ring.zeta_elt(corder)
    inv_c = ring.inv(ring.from_int(corder))
    def translate(g, v):
        tv = [ring.zero] * n
        for x in range(n):
            if v[x] != ring.zero:
                tv[F.table[g][x]] = v[x]
        return tuple(tv)

    for s in range(corder):
        w_eta = [ring.zero] * n
        for k, gk in enumerate(powers):
            w_eta[gk] = ring.mul(inv_c, ring.power(zc, (-s * k) % corder))
        e_eta = idem_cols(w_eta)
        for x0 in range(n):
            v = tuple(sum_entries(ring, e_chi, e_eta, x0, y) for y in range(n))
            if all(a == ring.zero for a in v):
                continue
            translates = [translate(g, v) for g in range(n)]
            kept, L = free_basis(ring, translates)
            if len(kept) != deg:
                continue
            basis = [translates[i] for i in kept]
            B = np.array(basis, dtype=ring.dtype).transpose(1, 0, 2)
            emats = []
            for g in range(n):
                images = np.array([translate(g, b) for b in basis],
                                  dtype=ring.dtype).transpose(1, 0, 2)
                coords = ring.matmul(L, images)
                if not np.array_equal(ring.matmul(B, coords), images):
                    raise IdempotentNotSplit(
                        "vector does not lie in the split summand")
                emats.append(tuple(tuple(map(tuple, row))
                                   for row in coords.tolist()))
            for g in range(n):
                tr = ring.zero
                for i in range(deg):
                    tr = ring.add(tr, emats[g][i][i])
                if tr != chi_vals[g]:
                    raise IdempotentNotSplit(
                        "split summand has the wrong character")
            return emats
    raise IdempotentNotSplit(
        "no free splitting of the chi-isotypic ideal was found")


def sum_entries(ring, A_cols, B_cols, x, y):
    """(A.B) entry (y, x) for column-form operators on the regular module."""
    acc = ring.zero
    for z in range(len(A_cols)):
        a = B_cols[x][z]
        if a != ring.zero and A_cols[z][y] != ring.zero:
            acc = ring.add(acc, ring.mul(A_cols[z][y], a))
    return acc


def build_module_rep(ctx: BlockContext, c: BlockCharacter,
                     ring: ChainRing) -> ModuleRep:
    """The G-module of the block character, induced from D x| E_lambda;
    built and verified once per ring, then read from the block's cache."""
    key = ("module", c.key(), ring.key())
    rep = ctx.cache.get(key)
    if rep is not None:
        return rep
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
    k = len(reps)
    pos_stab = {e: i for i, e in enumerate(c.stab_embed)}
    wmats = _vchi_matrices(ring, c.stab, c.chi)
    deg = c.chi.degree()
    rank = k * deg
    dchars = []
    for t in reps:
        conj = G.action.on_char(t, c.lam)
        dchars.extend([conj] * deg)
    zero_block = tuple(tuple(ring.zero for _ in range(deg)) for _ in range(deg))
    emats = []
    for e in range(E.n):
        # e . t_i = t_{sigma(i)} h with h in E_lambda
        M = [[ring.zero] * rank for _ in range(rank)]
        for i, t in enumerate(reps):
            et = E.table[e][t]
            j = next(a for a, tr in enumerate(reps)
                     if E.table[E.inverse[tr]][et] in stab_set)
            h = E.table[E.inverse[reps[j]]][et]
            W = wmats[pos_stab[h]]
            for a in range(deg):
                for b in range(deg):
                    M[j * deg + a][i * deg + b] = W[a][b]
        emats.append(tuple(tuple(row) for row in M))
    rep = ModuleRep(ring, E, list(range(E.n)), dchars, emats,
                    f"induced(lam={c.lam.vec})")
    rep.verify(G)
    ctx.cache[key] = rep
    return rep
