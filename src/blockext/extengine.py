"""Ext computations: closed forms, the bar oracle, dispatch, Ext^1 mod p.

The oracle computes Ext^i over O(D x| F) through the normalized bar
complex of D with coefficients in Hom(M1, M2) = M1* (x) M2, cut down to
the F-fixed subcomplex (valid because |F| is invertible, so the fixed
functor is exact and higher F-cohomology vanishes).  Homology is read off
Smith-normal data over the truncated chain ring, exact because every
finite Smith exponent is at most e*max(n_i) < cap (the certificate in
the chainlinalg docstring).

Coefficient modules restrict to D diagonally, so the degree-m cochain
space has basis (tuple of nontrivial D-elements, coefficient index) and
the differential keeps at most m+1 face terms per row.  F permutes the
tuples and mixes coefficient indices; a fixed-space basis is extracted
orbitwise from the stabilizer averaging idempotent, with an explicit left
inverse for coordinate readback.

When F lies in Z = C_E(D), a small resolution replaces the bar complex.
F fixes D, and Z acts on every module of the block by phi, so F acts as
the identity on M = M1* (x) M2; the oracle runs over all of D.  D x| F is
D x F, and in the Lyndon-Hochschild-Serre spectral sequence
H^a(F, H^b(D, M)) vanishes for a > 0 (|F| is invertible), so
H^n(D x F, M) = H^n(D, M)^F = H^n(D, M): F acts on H^n(D, M) through its
actions on D and on M, and both are trivial.  M restricts to D as the sum
of the lines O_nu_c, one per basis vector, and cohomology is additive, so
Ext^n = sum_c H^n(D, O_nu_c) (Brown, Cohomology of Groups, I.6 and V.1).

For D = C_q1 x ... x C_qt with generators x_j, the periodic resolution of
C_qj has O C_qj in every degree, with boundary x_j - 1 out of odd degrees
and N_j = sum_{a<qj} x_j^a out of positive even ones (Brown, Cohomology of
Groups, I.6).  Their tensor product K is a free resolution of O over O D
(Brown V.1) with one generator per exponent vector (k_1, ..., k_t) in
degree k_1 + ... + k_t, C(m + t - 1, t - 1) in degree m against the bar
complex's (|D| - 1)^m.  Hom_D(K, O_nu) has O at each generator, and with
s_j = nu(x_j) its j-th face sends (k) to (k + e_j), multiplying by
s_j - 1 out of an even k_j and by N_j(s_j) out of an odd one, with the
Koszul sign (-1)^(k_1 + ... + k_{j-1}).  (s - 1) N(s) = s^q - 1 = 0 and
the signs make distinct faces anticommute, so d o d = 0, which verify()
checks on every complex built.  The chainlinalg certificate holds as
before: the entries are ring operations on roots of unity, so the
complex is the reduction of Hom_D(K, O_nu) over O, whose cohomology is
H^n(D, O_nu), killed by exp(D) in degrees n >= 1; the bound e*max(n_i)
and acyclic=True carry over unchanged.

ext_oracle returns the whole profile (Ext^0, ..., Ext^top), from the
F-fixed bar complex or as the sum of the lines H^*(D, O_nu) with their
multiplicities.  Each line comes from one Koszul complex and is memoized
in the context under ("line", nu, top, N), top = max(i, 1), so pairs that
share a line build it once; pure D is the one-line case, and
ext_abelian_oracle reads the same memo.  ext_block memoizes the pair's
profile under the same top.

Closed mode builds no complex.  M_c is induced from H_c = D x| E_lam of
W_c = O_lam (x) V_chi.  By Shapiro (Brown, Cohomology of Groups,
III.5-III.6), Ext^n_G(M_c1, M_c2) = Ext^n_H(W_c1, M_c2) with H = H_c1, and
Mackey's formula (Curtis and Reiner, Methods of Representation Theory I,
section 10) restricts M_c2 to H as the sum, over the double cosets
E_lam1 g E_lam2 of E (D is normal and lies in both), of the modules
induced from D x| F, F = E_lam1 meet g E_lam2 g^-1, of gW_c2, on which y
acts as g^-1 y g does on W_c2.  Shapiro again leaves the term
H^n(D x| F, O_mu (x) W), mu = lam1^-1 (g . lam2) and W = V_chi1* (x) gV_chi2,
as d acts on gW_c2 by lam2(g^-1 d g).  mu is F-fixed, so it is trivial
on D' = [D, F].  By coprime action D = D' x C with C = C_D(F)
(Gorenstein, Finite Groups, 5.2), F centralizes C, and the term is the
Kunneth product (Brown, III.10) of H^*(D' x| F, W) with H^*(C, O_mu),
which the shape lemma gives from C's invariants and ord mu alone.  |F| is
a unit, so H^i(D' x| F, W) is (H^i(D', O) (x) W)^F: W^F, free of rank
w = dim_k (W/pi)^F over the residue field k, at i = 0; 0 at i = 1; and at
i = 2, where H^2(D', O) is Hom(D', K/O) and f acts by h -> h o f^-1, the
sum of the O/p^m with multiplicity r_(m-1) - r_m.  Here r_i is the
dimension over k of the F-fixed vectors of layer i of Hom(D', K/O)
tensored with W/pi: fixed points are exact and free over O/p on each
layer.  Over kF, which is semisimple, that layer is the dual of layer i
of D', and layer i of D, p^i D / p^(i+1) D on the coordinates with
n_j > i, is that layer of C, which F fixes, plus that of D', which has no
F-fixed vector.  Its dual carries L_i(f) = M(f^-1)^T mod p.  So
c_i = dim_k L_i^F counts C's cyclic factors of order above p^i, and
r_i = dim_k (L_i (x) W/pi)^F - c_i w.  A p'-group fixes a layer and its
dual to the same dimension, so c_i comes from ActionMap.fixed_layers,
the helper that validation reads C_D(E) from; each other dimension is
the rank of a sum over F of a Kronecker product.  Degree top + 1 enters
the Kunneth sum only as Tor_1 against an H^0, both torsion-free, so it
is taken as 0.
When F lies in Z, D' = 1 and F acts on both V_chi by the same scalar
phi, so the term is chi1(1) chi2(1) copies of H^n(D, O_mu) and no rank is
taken.

Crosscheck thus compares engines that share no complex on any pair.
They still share V_chi (modrep._vchi_matrices, over different rings) and
free_basis.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb

import numpy as np

from .chainlinalg import ChainComplex, free_basis, homology_of_complex
from .chainring import BLOCK, ChainRing, chain_ring
from .chars import BlockCharacter, build_irr_B, decomposition_matrix
from .errors import (BlockExtError, CrossCheckMismatch, PrecisionUnstable,
                     SizeGuardExceeded)
from .groups import (DEFAULT_SIZE_GUARD, AbelianPGroup, BlockContext,
                     LinearChar, SemidirectGroup, _invariants,
                     validate_block_spec)
from .modrep import ModuleRep, build_module_rep, kron_array, vchi_rep
from .omodule import OModuleClass, kunneth_assemble, val_one_minus_zeta


def default_precision(a: int) -> int:
    """Working precision N = 2*max(n_i) + 2.  Any N > max(n_i) gives the
    same classes (see smith_bound); the result documents record N."""
    return 2 * a + 2 if a > 0 else 2


def smith_bound(D: AbelianPGroup, R: ChainRing) -> int:
    """e*max(n_i), the valuation of exp(D), which caps every finite Smith
    exponent of an Ext complex over D; raises unless it is below cap."""
    a = max(D.orders, default=0)
    if R.e * a >= R.cap:
        raise PrecisionUnstable(
            f"precision N = {R.N} over ring {R.key()} cannot certify Smith "
            f"exponents up to e*max(n_i) = {R.e * a}; use N >= {a + 1}")
    return R.e * a


def block_ring(ctx: BlockContext) -> ChainRing:
    """The chain ring big enough for this block's roots of unity, at the
    block's precision."""
    G = ctx.G
    a = max(G.D.orders, default=0)
    precision = ctx.options.get("precision")
    if precision is None:
        precision = default_precision(a)
    return chain_ring(G.D.p, precision, a, G.E.exponent)


# -- the F-fixed bar complex ----------------------------------------------

def _check_size(cells: int, size_guard: int | None, shape: str,
                *parts) -> None:
    """Refuse a complex whose top cochain space has ``cells`` cells, when
    that exceeds the guard (DEFAULT_SIZE_GUARD when None).  The message
    names the count as ``shape`` formatted with ``parts``."""
    guard = DEFAULT_SIZE_GUARD if size_guard is None else size_guard
    if cells > guard:
        raise SizeGuardExceeded(
            f"{shape.format(*parts)} exceeds the guard {guard}")


def _coefficients(ring, M1: ModuleRep, M2: ModuleRep):
    """E_f on M1* (x) M2 for every f, and the D-character of each basis
    vector; the dual acts by inverse transposes."""
    F = M1.F
    assert F is M2.F and F.order_of[0] == 1, "modules over one subgroup"
    Ef = kron_array(ring, M1.mats[np.array(F.inverse, dtype=np.intp)]
                    .swapaxes(1, 2), M2.mats)
    return Ef, [a.inverse().mul(b) for a in M1.dchars for b in M2.dchars]


def _fixed_bar_complex(ring, G, elems, M1: ModuleRep, M2: ModuleRep,
                       top: int, size_guard: int | None) -> ChainComplex:
    """F-fixed normalized bar complex of the element list with
    coefficients in M1* (x) M2, through degree ``top``.  Raises
    SizeGuardExceeded before building anything when the top cochain
    space, len(elems)^top x rank(M1) rank(M2) cells, exceeds the guard.

    An m-tuple of element indices is coded in base nd, first index most
    significant (the itertools.product order), so the faces of all orbit
    representatives are index gathers.  Face k of representative sigma
    contributes the block L_sigma . diag(lambda(g0)) . E_f . B_o, with
    B_o, L_sigma the identity on orbits without a stabilizer; the blocks
    of one face are batched products, BLOCK elements at a time, added
    into the matrix."""
    D, F = G.D, M1.F
    rc, nd, dt, pN = M1.rank * M2.rank, len(elems), ring.dtype, ring.pN
    _check_size(nd ** top * rc, size_guard, "bar complex size ({}^{} x {})",
                nd, top, rc)
    Ef, dchars = _coefficients(ring, M1, M2)
    idx = {e: i for i, e in enumerate(elems)}
    perms = np.array([[idx[G.action.apply(M1.embed[f], e)] for e in elems]
                      for f in range(F.n)], dtype=np.intp).reshape(F.n, nd)
    # elems[s] + elems[t] as an index, -1 where the sum is the identity
    X, qs = np.array(elems, dtype=np.intp).reshape(nd, D.t), np.array(D.qs)
    radix = np.cumprod((1,) + D.qs[:0:-1])[::-1]  # mixed-radix element codes
    lookup = np.full(D.order, -1)
    lookup[X @ radix] = np.arange(nd)
    merge = lookup[(X[:, None] + X) % qs @ radix]
    qm = max(D.exponent, 1)
    ex = np.array([[ch.value_exponent(e) % qm for e in elems]
                   for ch in dchars], dtype=np.intp).reshape(rc, nd)
    # (rc, nd, dim); reductions mod pi only ever see trivial characters
    dscal = ring.root_powers(qm if ex.any() else 1)[ex]
    fixed = {}  # stabilizer -> (B, L) of its fixed coefficients
    degrees = []
    for m in range(top + 1):
        place = nd ** np.arange(m - 1, -1, -1)
        codes = np.arange(nd ** m)
        digits = codes[:, None] // place % nd
        img = (perms[:, digits] * place).sum(axis=-1)  # codes of f . t
        back = img.argmin(axis=0)  # f taking t to its orbit's least code
        reps = np.flatnonzero(img[back, codes] == codes)
        stabbed = np.flatnonzero((img[:, reps] == reps).sum(axis=0) > 1)
        # orbits with a stabilizer get padded B, L; the others use identities
        B = np.zeros((len(stabbed), rc, rc, ring.dim), dtype=dt)
        L = np.zeros_like(B)
        ks = np.full(len(reps), rc)
        for s, o in enumerate(stabbed):
            stab = tuple(np.flatnonzero(img[:, reps[o]] == reps[o]).tolist())
            if stab not in fixed:
                avg = Ef[list(stab)].sum(axis=0) % pN
                cols = ring.mul_arrays(avg, ring.inv(ring.from_int(len(stab)))
                                       ).transpose(1, 0, 2)
                kept, l = free_basis(ring, cols)
                fixed[stab] = cols[kept].transpose(1, 0, 2), l
            b, l = fixed[stab]
            ks[o] = b.shape[1]
            B[s, :, :ks[o]] = b
            L[s, :ks[o]] = l
        slot = np.full(len(reps), -1)
        slot[stabbed] = np.arange(len(stabbed))
        degrees.append({
            "reps": digits[reps], "orbit": np.searchsorted(reps, img[back, codes]),
            "via": np.array(F.inverse, dtype=np.intp)[back],  # t = via . rep
            "B": B, "L": L, "slot": slot, "offset": np.cumsum(ks) - ks,
            "rank": int(ks.sum()), "pad": rc - ks[-1] if len(ks) else 0})

    span, chunk = np.arange(rc), max(1, BLOCK // (rc * rc * ring.dim))
    diffs = []
    for m in range(1, top + 1):
        lo, hi = degrees[m - 1], degrees[m]
        S, place = hi["reps"], nd ** np.arange(m - 2, -1, -1)
        n = np.arange(len(S))
        # faces: (hi orbits, target tuples, sign); face 0 also scales by g0
        faces = [(n, S[:, 1:], 1)]
        for k in range(1, m):
            mid = merge[S[:, k - 1], S[:, k]]
            ok = mid >= 0
            faces.append((n[ok], np.concatenate(
                [S[ok, :k - 1], mid[ok, None], S[ok, k + 1:]], axis=1),
                -1 if k % 2 else 1))
        faces.append((n, S[:, :m - 1], -1 if m % 2 else 1))
        # padding rows and columns of each block are zero, so they may
        # spill into the next block, or past the last into a margin
        dmat = np.zeros((hi["rank"] + hi["pad"], lo["rank"] + lo["pad"],
                         ring.dim), dtype=dt)
        for face, (hs, tgts, sign) in enumerate(faces):
            for at in range(0, len(hs), chunk):  # bounded temporaries
                h, tcode = hs[at:at + chunk], tgts[at:at + chunk] @ place
                o = lo["orbit"][tcode]
                f = lo["via"][tcode]
                blk = Ef[f]  # a copy, made E_f B_o and scaled in place
                sel = np.flatnonzero(lo["slot"][o] >= 0)
                blk[sel] = ring.matmul(blk[sel], lo["B"][lo["slot"][o[sel]]])
                if face == 0:  # row c scales by lambda_c(g0)
                    blk = ring.mul_arrays(
                        blk, dscal[:, S[h, 0]].transpose(1, 0, 2)[:, :, None])
                if sign < 0:
                    np.negative(blk, out=blk)
                sel = np.flatnonzero(hi["slot"][h] >= 0)
                blk[sel] = ring.matmul(hi["L"][hi["slot"][h[sel]]], blk[sel])
                np.add.at(dmat, (hi["offset"][h][:, None, None] + span[:, None],
                                 lo["offset"][o][:, None, None] + span), blk)
        dmat %= pN
        diffs.append(dmat[:hi["rank"], :lo["rank"]])

    cx = ChainComplex(ring, [d["rank"] for d in degrees], diffs)
    cx.verify()
    return cx


# -- the tensor product of periodic resolutions ---------------------------

def _compositions(m: int, t: int) -> list[tuple]:
    """Exponent vectors (k_1, ..., k_t) >= 0 with sum m, the first entry
    descending."""
    if t == 1:
        return [(m,)]
    return [(a,) + k for a in range(m, -1, -1)
            for k in _compositions(m - a, t - 1)]


def _check_koszul_size(t: int, top: int, rc: int,
                       size_guard: int | None) -> None:
    """Refuse rc copies of Hom_D(K, O_nu) whose top cochain space,
    C(top + t - 1, t - 1) x rc cells, exceeds the guard."""
    _check_size(comb(top + t - 1, t - 1) * rc, size_guard,
                "Koszul complex size (C({}, {}) x {})", top + t - 1, t - 1, rc)


def _koszul_complex(ring: ChainRing, D: AbelianPGroup, nu: LinearChar,
                    top: int) -> ChainComplex:
    """Hom_D(K, O_nu) through degree ``top`` (see the module docstring):
    position m has one basis vector per exponent vector with sum m, and
    face j multiplies by s_j - 1 out of an even k_j, by N_j(s_j) out of an
    odd one, with the sign (-1)^(k_1 + ... + k_{j-1})."""
    qm, pN = D.exponent, ring.pN
    zpow = ring.root_powers(qm)
    faces = []  # (s_j - 1, N_j(s_j)) for the j-th cyclic factor
    for j, q in enumerate(D.qs):
        k = nu.value_exponent(tuple(int(i == j) for i in range(D.t)))
        faces.append(((zpow[k] - ring.one) % pN,
                      zpow[k * np.arange(q) % qm].sum(axis=0) % pN))
    basis = [_compositions(m, D.t) for m in range(top + 1)]
    diffs = []
    for m in range(top):
        row = {k: r for r, k in enumerate(basis[m + 1])}
        d = np.zeros((len(basis[m + 1]), len(basis[m]), ring.dim),
                     dtype=ring.dtype)
        for col, k in enumerate(basis[m]):
            sign = 1
            for j, (minus, norm) in enumerate(faces):
                odd = k[j] % 2
                d[row[k[:j] + (k[j] + 1,) + k[j + 1:]], col] = \
                    sign * (norm if odd else minus) % pN
                sign = -sign if odd else sign
        diffs.append(d)
    cx = ChainComplex(ring, [len(b) for b in basis], diffs)
    cx.verify()
    return cx


def ext_oracle(ctx: BlockContext, M1: ModuleRep, M2: ModuleRep, top: int,
               R: ChainRing) -> tuple:
    """(Ext^0, ..., Ext^top) over O(D x| F), F = the modules' group, from
    complexes built through max(top, 1), as Ext^0 reads d^0, under the
    context's size guard.

    When F lies in Z, the class is the sum of the memoized lines
    H^*(D, O_nu), one per character nu of M1* (x) M2 on D, with its
    multiplicity; otherwise the F-fixed bar complex of D.
    """
    G, T = ctx.G, max(top, 1)
    smith_bound(G.D, R)  # a too-low precision fails before any build
    if set(M1.embed) <= set(G.Z):
        Ef, dchars = _coefficients(R, M1, M2)
        eye = np.eye(len(dchars), dtype=R.dtype)[:, :, None] * R.one
        if not (Ef == eye).all():
            raise BlockExtError("Z acts on every module of the block by "
                                "phi, so on M1* (x) M2 by phi^-1 phi = 1")
        _check_koszul_size(G.D.t, T, len(dchars),
                           ctx.options.get("size_guard"))
        out = [OModuleClass(R.p, 0)] * (top + 1)
        for nu, mult in Counter(dchars).items():
            line = ctx.memo(("line", nu.vec, T, R.N), _line_class, R,
                            G.D, nu, T)
            out = [e.direct_sum(OModuleClass(R.p, mult * h.free_rank,
                                             h.torsion * mult))
                   for e, h in zip(out, line)]
        return tuple(out)
    return _bar_class(ctx, G.D.elements()[1:], M1, M2, top, R)


def _line_class(R: ChainRing, D: AbelianPGroup, nu: LinearChar,
                top: int) -> tuple:
    """(H^0, ..., H^top)(D, O_nu) from Hom_D(K, O_nu).  The class depends
    on R only through N: p and a are fixed by D, and adjoining the m'-th
    roots of unity is unramified, so it leaves the valuations alone.
    Memoized per context under ("line", nu.vec, top, N)."""
    return _profile(R, D, _koszul_complex(R, D, nu, top))


def _bar_class(ctx: BlockContext, elems, M1: ModuleRep, M2: ModuleRep,
               top: int, R: ChainRing) -> tuple:
    """(Ext^0, ..., Ext^top) from the F-fixed bar complex of the element
    list (the nontrivial elements of D or of a subgroup) through
    max(top, 1), under the context's size guard."""
    cx = _fixed_bar_complex(R, ctx.G, elems, M1, M2, max(top, 1),
                            ctx.options.get("size_guard"))
    return _profile(R, ctx.G.D, cx)[:top + 1]


def _profile(R: ChainRing, D: AbelianPGroup, cx: ChainComplex) -> tuple:
    """The O-module class of the cohomology of an Ext complex over D at
    every position, certified by smith_bound."""
    return tuple(OModuleClass(R.p, free, tuple(Fraction(t, R.e) for t in tors))
                 for free, tors in homology_of_complex(
                     cx, bound=smith_bound(D, R), acyclic=True))


# -- closed forms ---------------------------------------------------------

def shape_lemma(p: int, orders, d: int, i: int) -> OModuleClass:
    """Ext^i_{OD}(O, O_mu) by the shape lemma, for D the product of the
    C_{p^n} with n in orders and mu a character of order d."""
    if i not in (0, 1, 2):
        raise BlockExtError("closed forms cover degrees 0..2 only")
    if d == 1:
        if i == 0:
            return OModuleClass(p, 1, ())
        if i == 1:
            return OModuleClass(p, 0, ())
        return OModuleClass(p, 0, tuple(Fraction(n) for n in orders))
    k = 0
    while p ** k < d:
        k += 1
    w = val_one_minus_zeta(p, k)
    if i == 0:
        return OModuleClass(p, 0, ())
    if i == 1:
        return OModuleClass(p, 0, (w,))
    return OModuleClass(p, 0, (w,) * (len(orders) - 1))


def ext_abelian_closed(D: AbelianPGroup, lam1: LinearChar, lam2: LinearChar,
                       i: int) -> OModuleClass:
    """Ext^i_{OD}(O_lam1, O_lam2) for abelian D, from the shape lemma."""
    return shape_lemma(D.p, D.orders, lam1.inverse().mul(lam2).order(), i)


@cache
def abelian_context(p: int, orders: tuple[int, ...]) -> BlockContext:
    """The block context with trivial E for plain abelian Ext, one per
    (p, orders); its memo holds the lines of ext_abelian_oracle."""
    t = len(orders)
    ident = tuple(tuple(1 if a == b else 0 for b in range(t))
                  for a in range(t))
    G = validate_block_spec(p, list(orders), [((0,), ident)])
    return BlockContext(G, 0)


def ext_abelian_oracle(D: AbelianPGroup, lam1: LinearChar, lam2: LinearChar,
                       i: int, *, precision: int | None = None,
                       size_guard: int | None = None) -> OModuleClass:
    """Oracle Ext over D alone, Ext^i(O_lam1, O_lam2) = H^i(D, O_mu) with
    mu = lam1^-1 lam2: the line through max(i, 1), memoized on mu, that
    top and the precision.  A negative degree and a precision below 1 are
    refused, and the size guard is checked on every call, so a memo hit
    trips it as a miss would."""
    ctx = abelian_context(D.p, D.orders)
    mu = lam1.inverse().mul(lam2).vec
    N = default_precision(max(D.orders, default=0)) if precision is None \
        else precision
    if i < 0:
        raise BlockExtError("negative cohomological degree")
    top = max(i, 1)
    out = ctx.memo(("line", mu, top, N), _abelian_class, ctx, mu, top, N,
                   size_guard)
    _check_koszul_size(ctx.G.D.t, top, 1, size_guard)
    return out[i]


def _abelian_class(ctx: BlockContext, mu: tuple, top: int, N: int,
                   size_guard: int | None) -> tuple:
    if N < 1:
        raise BlockExtError(f"precision {N} is below 1")
    D = ctx.G.D
    R = chain_ring(D.p, N, max(D.orders, default=0), 1)
    smith_bound(D, R)
    _check_koszul_size(D.t, top, 1, size_guard)
    return _line_class(R, D, LinearChar(D, mu), top)


# -- block-level dispatch -------------------------------------------------

def _shapiro_class(ctx: BlockContext, c1: BlockCharacter, c2: BlockCharacter,
                   top: int, R: ChainRing, via: int = 1) -> tuple:
    """Ext^0..top_OG(M_c1, M_c2) over the stabilizer of one of the two.

    via=1 reduces the induced first argument: Ext over D x| E_lam1 of
    (V_chi1, M_c2 res).  via=2 reverses the roles through the coinduction
    adjunction (induction and coinduction agree at finite index): Ext
    over D x| E_lam2 of (M_c1 res, V_chi2)."""
    pivot = c1 if via == 1 else c2
    other = c2 if via == 1 else c1
    line = vchi_rep(ctx, pivot, R)
    res = build_module_rep(ctx, other, R).restrict_to(
        line.F, line.embed, line.embed)
    M1, M2 = (line, res) if via == 1 else (res, line)
    return ext_oracle(ctx, M1, M2, top, R)


def _closed_class(ctx: BlockContext, c1: BlockCharacter, c2: BlockCharacter,
                  top: int, R: ChainRing) -> tuple:
    """Ext^0..top between M_c1 and M_c2 (top <= 2) with no complex built:
    one Kunneth term per double coset E_lam1 g E_lam2, from ranks over the
    residue field and the shape lemma (see the module docstring)."""
    G, k = ctx.G, R.residue_ring()
    D, E, p = G.D, G.E, G.D.p
    z, inv1 = set(G.Z), c1.lam.inverse()
    pos1 = {e: i for i, e in enumerate(c1.stab_embed)}
    pos2 = {e: i for i, e in enumerate(c2.stab_embed)}
    terms, covered = Counter(), set()
    for g in range(E.n):
        if g in covered:
            continue
        covered.update(E.table[E.table[h1][g]][h2] for h1 in c1.stab_embed
                       for h2 in c2.stab_embed)
        mu = inv1.mul(G.action.on_char(g, c2.lam))
        # F = E_lam1 meet g E_lam2 g^-1, with g^-1 f g for each f in F
        conj = {f: E.table[E.table[E.inverse[g]][f]][g] for f in pos1}
        F = [f for f in pos1 if conj[f] in pos2]
        if set(F) <= z:
            w, orders, tors = c1.chi.degree() * c2.chi.degree(), D.orders, ()
        else:
            if any(G.action.on_char(f, mu) != mu for f in F):
                raise BlockExtError("mu is not F-fixed")
            A = vchi_rep(ctx, c1, k).mats[[pos1[E.inverse[f]] for f in F]]
            B = vchi_rep(ctx, c2, k).mats[[pos2[conj[f]] for f in F]]
            w, orders, tors = _layer_ranks(G, k, F, A.swapaxes(1, 2), B)
        terms[w, orders, tors, mu.order()] += 1
    free, torsion = [0] * (top + 1), [()] * (top + 1)
    for (w, orders, tors, d), m in terms.items():  # m equal terms at once
        right = [shape_lemma(p, orders, d, n) for n in range(top + 1)]
        copies = m * w
        if tors:  # else left is O^w in degree 0: w copies of right
            zero = OModuleClass(p, 0)
            left = [OModuleClass(p, w), zero, OModuleClass(p, 0, tors), zero]
            right = [kunneth_assemble(left, right + [zero], n)
                     for n in range(top + 1)]
            copies = m
        for n, r in enumerate(right):
            free[n] += copies * r.free_rank
            torsion[n] += copies * r.torsion
    return tuple(OModuleClass(p, *e) for e in zip(free, torsion))


def _layer_ranks(G: SemidirectGroup, k: ChainRing, F: list, A, B) -> tuple:
    """(w, the invariants of C_D(F), the torsion of (H^2(D', O) (x) W)^F)
    from the matrices A (x) B of W over k, read layer by layer."""
    n = max(G.D.orders)
    dual = np.array(G.action.mats)[[G.E.inverse[f] for f in F]] \
        .swapaxes(1, 2) % G.D.p
    w, c, r = _fixed_rank(k, A, B), G.action.fixed_layers(F), [0] * (n + 1)
    for i in range(n):
        keep = [j for j, nj in enumerate(G.D.orders) if nj > i]
        L = np.multiply.outer(dual[:, keep][:, :, keep], k.one)
        r[i] = _fixed_rank(k, A, B, L) - c[i] * w
    if any(r[i] < r[i + 1] for i in range(n)):
        raise BlockExtError("a layer multiplicity is negative")
    return w, _invariants(c), tuple(map(Fraction, _invariants(r)))


def ext_block(ctx: BlockContext, c1: BlockCharacter, c2: BlockCharacter,
              i: int, mode: str = "crosscheck", *,
              via: int = 1) -> OModuleClass:
    """Ext^i_B between the O-forms of two block characters, at the block's
    precision; one profile through max(i, 1) per pair, mode and via."""
    if mode not in ("closed", "oracle", "crosscheck"):
        raise BlockExtError(f"unknown ext mode {mode!r}")
    if i not in (0, 1, 2):
        raise BlockExtError("block Ext is provided in degrees 0..2 only")
    if via not in (1, 2):
        raise BlockExtError("via selects which character to reduce: 1 or 2")
    R = block_ring(ctx)
    smith_bound(ctx.G.D, R)  # a too-low precision fails before any build
    top = max(i, 1)
    return ctx.memo(("ext", c1.key(), c2.key(), top, mode, via, R.key()),
                    _ext_class, ctx, c1, c2, top, mode, via, R)[i]


def _ext_class(ctx: BlockContext, c1: BlockCharacter, c2: BlockCharacter,
               top: int, mode: str, via: int, R: ChainRing) -> tuple:
    if mode == "closed":
        return _closed_class(ctx, c1, c2, top, R)
    if mode == "oracle":
        return _shapiro_class(ctx, c1, c2, top, R, via)
    a = _closed_class(ctx, c1, c2, top, R)
    b = _shapiro_class(ctx, c1, c2, top, R, via)
    for n, (x, y) in enumerate(zip(a, b)):
        if x != y:
            err = CrossCheckMismatch(
                f"closed {x.pretty()} != oracle {y.pretty()} at degree {n}")
            err.closed, err.oracle = x, y
            raise err
    return a


def ext_shape_classify(e: OModuleClass, i: int) -> dict:
    """Check an Ext class against the shapes the structure theory allows."""
    report = {"degree": i, "free_rank": e.free_rank,
              "torsion": [str(t) for t in e.torsion],
              "pretty": e.pretty(), "violations": []}
    if i == 0:
        if e.torsion:
            report["violations"].append("Hom over O must be torsion-free")
        if e.free_rank > 1:
            report["violations"].append(
                "Hom between irreducible lattices has rank at most 1")
    elif i == 1:
        if e.free_rank:
            report["violations"].append("Ext^1 must be torsion")
        for t in e.torsion:
            if not any(t == val_one_minus_zeta(e.p, k) for k in range(1, 64)):
                report["violations"].append(
                    f"torsion valuation {t} is not of the form v(1-zeta)")
    elif i == 2:
        if e.free_rank:
            report["violations"].append("Ext^2 must be torsion")
    else:
        report["violations"].append("no shape information beyond degree 2")
    report["conforms"] = not report["violations"]
    return report


# -- mod-p dimensions -----------------------------------------------------

def ext1_modp(ctx: BlockContext, c1: BlockCharacter,
              c2: BlockCharacter) -> int:
    """dim_k Ext^1_kG between the reductions mod pi of two members of
    build_irr_B(ctx).  D acts trivially on the reduction of M_c, as p-power
    roots of unity are 1 mod pi, and kE is semisimple, so it is the sum of
    the simple modules S_psi with the decomposition numbers d_{c psi} as
    multiplicities; Ext^1 is additive, so the dimension is the sum of
    d_{c1 a} d_{c2 b} dim_k Ext^1_kG(S_a, S_b) over the simples' table.

    As D acts trivially on each S_psi and H^n(E, -) = 0 for n > 0 (|E| is
    prime to p), the Lyndon-Hochschild-Serre spectral sequence collapses:
    Ext^1_kG(S_a, S_b) = (S_a* (x) S_b (x) Hom(D/pD, k))^E, where
    (e . f)(x) = f(e^-1 x) (Reiten and Riedtmann, J. Algebra 92 (1985);
    Benson, Representations and Cohomology I).  So e acts by
    psi_a(e^-1)^T (x) psi_b(e) (x) M[e^-1]^T mod p, M the action on D, and
    the dimension is the rank of the sum over E, as |E| is a unit.  No
    complex is built, so the size guard does not apply."""
    irr, dec = build_irr_B(ctx), decomposition_matrix(ctx)
    r1, r2 = dec[irr.index(c1)], dec[irr.index(c2)]
    return sum(m1 * m2 * ext1_modp_simples(ctx, a, b)
               for a, m1 in enumerate(r1) if m1
               for b, m2 in enumerate(r2) if m2)


def ext1_modp_simples(ctx: BlockContext, a: int, b: int) -> int:
    """dim_k Ext^1_kG(S_a, S_b) for two simple modules of the block, from
    the table built once per block that uct and quiver both read."""
    return ctx.memo("ext1", _modp_table, ctx)[a][b]


def _modp_table(ctx: BlockContext) -> tuple[tuple[int, ...], ...]:
    """The rank of sum_e rho(e) (see ext1_modp) for every ordered pair.
    Each psi is read as the line of the member (1, psi) of Irr(B)."""
    G, ring0 = ctx.G, block_ring(ctx).residue_ring()
    inv = np.array(G.E.inverse, dtype=np.intp)
    hom_d = np.multiply.outer(np.array(G.action.mats)[inv].swapaxes(1, 2)
                              % G.D.p, ring0.one)
    psis = [vchi_rep(ctx, c, ring0).mats for c in build_irr_B(ctx)
            if c.lam.is_trivial()]
    return tuple(tuple(_fixed_rank(ring0, a[inv].swapaxes(1, 2), b, hom_d)
                       for b in psis) for a in psis)


def _fixed_rank(k: ChainRing, *factors) -> int:
    """dim_k of the F-fixed vectors of a tensor product over the residue
    field k, F a p'-group: the rank of the sum over F of the Kronecker
    products of the factors' (F.n, r, r, dim) arrays."""
    rho = factors[0]
    for x in factors[1:]:
        rho = kron_array(k, rho, x)
    return len(free_basis(k, (rho.sum(axis=0) % k.pN).swapaxes(0, 1))[0])
