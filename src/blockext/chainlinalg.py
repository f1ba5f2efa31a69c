"""Exact linear algebra and homology over the truncated chain ring.

Homology of a complex of free O-modules, computed from its reduction mod
p^N.  Matrices are dense element arrays of shape (rows, cols, dim) (see
the chainring module), and the workhorse is the Smith form over the
discrete valuation ring O found by global minimal-valuation pivoting.

Why that pivoting is exact.  Let a = M[i0, j0] have the least valuation
v in the matrix.  Every entry is a multiple of pi^v, so pi^v generates
the ideal of the entries and is the first invariant factor.  Take
c = p^(v // e) pi^(v % e), an element of valuation v.  Every entry b of
column j0 has val(b) >= v, so b = c b' with b' computed exactly
(ChainRing.div_pi_power), and a' = a / c is a unit.
With q = b' a'^-1 we get q a = b' c = b on the nose in the chain ring,
so subtracting q times row i0 clears column j0 exactly, and no division
ever rounds.  Column operations then clear row i0 without touching the
other rows, so the row retires with invariant factor pi^v.  A column
entry left nonzero after its elimination contradicts q a = b and is
raised as a bug, never ignored.

Why the truncated exponents are the exact ones: a certificate.  Let
cap = N e, so O/p^N = O/pi^cap.

  1. The elimination above is a sequence of invertible row and column
     operations over the local principal ideal ring O/pi^cap, so it
     finds the Smith form of the matrix there, and invariant factors
     over a local PIR are unique.  Reducing the Smith form over O of any
     lift of the matrix gives a Smith form over O/pi^cap, so the
     exponents found are min(a_j, cap) for the O-exponents a_j.
  2. The complexes are reductions of complexes over O.  The module and
     fixed-basis constructions use ring operations, which commute with
     reduction, and every choice they make reads residues mod pi only:
     unit pivots and valuations == 0 tests (free_basis, the V_chi split).
     The same formulas over O make the same choices and build an
     O-complex whose reduction is the one at hand.  The Koszul complexes
     Hom_D(K, O_nu) (extengine docstring) have entries s - 1 and
     sum_a s^a for roots of unity s, ring operations that choose nothing.
  3. Over O the exponents are bounded.  For i >= 1, H^i(D, O_nu) is
     killed by exp(D) = p^max(n_i): Kunneth over the cyclic factors of D
     (Brown, Cohomology of Groups, III.10).  The oracle's coefficients
     are sums of such O_nu, and the F-fixed points are a direct summand
     (|F| is invertible), so every positive finite Smith exponent of a
     differential, a torsion exponent of some H^i with i >= 1, is at most
     bound = e max(n_i).

Hence when bound < cap the truncated form is the O-form: the elimination
pivots while the least valuation is <= bound, and what is left must be
exactly zero.  A nonzero entry past the bound contradicts 1 to 3 and is
raised as PrecisionUnstable; callers pass the bound (the oracle
e max(n_i), a residue-field computation 0).

Each pivot costs array work only on the rows with a nonzero entry in the
pivot column and the columns with one in the pivot row: the quotients q
come from one exact division and one product with the unit inverse, the
update from one product through ChainRing.mult_tensor, and valuations
are recomputed only for the entries it wrote (from a v_p table).  The
rows go in blocks of at most BLOCK elements, so temporaries stay small.

Overflow.  An element product is (u v)[k] = sum_{i,j} u_i v_j T[k,i,j];
in one step its partial sums reach dim^2 (pN - 1)^3.  It is taken in two
contractions of length dim instead, first v against T, reduced mod pN,
then u against that, so a partial sum stays below dim (pN - 1)^2.  Rings
with dim (pN - 1)^2 >= 2^63 keep the same arrays in Python integers
(dtype=object).  A matrix product contracts over k*dim terms and is cut
into pieces of the same size (ChainRing.matmul).

free_basis is the unit-pivot Gauss-Jordan behind fixed-point bases of
the bar complex and the V_chi splitting in modrep.

homology_of_complex eliminates each d^i once, as d_out of position i and
d_in of position i + 1.  For the cohomology at position i:

  torsion(H^i) = sum of O/pi^a over the positive finite Smith exponents a
  of d_in.  Justification: if d_in = diag(pi^{a_j}) on bases (v_j), (u_j),
  then pi^{a_j} d_out(u_j) = d_out d_in(v_j) = 0 inside a free module, so
  u_j lies in ker(d_out); the u_j with finite a_j extend to a basis of the
  kernel, and ker/im splits off O/pi^{a_j} per finite pivot.

  free(H^i) = dim ker(d_out) - rank(d_in) by rank-nullity.  Group
  cohomology complexes are acyclic over the fraction field in positive
  degrees (cor o res = |G|), so callers computing them pass acyclic=True
  and the free rank is 0 there; only H^0 reads it, from d^0.
"""

from __future__ import annotations

import numpy as np

from .chainring import BLOCK, ChainRing
from .errors import BlockExtError, PrecisionUnstable


def _sparse(A) -> dict:
    """The sparse dict of an element array."""
    nz = np.argwhere((A != 0).any(axis=-1))
    return {(r, c): tuple(v) for (r, c), v in
            zip(nz.tolist(), A[nz[:, 0], nz[:, 1]].tolist())}


def free_basis(ring: ChainRing, vectors):
    """Greedy free basis of the span of an (n, width, dim) element array.

    Unit-pivot Gauss-Jordan over the vectors in order keeps each one whose
    reduction has a unit entry, pivoting on the first.  Returns the kept
    indices and rows L (k, width, dim) with L . v the coordinates of v in
    the kept vectors, for every v in their span.
    """
    V = np.asarray(vectors, dtype=ring.dtype)
    pN, d = ring.pN, ring.dim
    R = np.zeros((0,) + V.shape[1:], dtype=ring.dtype)  # unit 1 at own pivot
    T = np.zeros((0, 0, d), dtype=ring.dtype)  # R = T . V[kept]
    kept, pivots = [], []
    for idx, v in enumerate(V):
        f = v[pivots]
        r = (v - ring.matmul(f[None], R)[0]) % pN
        units = np.flatnonzero(ring.valuations(r) == 0)
        if not units.size:
            continue
        inv = ring.inv(r[units[0]])
        r = ring.mul_arrays(r, inv)
        t = np.concatenate([-ring.mul_arrays(ring.matmul(f[None], T)[0], inv),
                            inv[None]]) % pN
        g = R[:, units[0], None]
        R = np.concatenate([(R - ring.mul_arrays(g, r)) % pN, r[None]])
        T = np.pad(T, ((0, 0), (0, 1), (0, 0)))
        T = np.concatenate([(T - ring.mul_arrays(g, t)) % pN, t[None]])
        kept.append(idx)
        pivots.append(int(units[0]))
    L = np.zeros((len(kept),) + V.shape[1:], dtype=ring.dtype)
    L[:, pivots] = T.transpose(1, 0, 2)
    eye = np.zeros((len(kept), len(kept), d), dtype=ring.dtype)
    eye[range(len(kept)), range(len(kept)), 0] = 1
    if not np.array_equal(ring.matmul(L, V[kept].transpose(1, 0, 2)), eye):
        raise BlockExtError("left inverse of the unit-pivot basis failed")
    return kept, L


def _smith_exponents(ring: ChainRing, A, bound: int) -> list[int]:
    """Smith exponents of A, ascending, certified exact up to ``bound``.

    A is an element array of shape (rows, cols, dim), consumed.  Pivoting
    is by global minimal valuation, first row then first column on ties,
    while the least valuation is <= bound; the block left must then be
    zero, or PrecisionUnstable is raised (see the module docstring).
    """
    cap, pN = ring.cap, ring.pN
    V = np.concatenate([ring.valuations(part) for part in
                        np.array_split(A, max(1, -(-A.size // BLOCK)))])
    exps = []
    while V.size:
        i0, j0 = divmod(int(V.argmin()), V.shape[1])
        v0 = int(V[i0, j0])
        if v0 >= cap:
            break
        if v0 > bound:
            raise PrecisionUnstable(
                f"Smith exponent {v0} past the certified bound {bound}: "
                f"ring {ring.key()}, {A.shape[0]}x{A.shape[1]} matrix")
        rows = np.flatnonzero(V[:, j0] < cap)
        rows = rows[rows != i0]
        V[i0] = cap  # the pivot row retires
        if rows.size:
            inv = ring.inv(ring.div_pi_power(A[i0, j0], v0))
            cols = np.flatnonzero((A[i0] != 0).any(axis=-1))
            prow = A[i0, cols]
            for part in np.array_split(rows,
                                       -(-rows.size * prow.size // BLOCK)):
                q = ring.mul_arrays(ring.div_pi_power(A[part, j0], v0), inv)
                block = np.ix_(part, cols)
                sub = A[block]
                sub -= ring.mul_arrays(q[:, None], prow)
                sub %= pN
                A[block] = sub
                V[block] = ring.valuations(sub)
            if (V[rows, j0] < cap).any():
                raise BlockExtError(
                    f"dominated elimination left a residue: ring "
                    f"{ring.key()}, {A.shape[0]}x{A.shape[1]} matrix, pivot "
                    f"({i0}, {j0}) of valuation {v0}")
        exps.append(v0)
    return exps


class ChainComplex:
    """A bounded complex of free modules over a ChainRing.

    ranks[i] is the rank at position i; diffs[i] maps position i to i+1,
    an element array of shape (ranks[i+1], ranks[i], dim).  The complex
    keeps read-only copies in the narrowest dtype that holds pN - 1;
    .diffs is a derived sparse view, {(row, col): element} per
    differential, and edits to it change nothing.
    """

    def __init__(self, ring: ChainRing, ranks: list[int], diffs: list):
        assert len(diffs) == len(ranks) - 1
        self.ring = ring
        self.ranks = list(ranks)
        self._d = []
        for i, d in enumerate(diffs):
            if not isinstance(d, np.ndarray):
                raise TypeError("differentials must be element arrays")
            assert d.shape == (ranks[i + 1], ranks[i], ring.dim)
            d = d.astype(np.min_scalar_type(ring.pN - 1))
            d.flags.writeable = False
            self._d.append(d)

    @property
    def diffs(self) -> list[dict]:
        return [_sparse(d) for d in self._d]

    def matrix(self, i: int):
        """diffs[i] as an element array, possibly narrower than ring.dtype;
        read-only."""
        return self._d[i]

    def verify(self):
        """Check d o d = 0; raises on violation."""
        for i in range(len(self._d) - 1):
            dd = self.ring.matmul(self._d[i + 1], self._d[i])
            bad = np.argwhere((dd != 0).any(axis=-1))
            if len(bad):
                raise BlockExtError(
                    f"d o d != 0 at positions {i},{i + 1}, "
                    f"entry {tuple(bad[0].tolist())}")
        return True


def homology_of_complex(cx: ChainComplex, *, bound: int,
                        acyclic: bool = False) -> list[tuple[int, list[int]]]:
    """[(free rank, torsion pi-exponents desc) of H^i(cx)] for every
    position i, each differential eliminated once.

    ``bound`` caps every finite Smith exponent of the differentials (see
    _smith_exponents).  With acyclic=True the caller asserts the complex
    is exact over the fraction field in degrees >= 1 (true for group
    cohomology, by cor o res = |G|), so the free rank is 0 there,
    including at the top position, where the truncation cuts d^top off.
    """
    ring = cx.ring
    # exps[-1] stands for the zero maps into position 0 and out of the top
    exps = [_smith_exponents(ring, cx.matrix(i).astype(ring.dtype), bound)
            for i in range(len(cx.ranks) - 1)] + [[]]
    out = []
    for i, rank in enumerate(cx.ranks):
        d_in, d_out = exps[i - 1], exps[i]
        free = 0 if acyclic and i else rank - len(d_out) - len(d_in)
        if free < 0:
            raise PrecisionUnstable(
                f"negative free rank at position {i} over ring "
                f"{ring.key()}: rank {rank}, {len(d_in)} pivots into "
                f"it, {len(d_out)} out of it (ranks {cx.ranks})")
        out.append((free, sorted((a for a in d_in if a > 0), reverse=True)))
    return out
