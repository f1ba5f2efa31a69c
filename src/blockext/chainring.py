"""The coefficient ring O/p^N as an explicit finite chain ring.

O = W(F_{p^f})[zeta_{p^a}] is the complete discrete valuation ring obtained
from the Witt vectors of F_{p^f} by adjoining a primitive p^a-th root of
unity; f is the multiplicative order of p modulo m', the p'-part of the
conductor needed for the characters in play.  Its quotient O/p^N is realized
concretely as

    (Z/p^N)[x, z] / (h(x), Psi(z))

where h is a Hensel-lifted irreducible degree-f factor of the m'-th
cyclotomic polynomial and Psi(z) = Phi_{p^a}(1 + z), an Eisenstein
polynomial of degree e = phi(p^a).  The class of x is a primitive m'-th root
of unity, and y = 1 + z is a primitive p^a-th root, so pi = y - 1 = z
generates the maximal ideal (pi = p when a = 0) and pi^(N*e) = 0.

The factor h_0 = h mod p is found by Berlekamp's deterministic
factorization of Phi_{m'} over F_p, and the lexicographically smallest of
the factors (coefficients from the constant term up) is taken.  Any factor
gives an isomorphic ring, but the choice fixes which root of unity x is, so
it fixes the element coordinates, the multiplication tensor and every module
array built over the ring; it must not change.

An element is a numpy array of shape (dim,), dim = f*e, in the ring's
dtype: entry i*e + j is the coefficient of x^i z^j, reduced into [0, p^N).
Arrays of shape (..., dim) hold many elements, and every operation is
batched over the leading axes.  As a Z/p^N-algebra the ring is the tensor
product (Z/p^N)[x]/h (x) (Z/p^N)[z]/Psi, and x^i z^j is the tensor basis,
so multiplication by x^i z^j acts on coefficient vectors as the Kronecker
product C_h^i (x) C_Psi^j of powers of the companion matrices.  Stacked,
these dim operators are the multiplication tensor, and every product goes
through it.  Elements the ring hands out from an attribute or a per-ring
memo (zero, one, inv, zeta_elt, mult_tensor) are read-only, so no caller
can change a later answer.

In this basis the pi-adic valuation can be read off directly:
v_pi(sum_j s_j(x) z^j) = min_j (j + e * v_p(s_j)) because the terms have
pairwise distinct valuations mod e.  That makes exact unit/pi^k
factorization, and hence Smith normal forms, cheap.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .cyclotomic import CycloNumber, cyclotomic_coeffs, isprime, kernel_mod
from .errors import BlockExtError

_I64 = (1 << 63) - 1  # the largest int64
BLOCK = 1 << 15  # elements per temporary in the batched linear algebra


# ---------------------------------------------------------------------------
# integer polynomial helpers, coefficient lists with constant term first
# ---------------------------------------------------------------------------

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, M) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % M
    return _ptrim(out)


def _padd(a, b, M) -> list[int]:
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % M
                   for i in range(n)])


def _psub(a, b, M) -> list[int]:
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % M
                   for i in range(n)])


def _pdivmod(a, b, M) -> tuple[list[int], list[int]]:
    """Divide by a monic polynomial b over Z/M."""
    assert b and b[-1] == 1, "divisor must be monic"
    r = [x % M for x in a]
    q = [0] * max(0, len(r) - len(b) + 1)
    for k in range(len(r) - len(b), -1, -1):
        c = r[k + len(b) - 1] % M
        if c:
            q[k] = c
            for i, y in enumerate(b):
                r[k + i] = (r[k + i] - c * y) % M
    return _ptrim(q), _ptrim(r)


def _pgcd_bezout_modp(a, b, p):
    """Extended Euclid over F_p: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = [x % p for x in a], [x % p for x in b]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while _ptrim(list(r1)):
        lc = r1[-1]
        inv = pow(lc, -1, p)
        r1m = [(x * inv) % p for x in r1]
        q, r = _pdivmod(r0, r1m, p)
        q = [(x * inv) % p for x in q]
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    lc = r0[-1]
    inv = pow(lc, -1, p)
    mk = lambda v: _ptrim([(x * inv) % p for x in v])
    return mk(r0), mk(s0), mk(t0)


def _hensel_pair(phi, h0, g0, p, N):
    """Lift phi = h0*g0 (mod p) to phi = h*g (mod p^N), h monic of fixed degree."""
    g, s, t = _pgcd_bezout_modp(h0, g0, p)
    assert g == [1], "factors are not coprime mod p"
    h, gg = [x % p for x in h0], [x % p for x in g0]
    m = p
    while m < p**N:
        m2 = min(m * m, p**N)
        e = _psub(phi, _pmul(h, gg, m2), m2)
        q, r = _pdivmod(_pmul(t, e, m2), h, m2)
        h = _padd(h, r, m2)
        gg = _padd(gg, _padd(_pmul(s, e, m2), _pmul(q, gg, m2), m2), m2)
        b = _psub(_padd(_pmul(s, h, m2), _pmul(t, gg, m2), m2), [1], m2)
        q2, r2 = _pdivmod(_pmul(s, b, m2), gg, m2)
        s = _psub(s, r2, m2)
        t = _psub(t, _padd(_pmul(t, b, m2), _pmul(q2, h, m2), m2), m2)
        m = m2
    M = p**N
    assert _psub(phi, _pmul(h, gg, M), M) == [], "Hensel lift failed"
    return h, gg


def _smallest_factor_modp(mprime: int, p: int) -> list[int]:
    """Lexicographically smallest monic irreducible factor of Phi_{m'} mod p,
    by Berlekamp's algorithm (Phi_{m'} is squarefree mod p, as p !| m')."""
    phi = [c % p for c in cyclotomic_coeffs(mprime)]
    n = len(phi) - 1
    # row i of Q is x^(i p) mod phi; v^p = v mod phi iff v (Q - I) = 0
    xp = _pdivmod([0] * p + [1], phi, p)[1]
    Q, row = [], [1]
    for _ in range(n):
        Q.append(row + [0] * (n - len(row)))
        row = _pdivmod(_pmul(row, xp, p), phi, p)[1]
    kernel = kernel_mod([[Q[i][j] - (i == j) for i in range(n)]
                         for j in range(n)], p)
    # each kernel vector v splits a factor g as the product of the
    # gcd(g, v - s), s in F_p; the whole basis separates all the factors
    factors = [phi]
    for v in kernel:
        if len(factors) == len(kernel):
            break
        gcds = (_pgcd_bezout_modp(g, _psub(v, [s], p), p)[0]
                for g in factors for s in range(p))
        factors = [d for d in gcds if len(d) > 1]
    return sorted(factors)[0]


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------

def _companion(poly, M, dtype) -> np.ndarray:
    """Multiplication by t on (Z/M)[t]/poly, poly monic, in the basis
    1, t, ..., t^(d-1)."""
    d = len(poly) - 1
    C = np.zeros((d, d), dtype=dtype)
    C[range(1, d), range(d - 1)] = 1
    C[:, -1] = [-c % M for c in poly[:-1]]
    return C


def _matpow(A, n: int, M) -> np.ndarray:
    """A^n mod M by repeated squaring; a row of A times a column stays
    below dim (M - 1)^2, which the ring's dtype holds."""
    out = np.eye(len(A), dtype=A.dtype)
    while n:
        if n & 1:
            out = out @ A % M
        A = A @ A % M
        n >>= 1
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# the chain ring
# ---------------------------------------------------------------------------

class ChainRing:
    """O/p^N with p-power root level a and unramified part of conductor m'."""

    def __init__(self, p: int, N: int, a: int, mprime: int = 1):
        if not isprime(p):
            raise ValueError(f"{p} is not prime")
        if N < 1 or a < 0 or mprime < 1:
            raise ValueError("bad chain ring parameters")
        if mprime % p == 0:
            raise ValueError("m' must be prime to p")
        self.p, self.N, self.a, self.mprime = p, N, a, mprime
        self.pN = p**N
        self.f = 1  # the multiplicative order of p mod m'
        while pow(p, self.f, mprime) != 1 % mprime:
            self.f += 1
        self.e = p ** (a - 1) * (p - 1) if a >= 1 else 1
        self.cap = N * self.e  # pi^cap = 0
        self.dim = self.f * self.e
        # element arrays: int64 while a length-dim sum of products of two
        # reduced coefficients fits, Python integers beyond (see below)
        self.dtype = (np.int64 if self.dim * (self.pN - 1) ** 2 <= _I64
                      else object)

        h0 = _smallest_factor_modp(mprime, p)
        assert len(h0) == self.f + 1
        phi = list(cyclotomic_coeffs(mprime))
        if len(h0) == len(phi):  # Phi_{m'} already irreducible mod p
            self.h = [c % self.pN for c in phi]
        else:
            g0, _ = _pdivmod(phi, h0, p)
            self.h, _ = _hensel_pair([c % self.pN for c in phi], h0, g0, p, N)
        assert len(self.h) == self.f + 1 and self.h[-1] == 1

        if a >= 1:
            # Psi(z) = Phi_{p^a}(1+z), Eisenstein over Z_p
            cyc = cyclotomic_coeffs(p**a)
            psi = [0] * (self.e + 1)
            row = [1]  # (1+z)^k, advanced at the end of each pass
            for c in cyc:
                for i, b in enumerate(row):
                    psi[i] = (psi[i] + c * b) % self.pN
                row = _padd(row, [0] + list(row), self.pN)
            self.psi = psi
            assert psi[self.e] == 1
            assert psi[0] % self.pN == p % self.pN, "Psi(0) must be p"
            assert all(c % p == 0 for c in psi[:-1]), "Psi must be Eisenstein"
        else:
            self.psi = None

        # operators of x and z; for a = 0, e = 1 and only C_z^0 is used
        self._cx = _companion(self.h, self.pN, self.dtype)
        self._cz = _companion(self.psi or [0, 1], self.pN, self.dtype)
        self.zero = _frozen(np.zeros(self.dim, dtype=self.dtype))
        self.one = _frozen(self.from_int(1))
        self._inv_cache: dict[tuple, np.ndarray] = {}
        self._embed_cache: dict[int, np.ndarray] = {}

    def key(self):
        return (self.p, self.N, self.a, self.mprime)

    def __repr__(self):
        return (f"ChainRing(p={self.p}, N={self.N}, a={self.a}, "
                f"m'={self.mprime}; f={self.f}, e={self.e})")

    # -- single elements ------------------------------------------------

    def monomial(self, i: int, j: int, c: int = 1) -> np.ndarray:
        out = np.zeros(self.dim, dtype=self.dtype)
        out[i * self.e + j] = c % self.pN
        return out

    def from_int(self, n: int) -> np.ndarray:
        return self.monomial(0, 0, n)

    @property
    def z_elt(self) -> np.ndarray:
        if self.a == 0:
            raise ValueError("no ramified part when a = 0")
        # for e = 1 the class of z is the root -psi[0] of Psi(z) = z + p
        if self.e > 1:
            return self.monomial(0, 1)
        return self.from_int(-self.psi[0])

    @property
    def pi(self) -> np.ndarray:
        return self.z_elt if self.a >= 1 else self.from_int(self.p)

    def mul(self, u, v) -> np.ndarray:
        return self.mul_arrays(u, v)

    def val(self, u) -> int:
        """pi-adic valuation in [0, cap]; val = cap exactly for zero."""
        return int(self.valuations(u))

    def inv(self, u) -> np.ndarray:
        """Inverse of a unit: Newton's iteration w <- w (2 - u w) from the
        residue field inverse, which doubles the correct pi-adic digits
        each step.  Memoized per ring."""
        key = tuple(u.tolist())
        w = self._inv_cache.get(key)
        if w is not None:
            return w
        if self.val(u) != 0:
            raise ValueError("not a unit")
        p, e, pN = self.p, self.e, self.pN
        g, s, _ = _pgcd_bezout_modp((u[::e] % p).tolist(), self.h, p)
        assert g == [1], "unit has non-invertible residue"
        w = np.zeros(self.dim, dtype=self.dtype)
        w[:len(s) * e:e] = s
        U = self.mul_table(u)
        for _ in range(self.cap.bit_length() + 2):
            t = w @ U % pN  # u w
            if np.array_equal(t, self.one):
                if len(self._inv_cache) < 1 << 16:
                    self._inv_cache[key] = _frozen(w)
                return w
            w = self.mul_arrays(w, (2 * self.one - t) % pN)
        raise BlockExtError("unit inversion did not converge")

    def div_dominated(self, b, a) -> np.ndarray:
        """q with q * a = b, exact; requires val(b) >= val(a)."""
        v = self.val(a)
        if self.val(b) < v:
            raise ValueError("division by an element of larger valuation")
        return self.mul(self.div_pi_power(b, v),
                        self.inv(self.div_pi_power(a, v)))

    # -- roots of unity and embeddings --------------------------------

    def zeta_elt(self, m: int) -> np.ndarray:
        """A primitive m-th root of unity; m must divide p^a * m'.  It is
        y^(p^(a-j) alpha) x^((m'/d) beta) for m = p^j d, y = 1 + z; each
        factor is the first column of a power of its operator."""
        cached = self._embed_cache.get(m)
        if cached is not None:
            return cached
        pj, d = 1, m
        j = 0
        while d % self.p == 0:
            d //= self.p
            pj *= self.p
            j += 1
        if j > self.a or self.mprime % d:
            raise ValueError(f"no primitive {m}-th root in {self!r}")
        pN = self.pN
        xs = _matpow(self._cx, (self.mprime // d) * pow(pj, -1, d), pN)
        ys = _matpow(self._cz + np.eye(self.e, dtype=self.dtype),
                     self.p ** (self.a - j) * pow(d, -1, pj), pN)
        out = _frozen(np.kron(xs[:, 0], ys[:, 0]) % pN)
        self._embed_cache[m] = out
        return out

    def root_powers(self, m: int) -> np.ndarray:
        """zeta_m^k for k < m, as an element array."""
        Z = self.mul_table(self.zeta_elt(m))
        out = np.zeros((m, self.dim), dtype=self.dtype)
        out[0] = self.one
        for k in range(1, m):
            out[k] = out[k - 1] @ Z % self.pN
        return out

    def embed_cyclo(self, value: CycloNumber) -> np.ndarray:
        """Ring image of a cyclotomic number with p'-part denominators."""
        den = 1
        for c in value.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        if den % self.p == 0:
            raise ValueError("denominator is not prime to p")
        nums = np.array([c.numerator * (den // c.denominator) % self.pN
                         for c in value.coeffs], dtype=self.dtype)
        powers = self.root_powers(value.m)[:len(nums)]
        acc = (nums[:, None] * powers % self.pN).sum(axis=0) % self.pN
        if den != 1:
            acc = self.mul(acc, self.inv(self.from_int(den)))
        return acc

    def residue_ring(self) -> "ChainRing":
        return chain_ring(self.p, 1, 0, self.mprime)

    # -- element arrays ------------------------------------------------
    #
    # Arrays of shape (..., dim) hold reduced coefficients.  Products are
    # contractions of length dim, reduced in between, in self.dtype; the
    # overflow bound is derived in the chainlinalg docstring.

    @cached_property
    def mult_tensor(self) -> np.ndarray:
        """T with (u*v)[k] = sum_{i,j} u[i] v[j] T[k,i,j] (mod p^N); the
        slice T[:, i*e + j, :] is C_h^i (x) C_Psi^j, the operator of
        x^i z^j."""
        pN = self.pN
        xs = [_matpow(self._cx, i, pN) for i in range(self.f)]
        zs = [_matpow(self._cz, j, pN) for j in range(self.e)]
        ops = np.array([np.kron(X, Z) % pN for X in xs for Z in zs],
                       dtype=self.dtype)
        return _frozen(np.ascontiguousarray(ops.transpose(1, 0, 2)))

    def mul_table(self, V) -> np.ndarray:
        """W[..., i, k] = (x^i z^j * v)[k] for basis index i: v as an operator."""
        d = self.dim
        W = V @ self.mult_tensor.transpose(2, 1, 0).reshape(d, d * d)
        W %= self.pN
        return W.reshape(V.shape + (d,))

    def mul_arrays(self, U, V) -> np.ndarray:
        """Elementwise products of two broadcast element arrays; V is the
        one expanded, so pass the smaller array there."""
        out = (U[..., None, :] @ self.mul_table(V))[..., 0, :]
        out %= self.pN
        return out

    def matmul(self, A, B) -> np.ndarray:
        """Ring matrix product of (..., n, k, dim) and (..., k, m, dim).
        The operators of B are built once; A goes through them in row
        blocks of about BLOCK elements."""
        k, m, d = B.shape[-3:]
        Bm = np.swapaxes(self.mul_table(B), -3, -2).reshape(
            B.shape[:-3] + (k * d, m * d))
        A2 = A.reshape(A.shape[:-2] + (k * d,))
        out = np.zeros(np.broadcast_shapes(A.shape[:-3], B.shape[:-3])
                       + (A.shape[-3], m * d), dtype=self.dtype)
        step = d * (k if self.dtype is object
                    else _I64 // (d * (self.pN - 1) ** 2))
        rows = max(1, BLOCK // max(1, k * d))
        for r in range(0, A.shape[-3], rows):
            part = out[..., r:r + rows, :]  # a view: sums land in out
            for s in range(0, k * d, step):
                part += (A2[..., r:r + rows, s:s + step]
                         @ Bm[..., s:s + step, :]) % self.pN
                part %= self.pN
        return out.reshape(out.shape[:-1] + (m, d))

    @cached_property
    def _vp_table(self) -> np.ndarray:
        """v_p on [0, p^K), K <= N, at most 2^16 entries; entry 0 is K."""
        p, K = self.p, self.N
        while K > 1 and p ** K > 1 << 16:
            K -= 1
        tab = np.zeros(p ** K, dtype=np.int16)
        for k in range(1, K + 1):
            tab[::p ** k] += 1
        return _frozen(tab)

    def valuations(self, A) -> np.ndarray:
        """val() of every element of an element array, as int64."""
        N, e, tab = self.N, self.e, self._vp_table
        K, width = int(tab[0]), len(tab)
        vp = tab[(A if width == self.pN else A % width).astype(np.intp,
                                                              copy=False)]
        for depth in range(K, N, K):  # coefficients with K zero low digits
            A = A // width
            deep = vp == depth
            vp[deep] += tab[(A[deep] % width).astype(np.intp)]
        vp = vp.reshape(vp.shape[:-1] + (self.f, e)).min(axis=-2)
        out = np.full(vp.shape[:-1], self.cap, dtype=np.int64)
        for j in range(e):  # v_pi = min_j (j + e v_p(s_j)), zero at cap
            np.minimum(out, vp[..., j].astype(np.int64) * e + j, out=out)
        return out

    def div_pi_power(self, A, v: int) -> np.ndarray:
        """Exact quotients by c = p^(v // e) pi^(v % e), an element of
        valuation v: c * out = A for every element, all of val >= v."""
        p, e, pN = self.p, self.e, self.pN
        out = A // p ** (v // e)  # val >= (v // e) e forces p^(v // e) | coeffs
        if v % e:
            X = out.reshape(out.shape[:-1] + (self.f, e))
            psi = np.array(self.psi[1:e], dtype=self.dtype)
            for _ in range(v % e):  # one division by pi, all elements
                qe = (-(X[..., :1] // p)) % pN
                X = np.concatenate([(X[..., 1:] + qe * psi) % pN, qe], axis=-1)
            out = X.reshape(A.shape)
        return out


@lru_cache(maxsize=None)
def chain_ring(p: int, N: int, a: int, mprime: int = 1) -> ChainRing:
    return ChainRing(p, N, a, mprime)
