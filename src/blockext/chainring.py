"""The coefficient ring O/p^N as an explicit finite chain ring.

O = W(F_{p^f})[zeta_{p^a}] is the complete discrete valuation ring obtained
from the Witt vectors of F_{p^f} by adjoining a primitive p^a-th root of
unity; f is the multiplicative order of p modulo m', the p'-part of the
conductor needed for the characters in play.  Its quotient O/p^N is realized
concretely as

    (Z/p^N)[x, z] / (h(x), Psi(z))

where h is a Hensel-lifted irreducible degree-f factor of the m'-th
cyclotomic polynomial (the lexicographically smallest factor mod p is chosen
for determinism) and Psi(z) = Phi_{p^a}(1 + z), an Eisenstein polynomial of
degree e = phi(p^a).  The class of x is a primitive m'-th root of unity, and
y = 1 + z is a primitive p^a-th root, so pi = y - 1 = z generates the maximal
ideal (pi = p when a = 0) and pi^(N*e) = 0.

Elements are flat tuples of f*e integers in [0, p^N): entry i*e + j is the
coefficient of x^i z^j.  In this basis the pi-adic valuation can be read off
directly: v_pi(sum_j s_j(x) z^j) = min_j (j + e * v_p(s_j)) because the terms
have pairwise distinct valuations mod e.  That makes exact unit/pi^k
factorization, and hence Smith normal forms, cheap.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np
import sympy

from .cyclotomic import CycloNumber, cyclotomic_coeffs
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
    """Lexicographically smallest monic irreducible factor of Phi_{m'} mod p."""
    phi = list(cyclotomic_coeffs(mprime))
    x = sympy.Symbol("x")
    poly = sympy.Poly(phi[::-1], x, modulus=p)
    factors = []
    for fac, mult in poly.factor_list()[1]:
        assert mult == 1, "Phi_{m'} must be separable mod p"
        coeffs = [int(c) % p for c in reversed(fac.all_coeffs())]
        factors.append(tuple(coeffs))
    factors.sort()
    return list(factors[0])


# ---------------------------------------------------------------------------
# the chain ring
# ---------------------------------------------------------------------------

class ChainRing:
    """O/p^N with p-power root level a and unramified part of conductor m'."""

    def __init__(self, p: int, N: int, a: int, mprime: int = 1):
        if not sympy.isprime(p):
            raise ValueError(f"{p} is not prime")
        if N < 1 or a < 0 or mprime < 1:
            raise ValueError("bad chain ring parameters")
        if mprime % p == 0:
            raise ValueError("m' must be prime to p")
        self.p, self.N, self.a, self.mprime = p, N, a, mprime
        self.pN = p**N
        self.f = sympy.n_order(p, mprime) if mprime > 1 else 1
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

        self._x_rows = self._reduction_rows(self.h, self.f)
        self._z_rows = (self._reduction_rows(self.psi, self.e)
                        if a >= 1 else None)

        self.zero = tuple([0] * self.dim)
        one = [0] * self.dim
        one[0] = 1
        self.one = tuple(one)
        self._inv_cache: dict[tuple, tuple] = {}
        self._embed_cache: dict[int, tuple] = {}
        self._mult_tensor = None
        self._vp_table = None

    # -- construction helpers -----------------------------------------

    def _reduction_rows(self, poly, d):
        """Rows for t^k, k in [d, 2d-1), modulo the monic poly of degree d."""
        rows = []
        cur = [(-poly[i]) % self.pN for i in range(d)]
        rows.append(tuple(cur))
        for _ in range(d, 2 * d - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for i in range(d):
                    cur[i] = (cur[i] - top * poly[i]) % self.pN
            rows.append(tuple(cur))
        return rows

    def key(self):
        return (self.p, self.N, self.a, self.mprime)

    def __repr__(self):
        return (f"ChainRing(p={self.p}, N={self.N}, a={self.a}, "
                f"m'={self.mprime}; f={self.f}, e={self.e})")

    # -- element basics -----------------------------------------------

    def from_int(self, n: int) -> tuple:
        out = [0] * self.dim
        out[0] = n % self.pN
        return tuple(out)

    def monomial(self, i: int, j: int, c: int = 1) -> tuple:
        out = [0] * self.dim
        out[i * self.e + j] = c % self.pN
        return tuple(out)

    @property
    def x_elt(self) -> tuple:
        # for f = 1 the class of x is the root -h[0] of the linear factor
        if self.f > 1:
            return self.monomial(1, 0)
        return self.from_int(-self.h[0])

    @property
    def z_elt(self) -> tuple:
        if self.a == 0:
            raise ValueError("no ramified part when a = 0")
        # for e = 1 the class of z is the root -psi[0] of Psi(z) = z + p
        if self.e > 1:
            return self.monomial(0, 1)
        return self.from_int(-self.psi[0])

    @property
    def pi(self) -> tuple:
        return self.z_elt if self.a >= 1 else self.from_int(self.p)

    def add(self, u, v) -> tuple:
        pN = self.pN
        return tuple((a + b) % pN for a, b in zip(u, v))

    def sub(self, u, v) -> tuple:
        pN = self.pN
        return tuple((a - b) % pN for a, b in zip(u, v))

    def neg(self, u) -> tuple:
        pN = self.pN
        return tuple((-a) % pN for a in u)

    def smul(self, c: int, u) -> tuple:
        pN = self.pN
        c %= pN
        return tuple((c * a) % pN for a in u)

    def mul(self, u, v) -> tuple:
        f, e, pN = self.f, self.e, self.pN
        W = [[0] * (2 * e - 1) for _ in range(2 * f - 1)]
        for i in range(f):
            base = i * e
            for j in range(e):
                a = u[base + j]
                if not a:
                    continue
                for i2 in range(f):
                    b2 = i2 * e
                    Wrow = W[i + i2]
                    for j2 in range(e):
                        b = v[b2 + j2]
                        if b:
                            Wrow[j + j2] = (Wrow[j + j2] + a * b) % pN
        # fold z powers >= e
        if e > 1:
            for row in W:
                for k in range(2 * e - 2, e - 1, -1):
                    c = row[k]
                    if c:
                        row[k] = 0
                        red = self._z_rows[k - e]
                        for j in range(e):
                            if red[j]:
                                row[j] = (row[j] + c * red[j]) % pN
        # fold x powers >= f
        if f > 1:
            for k in range(2 * f - 2, f - 1, -1):
                row = W[k]
                red = self._x_rows[k - f]
                for j in range(e):
                    c = row[j]
                    if c:
                        row[j] = 0
                        for i in range(f):
                            if red[i]:
                                W[i][j] = (W[i][j] + c * red[i]) % pN
        out = []
        for i in range(f):
            out.extend(W[i][:e])
        return tuple(c % pN for c in out)

    def power(self, u, n: int) -> tuple:
        out, base = self.one, u
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    # -- valuation and unit/pi^k factorization ------------------------

    def _vp(self, c: int) -> int:
        v = 0
        while c and c % self.p == 0:
            c //= self.p
            v += 1
        return v

    def val(self, u) -> int:
        """pi-adic valuation in [0, cap]; val = cap exactly for zero."""
        e, f = self.e, self.f
        best = self.cap
        for j in range(e):
            vpj = None
            for i in range(f):
                c = u[i * e + j]
                if c:
                    v = self._vp(c)
                    if vpj is None or v < vpj:
                        vpj = v
                    if vpj == 0:
                        break
            if vpj is not None:
                best = min(best, j + e * vpj)
                if best == j:
                    break
        return best

    def divide_by_pi(self, u) -> tuple:
        """Some q with pi * q = u, exact; requires val(u) >= 1."""
        p, pN, e, f = self.p, self.pN, self.e, self.f
        if self.a == 0:
            out = []
            for c in u:
                if c % p:
                    raise ValueError("element not divisible by pi")
                out.append(c // p)
            return tuple(out)
        # solve z*q = u coefficientwise in the unramified part:
        #   q_{e-1} = -s_0/p, q_{j-1} = s_j + q_{e-1} Psi_j
        out = [0] * self.dim
        psi = self.psi
        for i in range(f):
            base = i * e
            s0 = u[base]
            if s0 % p:
                raise ValueError("element not divisible by pi")
            qe = (-(s0 // p)) % pN
            out[base + e - 1] = qe
            for j in range(1, e):
                out[base + j - 1] = (u[base + j] + qe * psi[j]) % pN
        return tuple(out)

    def unit_part(self, u, v: int | None = None) -> tuple:
        """The unit w with pi^val(u) * w = u, exact."""
        if v is None:
            v = self.val(u)
        if v >= self.cap:
            raise ValueError("zero has no unit part")
        r = u
        for _ in range(v):
            r = self.divide_by_pi(r)
        assert self.val(r) == 0
        return r

    def pi_pow(self, k: int) -> tuple:
        if k >= self.cap:
            return self.zero
        return self.power(self.pi, k)

    def inv(self, u) -> tuple:
        """Inverse of a unit, by Newton lifting from the residue field."""
        cached = self._inv_cache.get(u)
        if cached is not None:
            return cached
        if self.val(u) != 0:
            raise ValueError("not a unit")
        p, e, f = self.p, self.e, self.f
        res = [u[i * e] % p for i in range(f)]
        g, s, _ = _pgcd_bezout_modp(res, self.h, p)
        assert g == [1], "unit has non-invertible residue"
        w = [0] * self.dim
        for i, c in enumerate(s):
            w[i * e] = c % self.pN
        w = tuple(w)
        for _ in range(self.cap.bit_length() + 2):
            t = self.mul(u, w)
            if t == self.one:
                if len(self._inv_cache) < 1 << 16:
                    self._inv_cache[u] = w
                return w
            w = self.mul(w, self.sub(self.from_int(2), t))
        raise BlockExtError("unit inversion did not converge")

    def div_dominated(self, b, a) -> tuple:
        """q with q * a = b, exact; requires val(b) >= val(a)."""
        va, vb = self.val(a), self.val(b)
        if vb >= self.cap:
            return self.zero
        if vb < va:
            raise ValueError("division by an element of larger valuation")
        q = self.mul(self.unit_part(b, vb), self.inv(self.unit_part(a, va)))
        if vb > va:
            q = self.mul(self.pi_pow(vb - va), q)
        return q

    # -- roots of unity and embeddings --------------------------------

    def zeta_elt(self, m: int) -> tuple:
        """A primitive m-th root of unity; m must divide p^a * m'."""
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
        out = self.one
        if pj > 1:
            y = self.add(self.one, self.z_elt)
            alpha = pow(d, -1, pj)
            out = self.mul(out, self.power(y, self.p ** (self.a - j) * alpha))
        if d > 1:
            beta = pow(pj, -1, d)
            out = self.mul(out, self.power(self.x_elt, (self.mprime // d) * beta))
        self._embed_cache[m] = out
        return out

    def root_powers(self, m: int) -> np.ndarray:
        """zeta_m^k for k < m, as an element array."""
        out = [self.one]
        for _ in range(m - 1):
            out.append(self.mul(out[-1], self.zeta_elt(m)))
        return np.array(out, dtype=self.dtype)

    def embed_cyclo(self, value: CycloNumber) -> tuple:
        """Ring image of a cyclotomic number with p'-part denominators."""
        den = 1
        for c in value.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        if den % self.p == 0:
            raise ValueError("denominator is not prime to p")
        root = self.zeta_elt(value.m) if value.m > 1 else self.one
        acc, power = self.zero, self.one
        for c in value.coeffs:
            num = c.numerator * (den // c.denominator)
            if num:
                acc = self.add(acc, self.smul(num, power))
            power = self.mul(power, root)
        if den != 1:
            acc = self.mul(acc, self.inv(self.from_int(den)))
        return acc

    # -- precision and residue maps -----------------------------------

    def residue_ring(self) -> "ChainRing":
        return chain_ring(self.p, 1, 0, self.mprime)

    def to_residue(self, u) -> tuple:
        """Image in the residue field F_{p^f}, killing pi."""
        e = self.e
        return tuple(u[i * e] % self.p for i in range(self.f))

    # -- element arrays ------------------------------------------------
    #
    # Arrays of shape (..., dim) hold reduced coefficients.  Products are
    # contractions of length dim, reduced in between, in self.dtype; the
    # overflow bound is derived in the chainlinalg docstring.

    @property
    def mult_tensor(self) -> np.ndarray:
        """T with (u*v)[k] = sum_{i,j} u[i] v[j] T[k,i,j] (mod p^N)."""
        if self._mult_tensor is None:
            monos = [self.monomial(i, j)
                     for i in range(self.f) for j in range(self.e)]
            T = np.array([[self.mul(a, b) for b in monos] for a in monos],
                         dtype=self.dtype).reshape(self.dim, self.dim, -1)
            self._mult_tensor = np.ascontiguousarray(T.transpose(2, 0, 1))
        return self._mult_tensor

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
        """Ring matrix product of (..., n, k, dim) and (..., k, m, dim)."""
        k, m, d = B.shape[-3:]
        Bm = np.swapaxes(self.mul_table(B), -3, -2).reshape(
            B.shape[:-3] + (k * d, m * d))
        A2 = A.reshape(A.shape[:-2] + (k * d,))
        out = np.zeros(np.broadcast_shapes(A.shape[:-3], B.shape[:-3])
                       + (A.shape[-3], m * d), dtype=self.dtype)
        step = d * (k if self.dtype is object
                    else _I64 // (d * (self.pN - 1) ** 2))
        for s in range(0, k * d, step):
            out += (A2[..., s:s + step] @ Bm[..., s:s + step, :]) % self.pN
            out %= self.pN
        return out.reshape(out.shape[:-1] + (m, d))

    def valuations(self, A) -> np.ndarray:
        """val() of every element of an element array, as int64."""
        p, N, e = self.p, self.N, self.e
        if self._vp_table is None:
            K = N  # a table on [0, p^K) with K <= N, at most 2^16 entries
            while K > 1 and p ** K > 1 << 16:
                K -= 1
            tab = np.zeros(p ** K, dtype=np.int16)
            for k in range(1, K + 1):
                tab[::p ** k] += 1
            self._vp_table = tab
        tab = self._vp_table
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
            for _ in range(v % e):  # divide_by_pi on every element at once
                qe = (-(X[..., :1] // p)) % pN
                X = np.concatenate([(X[..., 1:] + qe * psi) % pN, qe], axis=-1)
            out = X.reshape(A.shape)
        return out


@lru_cache(maxsize=None)
def chain_ring(p: int, N: int, a: int, mprime: int = 1) -> ChainRing:
    return ChainRing(p, N, a, mprime)
