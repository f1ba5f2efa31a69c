"""A scalar reference for ChainRing, sharing no code with its array kernels.

Elements are tuples of dim integers, entry i*e + j the coefficient of
x^i z^j, as in ChainRing.  The product is the schoolbook one, reduced by
the defining polynomials R.h and R.psi; the valuation reads the
coefficients; division is exact, through repeated division by pi and a
Newton-lifted inverse.  Slow, and only for tests.
"""


class RefRing:
    def __init__(self, R):
        self.p, self.pN, self.a = R.p, R.pN, R.a
        self.f, self.e, self.cap, self.dim = R.f, R.e, R.cap, R.dim
        self.h, self.psi = R.h, R.psi
        self.zero = (0,) * self.dim
        self.one = self.from_int(1)
        if self.a == 0:
            self.pi = self.from_int(self.p)
        elif self.e == 1:  # Psi(z) = z + p
            self.pi = self.from_int(-self.psi[0])
        else:
            self.pi = tuple(1 if k == 1 else 0 for k in range(self.dim))

    def from_int(self, n):
        return (n % self.pN,) + (0,) * (self.dim - 1)

    def add(self, u, v):
        return tuple((a + b) % self.pN for a, b in zip(u, v))

    def sub(self, u, v):
        return tuple((a - b) % self.pN for a, b in zip(u, v))

    def mul(self, u, v):
        f, e, pN = self.f, self.e, self.pN
        W = [[0] * (2 * e - 1) for _ in range(2 * f - 1)]
        for i in range(f):
            for j in range(e):
                for k in range(f):
                    for l in range(e):
                        W[i + k][j + l] += u[i * e + j] * v[k * e + l]
        # z^t = -z^(t-e) (psi_0 + ... + psi_(e-1) z^(e-1)), top power first
        for row in W:
            for t in range(2 * e - 2, e - 1, -1):
                c, row[t] = row[t], 0
                for j in range(e):
                    row[t - e + j] -= c * self.psi[j]
        for t in range(2 * f - 2, f - 1, -1):  # the same for x and h
            for j in range(e):
                c, W[t][j] = W[t][j], 0
                for i in range(f):
                    W[t - f + i][j] -= c * self.h[i]
        return tuple(W[i][j] % pN for i in range(f) for j in range(e))

    def power(self, u, n):
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, u)
            u = self.mul(u, u)
            n >>= 1
        return out

    def val(self, u):
        """min_j (j + e v_p(s_j)) over the z-coefficients s_j; cap for 0."""
        best = self.cap
        for k, c in enumerate(u):
            if c:
                vp = 0
                while c % self.p == 0:
                    c //= self.p
                    vp += 1
                best = min(best, k % self.e + self.e * vp)
        return best

    def div_pi(self, u):
        """Some q with pi q = u; requires val(u) >= 1."""
        p, pN, e = self.p, self.pN, self.e
        assert self.val(u) >= 1
        if self.a == 0:
            return tuple(c // p for c in u)
        # z q = u in each x-block, with t = q_(e-1):
        # u_0 = -p t and u_j = q_(j-1) - psi_j t
        out = []
        for i in range(self.f):
            s = u[i * e:(i + 1) * e]
            top = -(s[0] // p)
            out += [(s[j] + top * self.psi[j]) % pN for j in range(1, e)]
            out.append(top % pN)
        return tuple(out)

    def inv(self, u):
        """Inverse of a unit: u^(p^f - 2) is one mod pi, then Newton."""
        w = self.power(u, self.p ** self.f - 2)
        while self.mul(u, w) != self.one:
            w = self.mul(w, self.sub(self.from_int(2), self.mul(u, w)))
        return w

    def div(self, b, a):
        """q with q a = b, exact; requires val(b) >= val(a)."""
        va, vb = self.val(a), self.val(b)
        assert vb >= va
        if vb >= self.cap:
            return self.zero
        for _ in range(va):
            a, b = self.div_pi(a), self.div_pi(b)
        return self.mul(b, self.inv(a))
