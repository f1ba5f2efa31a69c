"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Values are stored on the power basis 1, zeta, ..., zeta^(phi(m)-1) with
Fraction coefficients, reduced modulo the m-th cyclotomic polynomial.  This is
enough for character tables and for the small valuation computations done at
the O-module level; no floating point is involved anywhere.

The module also holds the prime-field helpers that the character tables and
the chain ring share: a primality test and row reduction over F_ell.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt


def isprime(n: int) -> bool:
    """Whether n is a prime number, by trial division."""
    return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    qs, q = [], 2
    while q * q <= n:
        if n % q == 0:
            qs.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        qs.append(n)
    return qs


@lru_cache(maxsize=None)
def cyclotomic_coeffs(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first:
    x^m - 1 divided exactly by Phi_d for every proper divisor d of m."""
    if m < 1:
        raise ValueError("conductor must be positive")
    num = [-1] + [0] * (m - 1) + [1]
    for d in _divisors(m)[:-1]:
        c = cyclotomic_coeffs(d)  # monic, so the division stays in Z
        q = [0] * (len(num) - len(c) + 1)
        for k in range(len(q) - 1, -1, -1):
            q[k] = num[k + len(c) - 1]
            for i, y in enumerate(c):
                num[k + i] -= q[k] * y
        num = q
    return tuple(num)


@lru_cache(maxsize=None)
def _power_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row j expresses zeta_m^j on the power basis, for every j in [0, m)."""
    coeffs = cyclotomic_coeffs(m)
    d = len(coeffs) - 1  # phi(m)
    rows: list[tuple[int, ...]] = []
    for j in range(d):
        rows.append(tuple(1 if i == j else 0 for i in range(d)))
    # zeta^d = -(c_0 + c_1 zeta + ... + c_{d-1} zeta^{d-1}), then shift up
    for j in range(d, m):
        prev = rows[j - 1]
        shifted = [0] + list(prev[:-1])
        top = prev[-1]
        if top:
            for i in range(d):
                shifted[i] -= top * coeffs[i]
        rows.append(tuple(shifted))
    return tuple(rows)


def _phi(m: int) -> int:
    return len(cyclotomic_coeffs(m)) - 1 if m > 1 else 1


class CycloNumber:
    """An element of Q(zeta_m), exact."""

    __slots__ = ("m", "coeffs", "_min")

    def __init__(self, m: int, coeffs):
        d = _phi(m)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > d:
            raise ValueError("coefficient vector longer than phi(m)")
        cs += [Fraction(0)] * (d - len(cs))
        self.m = m
        self.coeffs = tuple(cs)
        self._min = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "CycloNumber":
        return CycloNumber(1, [Fraction(q)])

    @staticmethod
    def from_root_powers(m: int, weights: dict[int, Fraction]) -> "CycloNumber":
        """Sum of weights[k] * zeta_m^k with arbitrary exponents k."""
        d = _phi(m)
        rows = _power_rows(m)
        acc = [Fraction(0)] * d
        for k, w in weights.items():
            row = rows[k % m]
            for i in range(d):
                if row[i]:
                    acc[i] += Fraction(w) * row[i]
        return CycloNumber(m, acc)

    # -- basic ring structure -----------------------------------------

    def _with(self, coeffs) -> "CycloNumber":
        return CycloNumber(self.m, coeffs)

    def __add__(self, other) -> "CycloNumber":
        a, b = _common(self, _coerce(other))
        return a._with([x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "CycloNumber":
        return self._with([-x for x in self.coeffs])

    def __sub__(self, other) -> "CycloNumber":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "CycloNumber":
        return _coerce(other) - self

    def __mul__(self, other) -> "CycloNumber":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return self._with([x * q for x in self.coeffs])
        a, b = _common(self, _coerce(other))
        d = len(a.coeffs)
        conv = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        conv[i + j] += x * y
        rows = _power_rows(a.m)
        acc = list(conv[:d])
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = rows[k % a.m]  # zeta^m = 1
                for i in range(d):
                    if row[i]:
                        acc[i] += c * row[i]
        return a._with(acc)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- field embeddings ---------------------------------------------

    def embed(self, M: int) -> "CycloNumber":
        """The same value viewed in Q(zeta_M); requires m | M."""
        if M % self.m:
            raise ValueError(f"{self.m} does not divide {M}")
        if M == self.m:
            return self
        step = M // self.m
        weights = {i * step: c for i, c in enumerate(self.coeffs) if c}
        return CycloNumber.from_root_powers(M, weights)

    def minimal(self) -> "CycloNumber":
        """Rewrite over the least conductor holding the value.

        The conductors d | m with the value in Q(zeta_d) are closed under
        gcd, since Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)), so
        they have a least member L, and L | c/q for some prime q whenever
        c is a larger one.  Dropping one prime of the conductor at a time,
        as long as the value stays inside, therefore ends at L; a prime
        that fails once fails at every smaller conductor too.
        """
        if self._min is None:
            best = self
            for q in prime_factors(self.m):
                while best.m % q == 0:
                    down = best._drop(q)
                    if down is None:
                        break
                    best = down
            self._min = best
        return self._min

    def _drop(self, q: int) -> "CycloNumber | None":
        """The value in Q(zeta_{m/q}) for a prime q | m, or None.

        If q^2 | m, Q(zeta_m) has basis zeta_m^j (j < q) over Q(zeta_{m/q})
        and power-basis index k = qi + j, so the value descends iff every
        coefficient off j = 0 vanishes.  If q || m, Q(zeta_m) is
        Q(zeta_{m/q}) (x) Q(zeta_q) through zeta_m = zeta_{m/q}^a zeta_q^b,
        a q = 1 mod m/q and b m/q = 1 mod q, and the value descends iff it
        has no part along zeta_q^j for j >= 1.
        """
        n = self.m // q
        if n % q == 0:
            if any(c for k, c in enumerate(self.coeffs) if k % q):
                return None
            return CycloNumber(n, self.coeffs[::q])
        a, b = pow(q, -1, n), pow(n, -1, q)
        rows_n, rows_q = _power_rows(n), _power_rows(q)
        acc = [[Fraction(0)] * (q - 1) for _ in range(_phi(n))]
        for k, c in enumerate(self.coeffs):
            if c:
                zq = rows_q[b * k % q]
                for i, x in enumerate(rows_n[a * k % n]):
                    if x:
                        for j, y in enumerate(zq):
                            if y:
                                acc[i][j] += c * (x * y)
        if any(any(row[1:]) for row in acc):
            return None
        return CycloNumber(n, [row[0] for row in acc])

    # -- rationality --------------------------------------------------

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def as_int(self) -> int:
        q = self.as_fraction()
        if q.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return q.numerator

    # -- comparisons and formatting -----------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b = _common(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        m = self.minimal()
        return hash((m.m, m.coeffs))

    def sort_key(self):
        m = self.minimal()
        return (m.m, tuple((c.numerator, c.denominator) for c in m.coeffs))

    def __repr__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                z = f"z{self.m}" + (f"^{i}" if i > 1 else "")
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c}*{z}")
        return " + ".join(parts).replace("+ -", "- ")


def zeta(m: int, k: int = 1) -> CycloNumber:
    """The root of unity zeta_m^k."""
    return CycloNumber.from_root_powers(m, {k % m: Fraction(1)})


def _coerce(x) -> CycloNumber:
    if isinstance(x, CycloNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNumber.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to CycloNumber")


def _common(a: CycloNumber, b: CycloNumber) -> tuple[CycloNumber, CycloNumber]:
    from math import gcd

    if a.m == b.m:
        return a, b
    M = a.m * b.m // gcd(a.m, b.m)
    return a.embed(M), b.embed(M)


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def rref_mod(M: list[list[int]], ell: int):
    """Row-reduce a copy of M over F_ell; returns (rows, pivot columns)."""
    A = [row[:] for row in M]
    nr, nc = len(A), len(A[0]) if A else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if A[i][c] % ell), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, ell)
        A[r] = [(v * inv) % ell for v in A[r]]
        for i in range(nr):
            if i != r and A[i][c] % ell:
                f = A[i][c]
                A[i] = [(a - f * b) % ell for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return A[:r], pivots


def kernel_mod(M: list[list[int]], ell: int) -> list[list[int]]:
    """A basis of the null space of M over F_ell."""
    nc = len(M[0])
    rows, pivots = rref_mod(M, ell)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * nc
        v[fc] = 1
        for r, pc in zip(rows, pivots):
            v[pc] = (-r[fc]) % ell
        basis.append(v)
    return basis
