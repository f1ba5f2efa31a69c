"""Isomorphism classes of finitely generated O-modules.

O is a complete discrete valuation ring of characteristic zero with residue
characteristic p, large enough to contain the roots of unity in play.  The
valuation is normalized so that v(p) = 1; then v(1 - zeta) = 1/(p^(n-1)(p-1))
for a primitive p^n-th root of unity zeta, by the product identity
prod_{1 <= i < p^n, p !| i} (1 - zeta^i) = p.  Consequently 1 - zeta lies in
pO only for (p, n) = (2, 1), where zeta = -1 and 1 - zeta = 2; every other
p-power root of unity gives v(1 - zeta) < 1.

A finitely generated O-module is O^r plus a finite torsion part, recorded
here as the multiset of valuations of the annihilators of its cyclic
summands.  That data is what the Ext machinery produces and consumes.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycloNumber, isprime, zeta


def val_one_minus_zeta(p: int, n: int) -> Fraction:
    """v(1 - zeta_{p^n}) = 1 / (p^(n-1) (p-1)) for n >= 1."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("need n >= 1")
    return Fraction(1, p ** (n - 1) * (p - 1))


def verify_cyclotomic_identity(p: int, n: int) -> bool:
    """Check prod_{1<=i<p^n, p !| i} (1 - zeta_{p^n}^i) == p by exact arithmetic."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("need n >= 1")
    q = p**n
    prod = CycloNumber.from_rational(1)
    for i in range(1, q):
        if i % p:
            prod = prod * (CycloNumber.from_rational(1) - zeta(q, i))
    return prod == p


class OModuleClass:
    """O^free_rank plus cyclic torsion O/a_k with v(a_k) the given valuations.

    Torsion valuations are positive Fractions, stored sorted descending so
    equality of classes is plain equality of the records.
    """

    __slots__ = ("p", "free_rank", "torsion")

    def __init__(self, p: int, free_rank: int, torsion=()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        vals = sorted((Fraction(t) for t in torsion), reverse=True)
        if any(v <= 0 for v in vals):
            raise ValueError("torsion valuations must be positive")
        self.p = p
        self.free_rank = free_rank
        self.torsion = tuple(vals)

    @staticmethod
    def zero(p: int) -> "OModuleClass":
        return OModuleClass(p, 0)

    @staticmethod
    def free(p: int, rank: int) -> "OModuleClass":
        return OModuleClass(p, rank)

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other: "OModuleClass") -> "OModuleClass":
        if other.p != self.p:
            raise ValueError("mixed residue characteristics")
        return OModuleClass(self.p, self.free_rank + other.free_rank,
                            self.torsion + other.torsion)

    def __add__(self, other: "OModuleClass") -> "OModuleClass":
        return self.direct_sum(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OModuleClass):
            return NotImplemented
        return (self.p, self.free_rank, self.torsion) == \
               (other.p, other.free_rank, other.torsion)

    def __hash__(self):
        return hash((self.p, self.free_rank, self.torsion))

    def _pretty_torsion(self, v: Fraction) -> str:
        if v.denominator == 1:
            return f"O/p^{v}" if v != 1 else "O/p"
        # v = 1/(p^(j-1)(p-1)) is the annihilator valuation of O/(1-zeta_{p^j})
        q = Fraction(1) / v
        if q.denominator == 1:
            rest, j = q.numerator, 1
            if rest % (self.p - 1) == 0:
                rest //= self.p - 1
                while rest % self.p == 0:
                    rest //= self.p
                    j += 1
                if rest == 1:
                    return f"O/(1-zeta_{self.p ** j})"
        return f"O/(v={v})"

    def pretty(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("O")
        elif self.free_rank > 1:
            parts.append(f"O^{self.free_rank}")
        parts.extend(self._pretty_torsion(v) for v in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"OModuleClass(p={self.p}, {self.pretty()})"


def tensor_tor(a: OModuleClass, b: OModuleClass, which: str = "tensor") -> OModuleClass:
    """Tensor product or Tor_1 over O of two module classes.

    For cyclic torsion pieces, O/x tensor O/y and Tor_1(O/x, O/y) are both
    O/z with v(z) = min(v(x), v(y)).  Tor_1 kills free summands; tensoring
    with O^r repeats the other factor r times.
    """
    if a.p != b.p:
        raise ValueError("mixed residue characteristics")
    if which not in ("tensor", "tor1"):
        raise ValueError(f"unknown operation {which!r}")
    mins = [min(s, t) for s in a.torsion for t in b.torsion]
    if which == "tor1":
        return OModuleClass(a.p, 0, mins)
    torsion = list(mins)
    torsion += [t for t in b.torsion for _ in range(a.free_rank)]
    torsion += [s for s in a.torsion for _ in range(b.free_rank)]
    return OModuleClass(a.p, a.free_rank * b.free_rank, torsion)


def kunneth_assemble(left, right, n: int) -> OModuleClass:
    """Degree-n term of the Kunneth formula for a product of two groups.

    ``left`` and ``right`` are lists of OModuleClass indexed by degree and
    must cover degrees 0..n+1: the answer is

        sum_{i+j=n} left[i] (x) right[j]  +  sum_{i+j=n+1} Tor_1(left[i], right[j]).

    The sequence splits, so the isomorphism class is determined by the data.
    """
    if n < 0:
        raise ValueError("negative degree")
    if len(left) < n + 2 or len(right) < n + 2:
        raise ValueError("need degree profiles up to degree n+1")
    p = left[0].p
    out = OModuleClass.zero(p)
    for i in range(n + 1):
        out = out + tensor_tor(left[i], right[n - i], "tensor")
    for i in range(n + 2):
        out = out + tensor_tor(left[i], right[n + 1 - i], "tor1")
    return out
