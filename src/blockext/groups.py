"""Groups G = D x| E: construction, validation, orbits, and subgroup data.

D is an abelian p-group given by invariant factor exponents, E a p'-group
given by permutation generators, and the action is specified per generator
by an integer matrix on exponent vectors and extended along the Cayley
table.  E is enumerated explicitly, and C_D(F) is read off layer ranks
over F_p; the scale is desk-sized by design and guarded by an order bound.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType

from .cyclotomic import isprime, rref_mod
from .errors import OrderBoundExceeded, SpecValidationError

# the default cap on cochain cells, and the least cap on |D| at validation
DEFAULT_SIZE_GUARD = 250000


# ---------------------------------------------------------------------------
# the defect group D
# ---------------------------------------------------------------------------

class AbelianPGroup:
    """C_{p^{n_1}} x ... x C_{p^{n_t}} with elements as exponent tuples."""

    def __init__(self, p: int, orders: list[int]):
        if not isprime(p):
            raise SpecValidationError("p-not-prime", f"{p} is not prime")
        if not orders or any(n < 1 for n in orders):
            raise SpecValidationError(
                "d-not-p-power", "D needs positive invariant exponents")
        self.p = p
        self.orders = tuple(orders)
        self.t = len(orders)
        self.qs = tuple(p**n for n in orders)
        self.exponent = p ** max(orders)
        self.order = 1
        for q in self.qs:
            self.order *= q
        self.identity = (0,) * self.t
        # Assumption (ii) for p = 2: no C_2 direct factor
        self.assumption_ok = p != 2 or all(n > 1 for n in orders)

    def elements(self) -> list[tuple]:
        out = [()]
        for q in self.qs:
            out = [x + (i,) for x in out for i in range(q)]
        return out

    def add(self, x, y) -> tuple:
        return tuple((a + b) % q for a, b, q in zip(x, y, self.qs))

    def order_of(self, x) -> int:
        return lcm(*(q // gcd(a, q) for a, q in zip(x, self.qs))) if any(x) else 1

    def apply_matrix(self, M, x) -> tuple:
        return tuple(sum(M[i][j] * x[j] for j in range(self.t)) % self.qs[i]
                     for i in range(self.t))

    def __repr__(self):
        parts = " x ".join(f"C_{q}" for q in self.qs)
        return f"AbelianPGroup({parts})"


# ---------------------------------------------------------------------------
# linear characters of D
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearChar:
    """lambda(x) = prod zeta_{p^{n_i}}^{a_i x_i}, stored by exponent vector."""

    group: AbelianPGroup = field(compare=False)
    vec: tuple

    def value_exponent(self, x) -> int:
        """Exponent k with lambda(x) = zeta_{exp(D)}^k."""
        D = self.group
        qm = D.exponent
        return sum(a * xi * (qm // q)
                   for a, xi, q in zip(self.vec, x, D.qs)) % qm

    def mul(self, other: "LinearChar") -> "LinearChar":
        D = self.group
        return LinearChar(D, tuple((a + b) % q for a, b, q in
                                   zip(self.vec, other.vec, D.qs)))

    def inverse(self) -> "LinearChar":
        D = self.group
        return LinearChar(D, tuple((-a) % q for a, q in zip(self.vec, D.qs)))

    def order(self) -> int:
        return lcm(*(q // gcd(a, q) for a, q in zip(self.vec, self.group.qs))) \
            if any(self.vec) else 1

    def is_trivial(self) -> bool:
        return not any(self.vec)

    def __repr__(self):
        return f"LinearChar{self.vec}"


# ---------------------------------------------------------------------------
# the p'-group E
# ---------------------------------------------------------------------------

class FiniteGroup:
    """Explicit finite group: element list, Cayley table, classes.  The
    element data are tuples, as groups are shared through block memos."""

    def __init__(self, perms: list[tuple], table: list[list[int]],
                 generators: list[int]):
        self.perms = tuple(perms)
        self.n = len(perms)
        self.table = tuple(map(tuple, table))
        self.generators = tuple(generators)
        self.inverse = tuple(row.index(0) for row in self.table)
        self.order_of = tuple(self._elt_order(i) for i in range(self.n))
        self.exponent = lcm(*self.order_of) if self.n > 1 else 1

    def _elt_order(self, i) -> int:
        o, x = 1, i
        while x != 0:
            x = self.table[x][i]
            o += 1
        return o

    def power(self, i: int, k: int) -> int:
        k %= self.order_of[i]
        out = 0
        for _ in range(k):
            out = self.table[out][i]
        return out

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.n
        classes = []
        for i in range(self.n):
            if seen[i]:
                continue
            orbit = {i}
            queue = [i]
            while queue:
                x = queue.pop()
                for g in range(self.n):
                    y = self.table[self.table[g][x]][self.inverse[g]]
                    if y not in orbit:
                        orbit.add(y)
                        queue.append(y)
            cls = tuple(sorted(orbit))
            for x in cls:
                seen[x] = True
            classes.append(cls)
        return tuple(sorted(classes))

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        co = [0] * self.n
        for k, cls in enumerate(self.classes):
            for x in cls:
                co[x] = k
        return tuple(co)

    def subgroup(self, indices: list[int]) -> tuple["FiniteGroup", list[int]]:
        """Subgroup on the given closed element set; returns (group, embed)."""
        embed = sorted(set(indices))
        pos = {g: i for i, g in enumerate(embed)}
        assert 0 in pos, "subgroup must contain the identity"
        table = [[pos[self.table[a][b]] for b in embed] for a in embed]
        gens = [pos[g] for g in embed if g != 0]
        sub = FiniteGroup([self.perms[g] for g in embed], table, gens)
        return sub, embed

    def __repr__(self):
        return f"FiniteGroup(order={self.n})"


def _compose(a: tuple, b: tuple) -> tuple:
    # (a*b)(i) = a[b[i]]: b acts first
    return tuple(a[j] for j in b)


def build_group(generators: list[tuple], order_bound: int = 512) -> FiniteGroup:
    """BFS closure of permutation generators, deterministic element order."""
    if generators:
        npts = len(generators[0])
        if any(len(g) != npts or sorted(g) != list(range(npts))
               for g in generators):
            raise SpecValidationError(
                "action-shape", "generators must be permutations of one point set")
    else:
        npts = 1
    ident = tuple(range(npts))
    elems = [ident]
    index = {ident: 0}
    queue = [0]
    while queue:
        i = queue.pop(0)
        for g in generators:
            y = _compose(elems[i], g)
            if y not in index:
                if len(elems) >= order_bound:
                    raise OrderBoundExceeded(
                        f"group closure exceeded the order bound {order_bound}")
                index[y] = len(elems)
                elems.append(y)
                queue.append(index[y])
    table = [[index[_compose(a, b)] for b in elems] for a in elems]
    gen_idx = [index[g] for g in generators]
    return FiniteGroup(elems, table, gen_idx)


# ---------------------------------------------------------------------------
# the action of E on D and the semidirect product data
# ---------------------------------------------------------------------------

class ActionMap:
    """Matrices M[e] for every e in E with x -> M x on exponent vectors."""

    def __init__(self, D: AbelianPGroup, E: FiniteGroup,
                 gen_matrices: list[list[list[int]]]):
        self.D, self.E = D, E
        t = D.t
        canon = []
        for M in gen_matrices:
            if len(M) != t or any(len(row) != t for row in M):
                raise SpecValidationError(
                    "action-shape", f"action matrix must be {t}x{t}")
            canon.append(self._canon(M))
        for M in canon:
            self._check_divisibility(M)
        # extend along BFS words and verify the homomorphism property
        mats: list = [None] * E.n
        mats[0] = self._canon([[1 if i == j else 0 for j in range(t)]
                               for i in range(t)])
        queue = [0]
        while queue:
            i = queue.pop(0)
            for g, Mg in zip(E.generators, canon):
                j = E.table[i][g]
                if mats[j] is None:
                    mats[j] = self._mat_mul(mats[i], Mg)
                    queue.append(j)
        assert all(M is not None for M in mats)
        self.mats = tuple(mats)
        # each generator keeps its own matrix, and M[e] M[e^-1] = M[1] = I
        # makes every M[e] invertible
        if any(mats[g] != M for g, M in zip(E.generators, canon)) or any(
                self._mat_mul(mats[i], mats[j]) != mats[E.table[i][j]]
                for i in range(E.n) for j in range(E.n)):
            raise SpecValidationError(
                "action-not-homomorphism",
                "generator matrices do not extend to a homomorphism")

    def _canon(self, M):
        return tuple(tuple(M[i][j] % self.D.qs[i] for j in range(self.D.t))
                     for i in range(self.D.t))

    def _check_divisibility(self, M):
        p, orders = self.D.p, self.D.orders
        for i in range(self.D.t):
            for j in range(self.D.t):
                need = max(0, orders[i] - orders[j])
                if M[i][j] % p**need:
                    raise SpecValidationError(
                        "action-divisibility",
                        f"entry ({i},{j}) must be divisible by p^{need}")

    def _mat_mul(self, A, B):
        t = self.D.t
        return self._canon([[sum(A[i][k] * B[k][j] for k in range(t))
                             for j in range(t)] for i in range(t)])

    def apply(self, e: int, x) -> tuple:
        return self.D.apply_matrix(self.mats[e], x)

    def fixed_layers(self, F) -> list[int]:
        """dim over F_p of the vectors of layer i, p^i D / p^(i+1) D, that
        every e in F fixes, for i < max(n_j), then 0.  Layer i has the
        coordinates with n_j > i, where e acts by M[e] mod p.  F lists a
        subgroup of E or its generators; by coprime action these are the
        layers of C_D(F)."""
        D, out = self.D, []
        for i in range(max(D.orders)):
            keep = [j for j, n in enumerate(D.orders) if n > i]
            rows = [[self.mats[e][a][b] - (a == b) for b in keep]
                    for e in F for a in keep]
            out.append(len(keep) - len(rref_mod(rows, D.p)[1]))
        return out + [0]

    def on_char(self, e: int, lam: LinearChar) -> LinearChar:
        """(e . lambda)(x) = lambda(e^{-1} x)."""
        D = self.D
        Minv = self.mats[self.E.inverse[e]]
        qm = D.exponent
        cs = []
        for j in range(D.t):
            c = sum(lam.vec[i] * Minv[i][j] * (qm // D.qs[i])
                    for i in range(D.t)) % qm
            step = qm // D.qs[j]
            assert c % step == 0
            cs.append((c // step) % D.qs[j])
        return LinearChar(D, tuple(cs))


@dataclass(frozen=True)
class SemidirectGroup:
    """G = D x| E with the derived block-theoretic subgroup data.  Frozen,
    with tuples for the data, as every BlockContext and its memo share it."""

    D: AbelianPGroup
    E: FiniteGroup
    action: ActionMap
    Z: tuple[int, ...]              # element indices of C_E(D)
    z_gen: int                      # designated generator of Z
    d1_invariants: tuple[int, ...]  # [D, E]
    d2_invariants: tuple[int, ...]  # C_D(E)

    @property
    def order(self) -> int:
        return self.D.order * self.E.n

    def char_orbits(self) -> list[dict]:
        """E-orbits on Irr(D): rep (lex-least), orbit, stabilizer indices."""
        chars = [LinearChar(self.D, v) for v in self.D.elements()]
        index = {lam.vec: i for i, lam in enumerate(chars)}
        seen = [False] * len(chars)
        orbits = []
        for i, lam in enumerate(chars):
            if seen[i]:
                continue
            orbit = {lam.vec}
            queue = [lam]
            while queue:
                mu = queue.pop()
                for e in self.E.generators:
                    nu = self.action.on_char(e, mu)
                    if nu.vec not in orbit:
                        orbit.add(nu.vec)
                        queue.append(nu)
            rep_vec = min(orbit)
            rep = chars[index[rep_vec]]
            stab = [e for e in range(self.E.n)
                    if self.action.on_char(e, rep).vec == rep_vec]
            for v in orbit:
                seen[index[v]] = True
            orbits.append({"rep": rep, "orbit": sorted(orbit),
                           "stabilizer": stab})
        return orbits


def validate_block_spec(p: int, orders: list[int],
                        generators: list[tuple[tuple, list[list[int]]]],
                        *, order_bound: int = 512,
                        size_guard: int | None = None) -> SemidirectGroup:
    """Build and validate G = D x| E from raw spec data.

    generators is a list of (permutation, action matrix) pairs.  Returns the
    SemidirectGroup; raises SpecValidationError with a distinct code for each
    violated hypothesis.  The p = 2 small-factor assumption is recorded on D
    rather than raised here; analysis-level entry points refuse it.  A D of
    more than max(DEFAULT_SIZE_GUARD, size_guard) elements is refused with
    OrderBoundExceeded before p is tested or any element is listed.
    """
    bound = max(DEFAULT_SIZE_GUARD, size_guard or 0)
    total = sum(orders)
    # p^k > bound for k past the bound's bit length, as p >= 2
    if p > 1 and min(orders, default=0) >= 1 and \
            p ** min(total, bound.bit_length()) > bound:
        raise OrderBoundExceeded(
            f"D of order {p}^{total} exceeds the bound {bound}")
    D = AbelianPGroup(p, orders)
    E = build_group([g for g, _ in generators], order_bound)
    if E.n % p == 0:
        raise SpecValidationError("p-divides-E", f"|E| = {E.n} is divisible by p")
    action = ActionMap(D, E, [M for _, M in generators])

    ident = tuple(tuple(1 if i == j else 0 for j in range(D.t))
                  for i in range(D.t))
    Z = [e for e in range(E.n) if action.mats[e] == ident]
    if any(E.table[z][e] != E.table[e][z] for z in Z for e in range(E.n)):
        raise SpecValidationError("Z-not-cyclic", "C_E(D) is not central in E")
    zorder = len(Z)
    cyclic_gens = [z for z in Z if E.order_of[z] == zorder]
    if not cyclic_gens:
        raise SpecValidationError("Z-not-cyclic", "C_E(D) is not cyclic")
    z_gen = min(cyclic_gens) if zorder > 1 else 0

    # D = [D, E] x C_D(E) by coprime action, and layers add
    c = action.fixed_layers(E.generators)
    d1 = [sum(n > i for n in orders) - ci for i, ci in enumerate(c)]
    return SemidirectGroup(
        D=D, E=E, action=action, Z=tuple(Z), z_gen=z_gen,
        d1_invariants=_invariants(d1), d2_invariants=_invariants(c))


def _invariants(layers: list[int]) -> tuple[int, ...]:
    """Invariant exponents, ascending, of the abelian p-group whose layer
    i has dimension layers[i]; the list ends in 0."""
    return tuple(i + 1 for i in range(len(layers) - 1)
                 for _ in range(layers[i] - layers[i + 1]))


@dataclass
class BlockContext:
    """A validated block B = O(D x| E) e_phi plus its working options.

    options are the user's settings, held read-only.  cache holds what is
    derived once per block, all of it immutable; memo is its one reader
    and writer.  Keys: "irr_B", "ibr" and "decomposition" for Irr(B),
    IBr(B) and the decomposition matrix, and "ext1" for the table of dim_k
    Ext^1 between simple modules; tuples tagged "module" (induced) and
    "vchi" (the lines they are induced from) for module representations,
    "ext" for the Ext profiles (Ext^0, ..., Ext^max(i, 1)) of block pairs,
    and "line" for the profiles (H^0, ..., H^top)(D, O_nu) that the Koszul
    route and ext_abelian_oracle sum.
    """

    G: SemidirectGroup
    phi_exponent: int
    options: Mapping = field(default_factory=dict)
    cache: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    def __post_init__(self):
        self.options = MappingProxyType(dict(self.options))
        zorder = len(self.G.Z)
        if zorder > 1 and gcd(self.phi_exponent, zorder) != 1:
            raise SpecValidationError(
                "phi-not-faithful",
                f"exponent {self.phi_exponent} is not faithful on Z of order {zorder}")

    def memo(self, key, build, *args):
        """The value stored under key, or build(*args), stored there first."""
        try:
            return self.cache[key]
        except KeyError:
            pass  # build outside the handler: its errors carry no KeyError
        out = self.cache[key] = build(*args)
        return out

    @property
    def z_order(self) -> int:
        return len(self.G.Z)
