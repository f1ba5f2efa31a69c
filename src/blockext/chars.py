"""Exact character theory for the blocks: tables, Clifford theory, Brauer side.

Character tables of the p'-groups are computed by the Dixon-Schneider
method: the common eigenvectors of the class matrices over a finite field
F_ell (ell = 1 mod exp(E), ell > 2 sqrt|E|) are the central characters, the
degrees come out of the orthogonality sum, and the actual cyclotomic values
are recovered by discrete-log lifting of root-of-unity multiplicities.  The
lift reads zeta_m as g^((ell-1)/m) for the smallest primitive root g mod
ell; another root would Galois-conjugate the values and reorder the table.
All returned values are exact CycloNumbers and every table is certified
before use: the first orthogonality relation on a square table, which
implies the second.

Irr(B) is parametrized by pairs (lambda, chi) with lambda an orbit
representative on Irr(D) and chi in Irr(E_lambda | phi), certified
distinct by Clifford theory without building D x| E; the Brauer side is
Irr(E | phi) and decomposition numbers are inner products over E_lambda
with restricted Brauer characters, by Frobenius reciprocity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .cyclotomic import (CycloNumber, isprime, kernel_mod, prime_factors,
                         rref_mod, zeta)
from .errors import BlockExtError, OrthogonalityFailure
from .groups import BlockContext, FiniteGroup, LinearChar

_ZERO = CycloNumber.from_rational(0)
_ONE = CycloNumber.from_rational(1)


class ClassFunction:
    """A class function: one CycloNumber per conjugacy class of its group."""

    def __init__(self, group: FiniteGroup, values):
        self.group = group
        self.values = tuple(values)
        assert len(self.values) == len(group.classes)

    def __call__(self, element: int) -> CycloNumber:
        return self.values[self.group.class_of[element]]

    def degree(self) -> int:
        return self.values[0].as_int()

    def values_at_inverses(self) -> tuple:
        """Values at inverse classes (complex conjugate for characters)."""
        G = self.group
        return tuple(self.values[G.class_of[G.inverse[cls[0]]]]
                     for cls in G.classes)

    def inner_product(self, other: "ClassFunction") -> Fraction:
        if self.group is not other.group:
            raise BlockExtError("inner product across different groups")
        G = self.group
        conj = other.values_at_inverses()
        acc = _ZERO
        for k, cls in enumerate(G.classes):
            acc = acc + self.values[k] * conj[k] * len(cls)
        acc = acc * Fraction(1, G.n)
        if not acc.is_rational():
            raise BlockExtError("inner product is not rational")
        return acc.as_fraction()

    def sort_key(self):
        return (self.degree(), tuple(v.sort_key() for v in self.values))

    def __eq__(self, other):
        return (isinstance(other, ClassFunction)
                and self.group is other.group and self.values == other.values)

    def __hash__(self):
        return hash((id(self.group), self.values))

    def __repr__(self):
        return f"ClassFunction{[str(v) for v in self.values]}"


# ---------------------------------------------------------------------------
# Dixon-Schneider character tables
# ---------------------------------------------------------------------------

def _dixon_prime(E: FiniteGroup, bound: int = 100000) -> int:
    m = E.exponent
    start = 2 * isqrt(E.n - 1) + 3 if isqrt(E.n) ** 2 != E.n else 2 * isqrt(E.n) + 1
    # smallest ell = 1 (mod m) that is prime and exceeds 2 sqrt|E|
    ell = m + 1
    while ell < start:
        ell += m
    while ell < bound:
        if isprime(ell):
            return ell
        ell += m
    raise BlockExtError(f"no Dixon prime below {bound} for exponent {m}")


def _primitive_root(ell: int) -> int:
    """The smallest primitive root mod the prime ell: the least g whose
    (ell-1)/q-th power is not 1 for any prime q dividing ell - 1."""
    qs = prime_factors(ell - 1)
    return next(g for g in range(1, ell)
                if all(pow(g, (ell - 1) // q, ell) != 1 for q in qs))


def _class_matrices(E: FiniteGroup) -> list[list[list[int]]]:
    """A_i with (A_i)[j][k] = #{x in C_i : x^{-1} z_k in C_j}."""
    cls = E.classes
    co = E.class_of
    k = len(cls)
    mats = [[[0] * k for _ in range(k)] for _ in range(k)]
    for kk in range(k):
        zk = cls[kk][0]
        for i in range(k):
            Ai = mats[i]
            for x in cls[i]:
                j = co[E.table[E.inverse[x]][zk]]
                Ai[j][kk] += 1
    return mats


def _matvec(M, v, ell):
    return [sum(a * b for a, b in zip(row, v)) % ell for row in M]


def _restriction(A, basis, ell):
    """B with A . basis = basis . B, solved by elimination."""
    dim = len(basis)
    k = len(basis[0])
    # augmented system: columns are basis vectors, then the images
    images = [_matvec(A, v, ell) for v in basis]
    aug = [[basis[j][i] for j in range(dim)] + [img[i] for img in images]
           for i in range(k)]
    rows, pivots = rref_mod(aug, ell)
    assert pivots[:dim] == list(range(dim)), "basis not independent"
    B = [[0] * dim for _ in range(dim)]
    for r, pc in zip(rows, pivots):
        if pc < dim:
            for j in range(dim):
                B[pc][j] = r[dim + j]
    return B


def _split_eigenspaces(spaces, A, ell):
    out = []
    for basis in spaces:
        if len(basis) == 1:
            out.append(basis)
            continue
        B = _restriction(A, basis, ell)
        dim = len(basis)
        found = 0
        for lam in range(ell):
            M = [[(B[i][j] - (lam if i == j else 0)) % ell
                  for j in range(dim)] for i in range(dim)]
            ker = kernel_mod(M, ell)
            if not ker:
                continue
            sub = [[sum(w[j] * basis[j][i] for j in range(dim)) % ell
                    for i in range(len(basis[0]))] for w in ker]
            out.append(sub)
            found += len(ker)
            if found == dim:
                break
        assert found == dim, "class matrix not diagonalizable mod ell"
    return out


def _verify_orthogonality(E: FiniteGroup, chars: list[ClassFunction]):
    """The first orthogonality relation on a square table.  With X the
    table, W = diag(|C|/|E|) and X~ its values at inverse classes, that
    says X W X~^T = I, so a square X is invertible and X~^T X = W^-1: the
    second relation (Isaacs, Character Theory, proof of 2.18)."""
    if len(chars) != len(E.classes):
        raise OrthogonalityFailure(
            f"{len(chars)} characters for {len(E.classes)} classes")
    for i, a in enumerate(chars):
        for j in range(i, len(chars)):
            ip = a.inner_product(chars[j])
            if ip != (1 if i == j else 0):
                raise OrthogonalityFailure(
                    f"first orthogonality fails at ({i},{j}): {ip}")


def char_table(E: FiniteGroup) -> tuple[ClassFunction, ...]:
    """All irreducible characters, verified and deterministically sorted."""
    cls = E.classes
    k = len(cls)
    ell = _dixon_prime(E)
    mats = _class_matrices(E)
    spaces = [[[1 if i == j else 0 for i in range(k)] for j in range(k)]]
    for A in mats[1:]:
        if all(len(s) == 1 for s in spaces):
            break
        spaces = _split_eigenspaces(spaces, A, ell)
    assert all(len(s) == 1 for s in spaces), "class matrices failed to separate"

    m = E.exponent
    g_ell = _primitive_root(ell)
    z_m = pow(g_ell, (ell - 1) // m, ell)
    inv_classes = [E.class_of[E.inverse[c[0]]] for c in cls]
    chars = []
    for (w,) in spaces:
        # normalize the central character so omega(identity) = 1
        w0inv = pow(w[0], -1, ell)
        omega = [(v * w0inv) % ell for v in w]
        s = sum(omega[i] * omega[inv_classes[i]] * pow(len(cls[i]), -1, ell)
                for i in range(k)) % ell
        d_sq = (E.n * pow(s, -1, ell)) % ell
        deg = next((r for r in range(1, ell) if (r * r) % ell == d_sq
                    and (ell - r) >= r), None)
        assert deg is not None, "degree square has no small root mod ell"
        # chi(g_k) = deg * omega_k / |C_k| in F_ell
        chi_mod = [(deg * omega[i] * pow(len(cls[i]), -1, ell)) % ell
                   for i in range(k)]
        values = []
        for i in range(k):
            g = cls[i][0]
            d = E.order_of[g]
            zd = pow(z_m, m // d, ell)
            dinv = pow(d, -1, ell)
            acc = _ZERO
            for s_exp in range(d):
                mu = sum(chi_mod[E.class_of[E.power(g, j)]]
                         * pow(zd, (-s_exp * j) % d if d > 1 else 0, ell)
                         for j in range(d)) * dinv % ell
                if mu:
                    assert mu <= deg, "lifted multiplicity out of range"
                    acc = acc + zeta(d, s_exp) * mu
            values.append(acc)
        chars.append(ClassFunction(E, values))
    _verify_orthogonality(E, chars)
    chars.sort(key=ClassFunction.sort_key)
    return tuple(chars)


def irr_over_phi(F: FiniteGroup, z_local: int, zorder: int,
                 phi_exponent: int) -> tuple[ClassFunction, ...]:
    """{chi in Irr(F) : chi restricted to Z is chi(1) . phi}.

    Z = <z_local> must be central in F; phi sends z_local to
    zeta_zorder^phi_exponent.  The central-character test on the generator
    decides membership.
    """
    if any(F.table[z_local][x] != F.table[x][z_local] for x in range(F.n)):
        raise BlockExtError("Z is not central in F")
    assert F.order_of[z_local] == zorder
    phi_val = zeta(zorder, phi_exponent % zorder) if zorder > 1 else _ONE
    return tuple(ch for ch in char_table(F)
                 if ch(z_local) == phi_val * ch.degree())


# ---------------------------------------------------------------------------
# the ordinary and Brauer characters of B
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockCharacter:
    """(lambda, chi) with lambda an orbit representative, chi over phi.
    Frozen, as Irr(B) is shared through the block's memo."""

    lam: LinearChar
    chi: ClassFunction
    stab: FiniteGroup    # E_lambda
    stab_embed: tuple    # its element indices inside E
    degree: int          # chi(1) |E : E_lambda|

    def key(self):
        return (self.lam.vec, self.chi.sort_key())

    def __repr__(self):
        return f"BlockCharacter(lam={self.lam.vec}, degree={self.degree})"


def build_irr_B(ctx: BlockContext) -> tuple[BlockCharacter, ...]:
    """Irr(B) as BlockCharacters, built once per block."""
    return ctx.memo("irr_B", _irr_B, ctx)


def _irr_B(ctx: BlockContext) -> tuple[BlockCharacter, ...]:
    """Irr(B) under a Clifford certificate.

    Induction is a bijection Irr(D x| E_lam | lam) -> Irr(G | lam), and
    Irr(G | lam) meets Irr(G | lam') only when lam and lam' are E-conjugate
    (Isaacs, Character Theory of Finite Groups, 6.2 and 6.11).  lam extends
    to D x| E_lam by (d, e) -> lam(d), so Irr(D x| E_lam | lam) is that
    extension times Irr(E_lam) (Gallagher, Isaacs 6.17).  The pairs thus
    induce to distinct irreducible characters when the representatives lie
    in distinct orbits and the chi over each stabilizer are distinct.  The
    certificate checks that the orbits partition Irr(D), that
    |orbit| |E_lam| = |E| (E_lam is the whole stabilizer), and that the chi
    have distinct sort keys; sum deg^2 = |G|/|Z| then says none is missing.
    One table is built per distinct stabilizer, and E_lam = E is E itself.
    """
    G = ctx.G
    zorder = len(G.Z)
    orbits = G.char_orbits()
    covered = set().union(*(o["orbit"] for o in orbits))
    if not sum(len(o["orbit"]) for o in orbits) == len(covered) == G.D.order:
        raise BlockExtError("Clifford certificate: orbits do not partition "
                            "Irr(D)")
    fibers = {}  # stabilizer -> (E_lam, its embedding, Irr(E_lam | phi))
    out = []
    for orbit in orbits:
        size, order = len(orbit["orbit"]), len(orbit["stabilizer"])
        if size * order != G.E.n:
            raise BlockExtError(f"Clifford certificate: an orbit of {size} "
                                f"with a stabilizer of order {order}")
        key = tuple(orbit["stabilizer"])
        if key not in fibers:
            stab, embed = (G.E, range(G.E.n)) if order == G.E.n else \
                G.E.subgroup(key)
            chis = irr_over_phi(stab, embed.index(G.z_gen), zorder,
                                ctx.phi_exponent)
            if len({chi.sort_key() for chi in chis}) != len(chis):
                raise BlockExtError("Clifford certificate: repeated chi over "
                                    f"the stabilizer of {orbit['rep'].vec}")
            fibers[key] = stab, tuple(embed), chis
        stab, embed, chis = fibers[key]
        out.extend(BlockCharacter(orbit["rep"], chi, stab, embed,
                                  chi.degree() * (G.E.n // stab.n))
                   for chi in chis)
    if sum(c.degree ** 2 for c in out) != G.order // zorder:
        raise BlockExtError("degree sum check failed for Irr(B)")
    return tuple(out)


def brauer_chars(ctx: BlockContext) -> tuple[ClassFunction, ...]:
    """IBr(B) identified with Irr(E | phi), built once per block and read
    off the fiber of the trivial lambda, which E fixes."""
    return ctx.memo("ibr", lambda: tuple(
        c.chi for c in build_irr_B(ctx) if c.lam.is_trivial()))


def decomposition_matrix(ctx: BlockContext) -> tuple[tuple[int, ...], ...]:
    """One row per member of Irr(B), one column per member of IBr(B).

    The entry for (lambda, chi) and psi is <Ind_{E_lambda}^E chi, psi>_E,
    read by Frobenius reciprocity as <chi, Res_{E_lambda} psi>_{E_lambda}
    (Isaacs, Character Theory of Finite Groups, 5.2).  Computed once per
    block and held as tuples, so no caller can edit the shared table;
    every row must sum, weighted by the psi degrees, to the degree of its
    character.
    """
    return ctx.memo("decomposition", _decomposition, ctx)


def _decomposition(ctx: BlockContext) -> tuple[tuple[int, ...], ...]:
    ibr = brauer_chars(ctx)
    rows = []
    for c in build_irr_B(ctx):
        H = c.stab
        row = []
        for psi in ibr:
            res = ClassFunction(H, [psi(c.stab_embed[cls[0]])
                                    for cls in H.classes])
            mult = c.chi.inner_product(res)
            if mult.denominator != 1:
                raise BlockExtError(f"decomposition number {mult} is not "
                                    "an integer")
            row.append(int(mult))
        if sum(m * psi.degree() for m, psi in zip(row, ibr)) != c.degree:
            raise BlockExtError("a decomposition row does not sum to the "
                                "degree of its character")
        rows.append(tuple(row))
    return tuple(rows)


def lifts_of(ctx: BlockContext, psi_index: int) -> list[BlockCharacter]:
    """Members of Irr(B) whose Brauer reduction is exactly one copy of psi."""
    return [c for c, row in zip(build_irr_B(ctx), decomposition_matrix(ctx))
            if sum(row) == row[psi_index] == 1]
