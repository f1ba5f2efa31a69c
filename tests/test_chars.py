"""Character tables, Irr(B), induction and the Brauer identification."""

from fractions import Fraction
from pathlib import Path

import pytest

from blockext import chars
from blockext.chars import (
    ClassFunction,
    brauer_chars,
    build_irr_B,
    char_table,
    decomposition_matrix,
    irr_over_phi,
    lifts_of,
)
from blockext.cyclotomic import zeta
from blockext.errors import BlockExtError, OrthogonalityFailure
from blockext.groups import (BlockContext, FiniteGroup, build_group,
                             validate_block_spec)
from blockext.specfile import load_spec, to_context
from charref import decomposition_rows, induce
from groupref import split

ROOT = Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "corpus").glob("*.blockspec"))
BENCH_Q8 = ROOT / "perfbench" / "specs" / "q8-c3xc3.blockspec"

C4 = (1, 2, 3, 0)
# the smallest primitive root mod ell, computed once with an independent
# computer-algebra system
PRIMITIVE_ROOTS = {2: 1, 3: 2, 5: 2, 7: 3, 23: 5, 41: 6, 71: 7, 191: 19,
                   409: 21, 577: 5, 1009: 11, 7681: 17, 40961: 3, 65537: 3,
                   99991: 6}
QI = (2, 3, 1, 0, 6, 7, 5, 4)
QJ = (4, 5, 7, 6, 1, 0, 2, 3)


def sl23_generators():
    # SL(2,3) on the 8 nonzero vectors of F_3 x F_3
    vecs = [(a, b) for a in range(3) for b in range(3)][1:]
    idx = {v: i for i, v in enumerate(vecs)}
    def perm(m):
        out = []
        for (a, b) in vecs:
            out.append(idx[((m[0][0] * a + m[0][1] * b) % 3,
                            (m[1][0] * a + m[1][1] * b) % 3)])
        return tuple(out)
    return [perm([[1, 1], [0, 1]]), perm([[0, 2], [1, 0]])]


class TestCharTable:
    def test_c4(self):
        E = build_group([C4])
        table = char_table(E)
        assert [ch.degree() for ch in table] == [1, 1, 1, 1]
        vals = {v for ch in table for v in ch.values}
        assert vals == {zeta(1), zeta(4), zeta(4, 2), zeta(4, 3)}

    def test_q8(self):
        table = char_table(build_group([QI, QJ]))
        assert sorted(ch.degree() for ch in table) == [1, 1, 1, 1, 2]

    def test_s3(self):
        table = char_table(build_group([(1, 0, 2), (2, 1, 0)]))
        assert sorted(ch.degree() for ch in table) == [1, 1, 2]

    def test_sl23(self):
        E = build_group(sl23_generators())
        assert E.n == 24
        table = char_table(E)
        assert sorted(ch.degree() for ch in table) == [1, 1, 1, 2, 2, 2, 3]

    def test_smallest_primitive_root(self):
        assert {ell: chars._primitive_root(ell)
                for ell in PRIMITIVE_ROOTS} == PRIMITIVE_ROOTS

        def order(g, ell):
            n, x = 1, g
            while x != 1:
                n, x = n + 1, x * g % ell
            return n

        for ell in range(3, 500):
            if all(ell % d for d in range(2, ell)):
                g = chars._primitive_root(ell)
                assert order(g, ell) == ell - 1
                assert all(order(h, ell) < ell - 1 for h in range(1, g))

    def test_deterministic(self):
        t1 = char_table(build_group([(1, 0, 2), (2, 1, 0)]))
        E2 = build_group([(1, 0, 2), (2, 1, 0)])
        t2 = char_table(E2)
        assert [c.values for c in t1] == [c.values for c in t2]


class TestOrthogonalityCertificate:
    S3 = [(1, 0, 2), (2, 1, 0)]

    def test_changed_value_is_refused(self):
        E = build_group(self.S3)
        table = list(char_table(E))
        values = list(table[2].values)
        values[1] = values[1] + zeta(1)
        table[2] = ClassFunction(E, values)
        with pytest.raises(OrthogonalityFailure, match="first orthogonality"):
            chars._verify_orthogonality(E, table)

    def test_missing_character_is_refused(self):
        # the rest still satisfies the first relation; the square check,
        # which implies the second, catches the gap
        E = build_group(self.S3)
        table = char_table(E)
        chars._verify_orthogonality(E, table)
        with pytest.raises(OrthogonalityFailure,
                           match="2 characters for 3 classes"):
            chars._verify_orthogonality(E, table[:1] + table[2:])


class TestIrrOverPhi:
    def test_z_equals_f(self):
        Z = build_group([(1, 0)])
        chars = irr_over_phi(Z, 1, 2, 1)
        assert len(chars) == 1 and chars[0](1) == zeta(2)

    def test_c4_over_c2(self):
        E = build_group([C4])
        chars = irr_over_phi(E, 2, 2, 1)
        assert len(chars) == 2
        gen_vals = sorted((ch(1).sort_key() for ch in chars))
        assert gen_vals == sorted([zeta(4).sort_key(), zeta(4, 3).sort_key()])

    def test_trivial_phi_kernel_condition(self):
        E = build_group([C4])
        chars = irr_over_phi(E, 2, 2, 0)
        assert len(chars) == 2
        assert all(ch(2) == zeta(1) for ch in chars)


class TestIrrB:
    def test_example_a(self, example_a):
        irrB = build_irr_B(example_a)
        assert sorted(c.degree for c in irrB) == [1, 1, 2]

    def test_example_b(self, example_b):
        irrB = build_irr_B(example_b)
        assert len(irrB) == 9
        assert sorted(c.degree for c in irrB) == [1] * 6 + [2] * 3

    def test_example_c(self, example_c):
        irrB = build_irr_B(example_c)
        assert sorted(c.degree for c in irrB) == [1, 1, 1, 3, 3, 3, 3, 3]
        assert sum(c.degree ** 2 for c in irrB) == 48

    def test_trivial_action_block(self):
        from blockext.groups import BlockContext, validate_block_spec
        G = validate_block_spec(3, [1], [((1, 0), [[1]])])
        ctx = BlockContext(G, phi_exponent=1)
        irrB = build_irr_B(ctx)
        assert len(irrB) == 3 and all(c.degree == 1 for c in irrB)


# -- the explicit group D x| E, a reference for the Clifford certificate --

def full_group(G) -> FiniteGroup:
    """G = D x| E as an explicit FiniteGroup with labels (d, e)."""
    labels = [(d, e) for d in G.D.elements() for e in range(G.E.n)]
    index = {lab: i for i, lab in enumerate(labels)}
    table = [[index[(G.D.add(d1, G.action.apply(e1, d2)), G.E.table[e1][e2])]
              for (d2, e2) in labels] for (d1, e1) in labels]
    return FiniteGroup(labels, table, [index[lab] for lab in labels[1:]])


def block_char_on_subgroup(FG, c):
    """(lambda, chi) as a class function on D x| E_lambda inside FG."""
    stab_set = set(c.stab_embed)
    H, embed = FG.subgroup([i for i, (d, e) in enumerate(FG.perms)
                            if e in stab_set])
    pos_stab = {e: i for i, e in enumerate(c.stab_embed)}
    vals = []
    for cls in H.classes:
        d, e = H.perms[cls[0]]
        lam_d = zeta(c.lam.group.exponent, c.lam.value_exponent(d))
        vals.append(lam_d * c.chi.values[c.stab.class_of[pos_stab[e]]])
    return H, embed, ClassFunction(H, vals)


def induced_block_char(FG, c) -> ClassFunction:
    H, embed, cf = block_char_on_subgroup(FG, c)
    return induce(FG, embed, cf)


def restrict(G, cf, H, embed) -> ClassFunction:
    return ClassFunction(
        H, [cf.values[G.class_of[embed[cls[0]]]] for cls in H.classes])


class TestInduction:
    def test_regular_character(self, example_a):
        FG = full_group(example_a.G)
        triv, embed = FG.subgroup([0])
        cf = ClassFunction(triv, [zeta(1)])
        reg = induce(FG, embed, cf)
        assert reg.values[0].as_int() == FG.n
        assert all(v.is_zero() for v in reg.values[1:])

    def test_induced_block_char_irreducible(self, example_a):
        irrB = build_irr_B(example_a)
        big = next(c for c in irrB if c.degree == 2)
        ind = induced_block_char(full_group(example_a.G), big)
        assert ind.inner_product(ind) == 1

    def test_frobenius_reciprocity(self, example_a):
        G = example_a.G
        FG = full_group(G)
        irrB = build_irr_B(example_a)
        big = next(c for c in irrB if c.degree == 2)
        H, embed, cf = block_char_on_subgroup(FG, big)
        for other in irrB:
            eta = induced_block_char(FG, other)
            lhs = induce(FG, embed, cf).inner_product(eta)
            rhs = cf.inner_product(restrict(FG, eta, H, embed))
            assert lhs == rhs

    @pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
    def test_induced_block_chars_orthonormal(self, path):
        # what the Clifford certificate proves, checked on the full group
        ctx = to_context(load_spec(path))
        FG = full_group(ctx.G)
        eta = [induced_block_char(FG, c) for c in build_irr_B(ctx)]
        for i, a in enumerate(eta):
            assert a.degree() == build_irr_B(ctx)[i].degree
            for j in range(i, len(eta)):
                assert a.inner_product(eta[j]) == (i == j)


class TestCliffordCertificate:
    @staticmethod
    def corrupted(edit):
        G = validate_block_spec(3, [1, 1], [((1, 2, 3, 0), [[-1, 0], [0, 1]])])
        orbits = G.char_orbits()
        object.__setattr__(G, "char_orbits", lambda: edit(orbits))  # frozen
        return BlockContext(G, phi_exponent=1)

    def test_repeated_orbit(self):
        ctx = self.corrupted(lambda orbits: orbits + orbits[-1:])
        with pytest.raises(BlockExtError, match="do not partition Irr"):
            build_irr_B(ctx)

    def test_missing_orbit(self):
        ctx = self.corrupted(lambda orbits: orbits[1:])
        with pytest.raises(BlockExtError, match="do not partition Irr"):
            build_irr_B(ctx)

    def test_short_stabilizer(self):
        def edit(orbits):
            full = next(o for o in orbits if len(o["stabilizer"]) == 4)
            full["stabilizer"] = [0, 2]
            return orbits
        ctx = self.corrupted(edit)
        with pytest.raises(BlockExtError, match="stabilizer of order 2"):
            build_irr_B(ctx)

    def test_repeated_chi(self, monkeypatch):
        ctx = self.corrupted(lambda orbits: orbits)
        real = chars.irr_over_phi
        monkeypatch.setattr(chars, "irr_over_phi",
                            lambda *args: real(*args) * 2)
        with pytest.raises(BlockExtError, match="repeated chi"):
            build_irr_B(ctx)


class TestBrauer:
    def test_example_a_reductions(self, example_a):
        irrB = build_irr_B(example_a)
        ibr = brauer_chars(example_a)
        assert len(ibr) == 2
        for c, row in zip(irrB, decomposition_matrix(example_a)):
            if c.degree == 1:
                assert sum(row) == 1
            else:
                assert row == (1, 1)

    def test_example_a_decomposition_matrix(self, example_a):
        dec = decomposition_matrix(example_a)
        rows = sorted(dec)
        assert rows == [(0, 1), (1, 0), (1, 1)]
        assert decomposition_matrix(example_a) is dec  # once per block

    def test_example_a_lifts(self, example_a):
        for j in range(2):
            lifts = lifts_of(example_a, j)
            assert len(lifts) == 1 and lifts[0].degree == 1

    def test_example_b_lifts(self, example_b):
        d1 = split(example_b.G, range(example_b.G.E.n))[0]
        assert len(d1) == 3
        for j in range(len(brauer_chars(example_b))):
            lifts = lifts_of(example_b, j)
            assert len(lifts) == 3
            for c in lifts:
                # the carrying lambda is trivial on D_1
                assert all(c.lam.value_exponent(x) == 0 for x in d1)

    def test_example_c_reductions(self, example_c):
        irrB = build_irr_B(example_c)
        ibr = brauer_chars(example_c)
        assert len(ibr) == 3
        for c, row in zip(irrB, decomposition_matrix(example_c)):
            if c.degree == 1:
                assert sorted(row) == [0, 0, 1]

    def test_every_brauer_char_has_a_lift(self, example_c):
        for j in range(len(brauer_chars(example_c))):
            assert lifts_of(example_c, j)

    @pytest.mark.parametrize("path", SPECS + [BENCH_Q8],
                             ids=lambda p: f"{p.parent.name}-{p.stem}")
    def test_reciprocity_matches_induction(self, path):
        # <Ind chi, psi>_E by inducing chi to E, against the table read
        # off <chi, Res psi>_{E_lambda}
        ctx = to_context(load_spec(path))
        assert decomposition_matrix(ctx) == \
            decomposition_rows(ctx, build_irr_B(ctx))
