"""Group construction, validation, and orbit machinery."""

from pathlib import Path

import pytest

from blockext.errors import OrderBoundExceeded, SpecValidationError
from blockext.groups import (
    AbelianPGroup,
    BlockContext,
    LinearChar,
    _invariants,
    build_group,
    validate_block_spec,
)
from blockext.specfile import load_spec, to_context
from groupref import abelian_invariants, closed_mode_subgroups, split

ROOT = Path(__file__).resolve().parent.parent

C4 = (1, 2, 3, 0)
C3 = (1, 2, 0)


class TestAbelianPGroup:
    def test_basic(self):
        D = AbelianPGroup(3, [1, 2])
        assert D.order == 27 and D.exponent == 9 and D.qs == (3, 9)
        assert len(D.elements()) == 27
        assert D.order_of((0, 0)) == 1
        assert D.order_of((1, 0)) == 3
        assert D.order_of((1, 3)) == 3
        assert D.order_of((0, 1)) == 9

    def test_p2_small_factor_flag(self):
        assert AbelianPGroup(2, [2, 2]).assumption_ok
        assert not AbelianPGroup(2, [1, 2]).assumption_ok
        assert AbelianPGroup(3, [1]).assumption_ok

    def test_rejects_bad_input(self):
        with pytest.raises(SpecValidationError):
            AbelianPGroup(4, [1])
        with pytest.raises(SpecValidationError):
            AbelianPGroup(3, [])

    def test_invariants_recovered_from_subgroups(self):
        D = AbelianPGroup(3, [1, 2])
        assert abelian_invariants(3, D.elements(), D) == [1, 2]
        sub = [x for x in D.elements() if D.order_of(x) in (1, 3)]
        assert abelian_invariants(3, sub, D) == [1, 1]
        assert abelian_invariants(3, [(0, 0)], D) == []
        # layer i has the factors of order above p^i
        assert _invariants([2, 1, 0]) == (1, 2)
        assert _invariants([2, 2, 0]) == (2, 2) and _invariants([0]) == ()


class TestLinearChar:
    def test_values_and_order(self):
        D = AbelianPGroup(3, [1, 2])
        lam = LinearChar(D, (1, 3))
        # lambda(x) = zeta_3^{x_0} zeta_9^{3 x_1} = zeta_9^{3 x_0 + 3 x_1}
        assert lam.value_exponent((1, 0)) == 3
        assert lam.value_exponent((0, 1)) == 3
        assert lam.order() == 3
        assert LinearChar(D, (0, 1)).order() == 9
        assert LinearChar(D, (0, 0)).is_trivial()
        assert lam.mul(lam.inverse()).is_trivial()

    def test_value_is_root_of_unity(self):
        from blockext.cyclotomic import zeta
        D = AbelianPGroup(3, [2])
        lam = LinearChar(D, (1,))
        k = lam.value_exponent((1,))
        assert zeta(D.exponent, 9 * k) == zeta(1)
        assert zeta(D.exponent, 3 * k) != zeta(1)


class TestBuildGroup:
    def test_cyclic_bfs_order(self):
        E = build_group([C4])
        assert E.n == 4
        assert E.perms == ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))
        assert E.order_of == (1, 4, 2, 4)
        assert E.inverse == (0, 3, 2, 1)
        assert E.exponent == 4

    def test_quaternion_group(self):
        # left regular action of i and j on {1,-1,i,-i,j,-j,k,-k}
        perm_i = (2, 3, 1, 0, 6, 7, 5, 4)
        perm_j = (4, 5, 7, 6, 1, 0, 2, 3)
        Q8 = build_group([perm_i, perm_j])
        assert Q8.n == 8
        orders = sorted(Q8.order_of)
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
        assert any(Q8.table[a][b] != Q8.table[b][a]
                   for a in range(8) for b in range(8))
        # -1 is the unique involution, hence central
        minus = Q8.order_of.index(2)
        assert all(Q8.table[minus][e] == Q8.table[e][minus] for e in range(8))

    def test_symmetric_group_classes(self):
        S3 = build_group([(1, 0, 2), (2, 1, 0)])
        assert S3.n == 6
        sizes = sorted(len(c) for c in S3.classes)
        assert sizes == [1, 2, 3]
        assert S3.classes[0] == (0,)

    def test_order_bound(self):
        with pytest.raises(OrderBoundExceeded):
            build_group([tuple(range(1, 12)) + (0,)], order_bound=8)

    def test_subgroup(self):
        S3 = build_group([(1, 0, 2), (2, 1, 0)])
        a = S3.perms.index((1, 0, 2))
        sub, embed = S3.subgroup([0, a])
        assert sub.n == 2 and embed[0] == 0


class TestValidation:
    def test_example_a_structure(self, example_a):
        G = example_a.G
        assert G.D.order == 3 and G.E.n == 4
        assert len(G.Z) == 2 and G.E.order_of[G.z_gen] == 2
        d1, d2 = split(G, range(G.E.n))
        assert sorted(map(len, (d1, d2))) == [1, 3]
        assert G.d1_invariants == (1,) and G.d2_invariants == ()

    def test_example_b_structure(self, example_b):
        G = example_b.G
        assert G.D.order == 9 and len(G.Z) == 2
        d1, d2 = split(G, range(G.E.n))
        assert set(d1) == {(0, 0), (1, 0), (2, 0)}
        assert set(d2) == {(0, 0), (0, 1), (0, 2)}
        assert G.d1_invariants == (1,) and G.d2_invariants == (1,)

    def test_example_c_structure(self, example_c):
        G = example_c.G
        assert G.D.order == 16 and G.E.n == 3
        assert G.Z == (0,) and split(G, range(G.E.n))[1] == [(0, 0)]
        assert G.d1_invariants == (2, 2)
        assert example_c.z_order == 1

    def test_p_divides_E(self):
        with pytest.raises(SpecValidationError) as exc:
            validate_block_spec(3, [1], [(C3, [[1]])])
        assert exc.value.code == "p-divides-E"

    def test_not_homomorphism(self):
        # perm has order 2 but the matrix has order 4 on C_5
        with pytest.raises(SpecValidationError) as exc:
            validate_block_spec(5, [1], [((1, 0), [[2]])])
        assert exc.value.code == "action-not-homomorphism"

    def test_divisibility(self):
        with pytest.raises(SpecValidationError) as exc:
            validate_block_spec(3, [2, 1], [(C4, [[1, 1], [1, 1]])])
        assert exc.value.code == "action-divisibility"

    def test_Z_not_cyclic(self):
        klein = [(1, 0, 3, 2), (2, 3, 0, 1)]
        with pytest.raises(SpecValidationError) as exc:
            validate_block_spec(3, [1], [(klein[0], [[1]]), (klein[1], [[1]])])
        assert exc.value.code == "Z-not-cyclic"

    def test_phi_not_faithful(self, example_a):
        with pytest.raises(SpecValidationError) as exc:
            BlockContext(example_a.G, phi_exponent=2)
        assert exc.value.code == "phi-not-faithful"


SPECS = sorted([*(ROOT / "corpus").glob("*.blockspec"),
                *(ROOT / "tests" / "specs").glob("*.blockspec")])


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_fixed_layers_match_the_enumerated_subgroups(path):
    # C_D(F) and [D, F] from layer ranks against the listed subgroups and
    # their element orders, for every F that closed mode meets, and for E
    G = to_context(load_spec(path)).G
    D = G.D
    layers = [sum(n > i for n in D.orders) for i in range(max(D.orders) + 1)]
    for F in closed_mode_subgroups(G) + [list(range(G.E.n))]:
        comm, fixed = split(G, F)
        assert len(comm) * len(fixed) == D.order
        c = G.action.fixed_layers(F)
        assert _invariants(c) == tuple(abelian_invariants(D.p, fixed, D))
        assert _invariants([a - b for a, b in zip(layers, c)]) == \
            tuple(abelian_invariants(D.p, comm, D)), F
    # the last F is E, which validation reads through its generators
    assert (G.d1_invariants, G.d2_invariants) == \
        (tuple(abelian_invariants(D.p, comm, D)),
         tuple(abelian_invariants(D.p, fixed, D)))


def test_set_up_never_lists_d(monkeypatch):
    # validation reads D's structure off layer ranks: C_25 x C_25 is
    # validated and its context built without listing its 625 elements
    def refuse(self):
        raise AssertionError("D.elements was called")
    monkeypatch.setattr(AbelianPGroup, "elements", refuse)
    ctx = to_context(load_spec(ROOT / "tests" / "specs" /
                               "c25x25-c4.blockspec"))
    assert ctx.G.d1_invariants == (2, 2) and ctx.G.d2_invariants == ()


class TestMemo:
    def test_memo_builds_once_per_key(self, example_a):
        ctx = BlockContext(example_a.G, phi_exponent=1)
        calls = []

        def build(x, y):
            calls.append((x, y))
            return x + y
        assert ctx.memo(("t", 1), build, 2, 3) == 5
        assert ctx.memo(("t", 1), build, 7, 7) == 5  # read, not rebuilt
        assert ctx.memo(("t", 2), build, 7, 7) == 14
        assert calls == [(2, 3), (7, 7)]

    def test_memo_stores_nothing_when_the_build_raises(self, example_a):
        ctx = BlockContext(example_a.G, phi_exponent=1)

        def build():
            raise SpecValidationError("t", "no value")
        for _ in range(2):
            with pytest.raises(SpecValidationError) as exc:
                ctx.memo("t", build)
            assert exc.value.__context__ is None
        assert "t" not in ctx.cache


class TestOrbits:
    def test_example_b_orbits(self, example_b):
        orbs = example_b.G.char_orbits()
        assert len(orbs) == 6
        stabs = sorted(len(o["stabilizer"]) for o in orbs)
        assert stabs == [2, 2, 2, 4, 4, 4]
        for o in orbs:
            assert o["rep"].vec == min(o["orbit"])

    def test_example_c_orbits(self, example_c):
        orbs = example_c.G.char_orbits()
        assert len(orbs) == 6
        sizes = sorted(len(o["orbit"]) for o in orbs)
        assert sizes == [1, 3, 3, 3, 3, 3]

    def test_on_char_is_action(self, example_c):
        G = example_c.G
        act, E = G.action, G.E
        lam = LinearChar(G.D, (1, 2))
        for e in range(E.n):
            moved = act.on_char(e, lam)
            # defining property: (e.lambda)(x) = lambda(e^{-1} x)
            for x in [(1, 0), (0, 1), (3, 2)]:
                pre = act.apply(E.inverse[e], x)
                assert moved.value_exponent(x) == lam.value_exponent(pre)
