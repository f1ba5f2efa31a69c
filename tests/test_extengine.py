"""The Ext engine: closed forms, the bar oracle, dispatch, mod-p dims."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from blockext import (BlockContext, LinearChar, OModuleClass, brauer_chars,
                      build_irr_B, chain_ring, cli, decomposition_matrix,
                      ext1_modp, ext_abelian_closed, ext_abelian_oracle,
                      ext_block, ext_quiver, ext_shape_classify,
                      validate_block_spec)
from blockext.errors import (BlockExtError, PrecisionUnstable,
                             SizeGuardExceeded)
from blockext import chainlinalg, extengine
from blockext.extengine import (abelian_context, block_ring,
                                ext1_modp_simples, ext_oracle)
from blockext.modrep import ModuleRep, build_module_rep, vchi_rep
from blockext.omodule import val_one_minus_zeta
from blockext.specfile import load_spec, to_context
from kunnethref import kunneth_class
from modpref import ext1_of_reductions, ext1_of_simples

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SPECS = Path(__file__).resolve().parent / "specs"


def all_chars(D):
    import itertools
    for vec in itertools.product(*(range(q) for q in D.qs)):
        yield LinearChar(D, vec)


def rank1_rep(ctx, lam, ring):
    """The line O_lam with trivial E-action."""
    E = ctx.G.E
    return ModuleRep(ring, E, range(E.n), [lam],
                     np.broadcast_to(ring.one, (E.n, 1, 1, ring.dim)))


def fresh(p, orders, **options):
    """A context over D alone with an empty memo, unlike the shared
    abelian_context."""
    return BlockContext(abelian_context(p, orders).G, 0, options)


# -- closed formulas ------------------------------------------------------

def test_closed_equal_characters():
    D = abelian_context(3, (2, 1)).G.D
    lam = LinearChar(D, (4, 1))
    assert ext_abelian_closed(D, lam, lam, 0) == OModuleClass(3, 1)
    assert ext_abelian_closed(D, lam, lam, 1) == OModuleClass(3, 0)
    assert ext_abelian_closed(D, lam, lam, 2) == \
        OModuleClass(3, 0, (Fraction(2), Fraction(1)))


def test_closed_distinct_characters():
    D = abelian_context(3, (2, 1)).G.D
    l1 = LinearChar(D, (0, 0))
    l2 = LinearChar(D, (3, 0))      # quotient has order 3
    w = val_one_minus_zeta(3, 1)
    assert ext_abelian_closed(D, l1, l2, 0) == OModuleClass(3, 0)
    assert ext_abelian_closed(D, l1, l2, 1) == OModuleClass(3, 0, (w,))
    assert ext_abelian_closed(D, l1, l2, 2) == OModuleClass(3, 0, (w,))


def test_closed_cyclic_distinct_ext2_vanishes():
    D = abelian_context(3, (2,)).G.D
    l1, l2 = LinearChar(D, (0,)), LinearChar(D, (1,))
    assert ext_abelian_closed(D, l1, l2, 2) == OModuleClass(3, 0)


def test_closed_rejects_high_degree():
    D = abelian_context(3, (1,)).G.D
    lam = LinearChar(D, (0,))
    with pytest.raises(BlockExtError):
        ext_abelian_closed(D, lam, lam, 3)


# -- oracle vs closed -----------------------------------------------------

@pytest.mark.parametrize("p,orders", [(3, (2,)), (3, (1, 1)), (2, (3,))])
def test_oracle_matches_closed(p, orders):
    D = abelian_context(p, orders).G.D
    for l1 in all_chars(D):
        for l2 in all_chars(D):
            for i in (0, 1, 2):
                closed = ext_abelian_closed(D, l1, l2, i)
                oracle = ext_abelian_oracle(D, l1, l2, i)
                assert closed == oracle, (l1.vec, l2.vec, i)


def test_oracle_memoizes_on_character_quotient():
    ctx = abelian_context(3, (2,))
    D = ctx.G.D
    l1, l2 = LinearChar(D, (1,)), LinearChar(D, (2,))
    before = set(ctx.cache)
    ext_abelian_oracle(D, l1, l2, 1)
    ext_abelian_oracle(D, LinearChar(D, (2,)), LinearChar(D, (3,)), 1)
    # both pairs share the quotient character mu = (1,), one memo entry:
    # the line H^*(C_9, O_mu) through degree 1 at N = 6
    assert set(ctx.cache) - before <= {("line", (1,), 1, 6)}
    assert ("line", (1,), 1, 6) in ctx.cache


# the acceptance suite's pure defect groups, and three with p = 5
CERTIFIED_CASES = [(3, (2,)), (3, (1, 1)), (3, (1, 2)), (2, (3,)), (2, (2, 2)),
                   (5, (1,)), (5, (2,)), (5, (1, 1))]


@pytest.mark.parametrize("p,orders", CERTIFIED_CASES)
def test_least_admissible_precision_is_exact(p, orders):
    # N = max(n_i) + 1 puts the bound e*max(n_i) just below cap = N e
    D = abelian_context(p, orders).G.D
    triv = LinearChar(D, (0,) * D.t)
    for mu in all_chars(D):
        for i in (0, 1, 2):
            low = ext_abelian_oracle(D, triv, mu, i, precision=max(orders) + 1)
            assert low == ext_abelian_oracle(D, triv, mu, i) == \
                ext_abelian_closed(D, triv, mu, i), (mu.vec, i)


def test_precision_too_low_raises_before_building(example_a):
    D = abelian_context(3, (2,)).G.D
    triv = LinearChar(D, (0,))
    with pytest.raises(PrecisionUnstable, match="N >= 3"):
        ext_abelian_oracle(D, triv, triv, 2, precision=2)
    ctx = BlockContext(example_a.G, example_a.phi_exponent, {"precision": 1})
    assert block_ring(ctx) is chain_ring(3, 1, 1, 4)
    irr = build_irr_B(ctx)
    before = set(ctx.cache)
    with pytest.raises(PrecisionUnstable, match="N >= 2"):
        ext_block(ctx, irr[0], irr[2], 2)
    assert set(ctx.cache) == before  # no module was built


def test_size_guard_trips():
    ctx = fresh(3, (2,), size_guard=0)
    D = ctx.G.D
    R = block_ring(ctx)
    triv = LinearChar(D, (0,))
    M = rank1_rep(ctx, triv, R)
    # the oracle over C_9 alone builds C(2, 0) = 1 cell at degree 2
    with pytest.raises(SizeGuardExceeded, match=r"C\(2, 0\) x 1"):
        ext_oracle(ctx, M, M, 2, R)


def test_abelian_memo_hit_still_trips_the_guard():
    D = abelian_context(3, (2,)).G.D
    triv = LinearChar(D, (0,))
    ext_abelian_oracle(D, triv, triv, 2)  # memoized from here on
    with pytest.raises(SizeGuardExceeded, match="guard 0"):
        ext_abelian_oracle(D, triv, triv, 2, size_guard=0)


def test_size_guard_zero_is_a_guard(example_a):
    # the Ext oracle reads the guard; the mod-p dimensions build no
    # complex, so they ignore it
    ctx = BlockContext(example_a.G, 1, {"size_guard": 0})
    irr = build_irr_B(ctx)
    with pytest.raises(SizeGuardExceeded, match="guard 0"):
        ext_block(ctx, irr[0], irr[1], 2)
    free = BlockContext(example_a.G, 1)
    free_irr = build_irr_B(free)
    for a in range(len(irr)):
        for b in range(len(irr)):
            assert ext1_modp(ctx, irr[a], irr[b]) == \
                ext1_modp(free, free_irr[a], free_irr[b])
    n = len(brauer_chars(ctx))
    assert [[ext1_modp_simples(ctx, a, b) for b in range(n)]
            for a in range(n)] == \
        [[ext1_modp_simples(free, a, b) for b in range(n)] for a in range(n)]


def test_abelian_negative_degree_is_refused():
    # degrees 0 and 1 share one memoized profile; -1 must not index it
    D = abelian_context(3, (2,)).G.D
    triv = LinearChar(D, (0,))
    ext_abelian_oracle(D, triv, triv, 1)
    with pytest.raises(BlockExtError, match="negative"):
        ext_abelian_oracle(D, triv, triv, -1)


def test_abelian_precision_below_one_is_refused():
    D = abelian_context(3, (2,)).G.D
    triv = LinearChar(D, (0,))
    for N in (0, -1):
        with pytest.raises(BlockExtError, match="below 1"):
            ext_abelian_oracle(D, triv, triv, 2, precision=N)


# -- the Koszul route against the bar complex -----------------------------

def count_work(monkeypatch):
    """Count Smith eliminations, bar complexes and Koszul complexes built
    from here on."""
    counts = {"smith": 0, "bar": 0, "koszul": 0}
    for key, mod, name in [("smith", chainlinalg, "_smith_exponents"),
                           ("bar", extengine, "_fixed_bar_complex"),
                           ("koszul", extengine, "_koszul_complex")]:
        def counted(*args, key=key, fn=getattr(mod, name)):
            counts[key] += 1
            return fn(*args)
        monkeypatch.setattr(mod, name, counted)
    return counts


def bar_reference(ctx, M1, M2, top, R):
    """(Ext^0, ..., Ext^top) from the F-fixed bar complex of all of D, the
    general route, whatever F does."""
    return extengine._bar_class(ctx, ctx.G.D.elements()[1:], M1, M2, top, R)


def koszul_profile(counts, ctx, M1, M2, top, R):
    """ext_oracle's profile, asserting through the counts of count_work
    that it built no bar complex and one Koszul complex per line that the
    context's memo did not hold yet."""
    nus = extengine._coefficients(R, M1, M2)[1]
    new = {("line", nu.vec, max(top, 1), R.N) for nu in nus} - set(ctx.cache)
    counts.update(bar=0, koszul=0)
    out = ext_oracle(ctx, M1, M2, top, R)
    assert counts["bar"] == 0 and counts["koszul"] == len(new)
    assert new <= set(ctx.cache)
    return out


@pytest.mark.parametrize("p,orders", [(3, (1, 2)), (2, (2, 2)), (2, (3,)),
                                      (5, (1,)), (3, (1, 1, 1))])
@pytest.mark.parametrize("least", [False, True])
def test_koszul_matches_the_bar_complex(monkeypatch, p, orders, least):
    # every mu at degrees 0 to 2, at the default precision and at the
    # least one, max(n_i) + 1, where the certificate has no slack
    ctx = fresh(p, orders)
    D, a = ctx.G.D, max(orders)
    R = chain_ring(p, a + 1 if least else extengine.default_precision(a),
                   a, 1)
    triv = rank1_rep(ctx, LinearChar(D, (0,) * D.t), R)
    counts = count_work(monkeypatch)
    for mu in all_chars(D):
        M = rank1_rep(ctx, mu, R)
        assert koszul_profile(counts, ctx, triv, M, 2, R) == \
            bar_reference(ctx, triv, M, 2, R), mu.vec
        assert counts["koszul"] == 1


@pytest.mark.parametrize("orders", [(1, 1), (2,)])
def test_koszul_matches_the_bar_complex_past_degree_two(monkeypatch, orders):
    ctx = fresh(3, orders)
    D = ctx.G.D
    R = block_ring(ctx)
    triv = rank1_rep(ctx, LinearChar(D, (0,) * D.t), R)
    counts = count_work(monkeypatch)
    for mu in all_chars(D):
        M = rank1_rep(ctx, mu, R)
        assert koszul_profile(counts, ctx, triv, M, 3, R) == \
            bar_reference(ctx, triv, M, 3, R), mu.vec
        assert counts["koszul"] == 1


@pytest.mark.parametrize("name", ["example-b", "example-c", "q8-c3xc3",
                                  "q8z-c3xc3"])
def test_shapiro_classes_over_z_match_the_bar_complex(monkeypatch, name):
    # a pivot whose stabilizer lies in Z = C_E(D) acts trivially on D, and
    # by the central character phi on both modules, so on neither
    # coefficient; the Shapiro class takes the Koszul route, and pairs
    # after the first find some of their lines in the memo
    ctx = to_context(load_spec(CORPUS / f"{name}.blockspec"))
    G, R = ctx.G, block_ring(ctx)
    irr = build_irr_B(ctx)
    pivots = [c for c in irr if set(c.stab_embed) <= set(G.Z)]
    assert pivots
    counts = count_work(monkeypatch)
    for c1 in pivots:
        line = vchi_rep(ctx, c1, R)
        for c2 in irr:
            res = build_module_rep(ctx, c2, R).restrict_to(
                line.F, line.embed, line.embed)
            assert koszul_profile(counts, ctx, line, res, 2, R) == \
                bar_reference(ctx, line, res, 2, R), (c1.key(), c2.key())
    if name in ("example-b", "q8z-c3xc3"):  # stabilizer Z of order 2
        assert {len(c.stab_embed) for c in pivots} == {2}


def test_coefficient_action_over_z_is_refused(monkeypatch):
    # F = C_2 = Z fixes D = C_3 but acts on the line M2 by the sign, so
    # the F-fixed points cut H^n(D, O_lam) to 0; the Koszul route would
    # not.  No pair of one block has such coefficients, as Z acts on every
    # module by phi, and ext_oracle refuses it before any build
    G = validate_block_spec(3, [1], [((1, 0), [[1]])])
    ctx = BlockContext(G, 1)
    R = block_ring(ctx)
    E, one = G.E, R.one
    sign = np.array([one if E.order_of[f] == 1 else (-one) % R.pN
                     for f in range(E.n)]).reshape(E.n, 1, 1, R.dim)
    counts = count_work(monkeypatch)
    for vec in ((0,), (1,)):
        lam = LinearChar(G.D, vec)
        M1 = rank1_rep(ctx, LinearChar(G.D, (0,)), R)
        M2 = ModuleRep(R, E, range(E.n), [lam], sign)
        counts.update(bar=0, koszul=0)
        with pytest.raises(BlockExtError, match="by phi"):
            ext_oracle(ctx, M1, M2, 2, R)
        assert counts["bar"] == 0 and counts["koszul"] == 0
        assert bar_reference(ctx, M1, M2, 2, R) == (OModuleClass(3, 0),) * 3
        # the same line with F trivial on it is H^n(D, O_lam), by Koszul
        M2 = rank1_rep(ctx, lam, R)
        assert koszul_profile(counts, ctx, M1, M2, 2, R) == \
            bar_reference(ctx, M1, M2, 2, R) == tuple(
                ext_abelian_closed(G.D, LinearChar(G.D, (0,)), lam, n)
                for n in range(3))


def test_koszul_guard_counts_degree_one_at_degree_zero():
    # Ext^0 reads d^0, so its complex reaches degree 1: C(2, 1) = 2 cells
    # over C_3 x C_3, above a guard of 1
    ctx = fresh(3, (1, 1), size_guard=1)
    D, R = ctx.G.D, block_ring(ctx)
    triv = LinearChar(D, (0, 0))
    M = rank1_rep(ctx, triv, R)
    with pytest.raises(SizeGuardExceeded, match=r"C\(2, 1\) x 1"):
        ext_oracle(ctx, M, M, 0, R)
    with pytest.raises(SizeGuardExceeded, match=r"C\(2, 1\) x 1"):
        ext_abelian_oracle(D, triv, triv, 0, size_guard=1)
    assert ext_abelian_oracle(D, triv, triv, 0, size_guard=2) == \
        OModuleClass(3, 1)


def test_pairs_sharing_a_line_build_it_once(monkeypatch):
    # over C_3 x C_3 a second pair with the quotient lam1^-1 lam2 of
    # (irr[0], irr[1]) shares its line, so its oracle call builds no
    # complex; a context with a guard whose memo holds that line still
    # refuses the pair, before any build
    ctx = to_context(load_spec(CORPUS / "c3x3.blockspec"))
    irr = build_irr_B(ctx)
    a, b = irr[0], irr[1]
    mu = a.lam.inverse().mul(b.lam).vec
    c1, c2 = next((c1, c2) for c1 in irr[1:] for c2 in irr
                  if c1.lam.inverse().mul(c2.lam).vec == mu)
    counts = count_work(monkeypatch)
    first = ext_block(ctx, a, b, 2, "oracle")
    assert counts == {"smith": 2, "bar": 0, "koszul": 1}
    assert ext_block(ctx, c1, c2, 2, "oracle") == first
    assert counts == {"smith": 2, "bar": 0, "koszul": 1}
    R = block_ring(ctx)
    guarded = BlockContext(ctx.G, 0, {"size_guard": 2})
    guarded.cache[("line", mu, 2, R.N)] = ctx.cache[("line", mu, 2, R.N)]
    with pytest.raises(SizeGuardExceeded, match=r"C\(3, 1\) x 1"):
        ext_block(guarded, a, b, 2, "oracle")
    assert counts == {"smith": 2, "bar": 0, "koszul": 1}


def test_oracle_reach_past_the_bar_complex():
    # Ext^2 over D alone at the default guard, one mu of each order: the
    # bar complex of C_25 x C_25 has 624^2 cells, over the guard
    for p, orders in [(3, (1,) * 5), (2, (4, 4)), (3, (3, 2)), (5, (2, 2))]:
        D = abelian_context(p, orders).G.D
        triv = LinearChar(D, (0,) * D.t)
        for k in range(max(orders) + 1):
            mu = LinearChar(D, tuple(p ** (n - min(k, n)) % p ** n
                                     for n in orders))
            assert mu.order() == p ** k
            assert ext_abelian_oracle(D, triv, mu, 2) == \
                ext_abelian_closed(D, triv, mu, 2), (orders, k)


def test_closed_mode_on_d_alone_keeps_d1():
    # trivial E lies in Z, so closed mode takes the double-coset sum and
    # calls no oracle; the Koszul route over all of D must still not stand
    # in for an oracle asked for D1 = 1
    ctx = to_context(load_spec(CORPUS / "c3x9.blockspec"))
    irr = build_irr_B(ctx)
    for c2 in irr[:6]:
        for i in (0, 1, 2):
            assert ext_block(ctx, irr[0], c2, i, "closed") == \
                ext_abelian_closed(ctx.G.D, irr[0].lam, c2.lam, i)


# -- closed mode by double cosets against the D1 path ---------------------

def refuse(name):
    def raiser(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return raiser


# what closed mode must never call: the oracle, every complex builder and
# the elimination, and the induced modules
CLOSED_REFUSES = ["ext_oracle", "homology_of_complex", "_fixed_bar_complex",
                  "_koszul_complex", "build_module_rep"]
# what oracle mode must never call: the shape lemma, the Kunneth assembly
# and the double cosets
ORACLE_REFUSES = ["shape_lemma", "kunneth_assemble", "_closed_class"]


@pytest.mark.parametrize("name", sorted(p.stem for p in
                                        CORPUS.glob("*.blockspec")))
def test_double_cosets_match_the_d1_path(monkeypatch, name):
    # every ordered pair, degrees 0 to 2, against the D1 path: Kunneth
    # assembly over (D1 x| E) x D2 with the bar complex of D1.  The
    # double-coset terms build no complex.  c5-c4's action is not
    # self-dual and c3x9-c2's D1 is not homocyclic.  On c3x9-c2 and
    # c5x5-c4 the D1 complex through degree 2 takes about 35 ms a pair (a
    # 2-core Xeon), so there the pairs with a stabilizer in Z, whose terms
    # are copies of the shape lemma, are compared through degree 1
    ctx = to_context(load_spec(CORPUS / f"{name}.blockspec"))
    R, irr, z = block_ring(ctx), build_irr_B(ctx), set(ctx.G.Z)
    with monkeypatch.context() as m:
        for fn in CLOSED_REFUSES:
            m.setattr(extengine, fn, refuse(fn))
        closed = {(c1, c2): extengine._closed_class(ctx, c1, c2, 2, R)
                  for c1 in irr for c2 in irr}
    for (c1, c2), out in closed.items():
        top = 1 if name in ("c3x9-c2", "c5x5-c4") and (
            set(c1.stab_embed) <= z or set(c2.stab_embed) <= z) else 2
        assert out[:top + 1] == kunneth_class(ctx, c1, c2, top, R), \
            (c1.key(), c2.key())


def test_double_cosets_past_normal_stabilizers():
    # S_3 acting on C_25 x C_25 by its reflection representation: Z = 1,
    # and the stabilizers of order 2 are not normal, so E_lam1 g E_lam2
    # is a right coset E_lam1 g, not a left one, when E_lam2 = 1.  On the
    # pairs below g^-1 in place of g, or lam1 and lam2 swapped, changes the
    # orders of mu; every corpus stabilizer is normal and cannot tell.
    # The oracle pivots on the trivial stabilizer and builds K on D
    G = validate_block_spec(5, [2, 2], [((1, 2, 0), [[0, -1], [1, -1]]),
                                        ((1, 0, 2), [[0, 1], [1, 0]])])
    ctx = BlockContext(G, 0)
    irr = build_irr_B(ctx)
    a = [c for c in irr if c.stab.n == 2 and c.lam.order() == 25][2]
    free = [c for c in irr if c.stab.n == 1]
    assert G.Z == (0,) and a.lam.vec == (1, 12)
    for b in free[12:28]:
        for i in (1, 2):
            ext_block(ctx, a, b, i, "crosscheck", via=2)


def bar_elements(monkeypatch):
    """The element lists of the bar complexes built from here on."""
    calls, build = [], extengine._fixed_bar_complex

    def counted(ring, G, elems, *args):
        calls.append(list(elems))
        return build(ring, G, elems, *args)
    monkeypatch.setattr(extengine, "_fixed_bar_complex", counted)
    return calls


def test_closed_mode_off_z_builds_no_complex(monkeypatch):
    # neither stabilizer lies in Z: ranks over k, no bar complex of D1
    ctx = to_context(load_spec(CORPUS / "example-c.blockspec"))
    G, irr = ctx.G, build_irr_B(ctx)
    c1, c2 = irr[1], irr[2]
    z = set(G.Z)
    assert not (set(c1.stab_embed) <= z or set(c2.stab_embed) <= z)
    counts = count_work(monkeypatch)
    calls = bar_elements(monkeypatch)
    ext_block(ctx, c1, c2, 2, "closed")
    assert calls == []
    assert counts == {"smith": 0, "bar": 0, "koszul": 0}


@pytest.mark.parametrize("name", ["a4", "example-b", "example-c", "q8-c3xc3",
                                  "q8z-c3xc3"])
def test_each_engine_runs_without_the_other(monkeypatch, name):
    # closed mode never calls the oracle, builds no complex and no induced
    # module, and the oracle never calls closed mode's builders; every
    # ordered pair at degrees 0 to 2.  The two modes share the block's
    # lines, and ext_block's memo keys on the mode
    ctx = to_context(load_spec(CORPUS / f"{name}.blockspec"))
    irr = build_irr_B(ctx)
    for mode, builders in [("closed", CLOSED_REFUSES),
                           ("oracle", ORACLE_REFUSES)]:
        with monkeypatch.context() as m:
            for fn in builders:
                m.setattr(extengine, fn, refuse(fn))
            for c1 in irr:
                for c2 in irr:
                    for i in (0, 1, 2):
                        ext_block(ctx, c1, c2, i, mode)


# -- block dispatch -------------------------------------------------------

def test_example_a_crosscheck_full(example_a):
    irr = build_irr_B(example_a)
    w = val_one_minus_zeta(3, 1)
    for c1 in irr:
        for c2 in irr:
            for i in (0, 1, 2):
                e = ext_block(example_a, c1, c2, i, "crosscheck")
                if i == 0:
                    expected = 1 if c1.key() == c2.key() else 0
                    assert e == OModuleClass(3, expected)
    # spot values against the worked example
    lin = [c for c in irr if c.degree == 1]
    big = next(c for c in irr if c.degree == 2)
    assert ext_block(example_a, lin[0], lin[1], 2) == \
        OModuleClass(3, 0, (Fraction(1),))
    assert ext_block(example_a, lin[0], lin[0], 2) == OModuleClass(3, 0)
    assert ext_block(example_a, lin[0], big, 1) == OModuleClass(3, 0, (w,))


def test_example_b_closed_equals_oracle(monkeypatch):
    # C_D(E) = C_3 is nontrivial here, so on the pairs whose stabilizers
    # act on D the shape lemma's factor over C_D(F) is tested
    G = validate_block_spec(3, [1, 1], [((1, 2, 3, 0), [[-1, 0], [0, 1]])])
    ctx = BlockContext(G, phi_exponent=1)
    calls = bar_elements(monkeypatch)
    irr = build_irr_B(ctx)
    z = set(G.Z)
    routes = set()
    for c1 in irr:
        for c2 in irr:
            routes.add(set(c1.stab_embed) <= z or set(c2.stab_embed) <= z)
            for i in (0, 1, 2):
                before = len(calls)
                closed = ext_block(ctx, c1, c2, i, "closed")
                # no complex on either route: a stabilizer in Z reads the
                # shape lemma alone, the others take ranks over k too
                assert len(calls) == before
                oracle = ext_block(ctx, c1, c2, i, "oracle")
                assert closed == oracle, (c1, c2, i)
    assert routes == {True, False}


def test_each_complex_is_eliminated_once(monkeypatch):
    ctx = to_context(load_spec(CORPUS / "example-c.blockspec"))
    irr = build_irr_B(ctx)
    counts = count_work(monkeypatch)
    # crosscheck at degree 2: the pivot's stabilizer lies in Z, so the
    # closed side is the double-coset sum and builds nothing, and the
    # oracle builds one Koszul complex per character of D on the
    # coefficients through 2, with its d^0 and d^1 eliminated
    ext_block(ctx, irr[3], irr[5], 2)
    assert counts == {"smith": 6, "bar": 0, "koszul": 3}
    counts.update(smith=0, bar=0, koszul=0)
    # a pivot whose stabilizer acts on D: the oracle's bar complex; the
    # other stabilizer lies in Z, so the closed side builds nothing
    ext_block(ctx, irr[0], irr[5], 2)
    assert counts == {"smith": 2, "bar": 1, "koszul": 0}
    counts.update(smith=0, bar=0, koszul=0)
    # closed degrees 0 to 2 with neither stabilizer in Z: ranks over k,
    # no complex
    for i in (0, 1, 2):
        ext_block(ctx, irr[1], irr[2], i, "closed")
    assert counts == {"smith": 0, "bar": 0, "koszul": 0}
    # both stabilizers of (irr[2], irr[6]) in Z: closed mode builds nothing
    counts.update(smith=0, bar=0, koszul=0)
    for i in (0, 1, 2):
        ext_block(ctx, irr[2], irr[6], i, "closed")
    assert counts == {"smith": 0, "bar": 0, "koszul": 0}


def test_closed_low_degrees_past_the_degree_two_guard():
    # C_4 acting on C_25 x C_25 by the scalar 7: D1 = D, Z = 1, and only
    # irr[0] to irr[3] (lambda = 0) have the stabilizer C_4.  The default
    # guard admits 624^1 cells but not 624^2, so the oracle reaches Ext^0
    # and Ext^1 of two of them by building the complex of D only through
    # degree 1, and refuses Ext^2.  Closed mode builds no complex and
    # reaches every degree
    ctx = to_context(load_spec(SPECS / "c25x25-c4.blockspec"))
    irr = build_irr_B(ctx)
    w1, w2 = val_one_minus_zeta(5, 1), val_one_minus_zeta(5, 2)
    want = {(0, 0): [OModuleClass(5, 1), OModuleClass(5, 0)],
            (0, 4): [OModuleClass(5, 0), OModuleClass(5, 0, (w2,))],
            (7, 0): [OModuleClass(5, 0), OModuleClass(5, 0, (w1,))]}
    for (a, b), classes in want.items():
        for i in (0, 1):
            closed = ext_block(ctx, irr[a], irr[b], i, "closed")
            assert closed == ext_block(ctx, irr[a], irr[b], i, "oracle") \
                == classes[i], (a, b, i)
    assert irr[1].stab.n == 4 and irr[4].stab.n == 1
    with pytest.raises(SizeGuardExceeded, match=r"624\^2"):
        ext_block(ctx, irr[0], irr[1], 2, "oracle")
    # (H^2(D, O) (x) W)^C_4 is 0 for (irr[0], irr[1]), and for
    # (irr[0], irr[3]) it is all of H^2(D, O), two copies of O/p^2
    assert ext_block(ctx, irr[0], irr[1], 2, "closed") == OModuleClass(5, 0)
    assert ext_block(ctx, irr[0], irr[3], 2, "closed") == \
        OModuleClass(5, 0, (2, 2))
    # irr[4] has a trivial stabilizer, so oracle mode pivoting on it
    # reaches Ext^2 on the Koszul complex, and closed mode by double
    # cosets: by Shapiro, the sum of H^2(D, O_nu) over the lines of the
    # other module restricted to D, each from the shape lemma
    for a, b, via in [(4, 5, 1), (0, 4, 2)]:
        pivot, other = (a, b) if via == 1 else (b, a)
        want = OModuleClass(5, 0)
        for lam in build_module_rep(ctx, irr[other], block_ring(ctx)).dchars:
            want = want.direct_sum(
                ext_abelian_closed(ctx.G.D, irr[pivot].lam, lam, 2))
        assert want.torsion
        assert ext_block(ctx, irr[a], irr[b], 2, "oracle", via=via) == \
            ext_block(ctx, irr[a], irr[b], 2, "closed") == want, (a, b)


def test_shapiro_order_independence(example_a):
    irr = build_irr_B(example_a)
    for c1 in irr:
        for c2 in irr:
            for i in (0, 1, 2):
                one = ext_block(example_a, c1, c2, i, "oracle", via=1)
                two = ext_block(example_a, c1, c2, i, "oracle", via=2)
                assert one == two


def test_block_mode_validation(example_a):
    irr = build_irr_B(example_a)
    with pytest.raises(BlockExtError):
        ext_block(example_a, irr[0], irr[0], 2, "fast")
    with pytest.raises(BlockExtError):
        ext_block(example_a, irr[0], irr[0], 3)


# -- shapes ---------------------------------------------------------------

def test_shape_reports():
    hom = OModuleClass(3, 1)
    assert ext_shape_classify(hom, 0)["conforms"]
    bad0 = OModuleClass(3, 0, (Fraction(1),))
    assert not ext_shape_classify(bad0, 0)["conforms"]
    w = val_one_minus_zeta(3, 2)
    assert ext_shape_classify(OModuleClass(3, 0, (w,)), 1)["conforms"]
    assert not ext_shape_classify(OModuleClass(3, 0, (Fraction(2),)), 1)[
        "conforms"]
    assert ext_shape_classify(OModuleClass(3, 0, (Fraction(2),)), 2)[
        "conforms"]
    assert not ext_shape_classify(OModuleClass(3, 1, ()), 2)["conforms"]


# -- mod-p ----------------------------------------------------------------

def test_ext1_modp_example_a(example_a):
    irr = build_irr_B(example_a)
    lin = [c for c in irr if c.degree == 1]
    assert ext1_modp(example_a, lin[0], lin[1]) == 1
    # UCT against k (x) Ext^2 for disjoint reductions
    dec = decomposition_matrix(example_a)
    r0, r1 = (dec[irr.index(c)] for c in lin[:2])
    assert not any(a and b for a, b in zip(r0, r1))
    e2 = ext_block(example_a, lin[0], lin[1], 2)
    assert e2.free_rank + len(e2.torsion) == 1


def test_simple_ext1_quiver_dims(example_a):
    dims = [[ext1_modp_simples(example_a, a, b) for b in range(2)]
            for a in range(2)]
    # H^1(C_3, k) is one-dimensional and the C_4-action swaps the weights
    assert dims[0][1] == 1 and dims[1][0] == 1
    assert dims[0][0] == 0 and dims[1][1] == 0


@pytest.mark.parametrize("name", ["a4", "example-a", "example-b", "q8-c3xc3",
                                  "q8z-c3xc3", "c5-c4"])
def test_ext1_modp_matches_the_reduced_lattices(name):
    # the fixed-point table against the bar complex of the simple modules,
    # and weighted by decomposition numbers against the bar complex of the
    # two reductions mod pi
    ctx = to_context(load_spec(CORPUS / f"{name}.blockspec"))
    if name == "c5-c4":  # C_4 acting on C_5 by a -> 2a: a one-way quiver
        assert ext1_modp_simples(ctx, 0, 3) != ext1_modp_simples(ctx, 3, 0)
    n = len(brauer_chars(ctx))
    assert [[ext1_modp_simples(ctx, a, b) for b in range(n)]
            for a in range(n)] == ext1_of_simples(ctx)
    irr = build_irr_B(ctx)
    for c1 in irr:
        for c2 in irr:
            assert ext1_modp(ctx, c1, c2) == ext1_of_reductions(ctx, c1, c2)


def test_quiver_past_the_bar_complex():
    # C_4 acting on C_25 x C_25 by the scalar 7: the bar complex of D is
    # refused even at the default guard, the fixed points are not
    G = validate_block_spec(5, [2, 2], [((1, 2, 3, 0), [[7, 0], [0, 7]])])
    ctx = BlockContext(G, 0, {"size_guard": 1})
    q = ext_quiver(ctx)
    assert q["dims"] == [[0, 0, 0, 2], [0, 0, 2, 0], [2, 0, 0, 0],
                         [0, 2, 0, 0]]
    assert q["connected"]


# -- the block memo -------------------------------------------------------

@pytest.mark.parametrize("name", ["example-a", "q8-c3xc3"])
def test_memoized_values_cannot_be_edited(name):
    ctx = to_context(load_spec(CORPUS / f"{name}.blockspec"))
    checks = []
    cli._chars_body(ctx)  # what verify computes, on a context we keep
    cli._verify_block(ctx, checks, "crosscheck")
    assert all(c["status"] == "pass" for c in checks)
    # every kind of module the block memo holds is among those tried
    assert {k[0] for k in ctx.cache if isinstance(k, tuple)} >= \
        {"vchi", "module"}
    irr = build_irr_B(ctx)
    n = len(irr)
    with pytest.raises(AttributeError):
        build_irr_B(ctx).pop()
    with pytest.raises(AttributeError):
        brauer_chars(ctx).append(brauer_chars(ctx)[0])
    with pytest.raises(TypeError):
        decomposition_matrix(ctx)[0][0] = 9
    with pytest.raises(AttributeError):
        irr[2].degree = 7
    for c in irr:
        with pytest.raises(TypeError):
            c.stab_embed[0] = 1
        with pytest.raises(TypeError):
            c.stab.table[0][0] = 1
        with pytest.raises(TypeError):
            c.stab.class_of[0] = 1
    reps = [v for v in ctx.cache.values() if isinstance(v, ModuleRep)]
    for rep in reps:
        with pytest.raises(TypeError):
            rep.embed[0] = 1
        with pytest.raises(ValueError):
            rep.mats[0] = 0
    # the group every context and memo entry shares
    G = ctx.G
    with pytest.raises(TypeError):
        G.d2_invariants[:] = [1]
    with pytest.raises(TypeError):
        G.action.mats[1] = G.action.mats[0]
    with pytest.raises(TypeError):
        G.D.qs[0] = 1
    with pytest.raises(AttributeError):
        G.d1_invariants = ()
    assert len(build_irr_B(ctx)) == n
    if name == "example-a":
        assert n == 3
