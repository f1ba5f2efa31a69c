"""Good-set machinery, forcing, quiver connectivity."""

import itertools

import pytest

from blockext.analysis import (CandidateSet, check_conjugacy_forcing,
                               enumerate_good_sets, ext_quiver, is_good,
                               predicted_good_sets, verify_classification)
from blockext.chars import brauer_chars, build_irr_B
from blockext.errors import BlockExtError, EnumerationBoundExceeded
from blockext.extengine import abelian_context
from blockext.groups import BlockContext, LinearChar, validate_block_spec
from groupref import split


def test_predicted_counts_match_d2(example_a, example_b, example_c):
    assert len(predicted_good_sets(example_a)) == 1
    assert len(predicted_good_sets(example_b)) == 3
    assert len(predicted_good_sets(example_c)) == 1
    # |predicted| = |D2| in every case, D2 listed by enumeration
    for ctx in (example_a, example_b, example_c):
        assert len(predicted_good_sets(ctx)) == \
            len(split(ctx.G, range(ctx.G.E.n))[1])


@pytest.mark.parametrize("gens", [
    # S_3 on C_5 x C_5, the reflection first: it alone fixes a line
    [((1, 0, 2), [[0, 1], [1, 0]]), ((1, 2, 0), [[0, -1], [1, -1]])],
    # C_2 x C_2 on C_5 x C_5 by the signs: each generator fixes a line
    [((1, 0, 3, 2), [[-1, 0], [0, 1]]), ((2, 3, 0, 1), [[1, 0], [0, -1]])]])
def test_predicted_fibers_are_the_thetas_trivial_on_d1(gens):
    # one fiber per theta trivial on D1, listed here, so every generator
    # of E must fix theta, not only the first
    ctx = BlockContext(validate_block_spec(5, [1, 1], gens), 0)
    d1 = split(ctx.G, range(ctx.G.E.n))[0]
    thetas = [vec for vec in itertools.product(range(5), range(5))
              if all(LinearChar(ctx.G.D, vec).value_exponent(x) == 0
                     for x in d1)]
    assert thetas == [(0, 0)]
    assert [[c.lam.vec for c in cand.chars]
            for cand in predicted_good_sets(ctx)] == \
        [[(0, 0)] * len(brauer_chars(ctx))]


def test_example_a_single_good_set(example_a):
    good = enumerate_good_sets(example_a)
    assert len(good) == 1
    rep = is_good(example_a, good[0])
    assert rep.good and not rep.violations
    assert rep.matched_theta is not None


def test_example_b_three_good_sets(example_b):
    good = enumerate_good_sets(example_b)
    assert len(good) == 3
    ok, report = verify_classification(example_b)
    assert ok
    assert report["enumerated"] == report["predicted"] == 3
    assert not report["discrepancies"]


def test_example_b_mixed_thetas_not_good(example_b):
    # pick lifts whose lambdas restrict differently to D_2
    irr = build_irr_B(example_b)
    preds = predicted_good_sets(example_b)
    mixed = CandidateSet((preds[0].chars[0], preds[1].chars[1]))
    rep = is_good(example_b, mixed)
    assert not rep.good
    assert any("threshold" in why or "non-integral" in why
               for _, _, why in rep.violations)


def test_example_c_classification(example_c):
    ok, report = verify_classification(example_c)
    assert ok
    assert report["enumerated"] == 1


def test_example_c_good_pairs_have_valuation_two(example_c):
    good = enumerate_good_sets(example_c)
    rep = is_good(example_c, good[0])
    for (a, b), cls in rep.pair_classes.items():
        for t in cls.torsion:
            assert t.denominator == 1 and t >= 2


def test_conjugacy_forcing_example_a(example_a):
    report = check_conjugacy_forcing(example_a)
    assert report["pairs"] == 9
    assert report["qualifying"] > 0
    assert report["violations"] == []


def test_quiver_examples(example_a, example_c):
    qa = ext_quiver(example_a)
    assert qa["vertices"] == 2 and qa["connected"]
    qc = ext_quiver(example_c)
    assert qc["vertices"] == 3 and qc["connected"]
    assert qc["edges"] == [[0, 1], [0, 2], [1, 2]]


def test_enumeration_bound(example_b):
    with pytest.raises(EnumerationBoundExceeded):
        enumerate_good_sets(example_b, enum_bound=2)
    with pytest.raises(EnumerationBoundExceeded, match="bound 0"):
        enumerate_good_sets(example_b, enum_bound=0)  # 0 is a bound too


def test_assumption_gate():
    # p = 2 with a C_2 direct factor: construction fine, analysis refuses
    ctx = abelian_context(2, (1, 2))
    assert not ctx.G.D.assumption_ok
    with pytest.raises(BlockExtError, match="C_2"):
        enumerate_good_sets(ctx)
