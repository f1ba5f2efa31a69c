"""Acceptance criteria, one test (and one pass/fail line) per criterion.

Run with -v to get the per-criterion verdict lines; the prints carry
runtime details.  Criteria 1-10 cover: abelian closed-vs-oracle, Kunneth
consistency, good-set classification, UCT dimensions, quiver
connectivity, conjugacy forcing, the cyclotomic valuation identity,
character-table sanity, precision stability, and Shapiro-order
independence.
"""

import time
from pathlib import Path

import pytest

from blockext import (BlockContext, LinearChar, abelian_context, block_ring,
                      build_group, build_irr_B, char_table,
                      check_conjugacy_forcing, decomposition_matrix,
                      ext1_modp, ext_abelian_closed, ext_abelian_oracle,
                      ext_block, ext_quiver, verify_classification,
                      verify_cyclotomic_identity)
from blockext.specfile import load_spec, to_context

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_NAMES = ["example-a", "example-b", "example-c",
                "c9", "c3x3", "c3x9", "c8", "c4x4", "a4", "q8-c3xc3",
                "q8z-c3xc3", "c5x5-c4"]

PURE_CASES = [(3, (2,)), (3, (1, 1)), (3, (1, 2)), (2, (3,)), (2, (2, 2))]


def _report(n, detail):
    print(f"ACCEPTANCE {n} PASS: {detail}")


def test_criterion_01_abelian_closed_vs_oracle():
    t0 = time.monotonic()
    pairs = 0
    for p, orders in PURE_CASES:
        D = abelian_context(p, orders).G.D
        chars = [LinearChar(D, v) for v in D.elements()]
        for l1 in chars:
            for l2 in chars:
                for i in range(3):
                    closed = ext_abelian_closed(D, l1, l2, i)
                    oracle = ext_abelian_oracle(D, l1, l2, i)
                    assert closed == oracle, \
                        f"{p}, {orders}, mu={l1.inverse().mul(l2).vec}, " \
                        f"i={i}: {closed.pretty()} != {oracle.pretty()}"
                pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"criterion 1 took {elapsed:.0f}s"
    _report(1, f"{pairs} ordered pairs x degrees 0..2 over "
               f"{len(PURE_CASES)} groups agree exactly in {elapsed:.0f}s")


def test_criterion_02_kunneth_consistency(example_b):
    t0 = time.monotonic()
    irr = build_irr_B(example_b)
    for c1 in irr:
        for c2 in irr:
            # crosscheck mode computes both engines and raises on mismatch
            ext_block(example_b, c1, c2, 2, "crosscheck")
    _report(2, f"{len(irr) ** 2} ordered pairs at degree 2, closed = "
               f"oracle, {time.monotonic() - t0:.0f}s")


def test_criterion_03_classification(example_a, example_b, example_c):
    expected = {"A": 1, "B": 3, "C": 1}
    for label, ctx in (("A", example_a), ("B", example_b), ("C", example_c)):
        t0 = time.monotonic()
        ok, report = verify_classification(ctx)
        elapsed = time.monotonic() - t0
        assert ok, f"Example {label}: {report['discrepancies']}"
        assert report["enumerated"] == expected[label] == report["predicted"]
        assert elapsed < 600, f"Example {label} took {elapsed:.0f}s"
    _report(3, "good-set counts 1/3/1 on Examples A/B/C, enumeration "
               "matches prediction")


def _disjoint_pairs(ctx):
    irr = build_irr_B(ctx)
    supp = [frozenset(j for j, m in enumerate(row) if m)
            for row in decomposition_matrix(ctx)]
    return irr, [(a, b) for a in range(len(irr)) for b in range(len(irr))
                 if not supp[a] & supp[b]]


def test_criterion_04_uct_dimensions(example_a, example_b, example_c):
    tested = 0
    for label, ctx in (("A", example_a), ("B", example_b), ("C", example_c)):
        irr, pairs = _disjoint_pairs(ctx)
        assert pairs, f"Example {label} has no disjoint-reduction pairs"
        for a, b in pairs:
            e2 = ext_block(ctx, irr[a], irr[b], 2, "crosscheck")
            kdim = e2.free_rank + len(e2.torsion)
            mdim = ext1_modp(ctx, irr[a], irr[b])
            assert kdim == mdim, \
                f"Example {label} pair ({a},{b}): k x Ext^2 = {kdim}, " \
                f"Ext^1 mod p = {mdim}"
            tested += 1
    _report(4, f"dim_k(k x Ext^2) = dim_k Ext^1_k on {tested} "
               f"disjoint-reduction pairs across A-C")


def test_criterion_05_quiver_connectivity(example_a, example_b, example_c):
    sizes = []
    for label, ctx in (("A", example_a), ("B", example_b), ("C", example_c)):
        q = ext_quiver(ctx)
        assert q["connected"], f"Example {label} quiver disconnected: {q}"
        sizes.append(q["vertices"])
    _report(5, f"Ext^1 quivers connected on {sizes} vertices for A/B/C")


def test_criterion_06_conjugacy_forcing(example_a, example_b, example_c):
    t0 = time.monotonic()
    counts = []
    for label, ctx in (("A", example_a), ("B", example_b), ("C", example_c)):
        rep = check_conjugacy_forcing(ctx)
        assert rep["violations"] == [], \
            f"Example {label}: {rep['violations']}"
        counts.append((rep["qualifying"], rep["pairs"]))
    _report(6, f"zero violations; qualifying/total pairs {counts} "
               f"in {time.monotonic() - t0:.0f}s")


def test_criterion_07_cyclotomic_identity():
    cases = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]
    for p, n in cases:
        assert verify_cyclotomic_identity(p, n), f"fails at ({p}, {n})"
    _report(7, f"sum of valuations = n checked exactly for {cases}")


def _sl23_generators():
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    idx = {v: i for i, v in enumerate(vecs)}

    def perm(m):
        return tuple(idx[((m[0][0] * a + m[0][1] * b) % 3,
                          (m[1][0] * a + m[1][1] * b) % 3)]
                     for a, b in vecs)
    return perm([[1, 1], [0, 1]]), perm([[0, 2], [1, 0]])


def test_criterion_08_character_sanity():
    q8_i, q8_j = (2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)
    groups = {"C4": [(1, 2, 3, 0)],
              "Q8": [q8_i, q8_j],
              "S3": [(1, 0, 2), (1, 2, 0)],
              "SL(2,3)": list(_sl23_generators())}
    for label, gens in groups.items():
        E = build_group(gens)
        tab = char_table(E)    # verifies orthogonality internally
        for i, chi in enumerate(tab):
            for j, psi in enumerate(tab):
                want = 1 if i == j else 0
                assert chi.inner_product(psi) == want, \
                    f"{label}: <{i},{j}> != {want}"
        assert sum(chi.degree() ** 2 for chi in tab) == E.n
    assert build_group(groups["SL(2,3)"]).n == 24

    sums = []
    for name in CORPUS_NAMES:
        ctx = to_context(load_spec(CORPUS / f"{name}.blockspec"))
        total = sum(c.degree ** 2 for c in build_irr_B(ctx))
        assert total == ctx.G.order // len(ctx.G.Z), name
        sums.append(total)
    _report(8, f"Dixon tables orthogonal for C4/Q8/S3/SL(2,3); "
               f"sum deg^2 = |G|/|Z| on all corpus specs: {sums}")


def test_criterion_09_precision_stability(example_a, example_b, example_c):
    # every oracle call certifies its Smith exponents against the bound
    # e*max(n_i) < cap and raises PrecisionUnstable on a residue past it;
    # these dual-ring runs compare the classes at N and N+2 on top of that
    checked = 0
    for p, orders in PURE_CASES:
        D = abelian_context(p, orders).G.D
        triv = LinearChar(D, (0,) * D.t)
        top = LinearChar(D, tuple(1 for _ in range(D.t)))
        base = block_ring(abelian_context(p, orders)).N
        for l1, l2 in [(triv, top), (top, triv)]:
            for i in (1, 2):
                a = ext_abelian_oracle(D, l1, l2, i, precision=base)
                b = ext_abelian_oracle(D, l1, l2, i, precision=base + 2)
                assert a == b, f"{p}, {orders}, i={i}"
                checked += 1
    samples = {"A": (example_a, [(0, 1), (0, 2), (1, 1)]),
               "B": (example_b, [(0, 1), (0, 6), (6, 6)]),
               "C": (example_c, [(0, 1), (0, 3), (3, 3)])}
    for label, (ctx, pairs) in samples.items():
        irr = build_irr_B(ctx)
        ctx2 = BlockContext(ctx.G, ctx.phi_exponent,
                            {"precision": block_ring(ctx).N + 2})
        for a, b in pairs:
            e1 = ext_block(ctx, irr[a], irr[b], 2, "closed")
            e2 = ext_block(ctx2, irr[a], irr[b], 2, "closed")
            assert e1 == e2, f"Example {label} pair ({a},{b})"
            checked += 1
    _report(9, f"{checked} explicit N vs N+2 recomputations identical; "
               f"every engine call certifies its Smith exponents besides")


def test_criterion_10_shapiro_order_independence(example_a):
    irr = build_irr_B(example_a)
    for c1 in irr:
        for c2 in irr:
            for i in range(3):
                via1 = ext_block(example_a, c1, c2, i, "oracle", via=1)
                via2 = ext_block(example_a, c1, c2, i, "oracle", via=2)
                assert via1 == via2, \
                    f"pair ({c1!r}, {c2!r}) degree {i}: " \
                    f"{via1.pretty()} != {via2.pretty()}"
    _report(10, f"{len(irr) ** 2} pairs x degrees 0..2 agree under "
                f"c1-first and c2-first reduction")
