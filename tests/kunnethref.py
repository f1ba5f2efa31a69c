"""A reference for blockext's closed-mode Ext, through the bar complex.

Closed mode reads every class off one Mackey term per double coset, from
ranks over the residue field and the shape lemma.  The function here
takes the long way: Kunneth assembly over G = (D1 x| E) x D2, with the
D1 x| E factor from the E-fixed bar complex of D1 and the D2 factor from
the shape lemma.  D1 and D2 are listed here and their invariants taken
from element orders (groupref), so the reference shares no code with
closed mode's layer ranks.  Slow, and only for tests.
"""

from functools import cache
from math import gcd

from blockext.errors import BlockExtError
from blockext.extengine import _bar_class, shape_lemma
from blockext.modrep import build_module_rep
from blockext.omodule import OModuleClass, kunneth_assemble
from groupref import abelian_invariants, split


def kunneth_class(ctx, c1, c2, top, R):
    """Ext^0..top by Kunneth assembly over G = (D1 x| E) x D2.  E fixes
    D2, so the D2 factor is H^*(D2, O_mu), mu = lam1^-1 lam2 on D2, from
    the shape lemma (Brown, Cohomology of Groups, III.10); the D1 x| E
    factor is the oracle's on D1, through top."""
    G = ctx.G
    d1, d2, invariants = _d1_d2(G)
    M1, M2 = build_module_rep(ctx, c1, R), build_module_rep(ctx, c2, R)
    left = _bar_class(ctx, d1, M1, M2, top, R)
    mu = c1.lam.inverse().mul(c2.lam)
    qm = G.D.exponent
    d = max(qm // gcd(mu.value_exponent(x), qm) for x in d2)
    right = [shape_lemma(G.D.p, invariants, d, k)
             for k in range(top + 1)]
    # degree n needs the factors through n + 1, and top + 1 enters only as
    # Tor_1(left[top + 1], right[0]) and Tor_1(left[0], right[top + 1]).
    # Both H^0 are torsion-free (the shape lemma's always is, the D1 x| E
    # one is checked here), so these vanish and zero placeholders are exact
    if left[0].torsion:
        raise BlockExtError("H^0 of a Kunneth factor is not torsion-free")
    zero = OModuleClass(G.D.p, 0, ())
    return tuple(kunneth_assemble([*left, zero], [*right, zero], n)
                 for n in range(top + 1))


@cache
def _d1_d2(G):
    """(D1 - 1, D2, the invariants of D2), listed once per group."""
    d1, d2 = split(G, range(G.E.n))
    return ([x for x in d1 if x != G.D.identity], d2,
            abelian_invariants(G.D.p, d2, G.D))
