"""A reference for the Brauer side of blockext.chars: induction over E.

decomposition_matrix reads each entry by Frobenius reciprocity over the
stabilizer E_lambda.  The functions here take the long way: they induce
chi from E_lambda to E and expand the result in Irr(E | phi).  Slow, and
only for tests.
"""

from fractions import Fraction

from blockext.chars import ClassFunction, brauer_chars
from blockext.cyclotomic import CycloNumber


def induce(G, embed, cf):
    """The class function induced along the subgroup embedding embed: H -> G."""
    H = cf.group
    assert len(embed) == H.n
    pos = {g: i for i, g in enumerate(embed)}
    values = []
    for cls in G.classes:
        r = cls[0]
        acc = CycloNumber.from_rational(0)
        for x in range(G.n):
            i = pos.get(G.table[G.table[x][r]][G.inverse[x]])
            if i is not None:
                acc = acc + cf.values[H.class_of[i]]
        values.append(acc * Fraction(1, H.n))
    return ClassFunction(G, values)


def reduce_to_brauer(ctx, c):
    """chi induced from E_lambda to E, expanded in Irr(E | phi):
    {index into brauer_chars(ctx): multiplicity}."""
    ind = induce(ctx.G.E, c.stab_embed, c.chi)
    out = {}
    for i, psi in enumerate(brauer_chars(ctx)):
        mult = ind.inner_product(psi)
        assert mult.denominator == 1
        if mult:
            out[i] = int(mult)
    return out


def decomposition_rows(ctx, irr):
    """The decomposition matrix of the given characters, by induction."""
    ncols = len(brauer_chars(ctx))
    return tuple(tuple(red.get(j, 0) for j in range(ncols))
                 for red in (reduce_to_brauer(ctx, c) for c in irr))
