"""References for blockext's Ext^1 mod p, through the bar complex.

ext1_modp_simples reads dim_k Ext^1_kG between two simple modules off
E-fixed points in Hom(S_a, S_b) (x) Hom(D/pD, k), and ext1_modp weights
that table by the decomposition numbers.  The functions here take the
long way: H^1 of the E-fixed bar complex of D over the residue field,
with coefficients in the simple modules themselves or in the reductions
mod pi of the two lattices.  Slow, and only for tests.
"""

from blockext.chainlinalg import homology_of_complex
from blockext.chars import brauer_chars
from blockext.extengine import _fixed_bar_complex, block_ring
from blockext.groups import LinearChar
from blockext.modrep import ModuleRep, _vchi_matrices, build_module_rep


def _bar_ext1(ctx, ring0, M1, M2):
    """H^1 of the E-fixed bar complex with coefficients in M1* (x) M2;
    higher E-cohomology vanishes, as |E| is prime to p."""
    cx = _fixed_bar_complex(ring0, ctx.G, ctx.G.D.elements()[1:], M1, M2, 2,
                            ctx.options.get("size_guard"))
    free, tors = homology_of_complex(cx, bound=0, acyclic=False)[1]
    assert not tors, "residue field homology cannot carry torsion"
    return free


def simple_module(ctx, psi, ring0):
    """The simple kG-module of a Brauer character: D acts trivially."""
    D, E = ctx.G.D, ctx.G.E
    return ModuleRep(ring0, E, range(E.n),
                     [LinearChar(D, (0,) * D.t)] * psi.degree(),
                     _vchi_matrices(ring0, E, psi))


def ext1_of_simples(ctx):
    """The table dim_k Ext^1_kG(S_a, S_b) over every ordered pair."""
    ring0 = block_ring(ctx).residue_ring()
    simples = [simple_module(ctx, psi, ring0) for psi in brauer_chars(ctx)]
    return [[_bar_ext1(ctx, ring0, a, b) for b in simples] for a in simples]


def reduce_rep(rep, ring0):
    """Reduction mod pi: D acts trivially, E-matrices drop to the residue
    field (p-power roots of unity are 1 mod pi)."""
    D = rep.dchars[0].group
    return ModuleRep(ring0, rep.F, rep.embed,
                     [LinearChar(D, (0,) * D.t)] * rep.rank,
                     rep.mats[..., ::rep.ring.e] % rep.ring.p)


def ext1_of_reductions(ctx, c1, c2):
    """dim_k Ext^1_kG(M_c1 mod pi, M_c2 mod pi) from the reduced lattices."""
    R = block_ring(ctx)
    ring0 = R.residue_ring()
    r1, r2 = (reduce_rep(build_module_rep(ctx, c, R), ring0)
              for c in (c1, c2))
    return _bar_ext1(ctx, ring0, r1, r2)
