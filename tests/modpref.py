"""A reference for blockext's Ext^1 mod p: the reductions of the lattices.

ext1_modp reads dim_k Ext^1_kG between the reductions mod pi of two
lattices off the table of the simple modules, through the decomposition
numbers.  The functions here take the long way: they reduce both lattices
mod pi and take H^1 of the E-fixed bar complex of the reductions over the
residue field.  Slow, and only for tests.
"""

from blockext.chainlinalg import homology_of_complex
from blockext.extengine import _fixed_bar_complex, block_ring
from blockext.groups import LinearChar
from blockext.modrep import ModuleRep, build_module_rep


def reduce_rep(rep, ring0):
    """Reduction mod pi: D acts trivially, E-matrices drop to the residue
    field (p-power roots of unity are 1 mod pi)."""
    D = rep.dchars[0].group
    return ModuleRep(ring0, rep.F, rep.embed,
                     [LinearChar(D, (0,) * D.t)] * rep.rank,
                     rep.mats[..., ::rep.ring.e] % rep.ring.p)


def ext1_of_reductions(ctx, c1, c2):
    """dim_k Ext^1_kG(M_c1 mod pi, M_c2 mod pi) from the reduced lattices;
    higher E-cohomology vanishes, as |E| is prime to p."""
    R = block_ring(ctx)
    ring0 = R.residue_ring()
    r1, r2 = (reduce_rep(build_module_rep(ctx, c, R), ring0)
              for c in (c1, c2))
    cx = _fixed_bar_complex(ring0, ctx.G, ctx.G.D.elements()[1:], r1, r2, 2,
                            ctx.options.get("size_guard"))
    free, tors = homology_of_complex(cx, 1, bound=0, acyclic=False)
    assert not tors, "residue field homology cannot carry torsion"
    return free
