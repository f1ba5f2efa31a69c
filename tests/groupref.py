"""A reference for the structure of D under a p'-group F, by enumeration.

blockext reads C_D(F) off layer ranks over F_p (ActionMap.fixed_layers).
The functions here take the long way: they list D, keep the F-fixed
elements and the kernel of the sum over F, and recover invariants from
element-order statistics.  Slow, and only for tests.
"""


def abelian_invariants(p, elements, ambient):
    """Invariant factor exponents, ascending, of a subgroup of ambient
    given by its element list.

    Recovered from order statistics: log_p #{x : p^k x = 0} determines the
    partition of the abelian p-group.
    """
    if len(elements) == 1:
        return []
    counts = {}
    for x in elements:
        o = ambient.order_of(x)
        k = 0
        while p**k < o:
            k += 1
        counts[k] = counts.get(k, 0) + 1
    maxk = max(counts)
    # m_k = log_p of the p^k-torsion subgroup order
    ms = []
    for k in range(maxk + 1):
        tot = sum(v for kk, v in counts.items() if kk <= k)
        m = 0
        while p**m < tot:
            m += 1
        assert p**m == tot, "subgroup order statistics are not a p-group's"
        ms.append(m)
    invs = []
    for k in range(1, maxk + 1):
        mult = (ms[k] - ms[k - 1]) - (ms[k + 1] - ms[k] if k < maxk else 0)
        invs.extend([k] * mult)
    invs.sort()
    return invs


def split(G, F):
    """([D, F], C_D(F)) as element lists in D.elements() order, F a list
    of the elements of a subgroup of E.  [D, F] is the kernel of the sum
    over F, as |F| is a unit mod exp(D)."""
    D, act = G.D, G.action
    elems = D.elements()
    fixed = [x for x in elems if all(act.apply(f, x) == x for f in F)]
    comm = []
    for x in elems:
        acc = D.identity
        for f in F:
            acc = D.add(acc, act.apply(f, x))
        if acc == D.identity:
            comm.append(x)
    return comm, fixed


def closed_mode_subgroups(G):
    """Every F = E_lam1 meet g E_lam2 g^-1 over the stabilizers of the
    E-orbits on Irr(D) and g in E, as sorted element lists."""
    E = G.E
    stabs = {tuple(o["stabilizer"]) for o in G.char_orbits()}
    out = set()
    for s1 in stabs:
        for s2 in stabs:
            for g in range(E.n):
                conj = {E.table[E.table[g][h]][E.inverse[g]] for h in s2}
                out.add(tuple(sorted(set(s1) & conj)))
    return sorted(out)
