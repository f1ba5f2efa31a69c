"""Good subsets of Irr(B), conjugacy forcing, and the Ext quiver.

A candidate set picks one lift per Brauer character; it is good when
every ordered pair (diagonal included) has Ext^2 a direct sum of
O/p^m O with integer m >= 1, and m >= 2 when p = 2.  The classification
says the good sets are exactly the fibers Irr(B | 1 (x) theta) for
theta in Irr(D_2); both sides are computed independently here and
compared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .chars import brauer_chars, build_irr_B, lifts_of
from .errors import BlockExtError, EnumerationBoundExceeded
from .extengine import ext1_modp_simples, ext_block
from .groups import BlockContext, LinearChar
from .omodule import OModuleClass

DEFAULT_ENUM_BOUND = 10 ** 6


@dataclass(frozen=True)
class CandidateSet:
    """One chosen lift per Brauer character, in IBr order."""
    chars: tuple

    def key(self):
        return frozenset(c.key() for c in self.chars)

    def describe(self):
        return [{"lambda": list(c.lam.vec), "degree": c.degree,
                 "chi": [str(v) for v in c.chi.values]} for c in self.chars]


@dataclass
class GoodnessReport:
    candidate: CandidateSet
    good: bool
    pair_classes: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    matched_theta: list | None = None


def _require_assumption(ctx: BlockContext):
    D = ctx.G.D
    if not D.assumption_ok:
        raise BlockExtError(
            "classification needs every cyclic invariant of D nontrivial "
            "beyond C_2 when p = 2 (no direct factor isomorphic to C_2)")


def _conforming(p: int, e: OModuleClass):
    """Why an Ext^2 class fails goodness, or None if it conforms."""
    if e.free_rank:
        return "free part in Ext^2"
    lower = 2 if p == 2 else 1
    for t in e.torsion:
        if t.denominator != 1:
            return f"non-integral torsion valuation {t}"
        if t < lower:
            return f"torsion valuation {t} below the p = {p} threshold {lower}"
    return None


def is_good(ctx: BlockContext, candidate: CandidateSet,
            mode: str = "crosscheck") -> GoodnessReport:
    """Test the pairwise-Ext^2 condition over every ordered pair."""
    _require_assumption(ctx)
    p = ctx.G.D.p
    report = GoodnessReport(candidate, True)
    for a, c1 in enumerate(candidate.chars):
        for b, c2 in enumerate(candidate.chars):
            e = ext_block(ctx, c1, c2, 2, mode)
            report.pair_classes[(a, b)] = e
            reason = _conforming(p, e)
            if reason is not None:
                report.good = False
                report.violations.append(((a, b), e, reason))
    if report.good:
        for theta, pred in zip(*_predicted_with_thetas(ctx)):
            if pred.key() == candidate.key():
                report.matched_theta = list(theta)
                break
    return report


def enumerate_good_sets(ctx: BlockContext, mode: str = "crosscheck",
                        enum_bound: int | None = None) -> list[CandidateSet]:
    """Brute-force every choice of lifts; Ext^2 results are shared
    through the block-level cache, so overlapping pairs cost once."""
    _require_assumption(ctx)
    if enum_bound is None:
        enum_bound = ctx.options.get("enum_bound", DEFAULT_ENUM_BOUND)
    nbr = len(brauer_chars(ctx))
    lift_lists = [lifts_of(ctx, k) for k in range(nbr)]
    total = 1
    for lifts in lift_lists:
        total *= max(len(lifts), 1)
    if total > enum_bound:
        raise EnumerationBoundExceeded(
            f"{total} candidate sets exceed the enumeration bound "
            f"{enum_bound}")
    good = []
    for choice in itertools.product(*lift_lists):
        cand = CandidateSet(tuple(choice))
        if is_good(ctx, cand, mode).good:
            good.append(cand)
    return good


def _theta_chars(ctx: BlockContext):
    """E-fixed linear characters of D (trivial on D_1 = [D, E]): Irr(D_2)."""
    G = ctx.G
    D = G.D
    thetas = []
    for vec in itertools.product(*(range(q) for q in D.qs)):
        lam = LinearChar(D, tuple(vec))
        if all(G.action.on_char(e, lam) == lam for e in G.E.generators):
            thetas.append(lam)
    if len(thetas) != D.p ** sum(G.d2_invariants):
        raise BlockExtError("Irr(D_2) count must match |D_2|")
    return thetas


def _predicted_with_thetas(ctx: BlockContext):
    irr = build_irr_B(ctx)
    thetas, preds = [], []
    for lam in _theta_chars(ctx):
        # theta is E-fixed, so (1 (x) theta) is its own orbit rep and the
        # stabilizer is all of E; its fiber in Irr(B) is one char per psi
        members = tuple(c for c in irr if c.lam.vec == lam.vec)
        if not members:
            raise BlockExtError("predicted fiber is empty; orbit reps drifted")
        thetas.append(lam.vec)
        preds.append(CandidateSet(members))
    return thetas, preds


def predicted_good_sets(ctx: BlockContext) -> list[CandidateSet]:
    """The classification's side: X = Irr(B | 1_{D_1} (x) theta)."""
    return _predicted_with_thetas(ctx)[1]


def verify_classification(ctx: BlockContext,
                          mode: str = "crosscheck") -> tuple[bool, dict]:
    """Exhaustive goodness enumeration against the predicted fibers."""
    enumerated = enumerate_good_sets(ctx, mode)
    predicted = predicted_good_sets(ctx)
    ekeys = {c.key() for c in enumerated}
    pkeys = {c.key() for c in predicted}
    agree = ekeys == pkeys
    report = {
        "enumerated": len(enumerated),
        "predicted": len(predicted),
        "agree": agree,
        "discrepancies": [],
    }
    if not agree:
        for cand in enumerated:
            if cand.key() not in pkeys:
                rep = is_good(ctx, cand, mode)
                report["discrepancies"].append(
                    {"side": "enumerated-only",
                     "candidate": cand.describe(),
                     "pairs": {f"{a},{b}": e.pretty()
                               for (a, b), e in rep.pair_classes.items()}})
        for cand in predicted:
            if cand.key() not in ekeys:
                rep = is_good(ctx, cand, mode)
                report["discrepancies"].append(
                    {"side": "predicted-only",
                     "candidate": cand.describe(),
                     "violations": [(pair, e.pretty(), why)
                                    for pair, e, why in rep.violations]})
    return agree, report


def check_conjugacy_forcing(ctx: BlockContext,
                            mode: str = "crosscheck") -> dict:
    """Nonzero conforming Ext^2 must force E-conjugate lambda parts."""
    _require_assumption(ctx)
    p = ctx.G.D.p
    irr = build_irr_B(ctx)
    report = {"pairs": 0, "qualifying": 0, "violations": []}
    for c1 in irr:
        for c2 in irr:
            report["pairs"] += 1
            e = ext_block(ctx, c1, c2, 2, mode)
            if e.is_zero() or _conforming(p, e) is not None:
                continue
            report["qualifying"] += 1
            # both lambdas are stored as orbit representatives, so
            # E-conjugacy is equality of the vectors
            if c1.lam.vec != c2.lam.vec:
                report["violations"].append(
                    {"lam1": list(c1.lam.vec), "lam2": list(c2.lam.vec),
                     "ext2": e.pretty()})
    return report


def ext_quiver(ctx: BlockContext) -> dict:
    """Ext^1 graph on the simple modules, with a connectivity verdict."""
    n = len(brauer_chars(ctx))
    dims = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            dims[a][b] = ext1_modp_simples(ctx, a, b)
    edges = sorted({(min(a, b), max(a, b))
                    for a in range(n) for b in range(n)
                    if a != b and (dims[a][b] or dims[b][a])})
    seen = {0} if n else set()
    frontier = [0] if n else []
    while frontier:
        v = frontier.pop()
        for (x, y) in edges:
            for w in ((y,) if x == v else (x,) if y == v else ()):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return {
        "vertices": n,
        "dims": dims,
        "edges": [list(e) for e in edges],
        "connected": len(seen) == n,
    }
