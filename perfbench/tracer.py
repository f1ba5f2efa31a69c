"""Spans and counts at the public entry points of the blockext modules.

The tracer wraps functions from outside the program: each wrapper records
a span (name, start, end, parent span, run id) in memory, and the worker
hands the spans to the runner when it exits.  A wrapped name is replaced
in every blockext module that holds it, because modules import each
other's functions by name (``cli.ext_block``, ``analysis.ext_block``,
``extengine.homology_of_complex`` ...) and patching only the home module
would miss those calls.

The hot ChainRing methods get a counter and no span: a span per ring
multiplication would cost more than the multiplication.  The wrapper on
ChainComplex.verify, which runs once per built complex, also reads the
complex's size from ``self``.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# module -> public entry points that get a span
SPANNED = {
    "blockext.cli": ("main",),
    "blockext.specfile": ("load_spec", "parse_spec", "to_context"),
    "blockext.chars": ("build_irr_B", "brauer_chars", "char_table",
                       "decomposition_matrix"),
    "blockext.chainlinalg": ("homology_of_complex",),
    "blockext.modrep": ("build_module_rep",),
    "blockext.extengine": ("ext_block", "ext_oracle", "ext_abelian_closed",
                           "ext_abelian_oracle", "ext1_modp",
                           "ext1_modp_simples"),
    "blockext.analysis": ("check_conjugacy_forcing", "ext_quiver",
                          "enumerate_good_sets"),
}
COUNTED_RING_METHODS = ("mul", "val", "inv", "div_dominated")


class Tracer:
    """In-memory spans plus plain counters; one per worker process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, run]
        self.stack: list[int] = []
        self.run = "setup"
        self.counts: dict[str, int] = {}
        self.complexes: list[list[int]] = []   # [ring N, cells, nnz]
        self.marks: list[list] = []   # [run, counts when it began]

    def begin(self, run) -> None:
        """Start run id `run`; the counts so far are kept, so the counts
        of each run are the difference between consecutive marks."""
        self.marks.append([run, dict(self.counts)])
        self.run = run

    def add_span(self, name: str, start: float, end: float) -> None:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, start, end, parent, self.run])

    def _spanned(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None,
                   stack[-1] if stack else None, self.run]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def install(self) -> None:
        """Wrap every entry point; the blockext modules must be imported."""
        mods = [m for k, m in list(sys.modules.items())
                if k == "blockext" or k.startswith("blockext.")]
        for modname, names in SPANNED.items():
            home = sys.modules[modname]
            short = modname.split(".")[-1]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._spanned(f"{short}.{fname}", orig)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)

        from blockext.chainlinalg import ChainComplex
        from blockext.chainring import ChainRing
        for meth in COUNTED_RING_METHODS:
            setattr(ChainRing, meth, self._counted(
                f"chainring.{meth}.calls", getattr(ChainRing, meth)))

        verify = self._spanned("chainlinalg.dd_check", ChainComplex.verify)
        complexes = self.complexes

        def sized_verify(cx):
            complexes.append([cx.ring.N, sum(cx.ranks),
                              sum(len(d) for d in cx.diffs)])
            return verify(cx)
        ChainComplex.verify = sized_verify

    def dump(self) -> dict:
        self.begin("end")
        return {"spans": self.spans, "counts": self.counts,
                "complexes": self.complexes, "marks": self.marks}
