"""Regenerate the stored reference answers from the current program.

Usage: python3 perfbench/make_reference.py

The references were generated once from the seed code and are committed;
every benchmark run checks its answers against them.  Run this only to
re-derive them on purpose, and review the diff: a changed answer is a
changed result of the program, not a benchmark update.

It computes all 64 ordered example-c Ext^2 classes in crosscheck mode,
every (mu, degree) class of pure C3 x C9 by both engines, and the
documents of the fixed Q8 CLI session, rendered without --timing.  It
also counts the ChainRing.mul calls of each example-c pair, in a traced
pass over all 64; ext2-sweep-c ranks the pairs by that count to draw a
sample whose cost does not depend on the seed.
"""

from __future__ import annotations

import itertools

from common import (CLI_SESSION, REFERENCE, SPEC_C, SPEC_C3X9,
                    require_program, run_cli, run_worker, write_json)


def main() -> int:
    require_program()
    probe, _, _ = run_worker("setup", {"spec": SPEC_C}, 600)
    n = len(probe["irr"])
    pairs = [[a, b] for a in range(n) for b in range(n)]
    res, _, _ = run_worker("ext2", {"spec": SPEC_C, "batch": pairs}, 3600)
    ext2 = {}
    for (a, b), (_, ans) in zip(pairs, res["ops"]):
        if "error" in ans:
            raise SystemExit(f"example-c pair ({a},{b}): {ans['error']}")
        ext2[f"{a},{b}"] = ans
    traced, _, _ = run_worker("ext2", {"spec": SPEC_C, "batch": pairs,
                                       "trace": True}, 3600)
    marks = [counts.get("chainring.mul.calls", 0)
             for _, counts in traced["trace"]["marks"]]
    mul_calls = {f"{a},{b}": marks[k + 1] - marks[k]
                 for k, (a, b) in enumerate(pairs)}
    write_json(REFERENCE / "example-c.json",
               {"spec": SPEC_C, "precision": res["ring_N"],
                "irr": res["irr"], "ext2": ext2, "mul_calls": mul_calls})

    probe, _, _ = run_worker("setup", {"spec": SPEC_C3X9}, 600)
    qs = probe["qs"]
    zero = [0] * len(qs)
    mus = [list(v) for v in itertools.product(*(range(q) for q in qs))]
    batch = [[zero, mu, i] for mu in mus for i in range(3)]
    res, _, _ = run_worker("abelian", {"spec": SPEC_C3X9, "batch": batch},
                           3600)
    classes = {}
    for (_, mu, i), (_, ans) in zip(batch, res["ops"]):
        if "error" in ans:
            raise SystemExit(f"c3x9 mu={mu} degree {i}: {ans['error']}")
        classes[f"{','.join(map(str, mu))}:{i}"] = ans
    write_json(REFERENCE / "c3x9.json",
               {"spec": SPEC_C3X9, "precision": res["ring_N"], "qs": qs,
                "classes": classes})

    docs = {}
    for label, argv in CLI_SESSION:
        rc, out, _ = run_cli(argv, 600)
        if rc != 0:
            raise SystemExit(f"cli {label} exited {rc}")
        docs[label] = {"argv": argv, "rc": rc, "doc": out}
    write_json(REFERENCE / "q8-c3xc3.json", docs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
