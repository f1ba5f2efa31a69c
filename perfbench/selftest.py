"""Self-test of the benchmark's tracing.

Usage: python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

For each workload (all three by default) it makes two traced runs with
the same seed and requires that both are correct (the traced answers
equal the untraced answers and the references) and that every per-layer
count and count ratio is identical between the two runs.  Times and the
tracing overhead are allowed to differ.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import BENCH_DIR, ROOT, python

EXACT_UNITS = ("count", "ratio")
NOT_EXACT = ("trace.overhead_ratio",)


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [python(), str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited "
                         f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=[
        "ext2-sweep-c", "abelian-sweep-c3x9", "cli-q8"])
    args = ap.parse_args(argv)
    ok = True
    for wl in args.workloads:
        a, b = traced(wl, args.seed), traced(wl, args.seed)
        problems = [f"run {i} not correct ({r['failed']} of "
                    f"{r['attempted']} failed)"
                    for i, r in enumerate((a, b), 1) if not r["correct"]]
        for name, m in a["metrics"].items():
            if m["unit"] in EXACT_UNITS and name not in NOT_EXACT:
                other = b["metrics"][name]["value"]
                if m["value"] != other:
                    problems.append(f"{name}: {m['value']} != {other}")
        ok &= not problems
        print(f"{wl}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
