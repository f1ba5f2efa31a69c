"""The blockext benchmark.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or `all` to run the three in turn,
each with its own result line.

Workloads (see README.md for why each was chosen):
  ext2-sweep-c        crosscheck Ext^2 over a seeded sample of distinct
                      ordered pairs of example-c, stratified by rank and
                      by ring-multiplication count
  abelian-sweep-c3x9  closed-vs-oracle check of pure C3 x C9 over seeded
                      pairs (lam1, lam1*mu) at degrees 0..2
  cli-q8              the fixed five-command CLI session on Q8 acting
                      faithfully on C3 x C3

Every program process is a fresh interpreter, so module-level memos start
cold as they do for a CLI user.  The loop is closed with one caller: each
answer is awaited before the next request.  Every answer is checked
against the stored references in perfbench/reference.

--trace 0 repeats the seed's session as often as --seconds allows at the
workload's nominal session length, and reports the end-to-end metrics,
each timing the best of its repetitions.
--trace 1 runs the seed's session once untraced and once traced, and
reports the per-layer metrics and the tracing overhead; its counts do not
depend on timing, so they repeat exactly.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it repeat each metric with
its unit, the tail percentile used, and the environment.  The exit code
is 1 when an operation failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata

from common import (CLI_SESSION, OUT, REFERENCE, ROOT, SPEC_C, SPEC_C3X9,
                    SPEC_Q8, WorkerFailed, load_json, require_program, run_cli,
                    run_worker, write_json)

RUN_BUDGET_S = 170.0     # every run exits within 180 s
MIN_REPS = 2
# A run makes max(MIN_REPS, seconds // nominal_s) repetitions of its
# workload's session, nominal_s being about one repetition on a 2-core
# sandbox.  The count depends on --seconds only: were it set by how many
# repetitions fit the window, a faster machine would also take the best
# of more of them, and the drift of its speed would count twice.
CLI_SETUP_PROBES = 3     # set-up-only interpreters that start a run
SWEEP_SETUP_PROBES = 1   # the sweep sessions time their own set-up too
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

E2E_UNITS = {"setup_s": "s", "ext_per_s": "1/s", "ext_p50_s": "s",
             "ext_tail_s": "s", "session_s": "s", "verify_s": "s",
             "peak_rss_mb": "MB"}


# -- statistics -----------------------------------------------------------

def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics, q in percent."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values) -> tuple[float, float]:
    """(percentile, value) at the highest ladder percentile that has at
    least ten samples beyond it.  With fewer than 20 samples no tail can
    be resolved, and the p50 stands in for it."""
    n = len(values)
    for q in reversed(TAIL_LADDER):
        if n * (1.0 - q / 100.0) >= 10.0 - 1e-9:
            return q, quantile(values, q)
    return 50.0, quantile(values, 50.0)


# -- workloads ------------------------------------------------------------

def apportion(sizes: dict, total: int) -> dict:
    """Split `total` draws over strata in proportion to their sizes, by
    largest remainder, so a sample has the population's mix."""
    whole = sum(sizes.values())
    exact = {k: total * n / whole for k, n in sizes.items()}
    quota = {k: math.floor(x) for k, x in exact.items()}
    by_rest = sorted(sizes, key=lambda k: (quota[k] - exact[k], k))
    for k in by_rest[:total - sum(quota.values())]:
        quota[k] += 1
    return quota


class Sweep:
    """A sweep session is one interpreter: set-up, then the seed's batch.
    Every repetition of a session runs the same batch in the same order."""

    mode = ""
    spec = ""

    def __init__(self, name: str):
        self.name = name

    def rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}")

    def session(self, seed: int, deadline: float, *,
                trace: bool = False) -> dict:
        batch = self.batch(seed)
        job = {"spec": self.spec, "batch": batch, "trace": trace}
        res, spawn, done = run_worker(self.mode, job, _left(deadline))
        bad = [(op, ans) for op, (_, ans) in zip(batch, res["ops"])
               if not self.correct(op, ans)]
        return {"setup": res["ready_mono"] - spawn,
                "work": res["done_mono"] - res["ready_mono"],
                "wall": done - spawn,
                "lat": [op[0] for op in res["ops"]], "ops": len(batch),
                "answers": [ans for _, ans in res["ops"]],
                "failed": bad, "result": res}


class ExtSweepC(Sweep):
    """Ext^2 crosscheck on example-c, p = 2, D = C4 x C4, E = C3.

    The 64 ordered pairs fall into three strata by the ranks of the two
    modules: 9 rank-1 x rank-1, 30 mixed, 25 rank-3 x rank-3.  A batch
    draws 16 distinct pairs in the population's proportions (2, 8 and 6,
    by largest remainder).  Within a stratum the pairs are ranked by
    their ChainRing.mul count, which the references store, and cut into
    as many runs of consecutive ranks as the stratum's quota; the seed
    draws one pair from each run.  A batch so has the cost profile of
    the full crosscheck whatever the seed: its sum hardly moves, and its
    median class is a mixed pair from the top of the mixed ranking,
    where every pair makes the same number of ring multiplications to
    within 1 %.  The Ext memo never hits.
    """

    mode = "ext2"
    spec = SPEC_C
    BATCH = 16
    nominal_s = 16.0

    def __init__(self, name):
        super().__init__(name)
        self.ref = load_json(REFERENCE / "example-c.json")
        deg = [d for _, d in self.ref["irr"]]
        cost = self.ref["mul_calls"]
        self.strata = defaultdict(list)
        for a, b in itertools.product(range(len(deg)), repeat=2):
            self.strata[tuple(sorted((deg[a], deg[b])))].append([a, b])
        for pairs in self.strata.values():
            pairs.sort(key=lambda ab: (cost[f"{ab[0]},{ab[1]}"], ab))
        self.quota = apportion({k: len(v) for k, v in self.strata.items()},
                               self.BATCH)

    def batch(self, seed):
        rng = self.rng(seed)
        out = []
        for key in sorted(self.quota):
            ranked, q = self.strata[key], self.quota[key]
            out += [rng.choice(ranked[j * len(ranked) // q:
                                      (j + 1) * len(ranked) // q])
                    for j in range(q)]
        rng.shuffle(out)
        return out

    def correct(self, op, ans):
        return ans == self.ref["ext2"][f"{op[0]},{op[1]}"]


class AbelianSweepC3x9(Sweep):
    """Closed vs oracle Ext on pure C3 x C9 (f = 1, e = 6, pN = 729).

    A batch takes 4 of the 27 quotients mu = lam1^-1 lam2 in the
    proportions of their orders on the C9 factor (none of the 3 of order
    1, 1 of the 6 of order 3, 3 of the 18 of order 9), and for each mu 9
    distinct lam1, each at degrees 0, 1, 2.  The oracle memo is keyed on
    (mu, degree), so the first lam1 of each mu misses and the other 8
    hit.  A batch has 108 classes, so the tail is the p90, which falls
    among the 12 misses.
    """

    mode = "abelian"
    spec = SPEC_C3X9
    nominal_s = 9.0
    MUS = 4
    LAMBDAS_PER_MU = 9

    def __init__(self, name):
        super().__init__(name)
        self.ref = load_json(REFERENCE / "c3x9.json")
        self.qs = self.ref["qs"]
        self.chars = [list(v) for v in
                      itertools.product(*(range(q) for q in self.qs))]
        q = self.qs[-1]
        self.strata = defaultdict(list)
        for mu in self.chars:
            self.strata[q // math.gcd(mu[-1], q)].append(mu)
        self.quota = apportion({k: len(v) for k, v in self.strata.items()},
                               self.MUS)

    def batch(self, seed):
        rng = self.rng(seed)
        mus = []
        for order in sorted(self.quota):
            mus += rng.sample(self.strata[order], self.quota[order])
        rng.shuffle(mus)
        out = []
        for mu in mus:
            for lam1 in rng.sample(self.chars, self.LAMBDAS_PER_MU):
                lam2 = [(a + b) % q for a, b, q in zip(lam1, mu, self.qs)]
                out += [[lam1, lam2, i] for i in range(3)]
        return out

    def correct(self, op, ans):
        lam1, lam2, i = op
        mu = [(b - a) % q for a, b, q in zip(lam1, lam2, self.qs)]
        return ans == self.ref["classes"][f"{','.join(map(str, mu))}:{i}"]


class CliSessionQ8:
    """The fixed session validate, chars, ext 4 5, goodsets, verify; each
    command is its own `python -m blockext.cli` process.  The seed does
    not change it."""

    spec = SPEC_Q8
    nominal_s = 20.0    # with the ext command run alone four times

    def __init__(self, name):
        self.name = name
        self.ref = load_json(REFERENCE / "q8-c3xc3.json")

    def correct(self, label, rc, doc):
        want = self.ref[label]
        return rc == want["rc"] and doc == want["doc"]

    def session(self, seed, deadline, *, trace=False, between=None):
        """The five commands; `between()`, when given, runs between
        each two of them."""
        rec = {"wall": 0.0, "ops": 0, "failed": [], "cmd": {},
               "results": []}
        for k, (label, argv) in enumerate(CLI_SESSION):
            if between and k:
                between()
            if trace:
                job = {"argv": argv, "label": label, "trace": True}
                res, spawn, done = run_worker("cli", job, _left(deadline))
                rc, doc, wall = res["rc"], res["doc"], done - spawn
                rec["results"].append(res)
            else:
                rc, doc, wall = run_cli(argv, _left(deadline))
            rec["wall"] += wall
            rec["cmd"][label] = wall
            rec["ops"] += 1
            if not self.correct(label, rc, doc):
                rec["failed"].append((label, rc))
        return rec

    def ext_alone(self, rec: dict, deadline: float) -> None:
        """Run the ext command alone, as `cli.main(argv)` timed inside a
        fresh interpreter, and add the run to `rec`."""
        res, _, _ = run_worker(
            "cli", {"argv": dict(CLI_SESSION)["ext"], "label": "ext"},
            _left(deadline))
        rec["lat"].append(res["main_s"])
        rec["ops"] += 1
        if not self.correct("ext", res["rc"], res["doc"]):
            rec["failed"].append(("ext", res["rc"]))


WORKLOADS = {
    "ext2-sweep-c": ExtSweepC,
    "abelian-sweep-c3x9": AbelianSweepC3x9,
    "cli-q8": CliSessionQ8,
}


def _left(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


# -- the timed run ----------------------------------------------------------

def setup_probe(spec: str, deadline: float) -> float:
    res, spawn, _ = run_worker("setup", {"spec": spec}, _left(deadline))
    return res["ready_mono"] - spawn


def timed_run(wl, seed: int, seconds: float, deadline: float):
    """Repeat the seed's session, each time in fresh interpreters, as
    many times as --seconds allows at the workload's nominal session
    length; at least twice.  On cli-q8 the `ext` command also runs alone
    between each two commands of a session, so that its runs are spread
    over the whole run.

    Every timing is the best of its repetitions, at the level it
    measures: a class's latency is the least of its latencies, a
    session's or a command's wall the least of its walls.  The work of
    every repetition is identical, so the best of them is closest to the
    program's own cost; the slower ones also carry the load that other
    tenants of a shared machine put on its processors.
    """
    start = time.monotonic()
    cli = not isinstance(wl, Sweep)
    setups = [setup_probe(wl.spec, deadline)
              for _ in range(CLI_SETUP_PROBES if cli else SWEEP_SETUP_PROBES)]
    alone = {"lat": [], "ops": 0, "failed": []}
    reps = []
    for _ in range(max(MIN_REPS, int(seconds // wl.nominal_s))):
        if cli:
            reps.append(wl.session(
                seed, deadline, between=lambda: wl.ext_alone(alone, deadline)))
        else:
            reps.append(wl.session(seed, deadline))
    attempted = sum(r["ops"] for r in reps) + alone["ops"]
    bad = [b for r in reps for b in r["failed"]] + alone["failed"]
    m = {"session_s": min(r["wall"] for r in reps)}
    if cli:
        m["verify_s"] = min(r["cmd"]["verify"] for r in reps)
        # one class, Ext^2(4, 5) of the ext command after import, at its best
        lat = [min(alone["lat"])]
        runs_per_class = len(alone["lat"])
    else:
        setups += [r["setup"] for r in reps]
        lat = [min(col) for col in zip(*(r["lat"] for r in reps))]
        m["verify_s"] = min(r["work"] for r in reps)
        runs_per_class = len(reps)
    m["ext_per_s"] = len(lat) / sum(lat)
    q, m["ext_tail_s"] = tail(lat)
    m["ext_p50_s"] = statistics.median(lat)
    m["setup_s"] = statistics.median(setups)
    m["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    notes = {"repetitions": len(reps), "classes": len(lat),
             "runs_per_class": runs_per_class,
             "ext_tail_percentile": q, "setup_samples": len(setups),
             "run_s": time.monotonic() - start,
             "ops_failed_ratio": len(bad) / attempted}
    for b in bad:
        print(f"# FAILED {json.dumps(b)[:500]}")
    return attempted, len(bad), \
        {k: (m[k], u) for k, u in E2E_UNITS.items()}, notes


# -- the traced run ---------------------------------------------------------

LAYER_UNITS = {
    "cli.import_s": "s", "specfile.load_s": "s", "chars.busy_s": "s",
    "chainring.mul.calls": "count", "chainring.val.calls": "count",
    "chainring.inv.calls": "count", "chainring.div_dominated.calls": "count",
    "chainlinalg.homology.calls": "count", "chainlinalg.homology.busy_s": "s",
    "chainlinalg.complexes": "count", "chainlinalg.cells": "count",
    "chainlinalg.nnz": "count", "chainlinalg.dd_check.busy_s": "s",
    "chainlinalg.recheck_share": "ratio",
    "modrep.build.calls": "count", "modrep.build.busy_s": "s",
    "extengine.ext_block.calls": "count",
    "extengine.ext_block.misses": "count",
    "extengine.memo_hit_ratio": "ratio",
    "extengine.ext_abelian_oracle.misses": "count",
    "extengine.oracle.busy_s": "s", "extengine.self_s": "s",
    "extengine.modp.calls": "count", "extengine.modp.busy_s": "s",
    "analysis.busy_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(results: list[dict]) -> dict:
    """Per-layer self times and counts from the spans of traced workers.

    A span's self time is its duration minus the durations of its child
    spans.  An Ext call is a memo miss when it has child spans.
    """
    m = dict.fromkeys(LAYER_UNITS, 0)
    memo_calls = memo_misses = rechecks = 0
    for res in results:
        tr = res["trace"]
        spans = tr["spans"]
        child_t = [0.0] * len(spans)
        has_child = [False] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                child_t[parent] += end - start
                has_child[parent] = True
        for k, (name, start, end, _, _) in enumerate(spans):
            own = end - start - child_t[k]
            layer, _, fn = name.partition(".")
            if name == "cli.import":
                m["cli.import_s"] += end - start
            elif layer == "specfile":
                m["specfile.load_s"] += own
            elif layer == "chars":
                m["chars.busy_s"] += own
            elif name == "chainlinalg.homology_of_complex":
                m["chainlinalg.homology.calls"] += 1
                m["chainlinalg.homology.busy_s"] += own
            elif name == "chainlinalg.dd_check":
                m["chainlinalg.dd_check.busy_s"] += own
            elif name == "modrep.build_module_rep":
                m["modrep.build.calls"] += 1
                m["modrep.build.busy_s"] += own
            elif layer == "analysis":
                m["analysis.busy_s"] += own
            elif layer == "extengine":
                m["extengine.self_s"] += own
                if fn in ("ext_block", "ext_abelian_oracle"):
                    memo_calls += 1
                    memo_misses += has_child[k]
                    if fn == "ext_block":
                        m["extengine.ext_block.calls"] += 1
                        m["extengine.ext_block.misses"] += has_child[k]
                    else:
                        m["extengine.ext_abelian_oracle.misses"] += \
                            has_child[k]
                elif fn == "ext_oracle":
                    m["extengine.oracle.busy_s"] += own
                elif fn in ("ext1_modp", "ext1_modp_simples"):
                    m["extengine.modp.calls"] += 1
                    m["extengine.modp.busy_s"] += own
        for key, n in tr["counts"].items():
            m[key] += n
        for ring_n, cells, nnz in tr["complexes"]:
            m["chainlinalg.complexes"] += 1
            m["chainlinalg.cells"] += cells
            m["chainlinalg.nnz"] += nnz
            rechecks += ring_n > res["ring_N"]
    if m["chainlinalg.complexes"]:
        m["chainlinalg.recheck_share"] = \
            rechecks / m["chainlinalg.complexes"]
    if memo_calls:
        m["extengine.memo_hit_ratio"] = 1.0 - memo_misses / memo_calls
    return m


def traced_run(wl, seed: int, deadline: float):
    plain = wl.session(seed, deadline)
    traced = wl.session(seed, deadline, trace=True)
    attempted = plain["ops"] + traced["ops"]
    failed = len(plain["failed"]) + len(traced["failed"])
    if isinstance(wl, Sweep):
        results = [traced["result"]]
        # the references already pin both, but say so when they differ
        if plain["answers"] != traced["answers"]:
            print("# traced answers differ from untraced answers")
            failed = max(failed, 1)
    else:
        results = traced["results"]
    m = layer_metrics(results)
    m["trace.overhead_ratio"] = traced["wall"] / plain["wall"] - 1.0
    trace_file = OUT / f"trace-{wl.name}-seed{seed}.json"
    write_json(trace_file, [r["trace"] for r in results])
    notes = {"untraced_wall_s": plain["wall"],
             "traced_wall_s": traced["wall"],
             "trace_file": str(trace_file.relative_to(ROOT)),
             "ops_failed_ratio": failed / attempted}
    for bad in plain["failed"] + traced["failed"]:
        print(f"# FAILED {json.dumps(bad)[:500]}")
    return attempted, failed, {k: (v, LAYER_UNITS[k]) for k, v in m.items()}, \
        notes


# -- environment stamp ------------------------------------------------------

def stamp(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": version("numpy"), "sympy": version("sympy"),
            "commit": commit, "seed": seed}


def run_one(name: str, args) -> int:
    """One run of one workload; prints its lines and the result line."""
    deadline = time.monotonic() + RUN_BUDGET_S
    wl = WORKLOADS[name](name)
    try:
        if args.trace:
            attempted, failed, metrics, notes = traced_run(wl, args.seed,
                                                           deadline)
        else:
            attempted, failed, metrics, notes = timed_run(
                wl, args.seed, args.seconds, deadline)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# workload {name} trace {args.trace}")
    print(f"# stamp {json.dumps(stamp(args.seed), sort_keys=True)}")
    for key, val in notes.items():
        print(f"# {key} {val}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}), flush=True)
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    require_program()
    if args.workload != "all":
        return run_one(args.workload, args)
    # one process per workload, so that peak_rss_mb sees only its children
    rcs = [subprocess.run([sys.executable, __file__, "--workload", name,
                           "--seed", str(args.seed), "--seconds",
                           str(args.seconds), "--trace", str(args.trace)],
                          timeout=RUN_BUDGET_S + 10).returncode
           for name in WORKLOADS]
    return max(rcs)


if __name__ == "__main__":
    sys.exit(main())
