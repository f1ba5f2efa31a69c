"""One fresh interpreter of the benchmark: set-up, a sweep, or one CLI
command, traced or timed.

Usage: python3 perfbench/worker.py {setup|ext2|abelian|cli}, with a JSON
job on stdin.  A cli job runs one command as ``cli.main(argv)`` and times
that call, which leaves out the interpreter start-up and the import.
The worker prints one JSON object on stdout.  Times named
``*_mono`` come from time.monotonic(), which is one clock for every
process on the machine, so the runner can measure set-up from the moment
it spawned this interpreter.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout

from common import class_obj


def _setup(spec_path):
    from blockext import chars, extengine, specfile
    spec = specfile.load_spec(spec_path)
    ctx = specfile.to_context(spec)
    irr = chars.build_irr_B(ctx)
    chars.brauer_chars(ctx)
    ring = extengine.block_ring(ctx)
    return ctx, irr, ring


def _timed(batch, tracer, prepare):
    """[[seconds, answer], ...]; prepare(op) builds the call for one
    operation outside the timed region.  An operation that raises
    answers {"error": ...}, which no reference matches, so it counts as
    failed and the batch goes on."""
    out = []
    for k, op in enumerate(batch):
        if tracer:
            tracer.begin(k)
        t = time.perf_counter()
        try:
            call = prepare(op)
            t = time.perf_counter()
            ans = call()
        except Exception as exc:  # noqa: BLE001 - any raise is a failed op
            ans = {"error": f"{type(exc).__name__}: {exc}"}
        out.append([time.perf_counter() - t, ans])
    return out


def _ext2(ctx, irr, batch, tracer):
    from blockext import extengine

    def prepare(op):
        c1, c2 = irr[op[0]], irr[op[1]]
        return lambda: class_obj(extengine.ext_block(ctx, c1, c2, 2,
                                                     "crosscheck"))
    return _timed(batch, tracer, prepare)


def _abelian(ctx, batch, tracer):
    from blockext import extengine
    from blockext.groups import LinearChar
    D = ctx.G.D

    def prepare(op):
        v1, v2, i = op
        l1, l2 = LinearChar(D, tuple(v1)), LinearChar(D, tuple(v2))

        def call():
            closed = extengine.ext_abelian_closed(D, l1, l2, i)
            oracle = extengine.ext_abelian_oracle(D, l1, l2, i)
            if closed != oracle:
                return {"error": f"closed {closed.pretty()} != "
                                 f"oracle {oracle.pretty()}"}
            return class_obj(oracle)
        return call
    return _timed(batch, tracer, prepare)


def main() -> int:
    mode = sys.argv[1]
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    import blockext.cli
    import_s = time.perf_counter() - t0
    result = {}
    if mode == "cli" and job.get("trace"):
        # the block's own precision, read before any wrapper is installed
        from blockext.extengine import default_precision
        from blockext.specfile import load_spec
        spec = load_spec(job["argv"][1])
        result["ring_N"] = spec.option("precision") or \
            default_precision(max(spec.d_orders, default=0))
    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.add_span("cli.import", t0, t0 + import_s)
        tracer.install()

    if mode == "cli":
        # the CLI renders its document on sys.stdout
        if tracer:
            tracer.begin(job["label"])
        buf = io.StringIO()
        with redirect_stdout(buf):
            t = time.perf_counter()
            try:
                rc = blockext.cli.main(job["argv"])
            except Exception as exc:  # noqa: BLE001 - a failed command
                rc = f"raised {type(exc).__name__}: {exc}"
            main_s = time.perf_counter() - t
        result.update(rc=rc, doc=buf.getvalue(), main_s=main_s)
    else:
        ctx, irr, ring = _setup(job["spec"])
        result["ready_mono"] = time.monotonic()
        result["ring_N"] = ring.N
        result["irr"] = [[list(c.lam.vec), c.degree] for c in irr]
        result["qs"] = list(ctx.G.D.qs)
        if mode == "ext2":
            result["ops"] = _ext2(ctx, irr, job["batch"], tracer)
        elif mode == "abelian":
            result["ops"] = _abelian(ctx, job["batch"], tracer)
        elif mode != "setup":
            raise SystemExit(f"unknown worker mode {mode!r}")
        result["done_mono"] = time.monotonic()
    if tracer:
        result["trace"] = tracer.dump()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
