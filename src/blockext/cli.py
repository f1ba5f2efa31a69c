"""Command line front end.

Five subcommands: validate, chars, ext, goodsets, verify.  Every command
reads a .blockspec file, emits one JSON result document on stdout (or
--output), and exits 0 on success, 1 on a verification failure, 2 on bad
input, 3 when a configured bound was exceeded.  Numeric flags can also
be set through BLOCKEXT_* environment variables; explicit flags win.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from pathlib import Path

from . import __version__
from .analysis import (check_conjugacy_forcing, enumerate_good_sets,
                       ext_quiver, predicted_good_sets)
from .chars import brauer_chars, build_irr_B, decomposition_matrix
from .errors import (BlockExtError, CrossCheckMismatch,
                     EnumerationBoundExceeded, OrderBoundExceeded,
                     PrecisionUnstable, SizeGuardExceeded,
                     SpecValidationError)
from .extengine import block_ring, ext1_modp, ext_block, ext_shape_classify
from .omodule import verify_cyclotomic_identity
from .results import (block_char_obj, class_function_obj, document,
                      ext_class_obj, render)
from .specfile import check_bounds, load_spec, to_context

ENV_PREFIX = "BLOCKEXT_"
# the top-level precision line of a rendered document
_PRECISION_LINE = re.compile(r'^  "precision": \d+,?\n', re.M)


def _env(name):
    raw = os.environ.get(ENV_PREFIX + name)
    return int(raw) if raw not in (None, "") else None


def _overrides(args) -> dict:
    return {"precision": args.precision if args.precision is not None
            else _env("PRECISION"),
            "order_bound": args.order_bound if args.order_bound is not None
            else _env("ORDER_BOUND"),
            "enum_bound": args.enum_bound if args.enum_bound is not None
            else _env("ENUM_BOUND"),
            "size_guard": args.size_guard if args.size_guard is not None
            else _env("SIZE_GUARD")}


def _mode(args) -> str:
    if args.mode:
        return args.mode
    env = os.environ.get(ENV_PREFIX + "MODE")
    if env:
        if env not in ("closed", "oracle", "crosscheck"):
            raise SpecValidationError("bad-spec-file",
                                      f"BLOCKEXT_MODE {env!r} is not a mode")
        return env
    return "crosscheck"


def _load(args, path=None):
    spec = load_spec(path or args.spec)
    return spec, to_context(spec, _overrides(args))


def _emit(args, doc) -> None:
    text = render(doc)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _finish(args, kind, name, body, *, precision=None, started=None) -> None:
    timing = (time.monotonic() - started) if (args.timing and started) else None
    _emit(args, document(kind, name, body, version=__version__,
                         precision=precision, timing=timing))


# -- commands -------------------------------------------------------------

def cmd_validate(args) -> int:
    spec, ctx = _load(args)
    G = ctx.G
    warnings = []
    if not G.D.assumption_ok:
        warnings.append("AssumptionViolated: D has a direct factor "
                        "isomorphic to C_2; analysis commands will refuse")
    body = {"valid": True,
            "p": G.D.p,
            "d_orders": list(G.D.orders),
            "group_order": G.order,
            "e_order": G.E.n,
            "z_order": len(G.Z),
            "d1_invariants": list(G.d1_invariants),
            "d2_invariants": list(G.d2_invariants),
            "assumption_ok": G.D.assumption_ok,
            "warnings": warnings}
    _finish(args, "validate", spec.name, body)
    return 0


def _chars_body(ctx) -> dict:
    irr = build_irr_B(ctx)
    ibr = brauer_chars(ctx)
    zorder = len(ctx.G.Z)
    total = sum(c.degree ** 2 for c in irr)
    return {"irr": [block_char_obj(c) for c in irr],
            "ibr": [class_function_obj(b) for b in ibr],
            "decomposition_matrix": decomposition_matrix(ctx),
            "degree_sq_sum": total,
            "expected_degree_sq_sum": ctx.G.order // zorder,
            "degree_check": total == ctx.G.order // zorder}


def cmd_chars(args) -> int:
    started = time.monotonic()
    spec, ctx = _load(args)
    _finish(args, "chars", spec.name, _chars_body(ctx),
            precision=block_ring(ctx).N, started=started)
    return 0


def cmd_ext(args) -> int:
    started = time.monotonic()
    spec, ctx = _load(args)
    irr = build_irr_B(ctx)
    for idx in (args.c1, args.c2):
        if not 0 <= idx < len(irr):
            raise SpecValidationError(
                "bad-spec-file",
                f"character index {idx} out of range 0..{len(irr) - 1}")
    mode = _mode(args)
    e = ext_block(ctx, irr[args.c1], irr[args.c2], args.degree, mode)
    body = {"c1": args.c1, "c2": args.c2, "degree": args.degree,
            "mode": mode,
            "ext": ext_class_obj(e),
            "shape": ext_shape_classify(e, args.degree)}
    _finish(args, "ext", spec.name, body, precision=block_ring(ctx).N,
            started=started)
    return 0


def cmd_goodsets(args) -> int:
    started = time.monotonic()
    spec, ctx = _load(args)
    mode = _mode(args)
    enumerated = enumerate_good_sets(ctx, mode)
    predicted = predicted_good_sets(ctx)
    agree = {c.key() for c in enumerated} == {c.key() for c in predicted}
    body = {"enumerated": [c.describe() for c in enumerated],
            "predicted": [c.describe() for c in predicted],
            "enumerated_count": len(enumerated),
            "predicted_count": len(predicted),
            "agree": agree}
    _finish(args, "goodsets", spec.name, body,
            precision=block_ring(ctx).N, started=started)
    return 0 if agree else 1


# -- the verification harness ---------------------------------------------

class _Skipped(Exception):
    """A harness check that found nothing to test; the message says why."""


def _check(checks, name, fn):
    """Run one harness check; False only when it failed.  A check that
    hits a resource bound reports status "bound"."""
    try:
        detail = fn()
    except _Skipped as exc:
        checks.append({"name": name, "status": "skip", "detail": str(exc)})
        return True
    except (EnumerationBoundExceeded, OrderBoundExceeded,
            SizeGuardExceeded) as exc:
        checks.append({"name": name, "status": "bound", "detail": str(exc)})
        return True
    except BlockExtError as exc:
        checks.append({"name": name, "status": "fail", "detail": str(exc)})
        return False
    checks.append({"name": name, "status": "pass",
                   "detail": detail if isinstance(detail, str) else "ok"})
    return True


def _verify_block(ctx, checks, mode):
    irr = build_irr_B(ctx)
    pairs = [(a, b) for a in range(len(irr)) for b in range(len(irr))]

    def sweep():
        for a, b in pairs:
            ext_block(ctx, irr[a], irr[b], 2, mode)
        return f"{len(pairs)} ordered pairs at degree 2 ({mode})"
    if not _check(checks, "ext_sweep", sweep):
        return

    def uct():
        supp = [frozenset(j for j, m in enumerate(row) if m)
                for row in decomposition_matrix(ctx)]
        tested = 0
        for a, b in pairs:
            if supp[a] & supp[b]:
                continue
            e2 = ext_block(ctx, irr[a], irr[b], 2, mode)
            kdim = e2.free_rank + len(e2.torsion)
            mdim = ext1_modp(ctx, irr[a], irr[b])
            if kdim != mdim:
                raise BlockExtError(
                    f"UCT failure at pair ({a},{b}): k x Ext^2 has "
                    f"dimension {kdim}, Ext^1 mod p has {mdim}")
            tested += 1
        if not tested:
            raise _Skipped("no pair has disjoint Brauer reductions")
        return f"{tested} disjoint-reduction pairs"
    _check(checks, "uct", uct)

    def quiver():
        q = ext_quiver(ctx)
        if q["vertices"] == 1:
            raise _Skipped("one simple module: nothing to connect")
        if not q["connected"]:
            raise BlockExtError(f"quiver disconnected: edges {q['edges']}")
        return f"connected on {q['vertices']} vertices"
    _check(checks, "quiver", quiver)

    def forcing():
        if not ctx.G.D.assumption_ok:
            raise _Skipped("the classification assumes no direct factor "
                           "C_2 of D when p = 2")
        rep = check_conjugacy_forcing(ctx, mode)
        if rep["violations"]:
            raise BlockExtError(
                f"conjugacy forcing violated at {rep['violations']}")
        return (f"{rep['qualifying']} qualifying pairs of "
                f"{rep['pairs']}, no violations")
    _check(checks, "forcing", forcing)


def _verify_one(args, path, mode) -> dict:
    checks = []
    name = Path(path).stem
    try:
        spec, ctx = _load(args, path)
    except SpecValidationError as exc:
        checks.append({"name": "validate", "status": "fail",
                       "detail": str(exc)})
        return {"spec": name, "checks": checks, "passed": False}
    name = spec.name
    checks.append({"name": "validate", "status": "pass", "detail": "ok"})

    body = {}

    def chars():
        body["chars"] = _chars_body(ctx)
    if _check(checks, "chars", chars):
        golden = Path(path).parent / "goldens" / f"{name}.chars.json"
        if golden.exists():
            def compare():
                want = golden.read_text(encoding="utf-8")
                got = render(document("chars", name, body["chars"],
                                      version=__version__,
                                      precision=block_ring(ctx).N))
                # the chars body does not depend on N, so a --precision
                # other than the golden's is no mismatch
                if (_PRECISION_LINE.sub("", got)
                        != _PRECISION_LINE.sub("", want)):
                    raise BlockExtError(f"golden mismatch: {golden}")
                return "byte-identical"
            _check(checks, "golden", compare)
        else:
            checks.append({"name": "golden", "status": "skip",
                           "detail": "no golden file"})

    _verify_block(ctx, checks, mode)

    def cyclo():
        p = ctx.G.D.p
        ns = sorted(set(ctx.G.D.orders))
        for n in ns:
            if not verify_cyclotomic_identity(p, n):
                raise BlockExtError(f"cyclotomic identity fails at "
                                    f"(p, n) = ({p}, {n})")
        return f"(p, n) for n in {ns}"
    _check(checks, "cyclotomic", cyclo)

    passed = all(c["status"] not in ("fail", "bound") for c in checks)
    return {"spec": name, "checks": checks, "passed": passed,
            "precision": block_ring(ctx).N}


def cmd_verify(args) -> int:
    started = time.monotonic()
    target = Path(args.spec)
    if target.is_dir():
        paths = sorted(target.glob("*.blockspec"))
        if not paths:
            raise SpecValidationError(
                "bad-spec-file", f"no .blockspec files in {target}")
    else:
        paths = [target]
    check_bounds(_overrides(args))
    mode = _mode(args)
    reports = [_verify_one(args, p, mode) for p in paths]
    ok = all(r["passed"] for r in reports)
    name = target.stem if len(paths) == 1 else target.name
    _finish(args, "verify", name,
            {"specs": reports, "passed": ok, "mode": mode}, started=started)
    status = {c["status"] for r in reports for c in r["checks"]}
    return 1 if "fail" in status else 3 if "bound" in status else 0


# -- dispatch -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--precision", type=int, default=None,
                        help="chain ring length N (default 2a+2)")
    shared.add_argument("--order-bound", type=int, default=None,
                        help="cap on |E| during closure (default 512)")
    shared.add_argument("--enum-bound", type=int, default=None,
                        help="cap on candidate-set enumeration")
    shared.add_argument("--size-guard", type=int, default=None,
                        help="cap on bar complex size")
    shared.add_argument("--mode", choices=("closed", "oracle", "crosscheck"),
                        default=None, help="Ext engine (default crosscheck)")
    shared.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the output")
    shared.add_argument("--output", default=None,
                        help="write the result document to a file")

    ap = argparse.ArgumentParser(
        prog="blockext",
        description="Exact Ext computations for blocks with normal "
                    "abelian defect group")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[shared],
                       help="check a spec against the structural hypotheses")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("chars", parents=[shared],
                       help="ordinary and Brauer characters of the block")
    p.add_argument("spec")
    p.set_defaults(func=cmd_chars)

    p = sub.add_parser("ext", parents=[shared],
                       help="one Ext group between two characters")
    p.add_argument("spec")
    p.add_argument("c1", type=int, help="row index into the chars output")
    p.add_argument("c2", type=int)
    p.add_argument("--degree", type=int, default=2, choices=(0, 1, 2))
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("goodsets", parents=[shared],
                       help="enumerate good subsets and compare with the "
                            "predicted fibers")
    p.add_argument("spec")
    p.set_defaults(func=cmd_goodsets)

    p = sub.add_parser("verify", parents=[shared],
                       help="run the verification harness on a spec or a "
                            "corpus directory")
    p.add_argument("spec")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OrderBoundExceeded, EnumerationBoundExceeded,
            SizeGuardExceeded) as exc:
        print(f"error: bound exceeded: {exc}", file=sys.stderr)
        return 3
    except SpecValidationError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except (CrossCheckMismatch, PrecisionUnstable) as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 1
    except BlockExtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
