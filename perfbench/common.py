"""Paths, environment and encodings shared by the benchmark scripts.

Nothing here imports blockext: the runner and the reference generator
only talk to the program through worker processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference"
OUT = BENCH_DIR / "out"

# spec paths are passed relative to the checkout root, so that the
# documents the CLI renders do not depend on where the checkout lives
SPEC_C = "perfbench/specs/example-c.blockspec"
SPEC_C3X9 = "perfbench/specs/c3x9.blockspec"
SPEC_Q8 = "perfbench/specs/q8-c3xc3.blockspec"

# the fixed cli-q8 session: (label, argv after `python -m blockext.cli`)
CLI_SESSION = (
    ("validate", ["validate", SPEC_Q8]),
    ("chars", ["chars", SPEC_Q8]),
    ("ext", ["ext", SPEC_Q8, "4", "5", "--degree", "2"]),
    ("goodsets", ["goodsets", SPEC_Q8]),
    ("verify", ["verify", SPEC_Q8]),
)


def require_program() -> None:
    """Fail before any work when the checkout has no blockext sources."""
    if not (SRC / "blockext" / "cli.py").is_file():
        raise SystemExit(f"error: no blockext sources under {SRC}")


def worker_env() -> dict:
    """The environment of every program process.

    BLOCKEXT_* variables are dropped because the CLI reads its mode,
    precision and bounds from them; src/ goes first on the import path.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BLOCKEXT_")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def python() -> str:
    return sys.executable or "python3"


def class_obj(e) -> list:
    """An OModuleClass as [free rank, [[num, den], ...]]."""
    return [e.free_rank, [[t.numerator, t.denominator] for t in e.torsion]]


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


class WorkerFailed(RuntimeError):
    pass


def run_worker(mode: str, job: dict, timeout: float) -> tuple[dict, float, float]:
    """Run worker.py in a fresh interpreter; returns (result, spawn, exit)
    with both times on time.monotonic()."""
    argv = [python(), str(BENCH_DIR / "worker.py"), mode]
    spawn = time.monotonic()
    proc = subprocess.run(argv, input=json.dumps(job), capture_output=True,
                          text=True, cwd=ROOT, env=worker_env(),
                          timeout=timeout)
    done = time.monotonic()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {mode} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawn, done


def run_cli(argv: list[str], timeout: float) -> tuple[int, str, float]:
    """One `python -m blockext.cli` process: (exit code, stdout, seconds)."""
    t = time.monotonic()
    proc = subprocess.run([python(), "-m", "blockext.cli"] + argv,
                          capture_output=True, text=True, cwd=ROOT,
                          env=worker_env(), timeout=timeout)
    return proc.returncode, proc.stdout, time.monotonic() - t
