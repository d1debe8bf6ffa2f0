"""Benchmark of the balaes gen -> trace -> analyze pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics under --trace 0 and the per-layer
metrics under --trace 1.  The line before it records the run: machine, commit,
seed, `src/` line count, error rate and the first failed checks."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dca-mixed", "grid-roundout", "fvr-tvla")
# Single-threaded numerics unless the caller says otherwise: idle BLAS worker
# threads spinning after a matrix product slow the single-block calls that
# follow it, and a second thread makes analysis times depend on how busy the
# other core is.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_program() -> None:
    """Put the checkout's `src/` first on the import path, or exit 1.  Call
    before numpy is imported, so that the thread settings take effect."""
    if not (SRC / "balaes" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'balaes'} not found; run from a balaes source checkout")
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, help="workload seed (default: the seed the golden outputs were recorded for)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the smoke test")
    args = ap.parse_args(argv)
    load_program()
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "setups": out["setups"], "passes": out["passes"],
        "blocks_timed": out["blocks_timed"], "block_p50_us": out["block_p50_us"],
        "block_p99_us": out["block_p99_us"], "golden_checked": out["golden"],
        "error_rate": out["failed"] / out["attempted"], "failures": out["failures"][:20],
        **provenance(),
    }
    print(json.dumps({"run": record}))
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
