"""Run one or more workloads over several seeds and report, per end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/spread.py [--seeds 1-10] [--seconds S] WORKLOAD ...

Each run is a fresh process, started from the checkout root like any other
invocation of run.py.  Results go to stdout as one JSON object per workload."""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    for name in args.workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            *_, record, result = (json.loads(line) for line in proc.stdout.strip().splitlines())
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']} "
                  f"passes={record['run']['passes']} {record['run']['failures'][:2]}", file=sys.stderr)
        summary = {"workload": name, "seeds": args.seeds, "seconds": seconds,
                   "all_correct": all(r["correct"] for r in runs), "metrics": {}}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary["metrics"][metric["name"]] = {
                "median": med, "spread": (q3 - q1) / med, "bound": metric["bound"],
                "values": values,
            }
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
