"""Record `perfbench/golden/<workload>.json`: the digests of the files and the
report summaries this commit writes for the default seed at full scale.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Re-record only when a change alters the program's outputs on purpose."""

from __future__ import annotations

import json
import sys

import run


def main(names) -> int:
    run.load_program()
    import workloads
    from checks import GOLDEN_DIR

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or run.WORKLOAD_NAMES:
        out = workloads.run(name, workloads.DEFAULT_SEED, 0, False, record=True)
        if out["failed"]:
            print(f"{name}: {out['failed']} checks failed, not recorded: {out['failures'][:3]}", file=sys.stderr)
            return 1
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(out["checks"].golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
