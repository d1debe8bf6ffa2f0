"""Command-line front end: table generation, encryption, trace campaigns,
analyses, verification and benchmarking, all reproducible from explicit seeds.

Exit codes: 0 success (and declared expectations met), 1 a declared
expectation was violated or generated tables failed verification, 2 usage
error, 3 I/O or file-format error."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import cipher, sca, tablegen
from .cipher import SelectorPolicy

PASS_EXIT = 0
FAIL_EXIT = 1
USAGE_EXIT = 2
IO_EXIT = 3


def _parse_key(text: str) -> bytes:
    try:
        key = bytes.fromhex(text)
    except ValueError as exc:
        raise ValueError(f"key is not valid hex: {exc}") from None
    if len(key) != 16:
        raise ValueError("key must be 32 hex digits")
    return key


NAMED_WINDOWS = {
    "round1": cipher.ROUND_SAMPLES[0].ravel(),
    "round1-ut": cipher.UT_SAMPLES[0].ravel(),
    "round1-col0": cipher.ROUND_SAMPLES[0, 0],
}


def _window(text: str | None):
    """The samples a --window names, as a window for cipher.load_traces, which
    resolves it before the trace file is opened; None (no window) means every
    sample.  OFF:LEN is checked here, so its errors name it as written."""
    if text is None or text in NAMED_WINDOWS:
        return NAMED_WINDOWS.get(text)
    off, _, length = text.partition(":")
    try:
        off, length = int(off), int(length)
    except ValueError:
        raise ValueError(f"window must be OFF:LEN or a named window, got {text!r}") from None
    if length < 1:
        raise ValueError(f"window {text} selects none of the {cipher.SAMPLE_COUNT} trace samples")
    if off < 0 or off + length > cipher.SAMPLE_COUNT:
        raise ValueError(f"window {text} reaches outside the {cipher.SAMPLE_COUNT}-sample traces")
    return slice(off, off + length)


def _seed(seed: int) -> int:
    """A --seed for random.Random, which seeds -s as s; a negative one is a usage error."""
    if seed < 0:
        raise ValueError(f"--seed {seed} is negative; it would repeat seed {-seed}")
    return seed


def _key_check(key: bytes) -> str:
    return hashlib.sha256(key).hexdigest()[:8]


def _load_pair(tables_dir: str) -> tablegen.TableSetPair:
    q0, q1 = (tablegen.deserialize_tableset((Path(tables_dir) / name).read_bytes()) for name in ("q0.tbl", "q1.tbl"))
    if (q0.set_id, q1.set_id) != (0, 1):
        raise tablegen.FormatError(f"q0.tbl and q1.tbl hold sets {q0.set_id} and {q1.set_id}, expected 0 and 1")
    return tablegen.TableSetPair(q0=q0, q1=q1)


def _load_traces(path: str, samples=None) -> cipher.TraceSet:
    """A campaign for an analysis, holding only the samples it reads (None:
    all of them); one that holds no traces is a usage error."""
    traces = cipher.load_traces(path, samples)
    if not len(traces):
        raise ValueError(f"trace file {path} holds 0 traces; an analysis needs a campaign")
    return traces


def _load_spec(path: str) -> tablegen.EncodingSpec:
    return tablegen.deserialize_spec(Path(path).read_bytes())


def _print_json(summary: dict, fh=None) -> None:
    """Sorted, indented JSON and a newline, to fh or else stdout."""
    fh = fh or sys.stdout
    json.dump(summary, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _emit(summary: dict, rows: list, header: list, args) -> None:
    if args.out:
        prefix = Path(args.out)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        with open(str(prefix) + ".csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        with open(str(prefix) + ".json", "w") as fh:
            _print_json(summary, fh)
    if args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(header)
        w.writerows(rows)
    else:
        _print_json(summary)


# --- commands -------------------------------------------------------------------

def cmd_gen(args) -> int:
    key = _parse_key(args.key)
    pair, spec = tablegen.build_table_pair(key, args.seed, args.xor_boundary)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in (("q0.tbl", tablegen.serialize_tableset(pair.q0)),
                       ("q1.tbl", tablegen.serialize_tableset(pair.q1)),
                       ("enc.spec", tablegen.serialize_spec(spec))):
        tablegen.write_in_place(out_dir / name, [data])
    report = tablegen.size_and_lookup_report(pair.q0)
    _, _, measured = tablegen.encrypt_with_tables(pair.q0, bytes(16))
    _print_json({
        "command": "gen",
        "seed": args.seed,
        "key_check": _key_check(key),
        "xor_boundary": args.xor_boundary,
        "files": [str(out_dir / n) for n in ("q0.tbl", "q1.tbl", "enc.spec")],
        "measured_lookups": measured,
        **report,
    })
    return PASS_EXIT


def cmd_encrypt(args) -> int:
    rng = random.Random(_seed(args.seed))
    pair = _load_pair(args.tables)
    pt = bytes.fromhex(args.pt)
    if len(pt) != 16:
        raise ValueError("plaintext must be 32 hex digits")
    policy = SelectorPolicy.parse(args.policy)
    result = cipher.encrypt(pt, pair, policy, rng)
    sys.stdout.write(result.ciphertext.hex() + "\n")
    return PASS_EXIT


def _campaign_plaintexts(source: str, count: int | None, rng: random.Random):
    """The plaintexts of a trace campaign.  grid always has 65,536; the other
    sources take --count, 10,000 when it is not given."""
    if count is not None and count < 0:
        raise ValueError(f"--count {count} is negative; a campaign records 0 or more traces")
    if source == "grid":
        if count not in (None, 65536):
            raise ValueError(f"--source grid records all 65536 grid plaintexts, not --count {count}")
        return cipher.grid_plaintexts()
    count = 10000 if count is None else count
    if source == "random":
        return cipher.random_plaintexts(count, rng)
    if source.startswith("fixed:"):
        return cipher.fixed_plaintexts(bytes.fromhex(source.split(":", 1)[1]), count)
    if source.startswith("file:"):
        return cipher.plaintexts_from_file(source.split(":", 1)[1], count)
    raise ValueError(f"unknown source {source!r}")


def cmd_trace(args) -> int:
    rng = random.Random(_seed(args.seed))
    pair = _load_pair(args.tables)
    policy = SelectorPolicy.parse(args.policy)
    pts = _campaign_plaintexts(args.source, args.count, rng)
    cipher.write_campaign(pair, policy, pts, rng, args.out)
    _print_json({
        "command": "trace",
        "seed": args.seed,
        "policy": policy.describe(),
        "source": args.source,
        "count": len(pts),
        "sample_count": cipher.SAMPLE_COUNT,
        "out": args.out,
    })
    return PASS_EXIT


def cmd_verify(args) -> int:
    pair = _load_pair(args.tables)
    spec = _load_spec(args.spec)
    report0 = tablegen.verify_tableset(pair.q0, spec)
    q1_consistent = pair.q1 == tablegen.build_q1(pair.q0)  # q1 is q0's exact complement twin
    passed = report0.passed and q1_consistent
    _print_json({
        "command": "verify",
        "key_check": _key_check(spec.key),
        "checks": report0.checks,
        "q1_matches_q0": q1_consistent,
        "failures": report0.failures[:16],
        "pass": passed,
    })
    return PASS_EXIT if passed else FAIL_EXIT


def cmd_bench(args) -> int:
    if args.iterations < 1:
        raise ValueError("--iterations must be at least 1")
    pair = _load_pair(args.tables)
    ts = pair.select(args.policy == "q1")
    pts = [random.Random(n).randbytes(16) for n in range(256)]
    _, _, lookups = tablegen.encrypt_with_tables(ts, pts[0])  # warm up
    encrypt, clock = tablegen.encrypt_with_tables, time.perf_counter_ns
    latencies = []
    start = time.perf_counter()
    for n in range(args.iterations):
        t0 = clock()
        encrypt(ts, pts[n % 256])
        latencies.append((clock() - t0) / 1000)
    elapsed = time.perf_counter() - start
    # percentiles as perfbench takes them; one call is its own percentile
    pct = statistics.quantiles(latencies, n=100) if len(latencies) > 1 else latencies * 99
    _print_json({
        "command": "bench",
        "iterations": args.iterations,
        "mean_block_us": round(elapsed / args.iterations * 1e6, 3),
        "p50_block_us": round(pct[49], 3),
        "p95_block_us": round(pct[94], 3),
        "lookups_per_second": round(lookups * args.iterations / elapsed),
        "note": "published native-code reference point is 19 us per block; interpreter timings differ",
    })
    return PASS_EXIT


# --- analyses: each maps args to (summary, rows, csv header, passed) --------------

def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"analyze --kind {args.kind} needs --{name}")


def _one_byte(args) -> int:
    """The attacked byte of a kind that attacks one: --pt-index all is a usage error."""
    if args.pt_index == "all":
        raise ValueError(f"analyze --kind {args.kind} attacks one plaintext byte; give --pt-index 0..15")
    return int(args.pt_index)


def _walsh_ut(args):
    if args.traces:
        return _walsh_ut_traces(args)
    _require(args, "tables", "spec")
    grid = tablegen.walsh_ut_grid_static(_load_pair(args.tables).q0, _load_spec(args.spec))
    rows = [[*(int(c) + 1 for c in idx), int(grid[tuple(idx)])] for idx in np.argwhere(grid != 0)[:4096]]
    all_zero = not grid.any()
    summary = {
        "command": "analyze", "kind": "walsh-ut", "mode": "static",
        "positions": 16, "max_abs": int(np.abs(grid).max()),
        "all_zero_correct_key": all_zero, "pass": all_zero,
    }
    return summary, rows, ["i", "j", "k", "bit", "ellp", "iprime", "walsh"], all_zero


def _walsh_ut_traces(args):
    m = _one_byte(args)
    traces = _load_traces(args.traces, sca.walsh_ut_sample_indices(m))
    grid = sca.walsh_ut_trace_grid(traces, m, args.ell)
    peak = np.abs(grid).reshape(256, -1).max(axis=1)
    rows = [[g, round(float(peak[g]), 2)] for g in range(256)]
    summary = {
        "command": "analyze", "kind": "walsh-ut", "mode": "traces",
        "pt_index": m, "ell": args.ell,
        "global_max_abs": round(float(peak.max()), 2),
    }
    if args.key:
        correct = _parse_key(args.key)[m]
        summary["correct_guess"] = correct
        summary["correct_max_abs"] = round(float(peak[correct]), 2)
        summary["correct_all_zero"] = bool(peak[correct] == 0)
    return summary, rows, ["guess", "max_abs_walsh"], True


def _walsh_ro(args):
    known, correct, _, _ = sca.round_output_keys(_parse_key(args.key))
    grid = sca.walsh_round_output_all(_load_traces(args.traces, sca.ROUND_OUTPUT_SAMPLES))
    rows = [[g, i + 1, ip + 1, int(grid[g, i, ip])]
            for g in range(256) for i in range(8) for ip in range(8) if grid[g, i, ip]]
    summary = {
        "command": "analyze", "kind": "walsh-ro",
        "known_k0": known, "correct_guess": correct,
        "correct_max": int(grid[correct].max()),
        "global_min": int(grid.min()), "global_max": int(grid.max()),
        "correct_all_zero": bool(not grid[correct].any()),
    }
    return summary, rows, ["guess", "i", "iprime", "walsh"], True


def _rank(args):
    """cpa reports each bit's top guess, dca every guess's score and rank."""
    key = _parse_key(args.key)
    traces = _load_traces(args.traces, _window(args.window))
    rows = []
    summary_bits = {}
    for m in range(16) if args.pt_index == "all" else [int(args.pt_index)]:
        model = sca.SboxHypothesis(ell=args.ell, pt_index=m)
        for br in sca.dca_rank(traces, model, correct_guess=key[m]):
            summary_bits[f"pt{m}_bit{br.bit + 1}"] = {
                "correct_rank": br.correct_rank,
                "correct_score": round(br.correct_score, 6),
                "highest_score": round(float(br.scores.max()), 6),
            }
            if args.kind == "dca":
                rows += [[m, br.bit + 1, g, round(float(br.scores[g]), 6), int(br.ranks[g])] for g in range(256)]
            else:
                g = int(np.argmax(br.scores))
                rows.append([m, br.bit + 1, g, round(float(br.scores[g]), 6), round(br.correct_score, 6)])
    summary = {"command": "analyze", "kind": args.kind, "ell": args.ell,
               "window": args.window, "attacks": summary_bits}
    header = (["pt_index", "bit", "guess", "score", "rank"] if args.kind == "dca"
              else ["pt_index", "bit", "top_guess", "top_score", "correct_score"])
    return summary, rows, header, True


def _collision(args):
    known, correct, _, _ = sca.round_output_keys(_parse_key(args.key))
    coll, sse = sca.collision_and_sse_scores(_load_traces(args.traces, sca.ROUND_OUTPUT_SAMPLES), known)
    rows = [[g, int(coll[g]), round(float(sse[g]), 3)] for g in range(256)]
    summary = {
        "command": "analyze", "kind": args.kind,
        "correct_guess": correct,
        "collision_argmax": int(np.argmax(coll)),
        "sse_argmin": int(np.argmin(sse)),
        "correct_is_collision_argmax": bool(int(np.argmax(coll)) == correct),
        "correct_is_sse_argmin": bool(int(np.argmin(sse)) == correct),
    }
    return summary, rows, ["guess", "collision", "sse"], True


def _mia(args):
    key = _parse_key(args.key)
    window = _window(args.window or "round1-col0")
    if args.model == "sbox":
        m = _one_byte(args)
        model = sca.SboxHypothesis(ell=1, pt_index=m)
        correct = key[m]
    else:
        k0, correct, k2, k3 = sca.round_output_keys(key)
        model = sca.RoundOutputHypothesis(known=(k0, k2, k3))
    mi = sca.mia_max(_load_traces(args.traces, window), model)
    rows = [[g, b + 1, round(float(mi[g, b]), 6)] for g in range(256) for b in range(8)]
    summary = {
        "command": "analyze", "kind": "mia", "model": args.model,
        "correct_guess": correct,
        "correct_max_mi": round(float(mi[correct].max()), 6),
        "global_max_mi": round(float(mi.max()), 6),
        "correct_is_global_max": bool(mi[correct].max() >= mi.max()),
    }
    return summary, rows, ["guess", "bit", "max_mi"], True


def _tvla(args):
    window = _window(args.window)
    fixed = _load_traces(args.fixed, window)
    result = sca.tvla(fixed, _load_traces(args.random, window))
    rows = [[int(s), round(float(t), 4)] for s, t in zip(fixed.sample_ids, result.t)]
    passed = result.max_abs_t < sca.TVLA_THRESHOLD
    summary = {
        "command": "analyze", "kind": "tvla",
        "threshold": sca.TVLA_THRESHOLD,
        "max_abs_t": round(result.max_abs_t, 4),
        "degenerate_samples": int(result.degenerate.sum()),
        "pass": passed,
    }
    return summary, rows, ["sample", "t"], passed


def _baseline(args):
    demo = sca.baseline_unbalanced_demo(_seed(args.seed))
    grid = demo["grid"]
    rows = [[i + 1, lp + 1, ip + 1, int(grid[i, lp, ip])]
            for i in range(8) for lp in range(3) for ip in range(8) if grid[i, lp, ip]]
    summary = {
        "command": "analyze", "kind": "baseline", "seed": args.seed,
        "leak_value": demo["leak_value"],
        "leak_coords": demo["leak_coords"],
        "expected_leak": list(demo["expected_leak"]),
        "wrong_key_mean_abs_walsh": round(demo["wrong_mean"], 3),
        "wrong_key_max_abs_walsh": demo["wrong_max"],
        "wrong_key_sd": round(demo["wrong_sd"], 3),
    }
    return summary, rows, ["i", "ellp", "iprime", "walsh"], True


# kind -> (handler, options it cannot run without)
ANALYSES = {
    "walsh-ut": (_walsh_ut, ()),  # --traces, or else --tables and --spec
    "walsh-ro": (_walsh_ro, ("traces", "key")),
    "cpa": (_rank, ("traces", "key")),
    "dca": (_rank, ("traces", "key")),
    "collision": (_collision, ("traces", "key")),
    "cluster": (_collision, ("traces", "key")),
    "mia": (_mia, ("traces", "key")),
    "tvla": (_tvla, ("fixed", "random")),
    "baseline": (_baseline, ()),
}


def cmd_analyze(args) -> int:
    handler, required = ANALYSES[args.kind]
    _require(args, *required)
    summary, rows, header, passed = handler(args)
    _emit(summary, rows, header, args)
    return PASS_EXIT if passed else FAIL_EXIT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="balaes", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a table-set pair and its encoding spec")
    g.add_argument("--key", required=True, help="AES-128 key, 32 hex digits")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--xor-boundary", choices=("balanced", "identity"), default="balanced")
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("encrypt", help="encrypt one block through the table network")
    e.add_argument("--tables", required=True, help="directory holding q0.tbl and q1.tbl")
    e.add_argument("--pt", required=True, help="plaintext, 32 hex digits")
    e.add_argument("--policy", default="q0")
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=cmd_encrypt)

    t = sub.add_parser("trace", help="run a trace-collection campaign")
    t.add_argument("--tables", required=True)
    t.add_argument("--source", default="random", help="random | fixed:HEX | grid | file:PATH")
    t.add_argument("--count", type=int, help="traces to record (default 10000; grid: all 65536)")
    t.add_argument("--policy", default="q0")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_trace)

    a = sub.add_parser("analyze", help="run one statistical analysis")
    a.add_argument("--kind", required=True, choices=tuple(ANALYSES))
    a.add_argument("--traces")
    a.add_argument("--fixed", help="fixed-plaintext trace file (tvla)")
    a.add_argument("--random", help="random-plaintext trace file (tvla)")
    a.add_argument("--tables")
    a.add_argument("--spec")
    a.add_argument("--key", help="evaluation key, 32 hex digits")
    a.add_argument("--pt-index", default="all", choices=("all", *map(str, range(16))),
                   metavar="{all,0-15}", help="attacked plaintext byte")
    a.add_argument("--ell", type=int, default=1, choices=(1, 2, 3))
    a.add_argument("--model", default="sbox", choices=("sbox", "round-output"))
    a.add_argument("--window", help="OFF:LEN or round1 | round1-ut | round1-col0")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--format", default="json", choices=("json", "csv"))
    a.add_argument("--out", help="report file prefix (writes .csv and .json)")
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify", help="re-verify a generated table set against its spec")
    v.add_argument("--tables", required=True)
    v.add_argument("--spec", required=True)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="time single-block encryption")
    b.add_argument("--tables", required=True)
    b.add_argument("--iterations", type=int, default=1000)
    b.add_argument("--policy", default="q0", choices=("q0", "q1"))
    b.set_defaults(func=cmd_bench)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tablegen.GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_EXIT
    except (tablegen.FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_EXIT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
