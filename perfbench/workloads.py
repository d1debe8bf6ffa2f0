"""The three workloads and the loop that runs and measures them.

Every workload runs the same three kinds of user-facing steps, so every run
reports every end-to-end metric: `balaes trace` campaigns and `balaes analyze`
reports through the real CLI (`balaes.cli.main`, in-process), and a closed
loop of single-block `cipher.encrypt` calls with one caller.  The workloads
differ in which step kind dominates; see README.md for why each was chosen.

A run repeats identical passes of its steps until the time budget is spent,
sets up (`balaes gen`, then loading q0, q1 and the spec back) at even
intervals of that budget, and reports each time as the median of its
repeats (see `end_to_end`).  A traced run alternates untraced and traced
passes, so that the tracing overhead is measured within one process."""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from balaes import cipher, cli, tablegen

from checks import Checks, load_golden
from layers import Tracer, median_of, summarize, traced

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
DCA_BYTES = (0,)  # the plaintext byte entering column 0's first round-1 table

# Per-workload sizes.  Every time is the median of its repeats in a run, so
# each CLI step needs several repeats: fvr-tvla repeats its steps "rounds"
# times per pass.  The single blocks of a pass run in "chunks" of "chunk"
# calls, spread evenly after the steps.  "setups" is the number of setups per
# run, due at even intervals of it.  "tiny" is for the smoke test only.
SCALES = {
    "full": {
        "setups": 6, "chunk": 512,
        "dca-mixed": {"traces": 5000, "chunks": 4},
        "grid-roundout": {"chunks": 4},
        "fvr-tvla": {"traces": 10000, "chunks": 2, "rounds": 4},
    },
    "tiny": {
        "setups": 2, "chunk": 64,
        "dca-mixed": {"traces": 4096, "chunks": 2},
        "grid-roundout": {"chunks": 1},
        "fvr-tvla": {"traces": 1000, "chunks": 1, "rounds": 2},
    },
}
WARMUP_BLOCKS = 8  # untimed calls before each chunk, after the step has left the caches cold


@dataclass
class Inputs:
    """Everything a run feeds the program, derived from the workload seed."""

    key: bytes
    table_seed: int
    campaign_seeds: tuple
    fixed_pt: bytes
    block_seed: int
    stream: list  # distinct 16-byte plaintexts for the single-block loop
    warmup: list  # plaintexts for the untimed calls before each chunk

    @classmethod
    def from_seed(cls, seed: int, blocks: int) -> "Inputs":
        rng = random.Random(seed)
        return cls(
            key=rng.randbytes(16),
            table_seed=rng.randrange(1 << 31),
            campaign_seeds=(rng.randrange(1 << 31), rng.randrange(1 << 31)),
            fixed_pt=rng.randbytes(16),
            block_seed=rng.randrange(1 << 31),
            stream=[rng.randbytes(16) for _ in range(blocks)],
            warmup=[rng.randbytes(16) for _ in range(WARMUP_BLOCKS)],
        )


@dataclass
class Step:
    kind: str  # "trace" | "analyze"
    label: str
    argv: list
    out: Path  # trace file, or report prefix
    count: int = 0  # traces a trace step records


@dataclass
class Workload:
    steps: list
    report_checks: dict = field(default_factory=dict)  # report label -> field that must be true


def _trace(work: Path, tables: Path, label: str, source: str, count: int, policy: str, seed: int) -> Step:
    out = work / f"{label}.btr"
    argv = ["trace", "--tables", str(tables), "--source", source, "--count", str(count),
            "--policy", policy, "--seed", str(seed), "--out", str(out)]
    return Step("trace", label, argv, out, count)


def _analyze(work: Path, label: str, *argv: str) -> Step:
    out = work / "reports" / label
    return Step("analyze", label, ["analyze", *argv, "--out", str(out)], out)


def build_workload(name: str, inp: Inputs, work: Path, size: dict) -> Workload:
    tables = work / "tables"
    key = inp.key.hex()
    c0, c1 = inp.campaign_seeds
    if name == "dca-mixed":
        mixed = _trace(work, tables, "mixed", "random", size["traces"], "random:0.5", c0)
        t = str(mixed.out)
        analyses = [_analyze(work, f"dca-pt{m}", "--kind", "dca", "--traces", t, "--key", key,
                             "--pt-index", str(m)) for m in DCA_BYTES]
        analyses += [_analyze(work, f"mia-{model}", "--kind", "mia", "--traces", t, "--key", key,
                              "--model", model, "--pt-index", "0", "--window", "round1-col0")
                     for model in ("sbox", "round-output")]
        analyses.append(_analyze(work, "walsh-ut", "--kind", "walsh-ut", "--traces", t, "--key", key,
                                 "--pt-index", "0", "--ell", "1"))
        # The campaign is recorded again before each analysis: one campaign
        # per pass is too little trace time for a steady traces_per_s.
        return Workload([step for a in analyses for step in (mixed, a)])
    if name == "grid-roundout":
        q0 = _trace(work, tables, "grid-q0", "grid", 65536, "q0", c0)
        mixed = _trace(work, tables, "grid-mixed", "grid", 65536, "random:0.5", c1)
        steps = [
            q0, mixed,
            _analyze(work, "walsh-ro-q0", "--kind", "walsh-ro", "--traces", str(q0.out), "--key", key),
            _analyze(work, "collision-q0", "--kind", "collision", "--traces", str(q0.out), "--key", key),
            _analyze(work, "collision-mixed", "--kind", "collision", "--traces", str(mixed.out), "--key", key),
        ]
        return Workload(steps, {"walsh-ro-q0": "correct_all_zero", "collision-q0": "correct_is_collision_argmax"})
    if name == "fvr-tvla":
        fixed = _trace(work, tables, "fixed", f"fixed:{inp.fixed_pt.hex()}", size["traces"], "random:0.5", c0)
        rand = _trace(work, tables, "random", "random", size["traces"], "random:0.5", c1)
        tvla = _analyze(work, "tvla", "--kind", "tvla", "--fixed", str(fixed.out),
                        "--random", str(rand.out), "--window", "round1")
        return Workload([fixed, rand, tvla] * size["rounds"], {"tvla": "pass"})
    raise ValueError(f"unknown workload {name!r}")


def call_cli(argv: list, tracer: Tracer | None) -> tuple:
    """Run one CLI step in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        with span:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    return code, err.getvalue().strip()


@dataclass
class PassResult:
    steps: list = field(default_factory=list)  # (step, seconds) for each CLI step
    chunks: list = field(default_factory=list)  # per-call latencies in us of each chunk of blocks

    @property
    def pipeline_s(self) -> float:
        return sum(seconds for _, seconds in self.steps)


class Runner:
    """One run of one workload: its inputs, work directory and checks."""

    def __init__(self, name: str, seed: int, scale: str = "full", tamper=None, record: bool = False):
        sizes = SCALES[scale]
        self.setups = sizes["setups"]
        self.chunks = sizes[name]["chunks"]
        self.inputs = Inputs.from_seed(seed, self.chunks * sizes["chunk"])
        self.work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
        self.tables = self.work / "tables"
        self.workload = build_workload(name, self.inputs, self.work, sizes[name])
        self.tamper = tamper  # called with each trace file right after it is written
        golden = None
        if record:
            golden = {"files": {}, "reports": {}}
        elif seed == DEFAULT_SEED and scale == "full":
            golden = load_golden(name)
        self.checks = Checks(golden or None, record)
        if golden == {}:
            self.checks.check(False, f"no golden file for {name}")
        self.pair = None
        self.policy = cipher.SelectorPolicy.parse("random:0.5")

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.checks.check(len(set(self.inputs.stream)) == len(self.inputs.stream), "block stream repeats a plaintext")

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()

    def setup(self, tracer: Tracer | None) -> float:
        argv = ["gen", "--key", self.inputs.key.hex(), "--seed", str(self.inputs.table_seed),
                "--out", str(self.tables)]
        start = time.perf_counter()
        code, err = call_cli(argv, tracer)
        q0 = tablegen.deserialize_tableset((self.tables / "q0.tbl").read_bytes())
        q1 = tablegen.deserialize_tableset((self.tables / "q1.tbl").read_bytes())
        spec = tablegen.deserialize_spec((self.tables / "enc.spec").read_bytes())
        elapsed = time.perf_counter() - start
        self.pair = tablegen.TableSetPair(q0=q0, q1=q1)
        c = self.checks
        c.check(code == 0, f"gen exited {code}: {err}")
        c.check(spec.key == self.inputs.key and spec.seed == self.inputs.table_seed, "enc.spec key or seed differs")
        c.check(q0.set_id == 0 and q1.set_id == 1, "q0.tbl/q1.tbl set ids are not 0/1")
        for name in ("q0.tbl", "q1.tbl", "enc.spec"):
            c.golden_file(name, self.tables / name)
        return elapsed

    def run_pass(self, tracer: Tracer | None, between=None) -> PassResult:
        """The workload's CLI steps, with the block stream cut into chunks
        spread evenly after them, and `between()`, if given, after each step.
        Only step and chunk times count."""
        res = PassResult()
        steps, stream, chunks = self.workload.steps, self.inputs.stream, self.chunks
        size = len(stream) // chunks
        rng = random.Random(self.inputs.block_seed)
        cts = []
        encrypt, clock = cipher.encrypt, time.perf_counter_ns
        for n, step in enumerate(steps):
            start = time.perf_counter()
            code, err = call_cli(step.argv, tracer)
            res.steps.append((step, time.perf_counter() - start))
            if step.kind == "trace" and self.tamper and code == 0:
                self.tamper(step.out)
            self.checks.check(code == 0, f"{step.label}: exited {code}: {err}")
            for c in range(n * chunks // len(steps), (n + 1) * chunks // len(steps)):
                for pt in self.inputs.warmup:
                    encrypt(pt, self.pair, self.policy, rng)
                latencies = []
                for pt in stream[c * size:(c + 1) * size]:
                    t0 = clock()
                    cts.append(encrypt(pt, self.pair, self.policy, rng).ciphertext)
                    latencies.append((clock() - t0) / 1000)
                res.chunks.append(latencies)
            if between:
                between()
        self.check_outputs(cts)
        return res

    def check_outputs(self, cts: list) -> None:
        c, key = self.checks, self.inputs.key
        for pt, ct in zip(self.inputs.stream, cts):
            c.check(ct == c.reference(pt, key), f"block {pt.hex()}: ciphertext differs from the reference")
        for step in {s.label: s for s in self.workload.steps}.values():
            if step.kind == "trace":
                if step.out.is_file():
                    c.trace_file(step.label, step.out, key, step.count)
                    c.golden_file(step.label + ".btr", step.out)
                else:
                    c.check(False, f"{step.label}: no trace file")
                continue
            summary = c.report_file(step.label, step.out)
            must = self.workload.report_checks.get(step.label)
            if must and summary is not None:
                c.check(summary.get(must) is True, f"{step.label}: {must} is not true")

    def guarded(self, what: str, fn, *args):
        """Run one setup or pass; an exception counts as a failed check."""
        try:
            return fn(*args)
        except Exception:
            self.checks.check(False, f"{what} raised:\n{traceback.format_exc()}")
            return None


def _pct(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


UNITS = {
    "setup_s": "s", "pipeline_s": "s", "traces_per_s": "1/s", "analyze_s": "s",
    "blocks_per_s": "1/s", "block_p95_us": "us", "peak_rss_mb": "MB",
}


def end_to_end(setups: list, passes: list) -> dict:
    """Every time is the median of its repeats within the run: of the
    setups, of each CLI step's repeats (then summed over the pass's steps),
    and of the chunks of blocks.  A step or a chunk lasts about a second or
    less, so that a run holds many repeats and the host's stalls and slow
    spells, which can last seconds, hit only some of them."""
    repeats = {}
    for p in passes:
        for step, seconds in p.steps:
            repeats.setdefault(step.label, []).append(seconds)
    step_s = {label: statistics.median(times) for label, times in repeats.items()}
    steps = [step for step, _ in passes[0].steps]
    trace_steps = [step for step in steps if step.kind == "trace"]
    chunks = [c for p in passes for c in p.chunks]
    return {
        "setup_s": statistics.median(setups),
        "pipeline_s": sum(step_s[step.label] for step in steps),
        "traces_per_s": sum(step.count for step in trace_steps) / sum(step_s[step.label] for step in trace_steps),
        "analyze_s": sum(step_s[step.label] for step in steps if step.kind == "analyze"),
        "blocks_per_s": statistics.median(len(c) / sum(c) for c in chunks) * 1e6,
        "block_p95_us": statistics.median(_pct(c, 95) for c in chunks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# Per-layer metrics: (span name, stat, unit).  Setup-group stats are medians
# over setups; the others are medians over traced passes.
SETUP_LAYERS = [
    ("binmat.sample_pair", "calls", "count"), ("binmat.sample_pair", "s", "s"),
    ("nibenc.find_candidates", "calls", "count"), ("nibenc.find_candidates", "s", "s"),
    ("tablegen.build_spec", "s", "s"), ("tablegen.generate_tableset", "s", "s"),
    ("tablegen.verify_tableset", "s", "s"), ("tablegen.walsh_ut_grid_static", "s", "s"),
    ("gfcore.reference_encrypt", "calls", "count"), ("gfcore.reference_encrypt", "s", "s"),
    ("tablegen.build_q1", "s", "s"),
    ("tablegen.serialize_tableset", "s", "s"), ("tablegen.deserialize_tableset", "s", "s"),
    ("tablegen.serialize_spec", "s", "s"), ("tablegen.deserialize_spec", "s", "s"),
    ("cli.gen", "self_s", "s"),
]
PASS_LAYERS = [
    ("cipher.collect_traces", "s", "s"), ("cipher.select_set", "s", "s"),
    ("tablegen.encrypt_batch_with_tables", "s", "s"),
    ("cipher.save_traces", "s", "s"), ("cipher.load_traces", "s", "s"),
    ("sca.dca_rank", "s", "s"), ("sca.bit_expand", "s", "s"), ("sca.mia_max", "s", "s"),
    ("sca.walsh_ut_trace_grid", "s", "s"), ("sca.walsh_round_output_all", "s", "s"),
    ("sca.collision_and_sse_scores", "s", "s"), ("sca.tvla", "s", "s"),
    ("cli.trace", "self_s", "s"), ("cli.analyze", "self_s", "s"),
]
SPAN_SLOTS = 144  # linear-pair slots build_spec fills: 9 rounds x 4 columns x 4 bytes


def _value_sum(unit: dict, name: str) -> float:
    return sum(unit[name]["values"]) if name in unit else 0


def _per_call_us(units: list, name: str) -> float:
    durations = [d for u in units if name in u for d in u[name]["durations"]]
    return statistics.median(durations) * 1e6 if durations else 0.0


def per_layer(setup_units: list, pass_units: list, campaigns: list, overhead_s: float) -> dict:
    """setup_units / pass_units: `layers.summarize` output per traced unit;
    campaigns: select_set calls made inside collect_traces, per campaign."""
    out = {}
    for name, stat, unit in SETUP_LAYERS:
        out[f"{name}.{stat}"] = (median_of(setup_units, name, stat), unit)
    pairs = median_of(setup_units, "binmat.sample_pair", "calls")
    out["tablegen.build_spec.accept_ratio"] = (SPAN_SLOTS / pairs if pairs else 0.0, "ratio")
    for name, stat, unit in PASS_LAYERS:
        out[f"{name}.{stat}"] = (median_of(pass_units, name, stat), unit)
    out["cipher.select_set.calls"] = (statistics.median(campaigns) if campaigns else 0, "count")
    for name, stat in (("tablegen.encrypt_batch_with_tables", "rows"), ("cipher.save_traces", "bytes"),
                       ("cipher.load_traces", "bytes")):
        out[f"{name}.{stat}"] = (statistics.median(_value_sum(u, name) for u in pass_units),
                                 "count" if stat == "rows" else "bytes")
    out["tablegen.encrypt_with_tables.us"] = (_per_call_us(pass_units, "tablegen.encrypt_with_tables"), "us")
    lookups = [v for u in pass_units for v in u.get("tablegen.encrypt_with_tables", {}).get("values", [])]
    out["tablegen.encrypt_with_tables.lookups"] = (statistics.median(lookups) if lookups else 0, "count")
    out["cipher.encrypt.us"] = (_per_call_us(pass_units, "cipher.encrypt"), "us")
    out["bench.tracing_overhead_s"] = (overhead_s, "s")
    return out


def select_set_per_campaign(spans: list) -> list:
    """select_set calls made inside each collect_traces span."""
    counts = {i: 0 for i, s in enumerate(spans) if s[0] == "cipher.collect_traces"}
    for s in spans:
        if s[0] == "cipher.select_set" and s[3] in counts:
            counts[s[3]] += 1
    return list(counts.values())


def run(name: str, seed: int, seconds: float, trace: bool, scale: str = "full", tamper=None,
        record: bool = False) -> dict:
    """Run one workload; returns metrics, check counts and run facts."""
    r = Runner(name, seed, scale, tamper, record)
    setup_times, setup_units, passes, pass_units, campaigns = [], [], [], [], []
    untraced = []

    def set_up():
        tracer = Tracer() if trace else None
        with traced(tracer) if trace else contextlib.nullcontext():
            t = r.guarded("setup", r.setup, tracer)
        if t is not None:
            setup_times.append(t)
            if trace:
                setup_units.append(summarize(tracer.spans))

    # Setups fall due at even intervals of the budget, the first at once.  A
    # due setup runs after the CLI step under way, or after the pass when the
    # pass is traced, so that setup_s samples the machine across the run.
    start_all = time.perf_counter()
    deadline = start_all + seconds
    due = [start_all + seconds * k / r.setups for k in range(r.setups)]

    def catch_up():
        while due and time.perf_counter() >= due[0]:
            due.pop(0)
            set_up()

    try:
        r.prepare()
        catch_up()
        if r.pair is None:
            raise RuntimeError("no setup completed")
        while True:
            tracing_now = trace and len(untraced) > len(passes)
            tracer = Tracer() if tracing_now else None
            start = time.perf_counter()
            with traced(tracer) if tracing_now else contextlib.nullcontext():
                p = r.guarded("pass", r.run_pass, tracer, None if tracing_now else catch_up)
            if p is None:
                break
            if tracing_now:
                passes.append(p)
                pass_units.append(summarize(tracer.spans))
                campaigns += select_set_per_campaign(tracer.spans)
            elif trace:
                untraced.append(p)
            else:
                passes.append(p)
            took = time.perf_counter() - start
            catch_up()
            # Stop when the next pass would end mostly after the deadline.
            if passes and time.perf_counter() + took / 2 >= deadline:
                break
        for _ in due:
            set_up()
    finally:
        r.cleanup()
    if not passes:
        raise RuntimeError("no pass completed: " + "; ".join(r.checks.failures[:3]))
    if trace:
        overhead = (statistics.median(p.pipeline_s for p in passes)
                    - statistics.median(p.pipeline_s for p in untraced))
        metrics = per_layer(setup_units, pass_units, campaigns, overhead)
    else:
        metrics = {k: (v, UNITS[k]) for k, v in end_to_end(setup_times, passes).items()}
    return {
        "metrics": metrics,
        "attempted": r.checks.attempted,
        "failed": len(r.checks.failures),
        "failures": r.checks.failures,
        "setups": len(setup_times),
        "passes": len(passes) + len(untraced),
        "blocks_timed": sum(len(c) for p in passes for c in p.chunks),
        "block_p50_us": _pct([x for p in passes for c in p.chunks for x in c], 50),
        "block_p99_us": _pct([x for p in passes for c in p.chunks for x in c], 99),
        "golden": r.checks.golden is not None,
        "checks": r.checks,
    }
