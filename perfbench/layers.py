"""Per-layer spans for the traced run, recorded from outside the program.

Each public function in TARGETS is replaced, at every module attribute its
callers look it up through, by a wrapper that records a span: name, start,
end, the index of the enclosing span, and an optional measured value (rows,
bytes, lookups).  The originals are put back when the `traced` block ends, so
`src/` is never edited and an untraced run calls the program unchanged."""

from __future__ import annotations

import importlib
import os
import statistics
import time
from contextlib import contextmanager


def _rows(args, kwargs, result):
    return len(args[1])


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _loaded_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _lookups(args, kwargs, result):
    return result[2]


# (module the caller looks the name up in, attribute, span name, value of the call)
TARGETS = [
    ("tablegen", "sample_pair", "binmat.sample_pair", None),
    ("tablegen", "find_candidates", "nibenc.find_candidates", None),
    ("tablegen", "build_spec", "tablegen.build_spec", None),
    ("tablegen", "generate_tableset", "tablegen.generate_tableset", None),
    ("tablegen", "verify_tableset", "tablegen.verify_tableset", None),
    ("tablegen", "walsh_ut_grid_static", "tablegen.walsh_ut_grid_static", None),
    ("gfcore", "reference_encrypt", "gfcore.reference_encrypt", None),
    ("tablegen", "build_q1", "tablegen.build_q1", None),
    ("tablegen", "serialize_tableset", "tablegen.serialize_tableset", None),
    ("tablegen", "deserialize_tableset", "tablegen.deserialize_tableset", None),
    ("tablegen", "serialize_spec", "tablegen.serialize_spec", None),
    ("tablegen", "deserialize_spec", "tablegen.deserialize_spec", None),
    ("cipher", "collect_traces", "cipher.collect_traces", None),
    ("cipher", "select_set", "cipher.select_set", None),
    ("cipher", "encrypt_batch_with_tables", "tablegen.encrypt_batch_with_tables", _rows),
    ("tablegen", "encrypt_batch_with_tables", "tablegen.encrypt_batch_with_tables", _rows),
    ("cipher", "save_traces", "cipher.save_traces", _saved_bytes),
    ("cipher", "load_traces", "cipher.load_traces", _loaded_bytes),
    ("cipher", "encrypt_with_tables", "tablegen.encrypt_with_tables", _lookups),
    ("tablegen", "encrypt_with_tables", "tablegen.encrypt_with_tables", _lookups),
    ("cipher", "encrypt", "cipher.encrypt", None),
    ("sca", "dca_rank", "sca.dca_rank", None),
    ("sca", "bit_expand", "sca.bit_expand", None),
    ("sca", "mia_max", "sca.mia_max", None),
    ("sca", "walsh_ut_trace_grid", "sca.walsh_ut_trace_grid", None),
    ("sca", "walsh_round_output_all", "sca.walsh_round_output_all", None),
    ("sca", "collision_and_sse_scores", "sca.collision_and_sse_scores", None),
    ("sca", "tvla", "sca.tvla", None),
]


class Tracer:
    """In-memory span list; one tracer per traced unit (a setup or a pass)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, value]
        self._stack = []

    def begin(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, fn, name: str, value):
        def traced_call(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if value is not None:
                span[4] = value(args, kwargs, result)
            return result

        return traced_call


@contextmanager
def traced(tracer: Tracer):
    """Route every TARGETS call through `tracer` until the block ends."""
    saved = []
    try:
        for mod_name, attr, name, value in TARGETS:
            mod = importlib.import_module(f"balaes.{mod_name}")
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(original, name, value))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def summarize(spans: list) -> dict:
    """Per span name: calls, total seconds, self seconds (time no child span
    covers), per-call durations and the summed measured values."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for idx, (name, start, end, _, value) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "values": []})
        s["calls"] += 1
        s["s"] += end - start
        s["self_s"] += end - start - child[idx]
        s["durations"].append(end - start)
        if value is not None:
            s["values"].append(value)
    return out


def median_of(units: list, name: str, key: str) -> float:
    """Median over units of one summary field; a unit without the span counts 0."""
    return statistics.median(u[name][key] if name in u else 0 for u in units)
