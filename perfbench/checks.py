"""Output checks; every failed check counts against the run's error rate.

Golden digests and report fields apply only to the default seed at full
scale, where `perfbench/golden/<workload>.json` holds what this commit wrote.
The invariants hold for every seed.  Trace files are read here with the
benchmark's own parser, not the program's loader, so a corrupted sample is
caught even when the file's checksum was fixed up."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from balaes.gfcore import reference_encrypt

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FLOAT_TOL = 1e-6 + 1e-12  # reports round floats to 6 decimals; allow one step of the last digit
TRACE_MAGIC = b"BTR1"
TRACE_HEADER = 12
RECORD = 16 + 1 + 1456
CT_OFFSET = 17 + 1440  # samples 1440..1455 are the ciphertext bytes in order
SPOT_TRACES = 32


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def same_report(expected, actual) -> bool:
    """Integers, booleans and strings exactly; floats to within 1e-6."""
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and expected.keys() == actual.keys()
                and all(same_report(expected[k], actual[k]) for k in expected))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(expected) == len(actual)
                and all(same_report(e, a) for e, a in zip(expected, actual)))
    if isinstance(expected, float) or isinstance(actual, float):
        return (type(actual) in (int, float) and type(expected) in (int, float)
                and math.isclose(expected, actual, rel_tol=0.0, abs_tol=FLOAT_TOL))
    return type(expected) is type(actual) and expected == actual


class Checks:
    """Counts attempted and failed checks.

    golden: None (no golden comparison), or {"files": {...}, "reports": {...}};
    with record=True the golden dict is filled instead of compared."""

    def __init__(self, golden: dict | None = None, record: bool = False):
        self.attempted = 0
        self.failures = []
        self.golden = golden
        self.record = record
        self._reference = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def reference(self, pt: bytes, key: bytes) -> bytes:
        if pt not in self._reference:
            self._reference[pt] = reference_encrypt(pt, key)
        return self._reference[pt]

    def golden_file(self, label: str, path) -> None:
        if self.golden is None:
            return
        digest = file_sha256(path)
        if self.record:
            self.golden["files"][label] = digest
        else:
            self.check(self.golden["files"].get(label) == digest, f"{label}: digest differs from golden")

    def golden_report(self, label: str, summary: dict) -> None:
        if self.golden is None:
            return
        if self.record:
            self.golden["reports"][label] = summary
        else:
            expected = self.golden["reports"].get(label)
            self.check(expected is not None and same_report(expected, summary),
                       f"{label}: report differs from golden")

    def trace_file(self, label: str, path, key: bytes, count: int) -> None:
        """Header count, and samples 1440..1455 against the reference cipher on
        SPOT_TRACES traces spread over the file, the first and last included."""
        with open(path, "rb") as fh:
            head = fh.read(TRACE_HEADER)
            ok = self.check(head[:4] == TRACE_MAGIC and int.from_bytes(head[6:10], "little") == count,
                            f"{label}: header does not announce {count} traces")
            if not ok:
                return
            picks = sorted({round(n * (count - 1) / (SPOT_TRACES - 1)) for n in range(SPOT_TRACES)})
            for n in picks:
                fh.seek(TRACE_HEADER + n * RECORD)
                rec = fh.read(RECORD)
                self.check(rec[CT_OFFSET:CT_OFFSET + 16] == self.reference(rec[:16], key),
                           f"{label}: trace {n} samples 1440-1455 differ from the reference ciphertext")

    def report_file(self, label: str, prefix) -> dict | None:
        path = Path(str(prefix) + ".json")
        try:
            summary = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            self.check(False, f"{label}: report unreadable: {exc}")
            return None
        self.golden_report(label, summary)
        return summary


def load_golden(workload: str) -> dict:
    """The recorded outputs of `workload`, or {} when none were recorded."""
    path = GOLDEN_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}
