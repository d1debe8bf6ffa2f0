"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at the tiny scale, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit.  Then flips one
byte of a trace file and checks that the error rate becomes positive, which
shows the output checks can fail."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import zlib
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    record, result = json.loads(record_line)["run"], json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, record["failures"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["error_rate"] == 0
    assert record["src_lines"] > 0 and record["nproc"] >= 1 and record["numpy"]


def flip_ciphertext_sample(path: Path) -> None:
    """Replace `path` by a copy whose first trace has sample 1440 changed and
    whose checksum is fixed up, so the program's loader still accepts it."""
    import checks

    copy = path.with_name(path.name + ".corrupt")
    shutil.copyfile(path, copy)
    data = bytearray(copy.read_bytes())
    data[checks.TRACE_HEADER + checks.CT_OFFSET] ^= 0x01
    data[-4:] = zlib.crc32(data[:-4]).to_bytes(4, "little")
    copy.write_bytes(data)
    os.replace(copy, path)


def test_corrupted_trace_file_raises_error_rate():
    run.load_program()
    import workloads

    out = workloads.run("fvr-tvla", 7, 0, False, "tiny", tamper=flip_ciphertext_sample)
    assert out["failed"] / out["attempted"] > 0
    assert any("samples 1440-1455" in f for f in out["failures"]), out["failures"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "fvr-tvla", "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
