"""Golden SHA-256 digests of CLI outputs for `STD_KEY` and table seed 42.

The digests were recorded once from the scalar-and-batch walk and must not
be re-recorded: any change to table generation, the table walk, set selection
or the trace file format that moves a single byte shows up here."""

import hashlib
import random

import pytest

from balaes.cli import main

from conftest import STD_KEY, STD_SEED

GEN_DIGESTS = {
    "q0.tbl": "3ed56a21b519ada709b637bb4d7d6d773868b67e4bd626d9e3132dc2b5d04b49",
    "q1.tbl": "535caca27c9b7e4c3ce14e46767db65433ece311da5c20dd513c261a4bc1e7b0",
    "enc.spec": "26c84eabf9988cbebf8a56a0c87873a351047f9255c4fbf133f0e7fdc0c1907c",
}

FIXED_PT = "00112233445566778899aabbccddeeff"

# label: (source, count, policy, campaign seed, digest of the trace file)
TRACE_CASES = {
    "random-q0": ("random", 300, "q0", 9,
                  "899cf250b72e7e0317ed08689789b83f3ffaa31a348c28bc9bcd1abf9063369f"),
    "random-q1": ("random", 300, "q1", 9,
                  "ecd5bcf9981da8bbb6b71f708fa9d0ab9f5309fa893b1e0773741ab3043bec04"),
    "random-mixed": ("random", 300, "random:0.5", 9,
                  "8e1be47eb556c96361cc27b32079bbf255fdec10116ed7c2fe8850d69dd28578"),
    "random-ptderived": ("random", 300, "pt-derived:16", 9,
                  "e90e24873e53e4208e26fab3bed3806c3dca57cfa8c0c6c9ae91249953b04212"),
    "fixed-mixed": (f"fixed:{FIXED_PT}", 32, "random:0.5", 10,
                  "5aa2bbe160fb32f5c26be9f1bf3ac6896cc38724edfa20a17e67aa8aac3ab6c9"),
    "file-mixed": ("file", 2500, "random:0.5", 11,
                  "73f2238cbc1a3cf4264aaea290529d9ee0929a3643b43859051a2ee45e4fa98d"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_tables(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_tables")
    assert main(["gen", "--key", STD_KEY.hex(), "--seed", str(STD_SEED), "--out", str(d)]) == 0
    return d


@pytest.mark.parametrize("name", sorted(GEN_DIGESTS))
def test_gen_outputs_match_golden_digest(golden_tables, name, capfd):
    assert _sha256(golden_tables / name) == GEN_DIGESTS[name]


@pytest.mark.parametrize("label", sorted(TRACE_CASES))
def test_trace_file_matches_golden_digest(golden_tables, tmp_path, label, capfd):
    source, count, policy, seed, digest = TRACE_CASES[label]
    if source == "file":
        pts = tmp_path / "pts.bin"
        pts.write_bytes(random.Random(count).randbytes(count * 16))
        source = f"file:{pts}"
    out = tmp_path / f"{label}.btr"
    rc = main(["trace", "--tables", str(golden_tables), "--source", source, "--count", str(count),
               "--policy", policy, "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    assert _sha256(out) == digest
