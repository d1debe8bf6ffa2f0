import json
import os
import shutil
import stat
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from balaes import cipher, sca, tablegen
from balaes.cipher import load_traces
from balaes.cli import main
from balaes.gfcore import MC
from balaes.nibenc import find_candidates
from balaes.tablegen import deserialize_spec

from conftest import STD_KEY

KEY_HEX = STD_KEY.hex()
FIPS_KEY = "000102030405060708090a0b0c0d0e0f"
FIPS_PT = "00112233445566778899aabbccddeeff"
FIPS_CT = "69c4e0d86a7b0430d8cdb78070b4c55a"


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory, capfd=None):
    d = tmp_path_factory.mktemp("tables")
    rc = main(["gen", "--key", FIPS_KEY, "--seed", "11", "--out", str(d)])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory, gen_dir):
    d = tmp_path_factory.mktemp("traces")
    out = d / "q0.btr"
    rc = main(
        ["trace", "--tables", str(gen_dir), "--source", "random", "--count", "3000",
         "--policy", "q0", "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    return out


def test_gen_writes_files_and_report(gen_dir, capfd):
    rc = main(["gen", "--key", FIPS_KEY, "--seed", "11", "--out", str(gen_dir)])
    assert rc == 0
    summary = json.loads(capfd.readouterr().out)
    assert summary["total_bytes"] == 262144
    assert summary["total_lookups"] == 1024
    assert summary["measured_lookups"] == 1024
    assert (gen_dir / "q0.tbl").stat().st_size == 8 + 262144 + 4
    assert (gen_dir / "q1.tbl").exists()
    assert (gen_dir / "enc.spec").exists()


def test_gen_is_deterministic(gen_dir, tmp_path):
    rc = main(["gen", "--key", FIPS_KEY, "--seed", "11", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("q0.tbl", "q1.tbl", "enc.spec"):
        assert (tmp_path / name).read_bytes() == (gen_dir / name).read_bytes()


@pytest.mark.parametrize("old_size", [10, 300000], ids=["shorter", "longer"])
def test_gen_over_existing_files_writes_the_same_bytes(gen_dir, tmp_path, capfd, old_size):
    for name in ("q0.tbl", "q1.tbl", "enc.spec"):
        (tmp_path / name).write_bytes(b"\xa5" * old_size)
    assert main(["gen", "--key", FIPS_KEY, "--seed", "11", "--out", str(tmp_path)]) == 0
    for name in ("q0.tbl", "q1.tbl", "enc.spec"):
        assert (tmp_path / name).read_bytes() == (gen_dir / name).read_bytes()


def test_encrypt_fips_vector(gen_dir, capfd):
    rc = main(["encrypt", "--tables", str(gen_dir), "--pt", FIPS_PT, "--policy", "q0"])
    assert rc == 0
    assert capfd.readouterr().out.strip() == FIPS_CT
    rc = main(["encrypt", "--tables", str(gen_dir), "--pt", FIPS_PT, "--policy", "q1"])
    assert rc == 0
    assert capfd.readouterr().out.strip() == FIPS_CT


@pytest.mark.parametrize("policy", ["pt-derived:1", "pt-derived:256"])
def test_pt_derived_length_extremes(gen_dir, tmp_path, capfd, policy):
    rc = main(["encrypt", "--tables", str(gen_dir), "--pt", FIPS_PT, "--policy", policy])
    assert rc == 0
    assert capfd.readouterr().out.strip() == FIPS_CT
    out = tmp_path / "t.btr"
    rc = main(["trace", "--tables", str(gen_dir), "--source", "random", "--count", "50",
               "--policy", policy, "--seed", "3", "--out", str(out)])
    assert rc == 0
    ts = load_traces(out)
    n = int(policy.split(":")[1])
    expected = [(int(np.bitwise_xor.reduce(pt)) % n) % 2 for pt in ts.plaintexts]
    assert ts.set_bits.tolist() == expected


def test_encrypt_malformed_plaintext(gen_dir, capfd):
    rc = main(["encrypt", "--tables", str(gen_dir), "--pt", "zz", "--policy", "q0"])
    assert rc == 2
    rc = main(["encrypt", "--tables", str(gen_dir), "--pt", "0011", "--policy", "q0"])
    assert rc == 2


def test_missing_table_file_is_io_error(tmp_path, capfd):
    rc = main(["encrypt", "--tables", str(tmp_path), "--pt", FIPS_PT])
    assert rc == 3


def test_trace_file_shape(trace_file, capfd):
    ts = load_traces(trace_file)
    assert len(ts) == 3000
    assert ts.samples.shape == (3000, 1456)


@pytest.mark.parametrize("source", ["random", f"fixed:{FIPS_PT}", "file", "grid"])
def test_negative_trace_count_is_usage_error(gen_dir, tmp_path, capfd, source):
    if source == "file":  # pts[:-3] of a 10-record file used to record 7 traces
        (tmp_path / "pts.bin").write_bytes(bytes(range(160)))
        source = f"file:{tmp_path / 'pts.bin'}"
    out = tmp_path / "t.btr"
    rc = main(["trace", "--tables", str(gen_dir), "--source", source, "--count", "-3", "--out", str(out)])
    assert rc == 2
    assert "--count -3" in capfd.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "100", "65537"])
def test_grid_trace_count_other_than_65536_is_usage_error(gen_dir, tmp_path, capfd, count):
    out = tmp_path / "grid.btr"
    rc = main(["trace", "--tables", str(gen_dir), "--source", "grid", "--count", count, "--out", str(out)])
    assert rc == 2
    assert f"--count {count}" in capfd.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def grid_mixed_file(tmp_path_factory, gen_dir):
    """The random:0.5 grid campaign, and the tracemalloc peak of `trace` writing it."""
    out = tmp_path_factory.mktemp("grid") / "grid.btr"
    tracemalloc.start()
    try:
        rc = main(["trace", "--tables", str(gen_dir), "--source", "grid", "--count", "65536",
                   "--policy", "random:0.5", "--seed", "5", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return out, peak


def test_grid_campaign_write_memory_bound(grid_mixed_file):
    # holding the whole campaign, then a second copy as the file body, took about 184 MiB
    assert grid_mixed_file[1] < 32 * 2**20, grid_mixed_file[1]


def test_grid_campaign_load_memory_bound(grid_mixed_file):
    # the final arrays alone are 92 MiB; reading the whole file first and copying
    # the columns out of it took about 184 MiB
    tracemalloc.start()
    try:
        ts = load_traces(grid_mixed_file[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ts) == 65536
    assert peak < 110 * 2**20, peak


@pytest.mark.parametrize("kind", ["walsh-ro", "collision"])
def test_grid_roundout_analysis_memory_bound(grid_mixed_file, capfd, kind):
    # both read two samples per trace; loading all 1,456 peaked at 115-124 MiB
    tracemalloc.start()
    try:
        rc = main(["analyze", "--kind", kind, "--traces", str(grid_mixed_file[0]), "--key", FIPS_KEY])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 48 * 2**20, peak


def test_trace_to_devnull_exits_0(gen_dir, capfd):
    rc = main(["trace", "--tables", str(gen_dir), "--source", "random", "--count", "1500",
               "--policy", "random:0.5", "--seed", "3", "--out", os.devnull])
    assert rc == 0
    assert json.loads(capfd.readouterr().out)["out"] == os.devnull
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)  # written through, neither cut nor replaced


def test_trace_determinism(gen_dir, tmp_path, trace_file):
    out = tmp_path / "again.btr"
    rc = main(
        ["trace", "--tables", str(gen_dir), "--source", "random", "--count", "3000",
         "--policy", "q0", "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_bytes() == trace_file.read_bytes()


def test_verify_passes_and_detects_corruption(gen_dir, tmp_path, capfd):
    rc = main(["verify", "--tables", str(gen_dir), "--spec", str(gen_dir / "enc.spec")])
    assert rc == 0
    summary = json.loads(capfd.readouterr().out)
    assert summary["pass"] is True and summary["q1_matches_q0"] is True
    # corrupt a table byte: checksum failure -> I/O-format exit
    blob = bytearray((gen_dir / "q0.tbl").read_bytes())
    blob[5000] ^= 0x40
    (tmp_path / "q0.tbl").write_bytes(bytes(blob))
    (tmp_path / "q1.tbl").write_bytes((gen_dir / "q1.tbl").read_bytes())
    rc = main(["verify", "--tables", str(tmp_path), "--spec", str(gen_dir / "enc.spec")])
    assert rc == 3
    # same corruption with a recomputed checksum: balance checks fail -> exit 1
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    (tmp_path / "q0.tbl").write_bytes(bytes(blob))
    rc = main(["verify", "--tables", str(tmp_path), "--spec", str(gen_dir / "enc.spec")])
    assert rc == 1
    summary = json.loads(capfd.readouterr().out)
    assert summary["pass"] is False


def test_verify_checks_q1_is_q0s_exact_twin(gen_dir, tmp_path, capfd):
    # one flipped bit in an inner-round q1 table entry, which a walk of a few
    # random plaintexts seldom reaches: q0 still passes every check, and q1 is
    # no longer build_q1(q0)
    q1 = tablegen.deserialize_tableset((gen_dir / "q1.tbl").read_bytes())
    ut = q1.ut.copy()
    ut[4, 1, 2, 0x5A, 3] ^= 0x04
    bad = tablegen.TableSet(set_id=1, ut=ut, tx=q1.tx, t10=q1.t10)
    (tmp_path / "q0.tbl").write_bytes((gen_dir / "q0.tbl").read_bytes())
    (tmp_path / "q1.tbl").write_bytes(tablegen.serialize_tableset(bad))
    rc = main(["verify", "--tables", str(tmp_path), "--spec", str(gen_dir / "enc.spec")])
    assert rc == 1
    summary = json.loads(capfd.readouterr().out)
    assert summary["q1_matches_q0"] is False and summary["pass"] is False
    assert all(summary["checks"].values()) and summary["failures"] == []


def test_analyze_walsh_ut_static(gen_dir, capfd):
    rc = main(
        ["analyze", "--kind", "walsh-ut", "--tables", str(gen_dir),
         "--spec", str(gen_dir / "enc.spec")]
    )
    assert rc == 0
    summary = json.loads(capfd.readouterr().out)
    assert summary["all_zero_correct_key"] is True
    assert summary["max_abs"] == 0


def test_analyze_dca_report(gen_dir, trace_file, tmp_path, capfd):
    prefix = tmp_path / "dca"
    rc = main(
        ["analyze", "--kind", "dca", "--traces", str(trace_file), "--key", FIPS_KEY,
         "--pt-index", "0", "--window", "round1-ut", "--out", str(prefix)]
    )
    assert rc == 0
    summary = json.loads(capfd.readouterr().out)
    assert "pt0_bit1" in summary["attacks"]
    csv_lines = (tmp_path / "dca.csv").read_text().splitlines()
    assert csv_lines[0] == "pt_index,bit,guess,score,rank"
    assert len(csv_lines) == 1 + 8 * 256


def test_analyze_baseline(capfd):
    rc = main(["analyze", "--kind", "baseline", "--seed", "4"])
    assert rc == 0
    summary = json.loads(capfd.readouterr().out)
    assert summary["leak_value"] == 256
    assert [8, 1, 1] in summary["leak_coords"]


def test_analyze_tvla(gen_dir, tmp_path, capfd):
    fixed = tmp_path / "fixed.btr"
    rnd = tmp_path / "rand.btr"
    main(["trace", "--tables", str(gen_dir), "--source", f"fixed:{FIPS_PT}", "--count", "2000",
          "--policy", "random:0.5", "--seed", "5", "--out", str(fixed)])
    main(["trace", "--tables", str(gen_dir), "--source", "random", "--count", "2000",
          "--policy", "random:0.5", "--seed", "6", "--out", str(rnd)])
    capfd.readouterr()
    rc = main(["analyze", "--kind", "tvla", "--fixed", str(fixed), "--random", str(rnd),
               "--window", "round1"])
    summary = json.loads(capfd.readouterr().out)
    assert rc == 0
    assert summary["pass"] is True
    assert summary["max_abs_t"] < 4.5


@pytest.mark.parametrize("window, samples", [
    ("100:3", [100, 101, 102]),
    ("round1-ut", cipher.UT_SAMPLES[0].ravel().tolist()),
    ("round1", list(range(160))),
], ids=["100:3", "round1-ut", "round1"])
def test_tvla_rows_name_absolute_samples(gen_dir, trace_file, tmp_path, capfd, window, samples):
    fixed = tmp_path / "fixed.btr"
    main(["trace", "--tables", str(gen_dir), "--source", f"fixed:{FIPS_PT}", "--count", "500",
          "--policy", "random:0.5", "--seed", "5", "--out", str(fixed)])
    capfd.readouterr()
    rc = main(["analyze", "--kind", "tvla", "--fixed", str(fixed), "--random", str(trace_file),
               "--window", window, "--format", "csv"])
    assert rc in (0, 1)
    header, *rows = capfd.readouterr().out.splitlines()
    assert header == "sample,t"
    assert [int(r.split(",")[0]) for r in rows] == samples
    # each row holds the t of the sample it names in a full-window test
    full = sca.tvla(load_traces(fixed), load_traces(trace_file))
    assert [float(r.split(",")[1]) for r in rows] == [round(float(full.t[s]), 4) for s in samples]


def test_analyze_collision_grid(gen_dir, tmp_path, capfd):
    grid = tmp_path / "grid.btr"
    main(["trace", "--tables", str(gen_dir), "--source", "grid", "--policy", "q0",
          "--seed", "7", "--out", str(grid)])
    capfd.readouterr()
    rc = main(["analyze", "--kind", "collision", "--traces", str(grid), "--key", FIPS_KEY])
    summary = json.loads(capfd.readouterr().out)
    assert rc == 0
    assert summary["correct_is_collision_argmax"] is True
    assert summary["correct_is_sse_argmin"] is True


def test_analyze_walsh_ro_grid(gen_dir, tmp_path, capfd):
    grid = tmp_path / "grid.btr"
    main(["trace", "--tables", str(gen_dir), "--source", "grid", "--policy", "q0",
          "--seed", "8", "--out", str(grid)])
    capfd.readouterr()
    rc = main(["analyze", "--kind", "walsh-ro", "--traces", str(grid), "--key", FIPS_KEY])
    summary = json.loads(capfd.readouterr().out)
    assert rc == 0
    assert summary["correct_all_zero"] is True
    assert summary["correct_max"] == 0


def test_bench_reports_timing(gen_dir, capfd):
    rc = main(["bench", "--tables", str(gen_dir), "--iterations", "50"])
    assert rc == 0
    summary = json.loads(capfd.readouterr().out)
    assert summary["mean_block_us"] > 0
    # per-call latency percentiles, as perfbench's block_p95_us takes them
    assert 0 < summary["p50_block_us"] <= summary["p95_block_us"]
    assert "19 us" in summary["note"]
    # measured lookups per block times the measured block rate
    assert summary["lookups_per_second"] == pytest.approx(1024 * 1e6 / summary["mean_block_us"], rel=1e-4)


def test_bench_single_iteration_reports_its_latency(gen_dir, capfd):
    assert main(["bench", "--tables", str(gen_dir), "--iterations", "1"]) == 0
    summary = json.loads(capfd.readouterr().out)
    assert summary["p50_block_us"] == summary["p95_block_us"] > 0


@pytest.mark.parametrize("seed", [-5, -1, 2**64 + 5, 2**64])
def test_gen_seed_outside_u64_retry_range_is_usage_error(tmp_path, capfd, seed):
    # -5 used to build the tables of seed 5 and record 2**64 - 5; 2**64 + 5 used
    # to record 5 for other tables; the spec file stores the seed as a u64
    rc = main(["gen", "--key", FIPS_KEY, "--seed", str(seed), "--out", str(tmp_path / "t")])
    assert rc == 2
    assert "seed must be in 0.." in capfd.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("command", [
    ["encrypt", "--pt", FIPS_PT],
    ["trace", "--count", "3", "--out", "{out}"],
    ["analyze", "--kind", "baseline"],
])
def test_negative_seed_is_usage_error(gen_dir, tmp_path, capfd, command):
    # random.Random(-5) is random.Random(5): these used to run seed 5 and echo -5
    argv = [a.format(out=tmp_path / "t.btr") for a in command] + ["--seed", "-5"]
    if command[0] != "analyze":
        argv += ["--tables", str(gen_dir)]
    assert main(argv) == 2
    assert "--seed -5" in capfd.readouterr().err
    assert not (tmp_path / "t.btr").exists()


def test_gen_generator_fault_exits_1_and_writes_nothing(tmp_path, capfd, monkeypatch):
    failing = tablegen.VerifyReport(passed=False, checks={"functional_equality": False},
                                    failures=["functional mismatch on plaintext #7"])
    monkeypatch.setattr(tablegen, "verify_tableset", lambda ts, spec: failing)
    assert main(["gen", "--key", FIPS_KEY, "--seed", "0", "--out", str(tmp_path / "t")]) == 1
    captured = capfd.readouterr()
    assert captured.err.startswith("error: generated tables failed verification")
    assert "Traceback" not in captured.err and not captured.out
    assert not (tmp_path / "t").exists()


def test_gen_largest_seed_is_recorded_exactly(tmp_path, capfd):
    seed = 2**64 - 1
    assert main(["gen", "--key", FIPS_KEY, "--seed", str(seed), "--out", str(tmp_path)]) == 0
    spec = deserialize_spec((tmp_path / "enc.spec").read_bytes())
    assert spec.seed == seed and json.loads(capfd.readouterr().out)["seed"] == seed


def test_usage_error_unknown_kind(gen_dir, capfd):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--kind", "nope"])
    assert exc.value.code == 2


def _exit_code(argv) -> int:
    """main's return value, or the status argparse exits with on a rejected option."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, missing", [
    (["--kind", "dca", "--key", FIPS_KEY], "--traces"),
    (["--kind", "dca", "--traces", "{traces}"], "--key"),
    (["--kind", "walsh-ro", "--traces", "{traces}"], "--key"),
    (["--kind", "tvla", "--random", "{traces}"], "--fixed"),
    (["--kind", "walsh-ut", "--spec", "{tables}/enc.spec"], "--tables"),
], ids=["dca-traces", "dca-key", "walsh-ro-key", "tvla-fixed", "walsh-ut-static-tables"])
def test_missing_analysis_option_is_usage_error(gen_dir, trace_file, capfd, argv, missing):
    rc = main(["analyze", *(a.format(traces=trace_file, tables=gen_dir) for a in argv)])
    assert rc == 2
    assert f"needs {missing}" in capfd.readouterr().err


@pytest.mark.parametrize("pt_index", ["16", "-1"])
@pytest.mark.parametrize("kind", ["dca", "walsh-ut"])
def test_pt_index_outside_0_15_is_usage_error(trace_file, capfd, kind, pt_index):
    argv = ["analyze", "--kind", kind, "--traces", str(trace_file), "--key", FIPS_KEY, "--pt-index", pt_index]
    assert _exit_code(argv) == 2


@pytest.fixture(scope="module")
def empty_trace_file(tmp_path_factory, gen_dir):
    out = tmp_path_factory.mktemp("traces") / "empty.btr"
    assert main(["trace", "--tables", str(gen_dir), "--count", "0", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("argv", [
    ["--kind", "dca", "--traces", "{t}", "--pt-index", "0"],
    ["--kind", "cpa", "--traces", "{t}"],
    ["--kind", "mia", "--traces", "{t}", "--pt-index", "0"],
    ["--kind", "mia", "--traces", "{t}", "--model", "round-output"],
    ["--kind", "collision", "--traces", "{t}"],
    ["--kind", "cluster", "--traces", "{t}"],
    ["--kind", "walsh-ut", "--traces", "{t}", "--pt-index", "0"],
    ["--kind", "walsh-ro", "--traces", "{t}"],
    ["--kind", "tvla", "--fixed", "{t}", "--random", "{t}"],
], ids=["dca", "cpa", "mia-sbox", "mia-round-output", "collision", "cluster", "walsh-ut", "walsh-ro", "tvla"])
def test_empty_campaign_is_usage_error(empty_trace_file, capfd, argv):
    rc = main(["analyze", *(a.format(t=empty_trace_file) for a in argv), "--key", FIPS_KEY])
    assert rc == 2
    err = capfd.readouterr().err
    assert f"trace file {empty_trace_file} holds 0 traces" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("argv", [
    ["--kind", "mia", "--model", "sbox"],
    ["--kind", "walsh-ut", "--ell", "2"],
], ids=["mia-sbox", "walsh-ut-traces"])
def test_pt_index_all_is_usage_error_for_one_byte_attacks(trace_file, capfd, argv):
    for pt_index in ([], ["--pt-index", "all"]):  # all is the default
        rc = main(["analyze", *argv, "--traces", str(trace_file), "--key", FIPS_KEY, *pt_index])
        assert rc == 2
        assert f"analyze --kind {argv[1]} attacks one plaintext byte" in capfd.readouterr().err


@pytest.mark.parametrize("options", [["--iterations", "0"], ["--iterations", "-5"], ["--policy", "random:0.5"]])
def test_bench_rejects_bad_input(gen_dir, capfd, options):
    assert _exit_code(["bench", "--tables", str(gen_dir), *options]) == 2


def test_window_parsing(gen_dir, trace_file, capfd):
    rc = main(
        ["analyze", "--kind", "cpa", "--traces", str(trace_file), "--key", FIPS_KEY,
         "--pt-index", "1", "--window", "0:40"]
    )
    assert rc == 0
    rc = main(
        ["analyze", "--kind", "cpa", "--traces", str(trace_file), "--key", FIPS_KEY,
         "--pt-index", "1", "--window", "bogus"]
    )
    assert rc == 2


@pytest.mark.parametrize("window", ["1450:100", "5:0", "0:-3"])  # 0:-3 used to select samples 0..1452
def test_window_outside_trace_is_usage_error(trace_file, capfd, window):
    rc = main(
        ["analyze", "--kind", "dca", "--traces", str(trace_file), "--key", FIPS_KEY,
         "--pt-index", "1", "--window", window]
    )
    assert rc == 2
    err = capfd.readouterr().err
    assert f"window {window}" in err and "1456" in err


@pytest.mark.parametrize("argv", [
    ["--kind", "dca", "--traces", "{t}", "--pt-index", "1"],
    ["--kind", "mia", "--traces", "{t}", "--pt-index", "1"],
    ["--kind", "tvla", "--fixed", "{t}", "--random", "{t}"],
], ids=["dca", "mia", "tvla"])
def test_bad_window_is_usage_error_before_the_file_is_read(trace_file, tmp_path, capfd, argv):
    bad = tmp_path / "truncated.btr"
    bad.write_bytes(trace_file.read_bytes()[:-3])
    rc = main(["analyze", *(a.format(t=bad) for a in argv), "--key", FIPS_KEY, "--window", "1450:100"])
    assert rc == 2
    assert "window 1450:100 reaches outside" in capfd.readouterr().err


def test_damaged_sample_outside_the_window_is_format_error(trace_file, tmp_path, capfd):
    blob = bytearray(trace_file.read_bytes())
    blob[12 + 17 + 1000] ^= 1  # sample 1000 of the first record; the CRC is left as it was
    (tmp_path / "bad.btr").write_bytes(bytes(blob))
    rc = main(["analyze", "--kind", "cpa", "--traces", str(tmp_path / "bad.btr"), "--key", FIPS_KEY,
               "--pt-index", "0", "--window", "0:40"])
    assert rc == 3
    assert "checksum mismatch" in capfd.readouterr().err


# --- the file frame every format shares: FormatError, exit 3 --------------------

_HEADER_BYTES = {"table": 8, "spec": 8, "trace": 12}


def _frame_damaged(case: str, blob: bytes, header: int) -> bytes:
    b = bytearray(blob)
    if case == "short":  # too short to hold a header and a CRC
        return bytes(b[: header + 3])
    if case == "one-byte-short":
        return bytes(b[:-1])
    if case == "bad-magic":
        b[:4] = b"NOPE"
    elif case == "version":
        b[4] = 2
    elif case == "body-byte":
        b[header] ^= 1
    return bytes(b)


@pytest.mark.parametrize("kind", ["table", "spec", "trace"])
@pytest.mark.parametrize("case, message", [
    ("short", "bad magic for {kind} file"),
    ("bad-magic", "bad magic for {kind} file"),
    ("version", "unsupported {kind} format version 2"),
    ("one-byte-short", "{kind} file length {size} != {full}"),
    ("body-byte", "{kind} file checksum mismatch"),
])
def test_frame_error_messages(gen_dir, trace_file, tmp_path, kind, case, message):
    source = {"table": gen_dir / "q0.tbl", "spec": gen_dir / "enc.spec", "trace": trace_file}[kind]
    full = source.read_bytes()
    bad = _frame_damaged(case, full, _HEADER_BYTES[kind])
    (tmp_path / "bad").write_bytes(bad)
    load = {"table": lambda p: tablegen.deserialize_tableset(p.read_bytes()),
            "spec": lambda p: deserialize_spec(p.read_bytes()), "trace": load_traces}[kind]
    with pytest.raises(tablegen.FormatError) as exc:
        load(tmp_path / "bad")
    assert str(exc.value) == message.format(kind=kind, size=len(bad), full=len(full))


@pytest.mark.parametrize("kind", ["table", "spec", "trace"])
def test_frame_error_exits_3(gen_dir, trace_file, tmp_path, capfd, kind):
    tables = tmp_path / "tables"
    shutil.copytree(gen_dir, tables)
    target = {"table": tables / "q0.tbl", "spec": tables / "enc.spec", "trace": tmp_path / "t.btr"}[kind]
    source = trace_file if kind == "trace" else target
    target.write_bytes(_frame_damaged("body-byte", source.read_bytes(), _HEADER_BYTES[kind]))
    argv = (["analyze", "--kind", "tvla", "--fixed", str(target), "--random", str(target)] if kind == "trace"
            else ["verify", "--tables", str(tables), "--spec", str(tables / "enc.spec")])
    assert main(argv) == 3
    assert f"{kind} file checksum mismatch" in capfd.readouterr().err


def test_analyze_walsh_ut_trace_mode(gen_dir, trace_file, capfd):
    rc = main(
        ["analyze", "--kind", "walsh-ut", "--traces", str(trace_file), "--key", FIPS_KEY,
         "--pt-index", "0", "--ell", "1"]
    )
    assert rc == 0
    summary = json.loads(capfd.readouterr().out)
    assert summary["mode"] == "traces"
    assert summary["correct_all_zero"] is True


# --- malformed fields behind a valid checksum: FormatError, exit 3 ---------------

def _write_crc_fixed(path, blob: bytearray) -> None:
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("offset, value", [
    (6, 7),  # xor-boundary mode byte: only 0 (balanced) and 1 (identity) exist
    (32, 0x1F),  # first f row of the first linear pair
    (32 + 9 * 16 * 8, 0x10),  # first codec partner
    # partners build_spec never draws: a table-output partner 0, an XOR-stage
    # partner 0 in balanced mode, and the balanced file relabelled identity
    (32 + 9 * 16 * 8 + 5, 0),
    (32 + 9 * 16 * 8 + 9 * 16 * 4 * 2, 0),
    (6, 1),
], ids=["mode", "bitmat-row", "codec-partner", "zero-table-output-partner", "zero-stage-partner",
        "identity-mode-stage-partner"])
def test_malformed_spec_field_is_format_error(gen_dir, tmp_path, capfd, offset, value):
    blob = bytearray((gen_dir / "enc.spec").read_bytes())
    blob[offset] = value
    _write_crc_fixed(tmp_path / "enc.spec", blob)
    rc = main(["verify", "--tables", str(gen_dir), "--spec", str(tmp_path / "enc.spec")])
    assert rc == 3


@pytest.mark.parametrize("pair_index, row", [(0, 0), (37, 2), (143, 3)])
def test_spec_with_blacklisted_f_row_is_format_error(gen_dir, tmp_path, capfd, pair_index, row):
    # f row 0b0000 makes row `row` of the assembled matrix the single index
    # {row + 1}, which the blacklist forbids; build_spec never samples it
    blob = bytearray((gen_dir / "enc.spec").read_bytes())
    blob[32 + 8 * pair_index + row] = 0b0000
    _write_crc_fixed(tmp_path / "enc.spec", blob)
    rc = main(["verify", "--tables", str(gen_dir), "--spec", str(tmp_path / "enc.spec")])
    assert rc == 3
    assert "blacklisted matrix row" in capfd.readouterr().err


def test_spec_with_non_candidate_partner_is_format_error(gen_dir, tmp_path, capfd):
    # the first nonzero table-output partner outside its boundary's candidate
    # set; build_spec draws partners from those sets only
    blob = bytearray((gen_dir / "enc.spec").read_bytes())
    spec = deserialize_spec(bytes(blob))
    masks = find_candidates(spec.fg[0, 0, 0])[MC[0][0] - 1, 0]  # slot (1, 0, 0), input row 0, upper half
    blob[32 + 9 * 16 * 8] = int(np.flatnonzero(~masks)[0])
    _write_crc_fixed(tmp_path / "enc.spec", blob)
    rc = main(["verify", "--tables", str(gen_dir), "--spec", str(tmp_path / "enc.spec")])
    assert rc == 3
    assert "spec table-output codec partner r=1 j=0 k=0 i=0 upper is not a candidate" in capfd.readouterr().err


def test_table_set_id_outside_0_1_is_format_error(gen_dir, tmp_path, capfd):
    blob = bytearray((gen_dir / "q0.tbl").read_bytes())
    blob[6] = 2  # set id
    _write_crc_fixed(tmp_path / "q0.tbl", blob)
    shutil.copy(gen_dir / "q1.tbl", tmp_path / "q1.tbl")
    rc = main(["encrypt", "--tables", str(tmp_path), "--pt", FIPS_PT])
    assert rc == 3


@pytest.mark.parametrize("name, kind", [("q0.tbl", "table"), ("enc.spec", "spec")])
def test_reserved_header_byte_other_than_0_is_format_error(gen_dir, tmp_path, capfd, name, kind):
    for other in ("q0.tbl", "q1.tbl", "enc.spec"):
        shutil.copy(gen_dir / other, tmp_path / other)
    blob = bytearray((gen_dir / name).read_bytes())
    blob[7] = 1
    _write_crc_fixed(tmp_path / name, blob)
    rc = main(["verify", "--tables", str(tmp_path), "--spec", str(tmp_path / "enc.spec")])
    assert rc == 3
    assert f"{kind} file reserved byte is not 0" in capfd.readouterr().err


def test_trace_set_bit_outside_0_1_is_format_error(trace_file, tmp_path, capfd):
    blob = bytearray(trace_file.read_bytes())
    blob[12 + 16] = 2  # set bit of the first record, after its plaintext
    _write_crc_fixed(tmp_path / "bad.btr", blob)
    rc = main(["analyze", "--kind", "cpa", "--traces", str(tmp_path / "bad.btr"), "--key", FIPS_KEY,
               "--pt-index", "0", "--window", "0:40"])
    assert rc == 3


def test_swapped_table_pair_is_format_error(gen_dir, tmp_path, capfd):
    shutil.copy(gen_dir / "q0.tbl", tmp_path / "q1.tbl")
    shutil.copy(gen_dir / "q1.tbl", tmp_path / "q0.tbl")
    rc = main(["trace", "--tables", str(tmp_path), "--source", "random", "--count", "10",
               "--policy", "random:0.5", "--seed", "1", "--out", str(tmp_path / "t.btr")])
    assert rc == 3
    assert "q0.tbl" in capfd.readouterr().err
