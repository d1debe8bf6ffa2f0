import random
import struct
import zlib

import numpy as np
import pytest

from balaes import cipher, tablegen
from balaes.cipher import (
    ROUND_SAMPLES,
    SAMPLE_COUNT,
    UT_SAMPLES,
    XOR_SAMPLES,
    SelectorPolicy,
    collect_traces,
    encrypt,
    fixed_plaintexts,
    grid_plaintexts,
    random_plaintexts,
    select_set,
)
from balaes.gfcore import reference_encrypt
from balaes.tablegen import WALK_CHUNK, FormatError, encrypt_with_tables

from conftest import STD_KEY

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def test_policy_parsing_and_description():
    assert SelectorPolicy.parse("q0").variant == "fixed-q0"
    assert SelectorPolicy.parse("q1").variant == "fixed-q1"
    p = SelectorPolicy.parse("random:0.25")
    assert p.variant == "random" and p.alpha == 0.25
    d = SelectorPolicy.parse("pt-derived:16")
    assert d.variant == "pt-derived" and len(d.bits) == 16
    assert d.describe() == "pt-derived:16"
    with pytest.raises(ValueError):
        SelectorPolicy.parse("nonsense")
    with pytest.raises(ValueError):
        SelectorPolicy.random_bit(1.5)
    with pytest.raises(ValueError):
        SelectorPolicy(variant="pt-derived", bits=(0,) * 300)


def test_select_set_fixed_and_pt_derived():
    rng = random.Random(0)
    zero_pt = np.zeros((1, 16), dtype=np.uint8)
    assert select_set(SelectorPolicy.fixed_q0(), zero_pt, rng).tolist() == [0]
    assert select_set(SelectorPolicy.fixed_q1(), zero_pt, rng).tolist() == [1]
    zeros = SelectorPolicy(variant="pt-derived", bits=(0,) * 8)
    assert select_set(zeros, random_plaintexts(50, rng), rng).tolist() == [0] * 50
    # xor-sum indexing: pt with byte-xor 1 picks bits[1 % n]
    pol = SelectorPolicy(variant="pt-derived", bits=(0, 1, 0))
    pt = np.array([[1] + [0] * 15], dtype=np.uint8)
    assert select_set(pol, pt, None).tolist() == [pol.bits[1 % 3]]


def _select_set_per_row(policy, pts, rng):
    """The per-plaintext selection loop, kept as the reference for select_set."""
    bits = []
    for pt in pts:
        if policy.variant in ("fixed-q0", "fixed-q1"):
            bits.append(int(policy.variant == "fixed-q1"))
        elif policy.variant == "random":
            bits.append(0 if rng.random() < policy.alpha else 1)
        else:
            acc = 0
            for b in pt.tolist():
                acc ^= b
            bits.append(policy.bits[acc % len(policy.bits)])
    return bits


@pytest.mark.parametrize("text", [
    "q0", "q1", "random:0.5", "random:0.3", "random:0", "random:1",
    "pt-derived:1", "pt-derived:5", "pt-derived:16", "pt-derived:256",
])
@pytest.mark.parametrize("n", [0, 1, 300, 65536])
def test_select_set_matches_per_row_reference(text, n):
    policy = SelectorPolicy.parse(text)
    pts = random_plaintexts(n, random.Random(n))
    rng, ref_rng = random.Random(8), random.Random(8)
    bits = select_set(policy, pts, rng)
    assert bits.dtype == np.uint8 and bits.shape == (n,)
    assert bits.tolist() == _select_set_per_row(policy, pts, ref_rng)
    assert rng.getstate() == ref_rng.getstate()  # the same draws, so the same next ones


def test_random_policy_fraction_close_to_alpha():
    rng = random.Random(97)
    n = 100000
    pts = np.zeros((n, 16), dtype=np.uint8)
    ones = int(select_set(SelectorPolicy.random_bit(0.5), pts, rng).sum())
    assert 0.49 <= ones / n <= 0.51
    ones = int(select_set(SelectorPolicy.random_bit(0.9), pts, rng).sum())
    assert abs(ones / n - 0.1) < 0.01


def test_sample_index_layout_constants():
    assert UT_SAMPLES[0, 0, 0, 0] == 0
    assert XOR_SAMPLES[0, 0, 0, 0, 0] == 16
    assert XOR_SAMPLES[0, 0, 0, 2, 1] == 21
    assert UT_SAMPLES[1, 0, 0, 0] == 160
    assert XOR_SAMPLES[0, 0, 0, 2].tolist() == [20, 21]
    assert 9 * (16 * 4 + 16 * 3 * 2) + 16 == SAMPLE_COUNT == 1456
    assert UT_SAMPLES[0].size == 64
    assert ROUND_SAMPLES[1].ravel().tolist() == list(range(160, 320))


def test_layout_arrays_hold_each_sample_once():
    assert (ROUND_SAMPLES.shape, UT_SAMPLES.shape, XOR_SAMPLES.shape) == ((9, 4, 40), (9, 4, 4, 4), (9, 4, 4, 3, 2))
    held = np.concatenate([UT_SAMPLES.ravel(), XOR_SAMPLES.ravel(), np.arange(1440, 1456)])
    assert np.array_equal(np.sort(held), np.arange(SAMPLE_COUNT))


def test_unused_bits_are_the_set_bit_and_the_xor_nibble_high_bits():
    nibble = np.zeros(cipher._RECORD, dtype=bool)
    nibble[17 + XOR_SAMPLES.ravel()] = True
    # the XOR nibbles are samples 16..39 of every 40 in rounds 1..9
    assert np.array_equal(nibble[17:17 + 1440], np.arange(1440) % 40 >= 16)
    assert not nibble[:17].any() and not nibble[17 + 1440:].any()
    assert cipher._UNUSED_BITS[16] == 0xFE
    assert (cipher._UNUSED_BITS[nibble] == 0xF0).all()
    nibble[16] = True
    assert not cipher._UNUSED_BITS[~nibble].any()


@pytest.mark.parametrize("name", ["ROUND_SAMPLES", "UT_SAMPLES", "XOR_SAMPLES"])
def test_layout_arrays_are_read_only(name):
    layout = getattr(cipher, name)
    first = int(layout.flat[0])
    with pytest.raises(ValueError):
        layout[(0,) * layout.ndim] = first + 1
    assert layout.flat[0] == first


def test_encrypt_result_fields(std_pair):
    rng = random.Random(1)
    res = encrypt(FIPS_PT, std_pair, SelectorPolicy.fixed_q0(), rng)
    samples = encrypt_with_tables(std_pair.select(res.set_bit), FIPS_PT, record=True)[1]
    assert res.ciphertext == reference_encrypt(FIPS_PT, STD_KEY)
    assert res.set_bit == 0
    assert res.lookups == 1024
    assert len(samples) == SAMPLE_COUNT
    res1 = encrypt(FIPS_PT, std_pair, SelectorPolicy.fixed_q1(), rng)
    samples1 = encrypt_with_tables(std_pair.select(res1.set_bit), FIPS_PT, record=True)[1]
    assert res1.ciphertext == res.ciphertext
    assert samples1 != samples


def test_ciphertext_is_policy_invariant(std_pair):
    rng = random.Random(2)
    for _ in range(25):
        pt = rng.randbytes(16)
        cts = set()
        for policy in (
            SelectorPolicy.fixed_q0(),
            SelectorPolicy.fixed_q1(),
            SelectorPolicy.random_bit(0.5),
            SelectorPolicy.pt_derived(16),
        ):
            cts.add(encrypt(pt, std_pair, policy, rng).ciphertext)
        assert len(cts) == 1


def test_trace_determinism(std_pair):
    pt = bytes(range(16))
    a = encrypt_with_tables(std_pair.select(0), pt, record=True)[1]
    b = encrypt_with_tables(std_pair.select(0), pt, record=True)[1]
    assert a == b


def test_t10_samples_equal_ciphertext(std_pair):
    ct, samples, _ = encrypt_with_tables(std_pair.select(0), FIPS_PT, record=True)
    tail = samples[1440:]
    assert tail == ct


def test_q1_trace_is_complement_of_q0(std_pair):
    pt = bytes(range(16))
    t0 = encrypt_with_tables(std_pair.select(0), pt, record=True)[1]
    t1 = encrypt_with_tables(std_pair.select(1), pt, record=True)[1]
    # table-output byte samples complement over 8 bits, nibble samples over 4
    idx_byte = UT_SAMPLES[2, 1, 2, 3]
    assert t0[idx_byte] ^ t1[idx_byte] == 0xFF
    idx_nib = XOR_SAMPLES[4, 2, 1, 1, 0]
    assert t0[idx_nib] ^ t1[idx_nib] == 0xF
    # the final-round outputs are the ciphertext in both
    assert t0[1440:] == t1[1440:]


def test_grid_plaintexts_layout():
    pts = grid_plaintexts()
    assert pts.shape == (65536, 16)
    varying = {m for m in range(16) if len(np.unique(pts[:, m])) > 1}
    assert varying == {0, 5}
    fixed_cols = [m for m in range(16) if m not in (0, 5)]
    assert not pts[:, fixed_cols].any()
    assert len(np.unique(pts[:, 0].astype(np.int64) * 256 + pts[:, 5])) == 65536


def test_collect_traces_shapes_and_order(std_pair):
    rng = random.Random(3)
    pts = random_plaintexts(200, rng)
    ts = collect_traces(std_pair, SelectorPolicy.random_bit(0.5), pts, rng)
    assert len(ts) == 200
    assert ts.samples.shape == (200, SAMPLE_COUNT)
    assert np.array_equal(ts.plaintexts, pts)
    # per-trace recompute: the recorded samples match a direct run
    n = 57
    samples = encrypt_with_tables(std_pair.select(int(ts.set_bits[n])), bytes(pts[n]), record=True)[1]
    assert bytes(ts.samples[n]) == samples


def test_fixed_source_traces(std_pair):
    ts = collect_traces(std_pair, SelectorPolicy.fixed_q0(), fixed_plaintexts(FIPS_PT, 32))
    assert (ts.plaintexts == np.frombuffer(FIPS_PT, dtype=np.uint8)).all()
    assert len(np.unique(ts.samples, axis=0)) == 1


def test_trace_file_round_trip(tmp_path, std_pair):
    rng = random.Random(4)
    pts = random_plaintexts(64, rng)
    ts = collect_traces(std_pair, SelectorPolicy.random_bit(0.5), pts, rng)
    path = tmp_path / "run.btr"
    cipher.save_traces(ts, path)
    loaded = cipher.load_traces(path)
    assert np.array_equal(loaded.plaintexts, ts.plaintexts)
    assert np.array_equal(loaded.set_bits, ts.set_bits)
    assert np.array_equal(loaded.samples, ts.samples)


def test_trace_file_errors(tmp_path, std_pair):
    ts = collect_traces(std_pair, SelectorPolicy.fixed_q0(), fixed_plaintexts(bytes(16), 3))
    cipher.save_traces(ts, tmp_path / "t.btr")
    blob = bytearray((tmp_path / "t.btr").read_bytes())
    flipped = bytearray(blob)
    flipped[40] ^= 1
    for bad in (blob[:-3], flipped, b"NOPE" + flipped[4:]):
        (tmp_path / "bad.btr").write_bytes(bytes(bad))
        with pytest.raises(FormatError):
            cipher.load_traces(tmp_path / "bad.btr")


def _reference_trace_file(ts) -> bytes:
    """The trace file as one joined header, record body and CRC trailer, kept
    as the reference for the block-by-block writer."""
    header = b"BTR1" + struct.pack("<HIH", 1, len(ts), SAMPLE_COUNT)
    body = np.concatenate([ts.plaintexts, ts.set_bits[:, None], ts.samples], axis=1).tobytes()
    return header + body + struct.pack("<I", zlib.crc32(header + body))


@pytest.mark.parametrize("policy", ["q0", "q1", "random:0.5", "pt-derived:16"])
@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2500])
def test_streamed_campaign_file_matches_collected_traces(tmp_path, std_pair, policy, n):
    pol = SelectorPolicy.parse(policy)
    pts = random_plaintexts(n, random.Random(n))
    streamed, saved = tmp_path / "streamed.btr", tmp_path / "saved.btr"
    rng, ref_rng = random.Random(21), random.Random(21)
    cipher.write_campaign(std_pair, pol, pts, rng, streamed)
    ts = collect_traces(std_pair, pol, pts, ref_rng)
    assert rng.getstate() == ref_rng.getstate()  # the same draws, so the same next ones
    cipher.save_traces(ts, saved)
    assert streamed.read_bytes() == saved.read_bytes() == _reference_trace_file(ts)
    assert ts.set_bits.tolist() == select_set(pol, pts, random.Random(21)).tolist()
    for row in {0, n // 2, n - 1} if n else ():
        ref = encrypt_with_tables(std_pair.select(int(ts.set_bits[row])), bytes(pts[row]), record=True)[1]
        assert bytes(ts.samples[row]) == ref


@pytest.mark.parametrize("n", [0, 3, 1500])
def test_loaded_trace_arrays_are_owned_contiguous_and_writable(tmp_path, std_pair, n):
    rng = random.Random(5)
    ts = collect_traces(std_pair, SelectorPolicy.random_bit(0.5), random_plaintexts(n, rng), rng)
    path = tmp_path / "t.btr"
    cipher.save_traces(ts, path)
    for loaded in (ts, cipher.load_traces(path)):
        for name, shape in (("plaintexts", (n, 16)), ("set_bits", (n,)), ("samples", (n, SAMPLE_COUNT))):
            arr, ref = getattr(loaded, name), getattr(ts, name)
            assert arr.dtype == np.uint8 and arr.shape == shape
            assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata
            assert np.array_equal(arr, ref)


def _corrupt(kind: str, blob: bytes) -> bytes:
    """A damaged copy of a valid trace file of 1,100 records."""
    b = bytearray(blob)
    if kind == "truncated":
        return bytes(b[:-3])
    if kind == "extended":
        return bytes(b) + b"\0"
    if kind == "short":
        return bytes(b[:15])
    if kind == "bad-magic":
        return b"NOPE" + bytes(b[4:])
    if kind == "version":
        b[4] = 2
    elif kind == "sample-count":
        b[10] = 0
    elif kind in ("crc", "crc-and-set-bit"):
        b[12 + 1050 * (17 + SAMPLE_COUNT) + 40] ^= 1  # a sample in the second block
        if kind == "crc-and-set-bit":
            b[12 + 16] = 2
    elif kind == "set-bit":
        b[12 + 1099 * (17 + SAMPLE_COUNT) + 16] = 2  # the last record's set bit
        b[-4:] = struct.pack("<I", zlib.crc32(bytes(b[:-4])))
    elif kind == "nibble":
        b[12 + 1099 * (17 + SAMPLE_COUNT) + 41] = 0x3C  # the last record's sample 24, an XOR nibble
        b[-4:] = struct.pack("<I", zlib.crc32(bytes(b[:-4])))
    return bytes(b)


@pytest.mark.parametrize("kind, message", [
    ("truncated", "trace file length {size} != {full}"),
    ("extended", "trace file length {size} != {full}"),
    ("short", "bad magic for trace file"),
    ("bad-magic", "bad magic for trace file"),
    ("version", "unsupported trace format version 2"),
    ("sample-count", "unexpected sample count 1280"),
    ("crc", "trace file checksum mismatch"),
    ("crc-and-set-bit", "trace file checksum mismatch"),
    ("set-bit", "trace set bit is not 0 or 1"),
    ("nibble", "trace XOR nibble sample above 0xF"),
])
def test_trace_file_error_messages(tmp_path, std_pair, kind, message):
    rng = random.Random(6)
    ts = collect_traces(std_pair, SelectorPolicy.random_bit(0.5), random_plaintexts(1100, rng), rng)
    cipher.save_traces(ts, tmp_path / "t.btr")
    full = (tmp_path / "t.btr").read_bytes()
    bad = _corrupt(kind, full)
    (tmp_path / "bad.btr").write_bytes(bad)
    message = message.format(size=len(bad), full=len(full))
    with pytest.raises(FormatError) as loaded:
        cipher.load_traces(tmp_path / "bad.btr")
    with pytest.raises(FormatError) as windowed:  # the damage lies outside the two loaded samples
        cipher.load_traces(tmp_path / "bad.btr", [20, 21])
    assert str(loaded.value) == str(windowed.value) == message


@pytest.mark.parametrize("window, ids", [
    (None, np.arange(SAMPLE_COUNT)),
    (slice(100, 103), [100, 101, 102]),
    ([1455, 20, 3], [1455, 20, 3]),
    ((20, 21), [20, 21]),  # a 2-tuple is two samples, not (offset, length)
    (np.array([7]), [7]),
])
def test_resolve_window_gives_the_absolute_samples(window, ids):
    resolved = cipher.resolve_window(window)
    assert resolved.dtype == np.int64
    assert resolved.tolist() == list(ids)


@pytest.mark.parametrize("window, message", [
    (slice(5, 5), "selects none"),
    ([], "selects none"),
    (slice(1450, 1550), "reaches outside"),
    (slice(-1, 3), "reaches outside"),
    (slice(0, -3), "reaches outside"),
    ((1455, 1456), "reaches outside"),
    ([-1], "reaches outside"),
])
def test_resolve_window_refuses_empty_or_outside_windows(window, message):
    with pytest.raises(ValueError, match=message):
        cipher.resolve_window(window)


def test_round_output_sample_pair_loads_exactly_those_two_samples(tmp_path, std_pair):
    rng = random.Random(8)
    ts = collect_traces(std_pair, SelectorPolicy.random_bit(0.5), random_plaintexts(50, rng), rng)
    cipher.save_traces(ts, tmp_path / "t.btr")
    pair = XOR_SAMPLES[0, 0, 0, 2]
    assert pair.tolist() == [20, 21]
    loaded = cipher.load_traces(tmp_path / "t.btr", pair)
    assert loaded.sample_ids.tolist() == [20, 21]
    assert np.array_equal(loaded.samples, ts.samples[:, [20, 21]])
    assert loaded.samples_at(pair) is loaded.samples


# --- writing over an existing file --------------------------------------------

@pytest.mark.parametrize("old_size", [100, 4 * WALK_CHUNK * cipher._RECORD], ids=["shorter", "longer"])
def test_campaign_written_over_an_existing_file_matches_a_fresh_write(tmp_path, std_pair, old_size):
    pol, pts = SelectorPolicy.random_bit(0.5), random_plaintexts(2500, random.Random(9))
    fresh, over = tmp_path / "fresh.btr", tmp_path / "over.btr"
    over.write_bytes(b"\xa5" * old_size)
    cipher.write_campaign(std_pair, pol, pts, random.Random(3), fresh)
    cipher.write_campaign(std_pair, pol, pts, random.Random(3), over)
    assert over.read_bytes() == fresh.read_bytes()
    ts = cipher.load_traces(fresh)
    cipher.save_traces(ts, over)
    assert over.read_bytes() == fresh.read_bytes()


def test_walk_error_over_a_longer_file_leaves_the_blocks_written_and_no_magic(tmp_path, std_pair):
    pts = random_plaintexts(5 * WALK_CHUNK, random.Random(4))
    policy = SelectorPolicy.fixed_q0()
    path, good = tmp_path / "t.btr", tmp_path / "good.btr"
    cipher.write_campaign(std_pair, SelectorPolicy.fixed_q1(), random_plaintexts(6 * WALK_CHUNK, random.Random(5)),
                          None, path)
    cipher.write_campaign(std_pair, policy, pts, None, good)
    walk = cipher.encrypt_batch_with_tables

    def failing_walk(ts, block, record=False):
        if np.array_equal(block[0], pts[2 * WALK_CHUNK]):
            raise RuntimeError("walk failed on the third block")
        return walk(ts, block, record)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cipher, "encrypt_batch_with_tables", failing_walk)
        with pytest.raises(RuntimeError, match="third block"):
            cipher.write_campaign(std_pair, policy, pts, None, path)
    written = cipher._TRACE_FRAME.header_size + 2 * WALK_CHUNK * cipher._RECORD
    data = path.read_bytes()
    assert len(data) == written  # nothing of the longer old file is left past the blocks written
    assert data[:4] == bytes(4) and data[4:] == good.read_bytes()[4:written]
    with pytest.raises(FormatError, match="bad magic"):
        cipher.load_traces(path)


# a campaign whose table walk fails part way raises, and leaves nothing behind
# that spoils the campaigns after it, however many fail in a row
@pytest.mark.parametrize("failures", [1, 2, 4])
def test_walk_error_on_third_block_propagates_and_next_campaign_succeeds(tmp_path, std_pair, failures):
    pts = random_plaintexts(5 * WALK_CHUNK, random.Random(4))
    policy = SelectorPolicy.fixed_q0()
    walk = cipher.encrypt_batch_with_tables

    def failing_walk(ts, block, record=False):
        if np.array_equal(block[0], pts[2 * WALK_CHUNK]):
            raise RuntimeError("walk failed on the third block")
        return walk(ts, block, record)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cipher, "encrypt_batch_with_tables", failing_walk)
        for i in range(failures):
            with pytest.raises(RuntimeError, match="third block"):
                collect_traces(std_pair, policy, pts)
            with pytest.raises(RuntimeError, match="third block"):
                cipher.write_campaign(std_pair, policy, pts, None, tmp_path / f"failed{i}.btr")
    ts = collect_traces(std_pair, policy, pts)
    cipher.write_campaign(std_pair, policy, pts, None, tmp_path / "next.btr")
    assert np.array_equal(ts.samples, walk(std_pair.q0, pts, record=True)[1])
    assert cipher.load_traces(tmp_path / "next.btr").samples.tobytes() == ts.samples.tobytes()


def test_killed_write_over_a_campaign_of_the_same_count_fails_to_load(tmp_path, std_pair, monkeypatch):
    pts = random_plaintexts(3 * WALK_CHUNK, random.Random(4))
    path = tmp_path / "t.btr"
    cipher.write_campaign(std_pair, SelectorPolicy.fixed_q1(), pts, None, path)

    def failing_walk(ts, block, record=False):
        raise RuntimeError("killed during the first block")

    monkeypatch.setattr(cipher, "encrypt_batch_with_tables", failing_walk)
    monkeypatch.setattr(tablegen.os, "ftruncate", lambda fd, length: None)  # a kill skips the cut
    with pytest.raises(RuntimeError, match="first block"):
        cipher.write_campaign(std_pair, SelectorPolicy.fixed_q0(), pts, None, path)
    assert path.stat().st_size == cipher._TRACE_FRAME.header_size + len(pts) * cipher._RECORD + 4  # the old campaign's length
    with pytest.raises(FormatError, match="bad magic"):
        cipher.load_traces(path)
