import random
import tracemalloc

import numpy as np
import pytest

import struct
import zlib

from balaes import cipher, tablegen
from balaes.binmat import COEFF
from balaes.gfcore import MC, SBOX, RoundKeys, gf_mul, reference_encrypt
from balaes.nibenc import find_candidates
from balaes.tablegen import (
    FormatError,
    build_q1,
    build_table_pair,
    deserialize_spec,
    deserialize_tableset,
    encrypt_batch_with_tables,
    encrypt_with_tables,
    generate_tableset,
    round_output_walsh_static,
    serialize_spec,
    serialize_tableset,
    size_and_lookup_report,
    verify_tableset,
    walsh_ut_grid_static,
    xor_tables,
)

from conftest import (
    STD_KEY,
    STD_SEED,
    CodecPair,
    NibbleCodec,
    bit_rows,
    codec_map,
    decode_map,
    non_candidate_stage2_spec,
    reference_encode_map,
    s_matrix_rows,
    spec_codec,
)


def identity_spec(key: bytes) -> tablegen.EncodingSpec:
    """All-identity encodings (every f, g and codec partner 0); the network
    then computes bare fused AES steps."""
    return tablegen.EncodingSpec(
        seed=0, key=bytes(key),
        fg=np.zeros((9, 4, 4, 2, 4), dtype=np.uint8),
        ut_partners=np.zeros((9, 4, 4, 4, 2), dtype=np.uint8),
        stage_partners=np.zeros((9, 4, 4, 3, 2), dtype=np.uint8),
        xor_boundary_mode="identity",
    )


# --- per-entry references ------------------------------------------------------
# Table generation and the table file as one entry at a time; generate_tableset
# and the (de)serializer must agree with them exactly.

def gen_tbox(r: int, i: int, j: int, keys: RoundKeys) -> bytes:
    """Plain fused key-addition/SubBytes table; round 10 folds in the last key."""
    if not 1 <= r <= 10:
        raise ValueError("round must be in [1, 10]")
    tbox = COEFF[0, keys.khat[r - 1][i][j]]
    return (tbox if r <= 9 else tbox ^ keys.k[10][i][j]).tobytes()


def _input_decode_map(spec, r: int, i: int, j: int) -> bytes:
    """Byte map undoing the producing boundary's codec and linear encoding."""
    if r == 1:
        return bytes(range(256))
    pr, pj, pk = r - 1, (j + i) % 4, i
    cmap = codec_map(spec_codec(spec.stage_partners[pr - 1, pj, pk, 2]))
    return cmap.translate(decode_map(spec.fg[pr - 1, pj, pk]))


def gen_ut(r: int, i: int, j: int, spec) -> np.ndarray:
    """256x4 table mapping one (decoded) state byte to its four encoded partial products."""
    kb = spec.round_keys.khat[r - 1][i][j]
    dec = np.frombuffer(_input_decode_map(spec, r, i, j), dtype=np.uint8)
    out = np.empty((256, 4), dtype=np.uint8)
    for k in range(4):
        emap = reference_encode_map(spec.fg[r - 1, j, k])
        cod = codec_map(spec_codec(spec.ut_partners[r - 1, j, k, i]))
        col = COEFF[MC[k][i] - 1, kb][dec].tobytes().translate(emap).translate(cod)
        out[:, k] = np.frombuffer(col, dtype=np.uint8)
    return out


def gen_xor_table(left_codec, right_codec, out_codec) -> np.ndarray:
    """4-bit XOR table: decode the two input nibbles, XOR, encode the output."""
    out = np.empty(256, dtype=np.uint8)
    for a in range(16):
        da = left_codec.decode(a)
        for b in range(16):
            out[(a << 4) | b] = out_codec.encode(da ^ right_codec.decode(b))
    return out


def pack_nibble_table(arr: np.ndarray) -> bytes:
    """Two entries per byte: entry t lands in byte t >> 1, low nibble for even t."""
    packed = bytearray(128)
    for t in range(256):
        v = int(arr[t]) & 0xF
        if t & 1:
            packed[t >> 1] |= v << 4
        else:
            packed[t >> 1] |= v
    return bytes(packed)


def unpack_nibble_table(data: bytes) -> np.ndarray:
    if len(data) != 128:
        raise FormatError("packed nibble table must be 128 bytes")
    arr = np.empty(256, dtype=np.uint8)
    for t in range(256):
        b = data[t >> 1]
        arr[t] = (b >> 4) if (t & 1) else (b & 0xF)
    return arr


def reference_generate_tableset(spec) -> tablegen.TableSet:
    ut = np.empty((9, 4, 4, 256, 4), dtype=np.uint8)
    for r in range(1, 10):
        for i in range(4):
            for j in range(4):
                ut[r - 1, i, j] = gen_ut(r, i, j, spec)
    tx = np.empty((9, 4, 4, 3, 2, 256), dtype=np.uint8)
    for r in range(1, 10):
        for j in range(4):
            for k in range(4):
                feeders = [spec_codec(spec.ut_partners[r - 1, j, k, i]) for i in range(4)]
                left = feeders[0]
                for s in range(3):
                    out_cp = spec_codec(spec.stage_partners[r - 1, j, k, s])
                    right = feeders[s + 1]
                    tx[r - 1, j, k, s, 0] = gen_xor_table(left.upper, right.upper, out_cp.upper)
                    tx[r - 1, j, k, s, 1] = gen_xor_table(left.lower, right.lower, out_cp.lower)
                    left = out_cp
    t10 = np.empty((4, 4, 256), dtype=np.uint8)
    for i in range(4):
        for j in range(4):
            tbox = gen_tbox(10, i, j, spec.round_keys)
            t10[i, j] = np.frombuffer(_input_decode_map(spec, 10, i, j).translate(tbox), dtype=np.uint8)
    return tablegen.TableSet(set_id=0, ut=ut, tx=tx, t10=t10)


def reference_serialize_tableset(ts) -> bytes:
    out = bytearray()
    out += b"BAE1"
    out += struct.pack("<HBB", tablegen.FORMAT_VERSION, ts.set_id, 0)
    for r in range(9):
        for i in range(4):
            for j in range(4):
                out += ts.ut[r, i, j].tobytes()
    for r in range(9):
        for j in range(4):
            for k in range(4):
                for s in range(3):
                    for h in range(2):
                        out += pack_nibble_table(ts.tx[r, j, k, s, h])
    for i in range(4):
        for j in range(4):
            out += ts.t10[i, j].tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def test_gen_tbox_zero_key_is_sbox():
    keys = RoundKeys.from_key(bytes(16))
    t1 = gen_tbox(1, 0, 0, keys)
    assert list(t1) == [SBOX[p] for p in range(256)]
    # with an all-zero key the final key addition is also zero in round 10? no:
    # round-10 key of the zero key is nonzero, so build the plain form directly
    t10 = gen_tbox(10, 2, 1, keys)
    kb = keys.khat[9][2][1]
    out = keys.k[10][2][1]
    assert list(t10) == [SBOX[p ^ kb] ^ out for p in range(256)]
    # under identity encodings the final-round tables are these plain tables
    plain = generate_tableset(identity_spec(bytes(16)))
    assert plain.t10[2, 1].tobytes() == t10


def test_gen_tbox_known_key_round1():
    keys = RoundKeys.from_key(STD_KEY)
    plain = generate_tableset(identity_spec(STD_KEY))
    for i in range(4):
        for j in range(4):
            t = gen_tbox(1, i, j, keys)
            kb = keys.khat[0][i][j]
            assert list(t) == [SBOX[p ^ kb] for p in range(256)]
            # an output byte whose MixColumns coefficient for row i is 1 holds the plain table
            k = next(k for k in range(4) if MC[k][i] == 1)
            assert plain.ut[0, i, j, :, k].tobytes() == t
            assert plain.t10[i, j].tobytes() == gen_tbox(10, i, j, keys)
    with pytest.raises(ValueError):
        gen_tbox(11, 0, 0, keys)


def test_generate_tableset_matches_per_entry_reference(std_spec):
    identity_boundary = build_table_pair(STD_KEY, STD_SEED, xor_boundary_mode="identity")[1]
    for spec in (std_spec, identity_boundary, identity_spec(STD_KEY)):
        ts = generate_tableset(spec)
        ref = reference_generate_tableset(spec)
        for name in ("ut", "tx", "t10"):
            got = getattr(ts, name)
            assert got.dtype == np.uint8 and np.array_equal(got, getattr(ref, name)), name


def test_gen_ut_identity_spec_gives_plain_partial_products():
    ut = generate_tableset(identity_spec(bytes(16))).ut
    for i in range(4):
        table = ut[0, i, 0]
        for p in range(256):
            x = SBOX[p]
            expected = [gf_mul(MC[k][i], x) for k in range(4)]
            assert list(table[p]) == expected
    # row 1 carries [2S, S, S, 3S]
    t0 = ut[0, 0, 0]
    assert list(t0[0x00]) == [gf_mul(2, 0x63), 0x63, 0x63, gf_mul(3, 0x63)]


def test_gen_ut_outputs_decode_to_partial_products(std_spec, std_pair):
    spec = std_spec
    r, j = 1, 2
    for i in range(4):
        table = std_pair.q0.ut[r - 1, i, j]
        kb = spec.round_keys.khat[r - 1][i][j]
        for p in (0, 1, 0x42, 0xFF, 0x9C):
            x = SBOX[p ^ kb]
            for k in range(4):
                w = int(table[p][k])
                cod = codec_map(spec_codec(spec.ut_partners[r - 1, j, k, i]))
                y = decode_map(spec.fg[r - 1, j, k])[cod[w]]
                assert y == gf_mul(MC[k][i], x)


def test_gen_ut_encoded_bits_are_balanced(std_pair):
    table = std_pair.q0.ut[0, 1, 1]
    for k in range(4):
        col = table[:, k]
        for bit in range(8):
            assert int(((col >> (7 - bit)) & 1).sum()) == 128


def test_gen_xor_table_identity_and_collision():
    ident, same, out = NibbleCodec(0), NibbleCodec(9), NibbleCodec(4)
    # the per-entry reference and the array kernel, on the same codecs
    for t, t2 in ((gen_xor_table(ident, ident, ident), gen_xor_table(same, same, out)),
                  (xor_tables(0, 0, 0), xor_tables(9, 9, 4))):
        for a in range(16):
            for b in range(16):
                assert t[(a << 4) | b] == a ^ b
        for a in range(16):
            assert t2[(a << 4) | a] == out.e


def test_gen_xor_table_brute_force_decode():
    left, right, out = NibbleCodec(3), NibbleCodec(12), NibbleCodec(7)
    for t in (xor_tables(3, 12, 7), gen_xor_table(left, right, out)):
        for a in range(16):
            for b in range(16):
                assert out.decode(int(t[(a << 4) | b])) == left.decode(a) ^ right.decode(b)


def test_xor_tables_match_per_entry_reference_on_every_partner_triple():
    e = np.arange(16, dtype=np.uint8)
    left, right, out = (a.ravel() for a in np.meshgrid(e, e, e, indexing="ij"))
    tables = xor_tables(left, right, out)
    assert tables.shape == (4096, 256)
    for n in range(0, 4096, 7):
        ref = gen_xor_table(NibbleCodec(int(left[n])), NibbleCodec(int(right[n])), NibbleCodec(int(out[n])))
        assert np.array_equal(tables[n], ref)


def test_pack_unpack_nibble_table(std_pair):
    rng = random.Random(60)
    arr = np.array([rng.randrange(16) for _ in range(256)], dtype=np.uint8)
    packed = pack_nibble_table(arr)
    assert len(packed) == 128
    # entry t lives in byte t>>1: low nibble for even t
    assert packed[0] & 0xF == arr[0]
    assert packed[0] >> 4 == arr[1]
    assert np.array_equal(unpack_nibble_table(packed), arr)
    with pytest.raises(FormatError):
        unpack_nibble_table(packed[:100])
    # the table file packs every XOR table the same way, and reads it back
    tx = std_pair.q0.tx.copy()
    tx[0, 0, 0, 0, 0] = arr
    ts = tablegen.TableSet(set_id=0, ut=std_pair.q0.ut, tx=tx, t10=std_pair.q0.t10)
    blob = serialize_tableset(ts)
    assert blob[8 + tablegen.UT_BYTES : 8 + tablegen.UT_BYTES + 128] == packed
    assert np.array_equal(deserialize_tableset(blob).tx[0, 0, 0, 0, 0], arr)
    with pytest.raises(FormatError):
        deserialize_tableset(blob[:-28])


def test_build_is_deterministic():
    key = bytes(range(16))
    pair_a, spec_a = build_table_pair(key, 123)
    pair_b, spec_b = build_table_pair(key, 123)
    assert serialize_tableset(pair_a.q0) == serialize_tableset(pair_b.q0)
    assert serialize_tableset(pair_a.q1) == serialize_tableset(pair_b.q1)
    assert serialize_spec(spec_a) == serialize_spec(spec_b)


def test_failed_verification_raises_without_reseeding(monkeypatch):
    # the construction balances every checked sum, so a failed check is a
    # generator fault: it is raised, and no spec of another seed is drawn
    seeds, real_build_spec = [], tablegen.build_spec

    def build_spec(key, seed, mode):
        seeds.append(seed)
        return real_build_spec(key, seed, mode)

    monkeypatch.setattr(tablegen, "build_spec", build_spec)
    failing = tablegen.VerifyReport(passed=False, checks={"functional_equality": False},
                                    failures=["functional mismatch on plaintext #7"])
    monkeypatch.setattr(tablegen, "verify_tableset", lambda ts, spec: failing)
    with pytest.raises(tablegen.GenerationError, match="functional mismatch on plaintext #7"):
        build_table_pair(STD_KEY, STD_SEED)
    assert seeds == [STD_SEED]
    # a seed the spec file cannot hold is refused before any work
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must be in 0.."):
            build_table_pair(STD_KEY, seed)
    assert seeds == [STD_SEED]


def test_functional_equality_random_plaintexts(std_pair):
    rng = random.Random(61)
    pts = np.frombuffer(rng.randbytes(1000 * 16), dtype=np.uint8).reshape(1000, 16)
    cts, _, _ = encrypt_batch_with_tables(std_pair.q0, pts)
    for n in range(0, 1000, 37):
        assert bytes(cts[n]) == reference_encrypt(bytes(pts[n]), STD_KEY)
    cts1, _, _ = encrypt_batch_with_tables(std_pair.q1, pts)
    assert np.array_equal(cts, cts1)


def test_scalar_lookup_count_and_ciphertext(std_pair):
    ct, samples, lookups = encrypt_with_tables(std_pair.q0, bytes(16), record=True)
    assert lookups == 1024
    assert len(samples) == 1456
    assert ct == reference_encrypt(bytes(16), STD_KEY)


def test_q1_complement_structure(std_pair):
    q0, q1 = std_pair.q0, std_pair.q1
    # round 1: outputs complemented at the same index
    assert np.array_equal(q1.ut[0], q0.ut[0] ^ 0xFF)
    # inner rounds: complemented index and value
    assert np.array_equal(q1.ut[3, 2, 1, 0x12], q0.ut[3, 2, 1, 0xED] ^ 0xFF)
    # XOR tables: complement within the 4-bit lane
    assert np.array_equal(q1.tx[4, 1, 2, 1, 0], (q0.tx[4, 1, 2, 1, 0] ^ 0xF)[::-1])
    # final round: complemented index, plain value
    assert np.array_equal(q1.t10[2, 3], q0.t10[2, 3, ::-1])


def test_q1_round1_walsh_grid_also_zero(std_pair, std_spec):
    grid = walsh_ut_grid_static(std_pair.q1, std_spec)
    assert not grid.any()


def _reference_walsh_ut_grid(ts, spec) -> np.ndarray:
    """walsh_ut_grid_static by popcounts of 256-bit integer bit rows."""
    grid = np.zeros((4, 4, 4, 8, 3, 8), dtype=np.int32)
    for i in range(4):
        for j in range(4):
            smats = {lp: s_matrix_rows(lp, spec.round_keys.khat[0][i][j]) for lp in (1, 2, 3)}
            for k in range(4):
                rows = bit_rows(ts.ut[0, i, j, :, k])
                for bit in range(8):
                    for lp in (1, 2, 3):
                        for ip in range(8):
                            grid[i, j, k, bit, lp - 1, ip] = 256 - 2 * (rows[bit] ^ smats[lp][ip]).bit_count()
    return grid


def test_walsh_ut_grid_static_matches_popcount_reference(std_pair, std_spec):
    # the identity encoding leaves round-1 outputs unbalanced: many nonzero sums
    spec = identity_spec(STD_KEY)
    plain = tablegen.generate_tableset(spec)
    for ts, sp in ((std_pair.q0, std_spec), (std_pair.q1, std_spec), (plain, spec)):
        grid = walsh_ut_grid_static(ts, sp)
        assert grid.dtype == np.int32 and grid.shape == (4, 4, 4, 8, 3, 8)
        assert np.array_equal(grid, _reference_walsh_ut_grid(ts, sp))
    assert np.abs(walsh_ut_grid_static(plain, spec)).max() == 256


def test_verify_passes_fresh_build(std_pair, std_spec):
    report = verify_tableset(std_pair.q0, std_spec)
    assert report.passed, report.failures


def test_verify_detects_flipped_bit(std_pair, std_spec):
    ut = std_pair.q0.ut.copy()
    ut[0, 0, 0, 17, 2] ^= 0x10
    ts = tablegen.TableSet(set_id=0, ut=ut, tx=std_pair.q0.tx, t10=std_pair.q0.t10)
    report = verify_tableset(ts, std_spec)
    assert not report.passed
    assert not report.checks["ut_walsh_zero"]


def test_verify_detects_non_candidate_codec(std_spec, std_pair):
    # re-encode one round-1 output lane with a swap partner outside the
    # candidate set; the static grid must notice
    spec = std_spec
    r, j, k, i = 1, 0, 0, 0
    cands = find_candidates(spec.fg[r - 1, j, k])[MC[k][i] - 1, 0]  # upper half
    bad = sorted(set(range(1, 16)) - set(np.flatnonzero(cands).tolist()))
    if not bad:
        pytest.skip("pair admits every swap partner on this lane")
    old_cp = spec_codec(spec.ut_partners[r - 1, j, k, i])
    ut = std_pair.q0.ut.copy()
    col = ut[0, i, j, :, k]
    # undo the good upper codec, apply the bad one
    redo = {}
    for v in range(256):
        hi = old_cp.upper.decode(v >> 4)
        hi = NibbleCodec(bad[0]).encode(hi)
        redo[v] = (hi << 4) | (v & 0xF)
    ut[0, i, j, :, k] = np.array([redo[int(v)] for v in col], dtype=np.uint8)
    ts = tablegen.TableSet(set_id=0, ut=ut, tx=std_pair.q0.tx, t10=std_pair.q0.t10)
    report = verify_tableset(ts, std_spec)
    assert not report.checks["ut_walsh_zero"]


def test_verify_detects_bad_round_output_codec(std_spec):
    # rebuild with a corrupted final-stage codec on the first round-1 output
    # byte whose pair admits one, and check the round-output check turns nonzero
    spec = next(filter(None, (non_candidate_stage2_spec(std_spec, j, k) for j, k in np.ndindex(4, 4))), None)
    assert spec is not None, "no round-1 output byte admits an inadmissible swap partner"
    ts = tablegen.generate_tableset(spec)
    report = verify_tableset(ts, spec)
    assert not report.checks["round_output_walsh_zero"]
    assert report.checks["functional_equality"]  # codecs cancel functionally


def test_verify_checks_every_round_output_byte(std_spec):
    # a non-candidate round-output partner is caught in whichever of the 16
    # round-1 output bytes it sits, and named by that byte
    specs = {(j, k): spec for j, k in np.ndindex(4, 4) if (spec := non_candidate_stage2_spec(std_spec, j, k))}
    assert any(slot != (0, 0) for slot in specs)
    for (j, k), spec in specs.items():
        ts = tablegen.generate_tableset(spec)
        report = verify_tableset(ts, spec)
        assert not report.checks["round_output_walsh_zero"]
        assert report.checks["functional_equality"] and report.checks["ut_walsh_zero"]
        assert report.failures and all(
            f.startswith(f"round-output walsh nonzero at (j,k,i,iprime)=({j}, {k}, ") for f in report.failures)
        grid = round_output_walsh_static(ts, spec)
        assert grid.shape == (4, 4, 8, 8)
        assert np.argwhere(grid.any(axis=(2, 3))).tolist() == [[j, k]]


def test_size_and_lookup_report(std_pair):
    rep = size_and_lookup_report(std_pair.q0)
    assert rep["ut_bytes"] == 147456
    assert rep["tx_bytes"] == 110592
    assert rep["t10_bytes"] == 4096
    assert rep["total_bytes"] == 262144
    assert rep["ut_lookups"] == 144
    assert rep["tx_lookups"] == 864
    assert rep["t10_lookups"] == 16
    assert rep["total_lookups"] == 1024


def test_tableset_serialization_round_trip(std_pair):
    blob = serialize_tableset(std_pair.q0)
    assert len(blob) == 8 + 262144 + 4
    ts = deserialize_tableset(blob)
    assert ts == std_pair.q0


def test_serialize_tableset_matches_per_entry_serializer(std_pair):
    for ts in (std_pair.q0, std_pair.q1):
        blob = serialize_tableset(ts)
        assert blob == reference_serialize_tableset(ts)
        back = deserialize_tableset(blob)
        for name in ("ut", "tx", "t10"):
            got = getattr(back, name)
            # unpacked entry by entry, and owned: sharing no memory with the file bytes,
            # and read-only, as every TableSet's tables are
            if name == "tx":
                offsets = range(8 + tablegen.UT_BYTES, 8 + tablegen.UT_BYTES + tablegen.TX_BYTES, 128)
                ref = np.array([unpack_nibble_table(blob[o : o + 128]) for o in offsets]).reshape(got.shape)
                assert np.array_equal(got, ref)
            assert got.flags.owndata and not got.flags.writeable
            assert np.array_equal(got, getattr(ts, name))


def test_verify_reports_corrupted_final_round_entry(std_pair, std_spec):
    # verify_tableset draws its 256 plaintexts from random.Random(0xBA1A)
    pts = np.frombuffer(random.Random(0xBA1A).randbytes(256 * 16), dtype=np.uint8).reshape(256, 16)
    n, i, j = 5, 1, 2
    # final-round table (i, j) reads round 9's output byte i of column (j + i) % 4
    _, samples, _ = encrypt_batch_with_tables(std_pair.q0, pts[n : n + 1], record=True)
    u, l = cipher.XOR_SAMPLES[8, (j + i) % 4, i, 2]
    x = (int(samples[0, u]) << 4) | int(samples[0, l])
    t10 = std_pair.q0.t10.copy()
    t10[i, j, x] ^= 0x01
    ts = tablegen.TableSet(set_id=0, ut=std_pair.q0.ut, tx=std_pair.q0.tx, t10=t10)
    report = verify_tableset(ts, std_spec)
    assert report.checks["functional_equality"] is False and not report.passed
    assert f"functional mismatch on plaintext #{n}" in report.failures
    # the static checks read round 1 only and still pass
    assert report.checks["ut_walsh_zero"] and report.checks["round_output_walsh_zero"]
    cts, _, _ = encrypt_batch_with_tables(ts, pts)
    wrong = [m for m in range(256) if bytes(cts[m]) != reference_encrypt(bytes(pts[m]), STD_KEY)]
    assert report.failures == [f"functional mismatch on plaintext #{m}" for m in wrong[:17]]


def test_tableset_serialization_errors(std_pair):
    blob = bytearray(serialize_tableset(std_pair.q0))
    with pytest.raises(FormatError):
        deserialize_tableset(bytes(blob[:-10]))  # truncation
    blob[100] ^= 1
    with pytest.raises(FormatError):
        deserialize_tableset(bytes(blob))  # checksum
    bad_magic = b"XXXX" + bytes(blob[4:])
    with pytest.raises(FormatError):
        deserialize_tableset(bad_magic)


def test_spec_serialization_round_trip(std_spec):
    blob = serialize_spec(std_spec)
    spec2 = deserialize_spec(blob)
    assert spec2.key == std_spec.key
    assert spec2.seed == std_spec.seed
    for name, shape in (("fg", (9, 4, 4, 2, 4)), ("ut_partners", (9, 4, 4, 4, 2)),
                        ("stage_partners", (9, 4, 4, 3, 2))):
        got = getattr(spec2, name)
        assert got.dtype == np.uint8 and got.shape == shape, name
        assert np.array_equal(got, getattr(std_spec, name)), name
    blob = bytearray(blob)
    blob[50] ^= 0xFF
    with pytest.raises(FormatError):
        deserialize_spec(bytes(blob))


def test_loading_a_spec_leaves_key_expansion_to_first_use(std_spec, monkeypatch):
    calls = []
    from_key = RoundKeys.from_key
    monkeypatch.setattr(RoundKeys, "from_key", classmethod(lambda cls, key: calls.append(key) or from_key(key)))
    spec = deserialize_spec(serialize_spec(std_spec))
    assert calls == []
    assert spec.round_keys == from_key(spec.key)
    assert calls == [spec.key]
    assert spec.round_keys is spec.round_keys and len(calls) == 1
    with pytest.raises(ValueError, match="key must be 16 bytes"):  # still at construction
        tablegen.EncodingSpec(seed=0, key=b"short", fg=std_spec.fg, ut_partners=std_spec.ut_partners,
                              stage_partners=std_spec.stage_partners)


def test_serialize_spec_rejects_seed_outside_u64():
    # masked to 64 bits, these were saved as 2**64 - 5 and 5, seeds that sample other specs
    for seed in (-5, 2**64 + 5):
        with pytest.raises(ValueError, match=str(seed)):
            serialize_spec(tablegen.build_spec(STD_KEY, seed))
    assert deserialize_spec(serialize_spec(tablegen.build_spec(STD_KEY, 2**64 - 1))).seed == 2**64 - 1

def test_identity_xor_boundary_mode_still_encrypts():
    key = bytes(range(16))
    pair, spec = build_table_pair(key, 5, xor_boundary_mode="identity")
    assert spec_codec(spec.stage_partners[2, 1, 2, 0]) == CodecPair.identity()
    pt = bytes(range(16, 32))
    ct, _, _ = encrypt_with_tables(pair.q0, pt)
    assert ct == reference_encrypt(pt, key)
    # table-output boundaries stay balanced even in this mode
    grid = walsh_ut_grid_static(pair.q0, spec)
    assert not grid.any()


def _reference_walk(ts, pts):
    """The scalar table walk, one lookup at a time, over each row of an
    (N, 16) plaintext array: (ciphertexts, samples, lookups) like the batch walk.
    Each recorded value goes to the sample the layout arrays give its
    coordinate, so comparing records checks the walk against them."""
    ut, tx, t10 = ts.ut.tolist(), ts.tx.tolist(), ts.t10.tolist()
    ut_at, xor_at = cipher.UT_SAMPLES.tolist(), cipher.XOR_SAMPLES.tolist()
    cts = np.empty((len(pts), 16), dtype=np.uint8)
    samples = np.empty((len(pts), 1456), dtype=np.uint8)
    lookups = 0
    for n, pt in enumerate(pts.tolist()):
        state = [[pt[i + 4 * j] for j in range(4)] for i in range(4)]
        trace = [None] * 1456  # a sample no coordinate names fails the copy into samples
        for r in range(9):
            inp = [[state[i][(j + i) % 4] for j in range(4)] for i in range(4)]
            new_state = [[0] * 4 for _ in range(4)]
            for j in range(4):
                enc = []
                for i in range(4):
                    row = ut[r][i][j][inp[i][j]]
                    lookups += 1
                    enc.append(row)
                    for k in range(4):
                        trace[ut_at[r][j][i][k]] = row[k]
                for k in range(4):
                    cu, cl = enc[0][k] >> 4, enc[0][k] & 0xF
                    for s in range(3):
                        rb = enc[s + 1][k]
                        cu = tx[r][j][k][s][0][(cu << 4) | (rb >> 4)]
                        cl = tx[r][j][k][s][1][(cl << 4) | (rb & 0xF)]
                        lookups += 2
                        upper, lower = xor_at[r][j][k][s]
                        trace[upper], trace[lower] = cu, cl
                    new_state[k][j] = (cu << 4) | cl
            state = new_state
        for j in range(4):
            for i in range(4):
                v = t10[i][j][state[i][(j + i) % 4]]
                lookups += 1
                trace[1440 + i + 4 * j] = v
                cts[n, i + 4 * j] = v
        samples[n] = trace
    return cts, samples, lookups


def test_batch_matches_scalar(std_pair):
    identity_boundary = build_table_pair(bytes(range(16)), 5, xor_boundary_mode="identity")[0]
    pts = np.frombuffer(random.Random(62).randbytes(2500 * 16), dtype=np.uint8).reshape(2500, 16)
    for ts in (std_pair.q0, std_pair.q1, identity_boundary.q0, identity_boundary.q1):
        ref_cts, ref_samples, ref_lookups = _reference_walk(ts, pts)
        per_row = ref_lookups // len(pts)
        # around the walk's 1,024-row chunks, and an empty campaign
        for n in (0, 1, 1023, 1025, 2500):
            cts, samples, lookups = encrypt_batch_with_tables(ts, pts[:n], record=True)
            assert np.array_equal(cts, ref_cts[:n])
            assert np.array_equal(samples, ref_samples[:n])
            assert lookups == per_row * n
            assert np.array_equal(encrypt_batch_with_tables(ts, pts[:n])[0], cts)
        for n in (0, 7, 2499):
            ct, s, lookups = encrypt_with_tables(ts, bytes(pts[n]), record=True)
            assert ct == bytes(ref_cts[n]) and s == bytes(ref_samples[n]) and lookups == per_row


def test_tables_are_read_only_so_walk_arrays_cannot_go_stale(std_pair):
    ts = tablegen.TableSet(set_id=0, ut=std_pair.q0.ut.copy(), tx=std_pair.q0.tx.copy(),
                           t10=std_pair.q0.t10.copy())
    ts.walk  # built on the first walk, then kept
    for name, index in (("ut", (0, 0, 0, 0, 0)), ("tx", (0, 0, 0, 0, 0, 0)), ("t10", (0, 0, 0))):
        with pytest.raises(ValueError):
            getattr(ts, name)[index] ^= 1
        with pytest.raises(AttributeError):
            setattr(ts, name, getattr(std_pair.q1, name))
    assert ts == std_pair.q0


def test_loaded_and_complement_sets_walk_like_the_generated_ones(std_pair):
    pts = np.frombuffer(random.Random(63).randbytes(1100 * 16), dtype=np.uint8).reshape(1100, 16)
    rebuilt_q1 = build_q1(std_pair.q0)
    for ts, other in ((std_pair.q0, deserialize_tableset(serialize_tableset(std_pair.q0))),
                      (std_pair.q1, deserialize_tableset(serialize_tableset(std_pair.q1))),
                      (std_pair.q1, rebuilt_q1)):
        assert other is not ts and "walk" not in vars(other)  # its walk arrays are its own
        for mine, theirs in zip(ts.walk, other.walk):
            assert np.array_equal(mine, theirs)
        for n in (1, 1100):
            for got, want in zip(encrypt_batch_with_tables(other, pts[:n], record=True),
                                 encrypt_batch_with_tables(ts, pts[:n], record=True)):
                assert np.array_equal(got, want)


def test_walk_arrays_stay_small_and_lookups_per_row_fixed(std_pair):
    ut, tx = std_pair.q0.walk
    assert ut.dtype == tx.dtype == np.uint16
    assert ut.nbytes + tx.nbytes < 2 * 2**20
    pts = np.frombuffer(random.Random(64).randbytes(1025 * 16), dtype=np.uint8).reshape(1025, 16)
    for n in (1, 1025):
        for record in (False, True):
            assert encrypt_batch_with_tables(std_pair.q0, pts[:n], record)[2] == 1024 * n


def test_recorded_walk_memory_bound(std_pair):
    # recording from saved index arrays and a second gather held 3.45 MiB beyond the outputs
    pts = np.frombuffer(random.Random(65).randbytes(10000 * 16), dtype=np.uint8).reshape(10000, 16)
    std_pair.q0.walk  # built once per set, not part of a walk
    tracemalloc.start()
    try:
        cts, samples, _ = encrypt_batch_with_tables(std_pair.q0, pts, record=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cts.nbytes + samples.nbytes + 1.5 * 2**20, peak


def test_spec_blacklist_error_names_first_offending_pair_and_row(std_spec):
    blob = bytearray(serialize_spec(std_spec))
    # f row 0b0000 makes row `row` of the assembled matrix a single index the
    # blacklist forbids; pairs are stored in (r, j, k) order, 8 bytes each
    for pair_index, row in ((100, 1), (37, 2), (37, 3)):
        blob[32 + 8 * pair_index + row] = 0b0000
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    with pytest.raises(FormatError) as exc:
        deserialize_spec(bytes(blob))
    # pair 37 is (r, j, k) = (3, 1, 1); its row 2 is 1 << (7 - 2)
    assert str(exc.value) == "spec linear pair r=3 j=1 k=1 has blacklisted matrix row 00100000"


# Byte offsets of the partner arrays in a spec file, after the header, seed,
# key and the 144 linear pairs.
UT_PARTNERS_AT = 32 + 9 * 16 * 8
STAGE_PARTNERS_AT = UT_PARTNERS_AT + 9 * 16 * 4 * 2


def _spec_with(spec, edits: dict) -> bytes:
    """spec's file with the bytes at the given offsets replaced, CRC fixed."""
    blob = bytearray(serialize_spec(spec))
    for offset, value in edits.items():
        blob[offset] = value
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    return bytes(blob)


def _ut_at(r, j, k, i, half):
    return UT_PARTNERS_AT + int(np.ravel_multi_index((r - 1, j, k, i, half), (9, 4, 4, 4, 2)))


def _stage_at(r, j, k, s, half):
    return STAGE_PARTNERS_AT + int(np.ravel_multi_index((r - 1, j, k, s, half), (9, 4, 4, 3, 2)))


@pytest.fixture(scope="module")
def identity_boundary_spec():
    return tablegen.build_spec(STD_KEY, STD_SEED, xor_boundary_mode="identity")


def test_spec_arrays_are_the_file_layout(std_spec):
    blob = serialize_spec(std_spec)
    assert blob[32:UT_PARTNERS_AT] == std_spec.fg.tobytes()
    assert blob[UT_PARTNERS_AT:STAGE_PARTNERS_AT] == std_spec.ut_partners.tobytes()
    assert blob[STAGE_PARTNERS_AT:-4] == std_spec.stage_partners.tobytes()
    # the first pair's f and g rows, and one partner pair, at their indices
    assert blob[32:40] == std_spec.fg[0, 0, 0].tobytes()
    at = _ut_at(3, 2, 1, 3, 0)
    assert tuple(blob[at : at + 2]) == tuple(std_spec.ut_partners[2, 2, 1, 3])


def test_spec_zero_table_output_partner_is_format_error(std_spec):
    # build_spec drops the identity partner 0 from every candidate set; the
    # first offending slot in file order is named
    blob = _spec_with(std_spec, {_ut_at(7, 0, 0, 0, 0): 0, _ut_at(2, 1, 3, 2, 1): 0})
    with pytest.raises(FormatError) as exc:
        deserialize_spec(blob)
    assert str(exc.value) == "spec table-output codec partner r=2 j=1 k=3 i=2 lower is 0"


def test_spec_zero_stage_partner_in_balanced_mode_is_format_error(std_spec, identity_boundary_spec):
    with pytest.raises(FormatError) as exc:
        deserialize_spec(_spec_with(std_spec, {_stage_at(9, 3, 0, 1, 0): 0}))
    assert str(exc.value) == "spec XOR-stage codec partner r=9 j=3 k=0 s=1 upper is 0"
    # an identity-mode file relabelled balanced (mode byte 0) has every stage partner 0
    with pytest.raises(FormatError, match="r=1 j=0 k=0 s=0 upper is 0$"):
        deserialize_spec(_spec_with(identity_boundary_spec, {6: 0}))


def test_spec_nonzero_stage_partner_in_identity_mode_is_format_error(std_spec, identity_boundary_spec):
    assert not identity_boundary_spec.stage_partners.any()
    assert deserialize_spec(serialize_spec(identity_boundary_spec)).xor_boundary_mode == "identity"
    with pytest.raises(FormatError) as exc:
        deserialize_spec(_spec_with(identity_boundary_spec, {_stage_at(1, 0, 2, 2, 1): 5}))
    assert str(exc.value) == "spec XOR-stage codec partner r=1 j=0 k=2 s=2 lower is not 0 in identity mode"
    # a balanced file relabelled identity keeps its nonzero stage partners
    with pytest.raises(FormatError, match="r=1 j=0 k=0 s=0 upper is not 0"):
        deserialize_spec(_spec_with(std_spec, {6: 1}))


def test_spec_non_candidate_table_output_partner_is_format_error(std_spec, std_pair):
    # partner 4 is outside the candidate set of slot (1, 0, 0)'s coefficient-2
    # boundary, upper half; the slot's last non-candidate is edited too, and the
    # first slot in file order is named
    masks = find_candidates(std_spec.fg[0, 0, 0])
    assert not masks[MC[0][0] - 1, 0, 4]
    r, j, k, i = 1, 0, 0, 3
    last = int(np.flatnonzero(~masks[MC[k][i] - 1, 1])[-1])
    with pytest.raises(FormatError) as exc:
        deserialize_spec(_spec_with(std_spec, {_ut_at(r, j, k, i, 1): last, _ut_at(1, 0, 0, 0, 0): 4}))
    assert str(exc.value) == "spec table-output codec partner r=1 j=0 k=0 i=0 upper is not a candidate"
    # such a partner breaks the static balance of the round-1 tables
    ut_partners = std_spec.ut_partners.copy()
    ut_partners[0, 0, 0, 0, 0] = 4
    spec = tablegen.EncodingSpec(seed=std_spec.seed, key=std_spec.key, fg=std_spec.fg, ut_partners=ut_partners,
                                 stage_partners=std_spec.stage_partners)
    assert not verify_tableset(generate_tableset(spec), spec).checks["ut_walsh_zero"]
    assert verify_tableset(std_pair.q0, std_spec).passed


def test_spec_non_candidate_stage_partner_in_balanced_mode_is_format_error(std_spec):
    # lower partner 2 is outside slot (1, 0, 2)'s XOR-stage candidate set; the
    # last non-candidate of the last slot that has one is edited too
    stage_masks = find_candidates(std_spec.fg)[:, :, :, 3]  # (r-1, j, k, half, e)
    assert not stage_masks[0, 0, 2, 1, 2]
    r, j, k, half, e = np.argwhere(~stage_masks)[-1].tolist()
    assert (r, j, k) > (0, 0, 2)
    with pytest.raises(FormatError) as exc:
        deserialize_spec(_spec_with(std_spec, {_stage_at(r + 1, j, k, 2, half): e, _stage_at(1, 0, 2, 1, 1): 2}))
    assert str(exc.value) == "spec XOR-stage codec partner r=1 j=0 k=2 s=1 lower is not a candidate"
