import random

import numpy as np
import pytest

from balaes import cipher, tablegen
from balaes.binmat import EncodingPair, decode_map
from balaes.gfcore import MC, SBOX, RoundKeys, gf_mul, reference_encrypt
from balaes.nibenc import CodecPair, NibbleCodec, codec_map, find_candidates
from balaes.tablegen import (
    FormatError,
    build_q1,
    build_table_pair,
    deserialize_spec,
    deserialize_tableset,
    encrypt_batch_with_tables,
    encrypt_with_tables,
    gen_tbox,
    gen_ut,
    gen_xor_table,
    pack_nibble_table,
    round_output_bytes_grid,
    serialize_spec,
    serialize_tableset,
    size_and_lookup_report,
    unpack_nibble_table,
    verify_tableset,
    walsh_ut_grid_static,
)

from conftest import STD_KEY, STD_SEED, bit_rows, s_matrix_rows


def identity_spec(key: bytes) -> tablegen.EncodingSpec:
    """All-identity encodings; the network then computes bare fused AES steps."""
    slots = [(r, j, k) for r in range(1, 10) for j in range(4) for k in range(4)]
    return tablegen.EncodingSpec(
        seed=0, key=bytes(key),
        pairs={slot: EncodingPair.identity() for slot in slots},
        ut_codecs={(*slot, i): CodecPair.identity() for slot in slots for i in range(4)},
        stage_codecs={(*slot, s): CodecPair.identity() for slot in slots for s in range(3)},
        xor_boundary_mode="identity",
    )


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


def test_gen_tbox_known_key_round1():
    keys = RoundKeys.from_key(STD_KEY)
    for i in range(4):
        for j in range(4):
            t = gen_tbox(1, i, j, keys)
            kb = keys.khat[0][i][j]
            assert list(t) == [SBOX[p ^ kb] for p in range(256)]
    with pytest.raises(ValueError):
        gen_tbox(11, 0, 0, keys)


def test_gen_ut_identity_spec_gives_plain_partial_products():
    spec = identity_spec(bytes(16))
    for i in range(4):
        table = gen_ut(1, i, 0, spec)
        for p in range(256):
            x = SBOX[p]
            expected = [gf_mul(MC[k][i], x) for k in range(4)]
            assert list(table[p]) == expected
    # row 1 carries [2S, S, S, 3S]
    t0 = gen_ut(1, 0, 0, spec)
    assert list(t0[0x00]) == [gf_mul(2, 0x63), 0x63, 0x63, gf_mul(3, 0x63)]


def test_gen_ut_outputs_decode_to_partial_products(std_spec):
    spec = std_spec
    r, j = 1, 2
    for i in range(4):
        table = gen_ut(r, i, j, spec)
        kb = spec.round_keys.khat[r - 1][i][j]
        for p in (0, 1, 0x42, 0xFF, 0x9C):
            x = SBOX[p ^ kb]
            for k in range(4):
                w = int(table[p][k])
                y = decode_map(spec.pairs[(r, j, k)])[codec_map(spec.ut_codecs[(r, j, k, i)])[w]]
                assert y == gf_mul(MC[k][i], x)


def test_gen_ut_encoded_bits_are_balanced(std_spec):
    table = gen_ut(1, 1, 1, std_spec)
    for k in range(4):
        col = table[:, k]
        for bit in range(8):
            assert int(((col >> (7 - bit)) & 1).sum()) == 128


def test_gen_xor_table_identity_and_collision():
    ident = NibbleCodec(0)
    t = gen_xor_table(ident, ident, ident)
    for a in range(16):
        for b in range(16):
            assert t[(a << 4) | b] == a ^ b
    same = NibbleCodec(9)
    out = NibbleCodec(4)
    t2 = gen_xor_table(same, same, out)
    for a in range(16):
        assert t2[(a << 4) | a] == out.e


def test_gen_xor_table_brute_force_decode():
    left, right, out = NibbleCodec(3), NibbleCodec(12), NibbleCodec(7)
    t = gen_xor_table(left, right, out)
    for a in range(16):
        for b in range(16):
            assert out.decode(int(t[(a << 4) | b])) == left.decode(a) ^ right.decode(b)


def test_pack_unpack_nibble_table():
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


def test_build_is_deterministic():
    key = bytes(range(16))
    pair_a, spec_a = build_table_pair(key, 123, verify=False)
    pair_b, spec_b = build_table_pair(key, 123, verify=False)
    assert serialize_tableset(pair_a.q0) == serialize_tableset(pair_b.q0)
    assert serialize_tableset(pair_a.q1) == serialize_tableset(pair_b.q1)
    assert serialize_spec(spec_a) == serialize_spec(spec_b)


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


@pytest.mark.parametrize("bit", [0, 1])
def test_round_output_bytes_grid_equals_the_walk(std_pair, bit):
    # the hand-unrolled column-0 walk behind the static round-output check
    # must read what the table walk records on the (p0, p5) grid
    pts = cipher.grid_plaintexts()
    _, samples, _ = encrypt_batch_with_tables(std_pair.select(bit), pts, record=True)
    u_idx, l_idx = cipher.round_output_sample_indices(1, 0, 0)
    walked = ((samples[:, u_idx] << 4) | samples[:, l_idx]).reshape(256, 256)
    assert np.array_equal(round_output_bytes_grid(std_pair.select(bit)), walked)


def test_verify_passes_fresh_build(std_pair, std_spec):
    report = verify_tableset(std_pair.q0, std_spec)
    assert report.passed, report.failures


def test_verify_detects_flipped_bit(std_pair, std_spec):
    ts = tablegen.TableSet(
        set_id=0, ut=std_pair.q0.ut.copy(), tx=std_pair.q0.tx, t10=std_pair.q0.t10
    )
    ts.ut[0, 0, 0, 17, 2] ^= 0x10
    report = verify_tableset(ts, std_spec)
    assert not report.passed
    assert not report.checks["ut_walsh_zero"]


def test_verify_detects_non_candidate_codec(std_spec, std_pair):
    # re-encode one round-1 output lane with a swap partner outside the
    # candidate set; the static grid must notice
    spec = std_spec
    r, j, k, i = 1, 0, 0, 0
    pair = spec.pairs[(r, j, k)]
    cands = find_candidates(pair, 0, "upper", ell=MC[k][i])
    bad = sorted(set(range(1, 16)) - cands)
    if not bad:
        pytest.skip("pair admits every swap partner on this lane")
    old_cp = spec.ut_codecs[(r, j, k, i)]
    ts = tablegen.TableSet(set_id=0, ut=std_pair.q0.ut.copy(), tx=std_pair.q0.tx, t10=std_pair.q0.t10)
    col = ts.ut[0, i, j, :, k]
    # undo the good upper codec, apply the bad one
    redo = {}
    for v in range(256):
        hi = old_cp.upper.decode(v >> 4)
        hi = NibbleCodec(bad[0]).encode(hi)
        redo[v] = (hi << 4) | (v & 0xF)
    ts.ut[0, i, j, :, k] = np.array([redo[int(v)] for v in col], dtype=np.uint8)
    report = verify_tableset(ts, std_spec)
    assert not report.checks["ut_walsh_zero"]


def test_verify_detects_bad_round_output_codec():
    # rebuild with a corrupted final-stage codec on the analyzed byte and check
    # the round-output grid turns nonzero
    from balaes.nibenc import find_round_output_candidates

    key = STD_KEY
    for attempt in range(8):
        pair, spec = build_table_pair(key, STD_SEED + 9 + attempt, verify=False)
        p = spec.pairs[(1, 0, 0)]
        old = spec.stage_codecs[(1, 0, 0, 2)]
        non_hi = sorted(set(range(1, 16)) - find_round_output_candidates(p, "upper"))
        non_lo = sorted(set(range(1, 16)) - find_round_output_candidates(p, "lower"))
        if non_hi:
            spec.stage_codecs[(1, 0, 0, 2)] = CodecPair.of(non_hi[0], old.lower.e)
        elif non_lo:
            spec.stage_codecs[(1, 0, 0, 2)] = CodecPair.of(old.upper.e, non_lo[0])
        else:
            continue
        ts = tablegen.generate_tableset(spec, set_id=0)
        report = verify_tableset(ts, spec)
        assert not report.checks["round_output_walsh_zero"]
        assert report.checks["functional_equality"]  # codecs cancel functionally
        return
    pytest.fail("no rebuild produced an inadmissible swap partner to inject")


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
    assert spec2.pairs == std_spec.pairs
    assert spec2.ut_codecs == std_spec.ut_codecs
    assert spec2.stage_codecs == std_spec.stage_codecs
    blob = bytearray(blob)
    blob[50] ^= 0xFF
    with pytest.raises(FormatError):
        deserialize_spec(bytes(blob))


def test_identity_xor_boundary_mode_still_encrypts():
    key = bytes(range(16))
    pair, spec = build_table_pair(key, 5, xor_boundary_mode="identity", verify=False)
    assert spec.stage_codecs[(3, 1, 2, 0)] == CodecPair.identity()
    pt = bytes(range(16, 32))
    ct, _, _ = encrypt_with_tables(pair.q0, pt)
    assert ct == reference_encrypt(pt, key)
    # table-output boundaries stay balanced even in this mode
    grid = walsh_ut_grid_static(pair.q0, spec)
    assert not grid.any()


def _reference_walk(ts, pts):
    """The scalar table walk, one lookup at a time, over each row of an
    (N, 16) plaintext array: (ciphertexts, samples, lookups) like the batch walk."""
    ut, tx, t10 = ts.ut.tolist(), ts.tx.tolist(), ts.t10.tolist()
    cts = np.empty((len(pts), 16), dtype=np.uint8)
    samples = np.empty((len(pts), 1456), dtype=np.uint8)
    lookups = 0
    for n, pt in enumerate(pts.tolist()):
        state = [[pt[i + 4 * j] for j in range(4)] for i in range(4)]
        trace = []
        for r in range(9):
            inp = [[state[i][(j + i) % 4] for j in range(4)] for i in range(4)]
            new_state = [[0] * 4 for _ in range(4)]
            for j in range(4):
                enc = []
                for i in range(4):
                    row = ut[r][i][j][inp[i][j]]
                    lookups += 1
                    enc.append(row)
                    trace += row
                for k in range(4):
                    cu, cl = enc[0][k] >> 4, enc[0][k] & 0xF
                    for s in range(3):
                        rb = enc[s + 1][k]
                        cu = tx[r][j][k][s][0][(cu << 4) | (rb >> 4)]
                        cl = tx[r][j][k][s][1][(cl << 4) | (rb & 0xF)]
                        lookups += 2
                        trace += (cu, cl)
                    new_state[k][j] = (cu << 4) | cl
            state = new_state
        for j in range(4):
            for i in range(4):
                v = t10[i][j][state[i][(j + i) % 4]]
                lookups += 1
                trace.append(v)
                cts[n, i + 4 * j] = v
        samples[n] = trace
    return cts, samples, lookups


def test_batch_matches_scalar(std_pair):
    identity_boundary = build_table_pair(bytes(range(16)), 5, xor_boundary_mode="identity", verify=False)[0]
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
