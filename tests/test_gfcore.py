import random

import numpy as np
import pytest

from balaes import gfcore
from balaes.binmat import COEFF, table_bits
from balaes.gfcore import (
    SBOX,
    RoundKeys,
    gf_mul,
    position_for_pt_index,
    reference_encrypt,
    reference_encrypt_batch,
)

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


def _exp_log_tables():
    """Independent multiplication oracle built from the generator 3."""
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by 3 = x * 2 ^ x, with bare shift-reduce
        d = x << 1
        if d & 0x100:
            d ^= 0x11B
        x = d ^ x
    return exp, log


EXP, LOG = _exp_log_tables()


def oracle_mul(a, b):
    if a == 0 or b == 0:
        return 0
    return EXP[(LOG[a] + LOG[b]) % 255]


def test_gf_mul_known_product():
    assert gf_mul(0x57, 0x83) == 0xC1


def test_gf_mul_identity_and_zero():
    for a in range(256):
        assert gf_mul(a, 0x01) == a
        assert gf_mul(a, 0x00) == 0


def test_gf_mul_against_log_table_oracle():
    rng = random.Random(1)
    for _ in range(2000):
        a, b = rng.randrange(256), rng.randrange(256)
        assert gf_mul(a, b) == oracle_mul(a, b)


def test_gf_mul_nonzero_constant_is_bijection():
    for c in (2, 3, 0x1B, 0xFF):
        assert sorted(gf_mul(c, x) for x in range(256)) == list(range(256))


def test_sbox_known_values_and_bijectivity():
    assert SBOX[0x00] == 0x63
    assert SBOX[0x53] == 0xED
    assert sorted(SBOX) == list(range(256))


def test_sbox_matches_affine_construction():
    for x in range(256):
        assert SBOX[x] == gfcore.sbox_from_construction(x)


def test_key_schedule_first_and_last_round():
    rk = RoundKeys.from_key(FIPS_KEY)
    # round 0 is the key itself, column major
    assert [rk.k[0][i % 4][i // 4] for i in range(16)] == list(FIPS_KEY)
    # last round key of the all-indices key, from the standard schedule
    last = bytes(rk.k[10][i % 4][i // 4] for i in range(16))
    assert last == bytes.fromhex("13111d7fe3944a17f307a78b4d2b30c5")


def test_khat_is_shiftrows_of_k():
    rk = RoundKeys.from_key(bytes(range(16)))
    for r in range(10):
        for i in range(4):
            for j in range(4):
                assert rk.khat[r][i][j] == rk.k[r][i][(j + i) % 4]


def test_round_keys_rejects_short_key():
    with pytest.raises(ValueError):
        RoundKeys.from_key(b"short")


def test_reference_encrypt_fips_vector():
    assert reference_encrypt(FIPS_PT, FIPS_KEY) == FIPS_CT


def test_reference_encrypt_is_a_permutation():
    rng = random.Random(2)
    key = rng.randbytes(16)
    seen = {reference_encrypt(rng.randbytes(16), key) for _ in range(50)}
    assert len(seen) == 50


def test_reference_encrypt_batch_fips_vector():
    cts = reference_encrypt_batch(np.frombuffer(FIPS_PT, dtype=np.uint8)[None], FIPS_KEY)
    assert cts.shape == (1, 16) and cts.dtype == np.uint8
    assert cts[0].tobytes() == FIPS_CT


def test_reference_encrypt_batch_matches_scalar():
    rng = random.Random(3)
    for key in (FIPS_KEY, bytes(16), b"\xff" * 16, rng.randbytes(16)):
        pts = np.frombuffer(rng.randbytes(1000 * 16), dtype=np.uint8).reshape(1000, 16)
        cts = reference_encrypt_batch(pts, key)
        assert [cts[n].tobytes() for n in range(1000)] == [reference_encrypt(pts[n].tobytes(), key)
                                                           for n in range(1000)]
    assert reference_encrypt_batch(np.empty((0, 16), dtype=np.uint8), FIPS_KEY).shape == (0, 16)
    with pytest.raises(ValueError):
        reference_encrypt_batch(pts, b"short")


# --- coefficient tables ell * S(x ^ k), binmat.COEFF -------------------------------

def _parity_rows(table: np.ndarray, mask: int) -> np.ndarray:
    """XOR of the bit-matrix rows of a 256-entry table that mask selects (MSB = row 1)."""
    return table_bits((table & mask)[None])[0].sum(axis=0) & 1


def test_coeff_tables_examples():
    assert COEFF[0, 0].tobytes() == SBOX
    assert COEFF[1, 0][0x00] == gf_mul(2, 0x63) == 0xC6
    mul = np.array([[gf_mul(ell, v) for v in range(256)] for ell in (1, 2, 3)], dtype=np.uint8)
    x = np.arange(256)
    for k in (0x00, 0x01, 0x5A, 0xFF):
        assert np.array_equal(COEFF[:, k], mul[:, np.frombuffer(SBOX, dtype=np.uint8)[x ^ k]])
    assert COEFF.shape == (3, 256, 256) and not COEFF.flags.writeable


def test_s_matrix_columns_enumerate_all_bytes():
    for ell in (1, 2, 3):
        assert sorted(COEFF[ell - 1, 0x3C].tolist()) == list(range(256))


def test_s_matrix_rows_balanced_and_key_change_permutes_columns():
    m0, mk = COEFF[0, 0], COEFF[0, 0x5A]
    assert (table_bits(m0[None]).sum(axis=-1) == 128).all()
    assert (table_bits(mk[None]).sum(axis=-1) == 128).all()
    # same column multiset, different order
    assert sorted(m0.tolist()) == sorted(mk.tolist())
    assert (m0 != mk).any()


def test_s_matrix_row_subset_xors_have_hw_0_or_128():
    rng = random.Random(4)
    mats = {ell: COEFF[ell - 1, rng.randrange(256)] for ell in (1, 2, 3)}
    for _ in range(1000):
        m = mats[rng.choice((1, 2, 3))]
        subset = rng.sample(range(8), rng.randint(1, 8))
        assert _parity_rows(m, sum(1 << (7 - i) for i in subset)).sum() in (0, 128)


def test_s_matrix_example_column_is_sbox_of_zero():
    assert COEFF[0, 0][0x00] == 0x63


def test_row_xor_pair_hw():
    assert _parity_rows(COEFF[0, 0], 0b11000000).sum() in (0, 128)


def test_pt_index_position_mapping_round_trip():
    for m in range(16):
        i, j = position_for_pt_index(m)
        assert 0 <= i < 4 and 0 <= j < 4
        assert i + 4 * ((j + i) % 4) == m  # ShiftRows moves byte m to (i, j)
    assert [position_for_pt_index(m) for m in (0, 5, 10, 15)] == [(0, 0), (1, 0), (2, 0), (3, 0)]
