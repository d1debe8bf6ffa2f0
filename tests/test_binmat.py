import itertools
import math
import random

import numpy as np
import pytest

from balaes.binmat import (
    admissible_g,
    assembled_rows,
    derive_blacklist_F,
    derive_blacklist_W,
    idx_of,
    sample_f,
    sample_pair,
    shear_maps,
    table_bits,
    walsh_grid,
)

from conftest import (
    IDENTITY_PAIR,
    allowed_f_rows,
    assemble_M,
    bit_rows,
    count_valid_pairs,
    decode_map,
    f_family_size,
    mat_vec_mul,
    random_pair,
    reference_encode_map,
    s_matrix_rows,
    walsh_balance_check,
)


def vec4(b1, b2, b3, b4):
    return (b1 << 3) | (b2 << 2) | (b3 << 1) | b4


def encode_map(pair) -> bytes:
    """binmat.shear_maps applied to one (2, 4) pair."""
    return shear_maps(pair)[0].tobytes()


def test_mat_vec_mul_identity_zero_permutation():
    ident = (0b1000, 0b0100, 0b0010, 0b0001)
    for v in range(16):
        assert mat_vec_mul(ident, v) == v
    anym = (0b1011, 0b0110, 0b1111, 0b0001)
    assert mat_vec_mul(anym, 0) == 0
    reversed_perm = (0b0001, 0b0010, 0b0100, 0b1000)
    assert mat_vec_mul(reversed_perm, 0b0001) == 0b1000


def test_idx_of_position_convention():
    # [1,0,0,0,1,1,0,0] -> positions {1,5,6}
    assert idx_of(0b10001100) == frozenset({1, 5, 6})
    assert idx_of(0, 8) == frozenset()
    assert idx_of(0b0001, 4) == frozenset({4})


def test_blacklist_W_spot_values():
    W = derive_blacklist_W()
    assert W.by_group[(2, 1, 1)] == frozenset({8})
    assert W.by_group[(1, 2, 4)] == frozenset({1, 5})
    for ell in (1, 2, 3):
        for j in range(1, 9):
            assert W.by_group[(ell, ell, j)] == frozenset({j})
    # one entry per (ell, ell', target row)
    assert len(W.by_group) == 72


def test_blacklist_W_entries_reproduce_row_collisions():
    W = derive_blacklist_W()
    mats = {ell: s_matrix_rows(ell, 0) for ell in (1, 2, 3)}
    for (ell, ellp, iprime), J in W.by_group.items():
        acc = 0
        for idx in J:
            acc ^= mats[ell][idx - 1]
        assert acc == mats[ellp][iprime - 1]


def test_blacklist_F_values_and_family_size():
    bf = derive_blacklist_F()
    assert bf[1] == frozenset({0})
    assert bf[2] == frozenset({0})
    assert bf[0] == frozenset(
        {vec4(0, 0, 0, 0), vec4(1, 0, 0, 0), vec4(0, 1, 0, 0), vec4(0, 0, 0, 1), vec4(1, 1, 0, 0), vec4(0, 0, 1, 1)}
    )
    assert bf[3] == frozenset({vec4(0, 0, 0, 0), vec4(0, 0, 0, 1), vec4(1, 0, 0, 1), vec4(1, 1, 1, 1)})
    assert [16 - len(b) for b in bf] == [10, 15, 15, 12]
    assert f_family_size() == 10 * 15 * 15 * 12 == 27000


def test_sample_f_never_blacklisted_and_deterministic():
    bf = derive_blacklist_F()
    rng = random.Random(9)
    for _ in range(10000):
        f = sample_f(rng)
        assert f.shape == (4,) and f.dtype == np.uint8
        for i in range(4):
            assert f[i] not in bf[i]
    assert sample_f(random.Random(5)).tolist() == sample_f(random.Random(5)).tolist()


def test_sample_f_row_frequencies_uniform():
    # chi-square over 100,000 samples per row; 5-sigma style bound
    rng = random.Random(123)
    counts = [{}, {}, {}, {}]
    n = 100000
    for _ in range(n):
        for i, row in enumerate(sample_f(rng).tolist()):
            counts[i][row] = counts[i].get(row, 0) + 1
    for i, allowed in enumerate(allowed_f_rows()):
        k = len(allowed)
        expected = n / k
        chi2 = sum((counts[i].get(v, 0) - expected) ** 2 / expected for v in allowed)
        # chi-square with k-1 dof: mean k-1, variance 2(k-1)
        assert chi2 < (k - 1) + 5 * math.sqrt(2 * (k - 1)), f"row {i} chi2={chi2}"


def test_sample_g_rows_satisfy_blacklist_condition():
    W = derive_blacklist_W()
    rng = random.Random(7)
    for _ in range(200):
        M = assemble_M(sample_pair(rng))  # its g rows are drawn after its f rows
        for row in M.rows:
            assert idx_of(row) not in W.flat


def mean_valid_g_rows() -> tuple:
    """Average number of admissible g rows per row index, over the whole f family."""
    family = np.array(list(itertools.product(*allowed_f_rows())), dtype=np.uint8)
    return tuple(admissible_g(family).sum(axis=-1).mean(axis=0).tolist())


def test_valid_g_row_means_match_brute_force_average():
    means = mean_valid_g_rows()
    expected = (13.870, 13.703, 13.518, 13.664)  # frozen from the exhaustive scan
    for got, want in zip(means, expected):
        assert abs(got - want) < 0.005


def test_count_valid_pairs_brute_force_value():
    # Frozen output of the exhaustive enumeration under the derived blacklist.
    # The originally reported figure (1,098,661,500) is not reproducible from
    # the published forbidden-row table; see the acceptance suite.
    assert count_valid_pairs() == 943_949_592


def test_assemble_M_zero_pair_is_identity():
    M = assemble_M(IDENTITY_PAIR)
    assert M.rows == (0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01)


def test_assemble_M_upper_left_identity():
    rng = random.Random(11)
    for _ in range(50):
        pair = sample_pair(rng)
        M = assemble_M(pair)
        for i in range(4):
            assert (M.rows[i] >> 4) == (1 << (3 - i))


def test_linear_encode_matches_matrix_product():
    rng = random.Random(13)
    for _ in range(100):
        pair = random_pair(rng)
        M = assemble_M(pair)
        emap = encode_map(pair)
        for x in range(256):
            ref = 0
            for i in range(8):
                if (M.rows[i] & x).bit_count() & 1:
                    ref |= 1 << (7 - i)
            assert emap[x] == ref


def test_linear_encode_identity_and_zero():
    assert encode_map(IDENTITY_PAIR) == bytes(range(256))
    rng = random.Random(17)
    for _ in range(20):
        assert encode_map(sample_pair(rng))[0] == 0


def test_linear_decode_round_trip_including_singular_blocks():
    rng = random.Random(19)
    for _ in range(1000):
        pair = random_pair(rng)
        emap, dmap = encode_map(pair), decode_map(pair)
        for x in (0, 1, 0x5A, 0xFF, rng.randrange(256)):
            assert dmap[emap[x]] == x
    assert decode_map(sample_pair(rng))[0] == 0
    assert decode_map(IDENTITY_PAIR)[0xAB] == 0xAB


def test_shear_maps_match_per_entry_maps_on_any_stack():
    # random blocks, singular ones included, as one (5, 40, 2, 4) stack; then
    # each pair alone, the kernel applied to a single pair
    rng = random.Random(21)
    pairs = [random_pair(rng) for _ in range(200)]
    pairs[:2] = [IDENTITY_PAIR, sample_pair(rng)]
    enc, dec = shear_maps(np.array(pairs).reshape(5, 40, 2, 4))
    assert enc.shape == dec.shape == (5, 40, 256) and enc.dtype == dec.dtype == np.uint8
    for pair, e, d in zip(pairs, enc.reshape(200, 256), dec.reshape(200, 256)):
        assert e.tobytes() == reference_encode_map(pair) == encode_map(pair)
        assert d.tobytes() == decode_map(pair)


def test_linear_encode_is_bijective_and_linear():
    rng = random.Random(23)
    for _ in range(50):
        pair = sample_pair(rng)
        emap = encode_map(pair)
        assert sorted(emap) == list(range(256))
        for _ in range(20):
            a, b = rng.randrange(256), rng.randrange(256)
            assert emap[a] ^ emap[b] == emap[a ^ b]


def test_walsh_balance_check_zero_for_sampled_pairs():
    rng = random.Random(29)
    for _ in range(20):
        pair = sample_pair(rng)
        assert not walsh_balance_check(pair, key_byte=rng.randrange(256)).any()


def test_walsh_balance_check_detects_forbidden_row():
    # force M row 8 to the single index {8}: its coefficient-2 encoding then
    # equals hypothesis row 1 of the coefficient-1 matrix
    rng = random.Random(31)
    while True:
        f = sample_f(rng)
        cand = [[v for v in range(16) if ok[v]] for ok in admissible_g(f).tolist()]
        if all(cand[:3]):
            g = (rng.choice(cand[0]), rng.choice(cand[1]), rng.choice(cand[2]), 0)
            break
    pair = np.array([f, g], dtype=np.uint8)
    grid = walsh_balance_check(pair, key_byte=0xA7)
    assert abs(int(grid[7, 0, 1, 0])) == 256  # (i=8, i'=1, ell=2, ell'=1)


def test_pair_count_surrogate_sampled_pairs_all_admissible():
    W = derive_blacklist_W()
    rng = random.Random(37)
    pairs = np.array([sample_pair(rng) for _ in range(2000)])
    for row in np.unique(assembled_rows(pairs[:, 0], pairs[:, 1])).tolist():
        assert idx_of(row) not in W.flat


def test_sample_g_never_exhausts_for_family_members():
    rng = random.Random(41)
    for _ in range(500):
        counts = admissible_g(sample_f(rng)).sum(axis=-1).tolist()
        assert all(c > 0 for c in counts)
        assert all(c <= 16 for c in counts)


def test_admissible_g_matches_scalar_rows_on_any_stack():
    # g row i = v is admissible when row 4 + i of the assembled matrix, one row at a
    # time, is off the blacklist; random f rows too, as one (3, 50, 4) stack
    W = derive_blacklist_W()
    rng = random.Random(42)
    fs = np.array([random_pair(rng)[0] for _ in range(150)]).reshape(3, 50, 4)
    mask = admissible_g(fs)
    assert mask.shape == (3, 50, 4, 16) and mask.dtype == bool
    for f, got in zip(fs.reshape(150, 4).tolist(), mask.reshape(150, 4, 16).tolist()):
        for i in range(4):
            want = []
            for v in range(16):
                g_times_f = 0
                for b in range(4):
                    if (v >> (3 - b)) & 1:
                        g_times_f ^= f[b]
                want.append(not W.forbids((v << 4) | ((1 << (3 - i)) ^ g_times_f)))
            assert got[i] == want


def test_forbids_reads_the_index_set_blacklist():
    W = derive_blacklist_W()
    assert [W.forbids(v) for v in range(256)] == [idx_of(v) in W.flat for v in range(256)]
    assert sum(W.rows) == len(W.flat)  # idx_of is a bijection between rows and index sets



# --- Walsh grid -----------------------------------------------------------------
# Brute-force reference: each table bit as a 256-bit integer (bit x mirrors
# input x), each Walsh sum as 256 - 2 * popcount of the XOR of two of them.

def _reference_walsh_grid(a, b) -> np.ndarray:
    ra = [bit_rows(t) for t in a]
    rb = [bit_rows(t) for t in b]
    out = np.empty((len(a), 8, len(b), 8), dtype=np.int32)
    for n, rows_a in enumerate(ra):
        for m, rows_b in enumerate(rb):
            for i in range(8):
                for ip in range(8):
                    out[n, i, m, ip] = 256 - 2 * (rows_a[i] ^ rows_b[ip]).bit_count()
    return out


def test_walsh_grid_matches_popcount_reference():
    gen = np.random.default_rng(60)
    a = np.concatenate([gen.integers(0, 256, (5, 256), dtype=np.uint8),
                        np.zeros((1, 256), dtype=np.uint8), np.full((1, 256), 0xFF, dtype=np.uint8),
                        np.arange(256, dtype=np.uint8)[None]])
    b = np.concatenate([gen.integers(0, 256, (3, 256), dtype=np.uint8),
                        np.full((1, 256), 0xFF, dtype=np.uint8), np.zeros((1, 256), dtype=np.uint8)])
    grid = walsh_grid(a, b)
    assert grid.dtype == np.int32 and grid.shape == (8, 8, 5, 8)
    assert np.array_equal(grid, _reference_walsh_grid(a, b))
    assert np.array_equal(walsh_grid(b, a), grid.transpose(2, 3, 0, 1))
    # constant columns: all-0x00 against all-0xFF is -256 everywhere, against itself +256
    assert (grid[5, :, 3, :] == -256).all() and (grid[6, :, 4, :] == -256).all()
    assert (grid[5, :, 4, :] == 256).all() and (grid[6, :, 3, :] == 256).all()
    # stacks of more tables than one product block: the +-1 sign-matrix product in int64
    a, b = gen.integers(0, 256, (70, 256), dtype=np.uint8), gen.integers(0, 256, (45, 256), dtype=np.uint8)
    sa, sb = ((1 - 2 * table_bits(t).astype(np.int64)).reshape(-1, 256) for t in (a, b))
    assert np.array_equal(walsh_grid(a, b), (sa @ sb.T).reshape(70, 8, 45, 8))


def _reference_walsh_balance_check(pair, key_byte: int) -> np.ndarray:
    M = assemble_M(pair)
    smats = {ell: s_matrix_rows(ell, key_byte) for ell in (1, 2, 3)}
    grid = np.zeros((8, 8, 3, 3), dtype=np.int32)
    for ell in (1, 2, 3):
        r_rows = []
        for i in range(8):
            acc = 0
            for p in range(8):
                if (M.rows[i] >> (7 - p)) & 1:
                    acc ^= smats[ell][p]
            r_rows.append(acc)
        for ellp in (1, 2, 3):
            for i in range(8):
                for ip in range(8):
                    grid[i, ip, ell - 1, ellp - 1] = 256 - 2 * (r_rows[i] ^ smats[ellp][ip]).bit_count()
    return grid


def test_walsh_balance_check_matches_popcount_reference():
    rng = random.Random(61)
    pairs = [sample_pair(rng) for _ in range(20)]
    pairs += [IDENTITY_PAIR, np.array([(0b1000, 0b0100, 0b0010, 0b0001), (1, 2, 3, 0)], dtype=np.uint8)]
    for pair in pairs:
        key_byte = rng.randrange(256)
        grid = walsh_balance_check(pair, key_byte)
        assert grid.dtype == np.int32 and grid.shape == (8, 8, 3, 3)
        assert np.array_equal(grid, _reference_walsh_balance_check(pair, key_byte))


def test_assembled_rows_match_scalar_block_matrix():
    # [[I, f], [g, I + g.f]] row by row, for many pairs in one array call
    rng = random.Random(65)
    pairs = np.array([sample_pair(rng) for _ in range(144)] + [IDENTITY_PAIR])
    rows = assembled_rows(pairs[:, 0], pairs[:, 1])
    assert rows.shape == (145, 8) and rows.dtype == np.uint8
    for pair, got in zip(pairs, rows.tolist()):
        f, g = pair.tolist()
        want = [(1 << (7 - i)) | f[i] for i in range(4)]
        for i in range(4):
            g_times_f = 0
            for b in range(4):
                if (g[i] >> (3 - b)) & 1:
                    g_times_f ^= f[b]
            want.append((g[i] << 4) | ((1 << (3 - i)) ^ g_times_f))
        assert got == want
        assert assemble_M(pair).rows == tuple(want)
