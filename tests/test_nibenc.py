import random
import statistics

import numpy as np
import pytest

from balaes.binmat import COEFF, sample_pair, shear_maps, walsh_grid
from balaes.nibenc import codec_bytes, find_candidates

from conftest import CodecPair, NibbleCodec, codec_map, reference_encode_map, s_matrix_rows

UPPER, LOWER = 0, 1  # the half axis of find_candidates


def partners(mask) -> set:
    """The partners e a (16,) row of a find_candidates mask admits."""
    return set(np.flatnonzero(mask).tolist())


def candidate_set(pair, half: int, ell=None) -> set:
    """find_candidates of one pair as a set: the table-output boundary of
    coefficient ell, or with ell None the intersection over all three."""
    mask = find_candidates(pair)
    return partners(mask[ell - 1, half] if ell is not None else mask[:3].all(axis=0)[half])


def encode_byte(x: int, cp: CodecPair) -> int:
    """One byte through a codec pair, one nibble at a time: the reference for
    codec_map and codec_bytes."""
    return (cp.upper.encode(x >> 4) << 4) | cp.lower.encode(x & 0xF)


def verify_swap_balance(pair, key_byte: int, cp: CodecPair) -> bool:
    """Recompute the full Walsh grid after applying the codec pair to every
    encoded coefficient column; true iff every sum is still zero."""
    swapped = np.frombuffer(codec_map(cp), dtype=np.uint8)[shear_maps(pair)[0][COEFF[:, key_byte]]]
    return not walsh_grid(swapped, COEFF[:, key_byte]).any()


# --- bitmask references ------------------------------------------------------------
# The searches and the swap check as 256-bit integer masks and popcounts, one
# candidate at a time; the candidate kernel and the Walsh grid must agree exactly.

def _nibble_masks(values) -> list:
    """256-bit membership masks per nibble value from a 256-long value list."""
    masks = [0] * 16
    for j, v in enumerate(values):
        masks[v] |= 1 << j
    return masks


def _half_nibble(v: int, half: int) -> int:
    return v >> 4 if half == UPPER else v & 0xF


# _RAW_ROWS[i] has bit u set when byte u carries bit i (MSB first)
_RAW_ROWS = tuple(sum(1 << u for u in range(256) if (u >> (7 - i)) & 1) for i in range(8))


def _reference_candidates(pair, key_byte: int, half: int, ell=None) -> set:
    smats = {lp: s_matrix_rows(lp, key_byte) for lp in (1, 2, 3)}
    result = set(range(16))
    for l in (ell,) if ell is not None else (1, 2, 3):
        cols = COEFF[l - 1, key_byte].tobytes().translate(reference_encode_map(pair))
        masks = _nibble_masks([_half_nibble(c, half) for c in cols])
        result = {e for e in result
                  if all((row & masks[0]).bit_count() == (row & masks[e]).bit_count()
                         for lp in (1, 2, 3) for row in smats[lp])}
    return result


def _reference_round_output_candidates(pair, half: int) -> set:
    masks = _nibble_masks([_half_nibble(c, half) for c in reference_encode_map(pair)])
    return {e for e in range(16)
            if all((row & masks[0]).bit_count() == (row & masks[e]).bit_count() for row in _RAW_ROWS)}


def _reference_swap_balance(pair, key_byte: int, cp: CodecPair) -> bool:
    smats = {lp: s_matrix_rows(lp, key_byte) for lp in (1, 2, 3)}
    for ell in (1, 2, 3):
        cols = [encode_byte(c, cp) for c in COEFF[ell - 1, key_byte].tobytes().translate(reference_encode_map(pair))]
        for i in range(8):
            fmask = sum(1 << j for j, c in enumerate(cols) if (c >> (7 - i)) & 1)
            if any((fmask ^ row).bit_count() != 128 for lp in (1, 2, 3) for row in smats[lp]):
                return False
    return True


def test_candidate_searches_match_bitmask_reference():
    # the kernel over a (3, 100, 2, 4) stack, against the reference at three keys
    # (candidate sets are key independent), and against itself on each pair alone
    rng = random.Random(57)
    pairs = np.array([sample_pair(rng) for _ in range(300)])
    masks = find_candidates(pairs.reshape(3, 100, 2, 4))
    assert masks.shape == (3, 100, 4, 2, 16) and masks.dtype == bool
    for pair, mask in zip(pairs, masks.reshape(300, 4, 2, 16)):
        assert np.array_equal(find_candidates(pair), mask)
        for half in (UPPER, LOWER):
            assert partners(mask[3, half]) == _reference_round_output_candidates(pair, half)
            for key_byte in (0x00, 0x5A, 0xFF):
                for ell in (1, 2, 3, None):
                    got = mask[ell - 1, half] if ell is not None else mask[:3].all(axis=0)[half]
                    assert partners(got) == _reference_candidates(pair, key_byte, half, ell)


def test_verify_swap_balance_matches_bitmask_reference():
    rng = random.Random(59)
    for _ in range(40):
        pair = sample_pair(rng)
        key_byte = rng.randrange(256)
        hi, lo = candidate_set(pair, UPPER), candidate_set(pair, LOWER)
        # candidate pairs, identity halves and non-candidates
        for e_hi, e_lo in ((min(hi - {0}, default=0), max(lo)), (0, rng.randrange(16)), (rng.randrange(16), 0),
                           (rng.randrange(16), rng.randrange(16))):
            cp = CodecPair.of(e_hi, e_lo)
            assert verify_swap_balance(pair, key_byte, cp) == _reference_swap_balance(pair, key_byte, cp)


def test_codec_is_zero_swap_involution():
    c = NibbleCodec(5)
    assert c.encode(0) == 5
    assert c.encode(5) == 0
    for v in range(16):
        if v not in (0, 5):
            assert c.encode(v) == v
        assert c.decode(c.encode(v)) == v


def test_codec_rejects_out_of_range():
    with pytest.raises(ValueError):
        NibbleCodec(16)


def test_encode_byte_examples():
    cp = CodecPair.of(5, 3)
    assert encode_byte(0x00, cp) == 0x53
    assert encode_byte(0x53, cp) == 0x00
    assert encode_byte(0x7A, cp) == 0x7A
    decode = codec_map(cp)  # an involution: the map decodes what it encodes
    for x in range(256):
        assert decode[encode_byte(x, cp)] == x


def test_codec_map_and_codec_bytes_match_per_byte_reference():
    x = np.arange(256, dtype=np.uint8)
    e = np.arange(16, dtype=np.uint8)
    every = codec_bytes(x, e[:, None, None], e[None, :, None])  # (upper, lower, byte)
    for eu in range(16):
        for el in range(16):
            cp = CodecPair.of(eu, el)
            ref = bytes(encode_byte(v, cp) for v in range(256))
            assert codec_map(cp) == ref
            assert every[eu, el].tobytes() == ref


def test_codec_moves_at_most_two_points_per_half():
    cp = CodecPair.of(9, 1)
    moved_hi = {v for v in range(16) if cp.upper.encode(v) != v}
    moved_lo = {v for v in range(16) if cp.lower.encode(v) != v}
    assert moved_hi == {0, 9} and moved_lo == {0, 1}
    assert codec_map(CodecPair.identity()) == bytes(range(256))


def test_nibble_value_counts_are_16_per_value():
    rng = random.Random(50)
    pair = sample_pair(rng)
    for ell in (1, 2, 3):
        cols = COEFF[ell - 1, 0x21].tobytes().translate(shear_maps(pair)[0].tobytes())
        for half_shift in (4, 0):
            counts = [0] * 16
            for c in cols:
                counts[(c >> half_shift) & 0xF] += 1
            assert counts == [16] * 16


def test_find_candidates_contains_identity_and_is_key_independent():
    rng = random.Random(51)
    for _ in range(10):
        pair = sample_pair(rng)
        for half in (UPPER, LOWER):
            base = candidate_set(pair, half, ell=2)
            assert 0 in base
            assert base == _reference_candidates(pair, rng.randrange(256), half, ell=2)


def test_candidate_statistics_range():
    # the identity partner always qualifies; rare pairs admit nothing else for
    # some coefficient (generation resamples those)
    rng = random.Random(52)
    counts = []
    for _ in range(30):
        pair = sample_pair(rng)
        for half in (UPPER, LOWER):
            for ell in (1, 2, 3):
                counts.append(len(candidate_set(pair, half, ell)))
    assert min(counts) >= 1
    assert max(counts) <= 16
    assert 10.5 < statistics.mean(counts) < 14.0


def test_intersection_contained_in_per_ell_sets():
    rng = random.Random(53)
    pair = sample_pair(rng)
    for half in (UPPER, LOWER):
        inter = candidate_set(pair, half)
        for ell in (1, 2, 3):
            assert inter <= candidate_set(pair, half, ell)


def test_verify_swap_balance_accepts_candidates_rejects_others():
    rng = random.Random(54)
    pair = sample_pair(rng)
    key = 0x3D
    hi = candidate_set(pair, UPPER)
    lo = candidate_set(pair, LOWER)
    good_h = sorted(hi - {0})
    good_l = sorted(lo - {0})
    if good_h and good_l:
        assert verify_swap_balance(pair, key, CodecPair.of(good_h[0], good_l[0]))
    bad_h = sorted(set(range(1, 16)) - hi)
    if bad_h:
        assert not verify_swap_balance(pair, key, CodecPair.of(bad_h[0], 0))
    assert verify_swap_balance(pair, key, CodecPair.identity())


def test_round_output_candidates_preserve_raw_bit_balance():
    rng = random.Random(55)
    pair = sample_pair(rng)
    emap = shear_maps(pair)[0].tolist()
    for half in (UPPER, LOWER):
        cands = partners(find_candidates(pair)[3, half])
        assert 0 in cands
        shift = 4 if half == UPPER else 0
        for e in sorted(cands - {0})[:2] + [c for c in range(1, 16) if c not in cands][:2]:
            codec = NibbleCodec(e)
            # balance of every encoded bit against every plain input bit
            ok = True
            for i in range(8):
                for ip in range(8):
                    total = 0
                    for u in range(256):
                        v = emap[u]
                        nib = codec.encode((v >> shift) & 0xF)
                        w = (v & ~(0xF << shift)) | (nib << shift)
                        total += 1 if ((w >> (7 - i)) & 1) == ((u >> (7 - ip)) & 1) else -1
                    if total != 0:
                        ok = False
            assert ok == (e in cands), f"half={half} e={e}"


def test_zero_hiding():
    rng = random.Random(56)
    pair = sample_pair(rng)
    cp = CodecPair.of(7, 2)
    assert encode_byte(int(shear_maps(pair)[0][0]), cp) == 0x72  # L(0)=0, both halves swapped


def test_codec_map_round_trip():
    cp = CodecPair.of(4, 11)
    m = codec_map(cp)
    assert sorted(m) == list(range(256))
    for x in range(256):
        assert m[m[x]] == x
