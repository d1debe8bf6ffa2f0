"""Zero-swap nibble codecs and their balance-preserving candidate searches.

A codec exchanges the nibble value 0 with a partner e (e = 0 is the
identity) and fixes everything else; a byte boundary carries one per nibble
half, given by its (upper, lower) partners.  It hides zeros at table
boundaries without disturbing the first-order balance of the linear layer,
provided e passes the candidate condition for that boundary.

Both candidate searches (coefficient-table boundaries and XOR-tree outputs)
run on one helper: per-nibble-value bit sums of the relevant bit planes, as
one one-hot matrix product; e qualifies when its sums equal those of 0."""

from __future__ import annotations

import functools

import numpy as np

from .binmat import EncodingPair, coeff_tables, encode_map, encoded_coeff_tables, table_bits

UPPER = "upper"
LOWER = "lower"


_V = np.arange(16, dtype=np.uint8)
# NIB[e, v] is the nibble v under the codec swapping 0 with e: every zero-swap
# codec over every nibble.
NIB = np.where(_V == 0, _V[:, None], np.where(_V == _V[:, None], 0, _V)).astype(np.uint8)
NIB.flags.writeable = False


def codec_bytes(y, e_upper, e_lower):
    """Bytes y under the codec pair (e_upper, e_lower), elementwise with
    broadcasting; every codec is an involution, so this also decodes."""
    return (NIB[e_upper, y >> 4] << 4) | NIB[e_lower, y & 0xF]


def _swap_candidates(tables: np.ndarray, half: str, planes: np.ndarray) -> set:
    """Partners e whose half-nibble class carries the same bit sums as class 0.

    tables is (L, 256) bytes over 256 inputs x, and planes (256, P) holds P
    0/1 bit planes over the same inputs.  Per table, the bit sums of every
    plane over the inputs whose selected half-nibble is v are one (16, 256)
    one-hot by (256, P) product; e qualifies when its row equals row 0 for all
    L tables.  Swapping 0 and e then moves inputs between two classes with
    identical sums, so no Walsh sum against a plane changes.  float32 holds
    every sum (at most 256) exactly."""
    nibbles = tables >> 4 if half == UPPER else tables & 0xF
    onehot = (nibbles[:, None, :] == np.arange(16, dtype=np.uint8)[:, None]).astype(np.float32)
    sums = onehot @ planes  # (L, 16, P)
    return set(np.flatnonzero((sums == sums[:, :1]).all(axis=(0, 2))).tolist())


def _bit_planes(tables: np.ndarray) -> np.ndarray:
    """(T, 256) byte tables to (256, 8T) float32 bit planes, MSB first per table."""
    return table_bits(tables).reshape(-1, 256).T.astype(np.float32)


_RAW_PLANES = _bit_planes(np.arange(256, dtype=np.uint8)[None])  # the plain bits of x


@functools.lru_cache(maxsize=None)
def _coeff_planes(key_byte: int) -> np.ndarray:
    return _bit_planes(coeff_tables(key_byte))


def find_candidates(pair: EncodingPair, key_byte: int, half: str, ell: int | None = None) -> set:
    """Swap partners preserving the balance of the encoded coefficient matrix.

    e qualifies when, for every target coefficient ell' and every row of its
    bit matrix, the columns whose selected half-nibble equals 0 and those
    equal to e carry identical bit sums (both sets always have 16 members).
    With ell given the condition is evaluated on that coefficient's encoded
    matrix, matching the table boundary it protects; ell=None intersects over
    all three.  The identity e = 0 always qualifies and is included in the
    returned set; build-time selection discards it.
    """
    if ell is not None and ell not in (1, 2, 3):
        raise ValueError("ell must be 1, 2 or 3")
    encoded = encoded_coeff_tables(pair, key_byte)
    if ell is not None:
        encoded = encoded[ell - 1 : ell]
    return _swap_candidates(encoded, half, _coeff_planes(key_byte))


def find_round_output_candidates(pair: EncodingPair, half: str) -> set:
    """Swap partners for boundaries carrying the encoding of a free byte.

    XOR-tree outputs hold the linear encoding of a (partial) XOR of table
    outputs, which sweeps all byte values uniformly; balance must therefore
    hold against every plain bit of the pre-encoding byte rather than against
    a coefficient matrix.  Same sum condition, with the identity bit rows in
    place of the coefficient rows.
    """
    return _swap_candidates(np.frombuffer(encode_map(pair), dtype=np.uint8)[None], half, _RAW_PLANES)
