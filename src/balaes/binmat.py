"""GF(2) matrix machinery behind the balanced byte encoding, the coefficient
tables, and the one Walsh-grid kernel every balance check runs on.

COEFF holds every coefficient table ell * S(x ^ k) the program uses: the
blacklist derivation, the candidate searches (nibenc), the static table checks
(tablegen) and every hypothesis of the analyses (sca) read it.

The encoding is the shear map Z^H = X^H + f.X^L, Z^L = X^L + g.Z^H built from
4x4 bit blocks f and g. A (f, g) pair is admissible when no row of the
assembled 8x8 matrix selects a row combination whose XOR collapses onto a
single row of any coefficient-multiplied SubBytes bit matrix; those forbidden
combinations form the blacklist derived here by brute force. Because idx_of
is a bijection between 8-bit rows and index sets, the blacklist is also a
256-entry table over row values, which is what BlacklistW.forbids reads.

The paper's balance claim is that every first-order Walsh sum between a
table output bit and a key-dependent hypothesis bit is zero. walsh_grid(a, b)
computes all of them for two stacks of 256-entry byte tables at once, as one
product of +-1 sign matrices; the static table checks (tablegen) and the
trace-mode and baseline analyses (sca) call it.

Bit vectors are stored as ints with position 1 at the most significant bit of
their width (4 or 8)."""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from .gfcore import MUL2, MUL3, SBOX


@dataclass(frozen=True)
class BitMat4:
    """4x4 binary matrix; rows[i] is a 4-bit int, MSB = column 1."""

    rows: tuple

    def __post_init__(self):
        if len(self.rows) != 4 or any(not 0 <= r <= 0xF for r in self.rows):
            raise ValueError("BitMat4 needs 4 rows of 4-bit values")

    @classmethod
    def zero(cls) -> "BitMat4":
        return cls(rows=(0, 0, 0, 0))

    @classmethod
    def identity(cls) -> "BitMat4":
        return cls(rows=(0b1000, 0b0100, 0b0010, 0b0001))


@dataclass(frozen=True)
class EncodingPair:
    f: BitMat4
    g: BitMat4

    @classmethod
    def identity(cls) -> "EncodingPair":
        return cls(f=BitMat4.zero(), g=BitMat4.zero())


def row_times_mat(row: int, m: BitMat4) -> int:
    """Multiply a 4-bit row vector by a 4x4 bit matrix."""
    out = 0
    for j in range(4):
        if (row >> (3 - j)) & 1:
            out ^= m.rows[j]
    return out


def idx_of(v: int, width: int = 8) -> frozenset:
    """Positions (1-based, MSB first) of the set bits of v."""
    return frozenset(p for p in range(1, width + 1) if (v >> (width - p)) & 1)


_UNIT8 = np.array([0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01], dtype=np.uint8)
_MSB_SHIFT4 = np.array([3, 2, 1, 0], dtype=np.uint8)


def assembled_rows(f, g) -> np.ndarray:
    """Rows of the block matrix [[I, f], [g, I + g.f]] for f and g rows given
    as (..., 4) arrays of 4-bit values: (..., 8) uint8, MSB = column 1."""
    f, g = np.asarray(f, dtype=np.uint8), np.asarray(g, dtype=np.uint8)
    g_bits = (g[..., :, None] >> _MSB_SHIFT4) & 1  # [..., i, j]: bit j of g row i
    g_times_f = np.bitwise_xor.reduce(g_bits * f[..., None, :], axis=-1)
    return np.concatenate([_UNIT8[:4] | f, (g << 4) | (_UNIT8[4:] ^ g_times_f)], axis=-1)


_X = np.arange(256, dtype=np.uint8)
_PARITY4 = np.array([v.bit_count() & 1 for v in range(16)], dtype=np.uint8)


def shear_maps(fg) -> tuple:
    """Encode and decode maps of a (..., 2, 4) stack of linear pairs, each the
    4 f rows then the 4 g rows: two (..., 256) uint8 arrays.  Encoding is
    Z^H = X^H + f.X^L, Z^L = X^L + g.Z^H; decoding inverts it for every pair,
    singular blocks included."""
    fg = np.asarray(fg, dtype=np.uint8)
    # times[..., m, v]: block m (f, then g) times the nibble v; bit i is the parity of row i & v
    times = (_PARITY4[fg[..., None] & _X[:16]] << _MSB_SHIFT4[:, None]).sum(axis=-2, dtype=np.uint8)
    f, g = times[..., 0, :], times[..., 1, :]
    hi, lo = _X >> 4, _X & 0xF
    zh = hi ^ f[..., lo]
    yl = lo ^ g[..., hi]
    return ((zh << 4) | (lo ^ np.take_along_axis(g, zh, axis=-1)),
            ((hi ^ np.take_along_axis(f, yl, axis=-1)) << 4) | yl)


@functools.lru_cache(maxsize=8192)
def encode_map(pair: EncodingPair) -> bytes:
    """The shear encoding of one pair as a 256-entry map (shear_maps)."""
    return shear_maps((pair.f.rows, pair.g.rows))[0].tobytes()


# --- coefficient tables ------------------------------------------------------

def _coeff() -> np.ndarray:
    mul = np.frombuffer(bytes(range(256)) + MUL2 + MUL3, dtype=np.uint8).reshape(3, 256)
    x = np.arange(256, dtype=np.uint8)
    table = mul[:, np.frombuffer(SBOX, dtype=np.uint8)[x[:, None] ^ x]]
    table.flags.writeable = False
    return table


# Every coefficient table of the analyses and checks: COEFF[ell - 1, k, x] is
# ell * S(x ^ k), for the MixColumns coefficients ell = 1, 2, 3.
COEFF = _coeff()


def coeff_tables(key_byte: int) -> np.ndarray:
    """(3, 256) uint8 hypothesis tables: row ell - 1 maps x to ell * S(x ^ key_byte)."""
    return COEFF[:, key_byte]


# --- blacklists -------------------------------------------------------------

# Transcription of the published forbidden row-index table, used purely as a
# cross-check of the brute-force derivation below.  Keys are (ell, ell', i');
# the diagonal groups (ell == ell') are the singletons {j} for every j.
_TRANSCRIBED_ROWSETS = {
    (1, 2): {1: {2}, 2: {3}, 3: {4}, 4: {1, 5}, 5: {1, 6}, 6: {7}, 7: {1, 8}, 8: {1}},
    (1, 3): {1: {1, 2}, 2: {2, 3}, 3: {3, 4}, 4: {1, 4, 5}, 5: {1, 5, 6}, 6: {6, 7}, 7: {1, 7, 8}, 8: {1, 8}},
    (2, 1): {1: {8}, 2: {1}, 3: {2}, 4: {3}, 5: {4, 8}, 6: {5, 8}, 7: {6}, 8: {7, 8}},
    (2, 3): {1: {1, 8}, 2: {1, 2}, 3: {2, 3}, 4: {3, 4}, 5: {4, 5, 8}, 6: {5, 6, 8}, 7: {6, 7}, 8: {7}},
    (3, 1): {
        1: {1, 2, 3, 4, 5, 6, 7, 8},
        2: {2, 3, 4, 5, 6, 7, 8},
        3: {3, 4, 5, 6, 7, 8},
        4: {4, 5, 6, 7, 8},
        5: {1, 2, 3, 4},
        6: {6, 7, 8},
        7: {7, 8},
        8: {1, 2, 3, 4, 5, 6, 7},
    },
    (3, 2): {
        1: {2, 3, 4, 5, 6, 7, 8},
        2: {3, 4, 5, 6, 7, 8},
        3: {4, 5, 6, 7, 8},
        4: {5, 6, 7, 8},
        5: {1, 2, 3, 4, 5},
        6: {7, 8},
        7: {8},
        8: {1, 2, 3, 4, 5, 6, 7, 8},
    },
}

# Transcribed per-row forbidden f rows (vectors written MSB-first).
_TRANSCRIBED_F_ROWSETS = (
    {0b0000, 0b1000, 0b0100, 0b0001, 0b1100, 0b0011},
    {0b0000},
    {0b0000},
    {0b0000, 0b0001, 0b1001, 0b1111},
)


@dataclass(frozen=True)
class BlacklistW:
    """Forbidden row-index combinations, grouped by (ell, ell', target row)."""

    by_group: dict  # (ell, ellp, iprime) -> frozenset of 1-based indices
    flat: frozenset  # union of all index sets
    rows: tuple  # rows[v] is True when the 8-bit row v selects a set in flat

    def forbids(self, row8: int) -> bool:
        return self.rows[row8]


@functools.lru_cache(maxsize=1)
def derive_blacklist_W() -> BlacklistW:
    """Scan all 255 nonempty row subsets of each coefficient matrix for XOR
    collisions with a row of another coefficient matrix (key byte 0; the
    result is key independent because a key change only permutes columns).

    Row i of the matrix of T = ell * S is bit i (MSB first) of T[x] over the
    256 inputs x, so the XOR of the rows a mask m selects is parity(T[x] & m);
    its target rows are the single-bit masks of the other coefficient."""
    values = np.arange(256, dtype=np.uint8)
    parity = table_bits(values[None])[0].sum(axis=0, dtype=np.uint8) & 1
    xors = parity[values[:, None, None] & COEFF[:, 0]]  # (mask, ell - 1, x)
    row_lookup = {ellp: {xors[1 << (8 - ip), ellp - 1].tobytes(): ip for ip in range(1, 9)}
                  for ellp in (1, 2, 3)}
    by_group = {}
    for ell in (1, 2, 3):
        for ellp in (1, 2, 3):
            for mask in range(1, 256):
                iprime = row_lookup[ellp].get(xors[mask, ell - 1].tobytes())
                if iprime is not None:
                    by_group[(ell, ellp, iprime)] = idx_of(mask)
    flat = frozenset(by_group.values())
    _cross_check_transcription(by_group)
    return BlacklistW(by_group=by_group, flat=flat, rows=tuple(idx_of(v) in flat for v in range(256)))


def _cross_check_transcription(by_group: dict) -> None:
    for ell in (1, 2, 3):
        for j in range(1, 9):
            if by_group.get((ell, ell, j)) != frozenset({j}):
                raise RuntimeError(f"blacklist self-check failed on diagonal ({ell},{ell},{j})")
    for (ell, ellp), rows in _TRANSCRIBED_ROWSETS.items():
        for iprime, J in rows.items():
            if by_group.get((ell, ellp, iprime)) != frozenset(J):
                raise RuntimeError(f"blacklist self-check failed at ({ell},{ellp},{iprime})")


@functools.lru_cache(maxsize=1)
def derive_blacklist_F() -> tuple:
    """Per-row forbidden f rows: values b with Idx(e_i || b) blacklisted."""
    W = derive_blacklist_W()
    out = []
    for i in range(4):
        e_i = 1 << (7 - i)
        bad = frozenset(b for b in range(16) if W.forbids(e_i | b))
        out.append(bad)
    result = tuple(out)
    if tuple(set(s) for s in result) != tuple(set(s) for s in _TRANSCRIBED_F_ROWSETS):
        raise RuntimeError("f-row blacklist self-check failed against the transcription")
    return result


@functools.lru_cache(maxsize=1)
def allowed_f_rows() -> tuple:
    bf = derive_blacklist_F()
    return tuple(tuple(b for b in range(16) if b not in bf[i]) for i in range(4))


def sample_f(rng: random.Random) -> BitMat4:
    """Row-wise rejection sampling of f against the per-row blacklist."""
    bf = derive_blacklist_F()
    rows = []
    for i in range(4):
        while True:
            b = rng.randrange(16)
            if b not in bf[i]:
                rows.append(b)
                break
    return BitMat4(rows=tuple(rows))


@functools.lru_cache(maxsize=None)
def valid_g_rows(f: BitMat4) -> tuple:
    """For each row i, the g-row values keeping row 4+i of M off the blacklist."""
    W = derive_blacklist_W()
    g_times_f = [row_times_mat(gr, f) for gr in range(16)]
    return tuple(
        tuple(gr for gr in range(16) if not W.forbids((gr << 4) | ((1 << (3 - i)) ^ g_times_f[gr])))
        for i in range(4)
    )


def sample_g(rng: random.Random, f: BitMat4) -> BitMat4:
    """Row-wise rejection sampling of g; every accepted row keeps the assembled
    matrix row off the blacklist."""
    candidates = valid_g_rows(f)
    rows = []
    for i in range(4):
        if not candidates[i]:
            raise ValueError(f"no admissible g row at index {i} for f={f.rows}")
        rows.append(rng.choice(candidates[i]))
    return BitMat4(rows=tuple(rows))


def sample_pair(rng: random.Random) -> EncodingPair:
    return EncodingPair(f=(f := sample_f(rng)), g=sample_g(rng, f))


def count_valid_pairs() -> int:
    """Exhaustive count of admissible (f, g) pairs.

    The lower-row condition factorizes per row of g, so the count is the sum
    over all admissible f of the product of per-row g counts.
    """
    total = 0
    allowed = allowed_f_rows()
    for r1 in allowed[0]:
        for r2 in allowed[1]:
            for r3 in allowed[2]:
                for r4 in allowed[3]:
                    f = BitMat4(rows=(r1, r2, r3, r4))
                    prod = 1
                    for rows in valid_g_rows(f):
                        prod *= len(rows)
                    total += prod
    return total


# --- Walsh grids ---------------------------------------------------------------

_SHIFTS = np.arange(7, -1, -1, dtype=np.uint8)  # bit i (MSB first) of v is (v >> _SHIFTS[i]) & 1


def walsh_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every first-order Walsh sum between two stacks of 256-entry tables.

    a is (A, 256) and b is (B, 256), uint8 values over the same 256 inputs.
    Entry [n, i, m, i'] of the (A, 8, B, 8) int32 result is the sum over x of
    (-1)^(bit i of a[n, x] ^ bit i' of b[m, x]), bits MSB first: zero when the
    two bits are balanced against each other, +-256 when one is the other or
    its complement.  One float32 product of (8A, 256) and (256, 8B) sign
    matrices, exact because every entry is an integer of magnitude at most 256."""
    return (_signs(a) @ _signs(b).T).astype(np.int32).reshape(a.shape[0], 8, b.shape[0], 8)


def table_bits(t: np.ndarray) -> np.ndarray:
    """(T, 256) byte tables to their (T, 8, 256) bits, MSB first."""
    return (t[:, None, :] >> _SHIFTS[:, None]) & 1


def _signs(t: np.ndarray) -> np.ndarray:
    """(T, 256) byte tables to the (8T, 256) float32 matrix of (-1)^bit."""
    return (1 - 2 * table_bits(t).astype(np.float32)).reshape(-1, 256)


def encoded_coeff_tables(pair: EncodingPair, key_byte: int) -> np.ndarray:
    """(3, 256) uint8: the coefficient tables under the pair's linear encoding,
    whose bits are the rows of M . S^ell."""
    return np.frombuffer(encode_map(pair), dtype=np.uint8)[coeff_tables(key_byte)]
