"""GF(2^8) arithmetic, the AES-128 key schedule and reference cipher, and the
plaintext-byte / table-position index maps of the first round."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GF_POLY = 0x11B

# Standard SubBytes table; tests/test_gfcore.py checks it against the inverse-plus-affine construction.
SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76"
    "ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d83115"
    "04c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f84"
    "53d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa8"
    "51a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d1973"
    "60814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479"
    "e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a"
    "703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df"
    "8ca1890dbfe6426841992d0fb054bb16"
)


def gf_mul(a: int, b: int) -> int:
    """Carry-less multiply in GF(2^8) reduced by 0x11B."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        if a & 0x100:
            a ^= GF_POLY
        b >>= 1
    return p


# Precomputed xtime-style multiples used by MixColumns.
MUL2 = bytes(gf_mul(2, x) for x in range(256))
MUL3 = bytes(gf_mul(3, x) for x in range(256))

# MixColumns matrix, row-major.
MC = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _expand_key(key: bytes) -> list[list[int]]:
    """FIPS-197 key schedule; returns 44 words of 4 bytes each."""
    words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        t = list(words[i - 1])
        if i % 4 == 0:
            t = t[1:] + t[:1]
            t = [SBOX[b] for b in t]
            t[0] ^= _RCON[i // 4 - 1]
        words.append([words[i - 4][k] ^ t[k] for k in range(4)])
    return words


def _shift_rows_mat(m: tuple) -> tuple:
    """ShiftRows applied to a 4x4 byte matrix (row i rotated left by i)."""
    return tuple(tuple(m[i][(j + i) % 4] for j in range(4)) for i in range(4))


@dataclass(frozen=True)
class RoundKeys:
    """Expanded AES-128 key material: k[0..10] plus ShiftRows-applied copies of k[0..9]."""

    k: tuple  # 11 matrices of 4x4 bytes, k[r][row][col]
    khat: tuple  # 10 matrices, khat[r] = ShiftRows(k[r])

    @classmethod
    def from_key(cls, key: bytes) -> "RoundKeys":
        if len(key) != 16:
            raise ValueError("key must be 16 bytes")
        words = _expand_key(key)
        k = []
        for r in range(11):
            w = words[4 * r : 4 * r + 4]
            # column c of round r is word 4r+c; k[r][row][col] = word[col][row]
            k.append(tuple(tuple(w[c][i] for c in range(4)) for i in range(4)))
        khat = tuple(_shift_rows_mat(k[r]) for r in range(10))
        return cls(k=tuple(k), khat=khat)


def _bytes_to_state(b: bytes) -> list[list[int]]:
    return [[b[i + 4 * j] for j in range(4)] for i in range(4)]


def _state_to_bytes(s) -> bytes:
    return bytes(s[i % 4][i // 4] for i in range(16))


def _shift_rows(s) -> list[list[int]]:
    return [[s[i][(j + i) % 4] for j in range(4)] for i in range(4)]


def _mix_single_column(col):
    a0, a1, a2, a3 = col
    return [
        MUL2[a0] ^ MUL3[a1] ^ a2 ^ a3,
        a0 ^ MUL2[a1] ^ MUL3[a2] ^ a3,
        a0 ^ a1 ^ MUL2[a2] ^ MUL3[a3],
        MUL3[a0] ^ a1 ^ a2 ^ MUL2[a3],
    ]


def _mix_columns(s) -> list[list[int]]:
    cols = [_mix_single_column([s[i][j] for i in range(4)]) for j in range(4)]
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def reference_encrypt(pt: bytes, key: bytes) -> bytes:
    """Plain AES-128 encryption, the functional oracle for the table network."""
    rk = RoundKeys.from_key(key)
    s = _bytes_to_state(pt)
    s = [[s[i][j] ^ rk.k[0][i][j] for j in range(4)] for i in range(4)]
    for r in range(1, 10):
        s = [[SBOX[v] for v in row] for row in s]
        s = _shift_rows(s)
        s = _mix_columns(s)
        s = [[s[i][j] ^ rk.k[r][i][j] for j in range(4)] for i in range(4)]
    s = [[SBOX[v] for v in row] for row in s]
    s = _shift_rows(s)
    s = [[s[i][j] ^ rk.k[10][i][j] for j in range(4)] for i in range(4)]
    return _state_to_bytes(s)


# ShiftRows over the 16 bytes of a block (byte i + 4c is row i of column c):
# byte i + 4c takes byte i + 4((c + i) % 4).
_SHIFT_ROWS = np.array([i + 4 * ((c + i) % 4) for c in range(4) for i in range(4)])
_SBOX_NP, _MUL2_NP, _MUL3_NP = (np.frombuffer(t, dtype=np.uint8) for t in (SBOX, MUL2, MUL3))


def reference_encrypt_batch(pts, key: bytes) -> np.ndarray:
    """Plain AES-128 over an (N, 16) uint8 plaintext array, all blocks one
    step at a time: the batch functional oracle, from the same constants and
    key schedule as reference_encrypt.  Returns (N, 16) ciphertexts."""
    if len(key) != 16:
        raise ValueError("key must be 16 bytes")
    rk = np.array(_expand_key(key), dtype=np.uint8).reshape(11, 16)
    s = np.asarray(pts, dtype=np.uint8) ^ rk[0]
    for r in range(1, 11):
        s = _SBOX_NP[s][:, _SHIFT_ROWS]
        if r < 10:
            c = s.reshape(-1, 4, 4)  # (block, column, row)
            s = (_MUL2_NP[c] ^ _MUL3_NP[np.roll(c, -1, axis=2)] ^ np.roll(c, -2, axis=2)
                 ^ np.roll(c, -3, axis=2)).reshape(-1, 16)
        s ^= rk[r]
    return s


def position_for_pt_index(m: int) -> tuple[int, int]:
    """Post-shift position (i, j), 0-based, of the round-1 table that
    plaintext byte m = i + 4 * ((j + i) % 4) feeds."""
    i = m % 4
    j = (m // 4 - i) % 4
    return i, j
