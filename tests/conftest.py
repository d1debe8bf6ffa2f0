import functools
import random
from dataclasses import dataclass

import pytest

from balaes import cipher, tablegen
from balaes.binmat import (
    BitMat4,
    EncodingPair,
    allowed_f_rows,
    assembled_rows,
    coeff_tables,
    encoded_coeff_tables,
    walsh_grid,
)
from balaes.gfcore import SBOX, gf_mul

STD_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
STD_SEED = 42


@pytest.fixture(scope="session")
def std_build():
    pair, spec = tablegen.build_table_pair(STD_KEY, STD_SEED)
    return pair, spec


@pytest.fixture(scope="session")
def std_pair(std_build):
    return std_build[0]


@pytest.fixture(scope="session")
def std_spec(std_build):
    return std_build[1]


@pytest.fixture(scope="session")
def traces_q0_10k(std_pair):
    rng = random.Random(1000)
    pts = cipher.random_plaintexts(10000, rng)
    return cipher.collect_traces(std_pair, cipher.SelectorPolicy.fixed_q0(), pts)


@pytest.fixture(scope="session")
def traces_mixed_10k(std_pair):
    rng = random.Random(77)
    pts = cipher.random_plaintexts(10000, rng)
    return cipher.collect_traces(std_pair, cipher.SelectorPolicy.random_bit(0.5), pts, rng)


@pytest.fixture(scope="session")
def grid_q0(std_pair):
    return cipher.collect_traces(std_pair, cipher.SelectorPolicy.fixed_q0(), cipher.grid_plaintexts())


@pytest.fixture(scope="session")
def grid_mixed(std_pair):
    rng = random.Random(5)
    return cipher.collect_traces(
        std_pair, cipher.SelectorPolicy.random_bit(0.5), cipher.grid_plaintexts(), rng
    )


def bit_rows(values) -> list:
    """The 8 bit rows of a 256-entry byte table as 256-bit ints: row i (MSB
    first) has bit x set when bit i of values[x] is, so a Walsh sum of two
    rows is 256 - 2 * popcount of their XOR."""
    rows = [0] * 8
    for x, v in enumerate(values):
        for i in range(8):
            if (int(v) >> (7 - i)) & 1:
                rows[i] |= 1 << x
    return rows


@functools.lru_cache(maxsize=None)
def s_matrix_rows(ell: int, key_byte: int) -> tuple:
    """bit_rows of ell * S(x ^ key_byte), built from gfcore's S-box and field
    multiplication rather than the program's coefficient tables."""
    return tuple(bit_rows(gf_mul(ell, SBOX[x ^ key_byte]) for x in range(256)))


def walsh_balance_check(pair, key_byte: int):
    """Walsh sums between the encoded and plain coefficient matrices: entry
    [i][ip][ell-1][ellp-1] is row i of M.S^ell against row ip of S^ell', and a
    balanced pair gives the all-zero grid."""
    return walsh_grid(encoded_coeff_tables(pair, key_byte), coeff_tables(key_byte)).transpose(1, 3, 0, 2)


# --- per-entry references of the encoding material ------------------------------
# The shear maps, the block matrix and the zero-swap codecs one entry at a
# time, with the 4x4 blocks and codec partners as objects; binmat.shear_maps,
# binmat.assembled_rows and nibenc.codec_bytes must agree with them exactly.

@dataclass(frozen=True)
class BitMat8:
    """8x8 binary matrix; rows[i] is an 8-bit int, MSB = column 1."""

    rows: tuple


def mat_vec_mul(m: BitMat4, v: int) -> int:
    """Multiply a 4x4 bit matrix by a 4-bit column vector."""
    out = 0
    for i in range(4):
        if (m.rows[i] & v).bit_count() & 1:
            out |= 1 << (3 - i)
    return out


def assemble_M(pair: EncodingPair) -> BitMat8:
    """Block matrix [[I, f], [g, I + g.f]] realizing the shear encoding."""
    return BitMat8(rows=tuple(assembled_rows(pair.f.rows, pair.g.rows).tolist()))


def f_family_size() -> int:
    size = 1
    for rows in allowed_f_rows():
        size *= len(rows)
    return size


@functools.lru_cache(maxsize=8192)
def reference_encode_map(pair: EncodingPair) -> bytes:
    """The shear encoding as a 256-entry map: Z^H = X^H + f.X^L, Z^L = X^L + g.Z^H."""
    fm = [mat_vec_mul(pair.f, v) for v in range(16)]
    gm = [mat_vec_mul(pair.g, v) for v in range(16)]
    out = bytearray(256)
    for x in range(256):
        zh = (x >> 4) ^ fm[x & 0xF]
        out[x] = (zh << 4) | ((x & 0xF) ^ gm[zh])
    return bytes(out)


@functools.lru_cache(maxsize=8192)
def decode_map(pair: EncodingPair) -> bytes:
    """Inverse of the encode map; valid for every pair, singular blocks included."""
    fm = [mat_vec_mul(pair.f, v) for v in range(16)]
    gm = [mat_vec_mul(pair.g, v) for v in range(16)]
    out = bytearray(256)
    for z in range(256):
        yl = (z & 0xF) ^ gm[z >> 4]
        out[z] = (((z >> 4) ^ fm[yl]) << 4) | yl
    return bytes(out)


@dataclass(frozen=True)
class NibbleCodec:
    """Involution on 4-bit values swapping 0 with e (e = 0 is the identity)."""

    e: int

    def __post_init__(self):
        if not 0 <= self.e <= 0xF:
            raise ValueError("codec partner must be a nibble")

    def encode(self, v: int) -> int:
        if v == 0:
            return self.e
        if v == self.e:
            return 0
        return v

    decode = encode


@dataclass(frozen=True)
class CodecPair:
    upper: NibbleCodec
    lower: NibbleCodec

    @classmethod
    def identity(cls) -> "CodecPair":
        return cls(upper=NibbleCodec(0), lower=NibbleCodec(0))

    @classmethod
    def of(cls, e_upper: int, e_lower: int) -> "CodecPair":
        return cls(upper=NibbleCodec(e_upper), lower=NibbleCodec(e_lower))


def codec_map(cp: CodecPair) -> bytes:
    """The codec pair as a 256-entry map, one nibble at a time; an
    involution, so it also decodes."""
    return bytes((cp.upper.encode(x >> 4) << 4) | cp.lower.encode(x & 0xF) for x in range(256))


def spec_pair(spec, r: int, j: int, k: int) -> EncodingPair:
    """The linear pair of slot (r, j, k), round r in 1..9, from spec.fg."""
    f, g = spec.fg[r - 1, j, k].tolist()
    return EncodingPair(f=BitMat4(rows=tuple(f)), g=BitMat4(rows=tuple(g)))


def spec_codec(partners) -> CodecPair:
    """The codec pair of one (upper, lower) row of a spec's partner array."""
    return CodecPair.of(*partners.tolist())
