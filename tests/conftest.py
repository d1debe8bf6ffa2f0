import dataclasses
import functools
import itertools
import random
from dataclasses import dataclass

import pytest

from balaes import cipher, sca, tablegen
import numpy as np

from balaes.binmat import COEFF, admissible_g, assembled_rows, derive_blacklist_F, shear_maps, walsh_grid
from balaes.gfcore import SBOX, gf_mul
from balaes.nibenc import find_candidates

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
def round_output_model():
    """The round-output hypothesis at STD_KEY: k0, k2 and k3 known."""
    k0, _, k2, k3 = sca.round_output_keys(STD_KEY)
    return sca.RoundOutputHypothesis(known=(k0, k2, k3))


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


def windowed(traces: cipher.TraceSet, window) -> cipher.TraceSet:
    """The set `traces` holding only the samples of `window`, as
    cipher.load_traces(path, window) would load them."""
    ids = cipher.resolve_window(window)
    return dataclasses.replace(traces, samples=traces.samples_at(ids), sample_ids=ids)


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
    """Walsh sums between the encoded and plain coefficient matrices of a
    (2, 4) linear pair: entry [i][ip][ell-1][ellp-1] is row i of M.S^ell
    against row ip of S^ell', and a balanced pair gives the all-zero grid."""
    plain = COEFF[:, key_byte]
    return walsh_grid(shear_maps(pair)[0][plain], plain).transpose(1, 3, 0, 2)


# A linear pair is (2, 4) uint8: its 4 f rows, then its 4 g rows.
IDENTITY_PAIR = np.zeros((2, 4), dtype=np.uint8)


def random_pair(rng) -> np.ndarray:
    """Any f and g blocks, singular and blacklisted ones included."""
    return np.array([[rng.randrange(16) for _ in range(4)] for _ in range(2)], dtype=np.uint8)


# --- per-entry references of the encoding material ------------------------------
# The shear maps, the block matrix and the zero-swap codecs one entry at a
# time, with the codec partners as objects; binmat.shear_maps,
# binmat.assembled_rows and nibenc.codec_bytes must agree with them exactly.

@dataclass(frozen=True)
class BitMat8:
    """8x8 binary matrix; rows[i] is an 8-bit int, MSB = column 1."""

    rows: tuple


def mat_vec_mul(rows, v: int) -> int:
    """Multiply a 4x4 bit matrix, given by its 4 rows, by a 4-bit column vector."""
    out = 0
    for i in range(4):
        if (int(rows[i]) & v).bit_count() & 1:
            out |= 1 << (3 - i)
    return out


def assemble_M(pair) -> BitMat8:
    """Block matrix [[I, f], [g, I + g.f]] realizing the shear encoding."""
    return BitMat8(rows=tuple(assembled_rows(pair[0], pair[1]).tolist()))


@functools.lru_cache(maxsize=1)
def allowed_f_rows() -> tuple:
    """Per-row admissible f rows: every 4-bit value derive_blacklist_F does not forbid."""
    bf = derive_blacklist_F()
    return tuple(tuple(b for b in range(16) if b not in bf[i]) for i in range(4))


def count_valid_pairs() -> int:
    """Exhaustive count of admissible (f, g) pairs.

    The lower-row condition factorizes per row of g, so the count is the sum
    over all 27,000 admissible f of the product of per-row g counts: one
    admissible_g call over the stack of every f.
    """
    f = np.array(list(itertools.product(*allowed_f_rows())), dtype=np.uint8)
    return int(admissible_g(f).sum(axis=-1).prod(axis=-1).sum())


def f_family_size() -> int:
    size = 1
    for rows in allowed_f_rows():
        size *= len(rows)
    return size


@functools.lru_cache(maxsize=8192)
def _reference_maps(fg: bytes) -> tuple:
    f, g = fg[:4], fg[4:]
    fm = [mat_vec_mul(f, v) for v in range(16)]
    gm = [mat_vec_mul(g, v) for v in range(16)]
    enc, dec = bytearray(256), bytearray(256)
    for x in range(256):
        zh = (x >> 4) ^ fm[x & 0xF]
        enc[x] = (zh << 4) | ((x & 0xF) ^ gm[zh])
        yl = (x & 0xF) ^ gm[x >> 4]
        dec[x] = (((x >> 4) ^ fm[yl]) << 4) | yl
    return bytes(enc), bytes(dec)


def reference_encode_map(pair) -> bytes:
    """The shear encoding of a (2, 4) pair as a 256-entry map:
    Z^H = X^H + f.X^L, Z^L = X^L + g.Z^H."""
    return _reference_maps(np.asarray(pair, dtype=np.uint8).tobytes())[0]


def decode_map(pair) -> bytes:
    """Inverse of the encode map; valid for every pair, singular blocks included."""
    return _reference_maps(np.asarray(pair, dtype=np.uint8).tobytes())[1]


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


def spec_codec(partners) -> CodecPair:
    """The codec pair of one (upper, lower) row of a spec's partner array."""
    return CodecPair.of(*partners.tolist())


def non_candidate_stage2_spec(spec: tablegen.EncodingSpec, j: int, k: int):
    """A copy of spec whose round-1 stage-2 codec partner of output byte
    (j, k), the round-output boundary, lies outside its candidate set (the
    upper one if the slot's pair admits such a partner, else the lower), or
    None if the pair admits every partner.  The tables it generates still
    encrypt correctly, since the codecs cancel functionally."""
    # partner 0 is always a candidate, so these are the nonzero non-candidates
    non_hi, non_lo = (np.flatnonzero(~half).tolist() for half in find_candidates(spec.fg[0, j, k])[3])
    if not (non_hi or non_lo):
        return None
    partners = spec.stage_partners.copy()
    partners[0, j, k, 2, 0 if non_hi else 1] = (non_hi or non_lo)[0]
    return dataclasses.replace(spec, stage_partners=partners)
