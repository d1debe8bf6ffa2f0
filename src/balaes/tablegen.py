"""Synthesis of the protected AES-128 table network and its complement set.

Per encoded round r (1..9), each state byte feeds a 256x4 table fusing key
addition, SubBytes and the four MixColumns partial products; the four encoded
products of one output byte are folded by packed 4-bit XOR tables.  The final
round uses plain-output 256-byte tables.  Every internal boundary carries a
zero-swap nibble codec; the complement set flips all internal bits.

Generation works on whole arrays and reads the spec's arrays directly: one
shear_maps call gives the encode and decode maps of all 144 linear pairs, and
every table family is then one gather through COEFF, those maps and the
nibble-swap table NIB.

The walk runs on a walk-ready copy of the round and XOR tables (walk_tables),
made once per TableSet, whose uint16 values fold in the index arithmetic: a
round-table row yields its 8 output nibbles, those of input row 0 times 16
plus the start of their stage-0 XOR table; XOR stages 0 and 1 yield 16v plus
the start of the next stage's table; stage 2's upper half yields 16v plus the
start of the next round's table row block, its lower half v.  An XOR stage is
then one add and one gather, and the next round's indices are the sum of
stage 2's halves put through ShiftRows.  Every start is a multiple of 256, so
a recorded walk cuts each trace sample from a value it gathered with one shift
and mask, in the same pass.  A TableSet's arrays are read-only, so its
walk-ready copy cannot go stale.

A table file is an 8-byte header (magic, version, set id), then the TableSet
arrays in their index order: ut (9*16*1024 bytes), tx packed two nibbles per
byte with the even entry of each pair in the low nibble (864*128 bytes), t10
(16*256 bytes), and a CRC-32 of everything before it.  A spec file is its
header, seed and key, then the EncodingSpec arrays fg, ut_partners and
stage_partners in their index order, and a CRC-32."""

from __future__ import annotations

import functools
import math
import random
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .gfcore import MC, RoundKeys, reference_encrypt_batch
from .binmat import COEFF, assembled_rows, derive_blacklist_W, sample_pair, shear_maps, walsh_grid
from .nibenc import NIB, codec_bytes, find_candidates

TABLE_MAGIC = b"BAE1"
SPEC_MAGIC = b"BAS1"
FORMAT_VERSION = 1

UT_BYTES = 9 * 4 * 4 * 256 * 4
TX_BYTES = 9 * 4 * 4 * 3 * 2 * 128
T10_BYTES = 4 * 4 * 256
TOTAL_BYTES = UT_BYTES + TX_BYTES + T10_BYTES

UT_LOOKUPS = 9 * 16
TX_LOOKUPS = 9 * 16 * 3 * 2
T10_LOOKUPS = 16
TOTAL_LOOKUPS = UT_LOOKUPS + TX_LOOKUPS + T10_LOOKUPS


class GenerationError(RuntimeError):
    """Raised when a slot exhausts RETRY_BUDGET or generated tables fail verification."""


class FormatError(ValueError):
    """Raised on malformed serialized tables, specs or traces."""


@dataclass(eq=False)
class EncodingSpec:
    """Secret encoding material of one table-set pair, as the spec file's
    uint8 arrays, all indexed [r-1, j, k, ...]: round r in 1..9, column j and
    output byte k.

    fg (9, 4, 4, 2, 4): the linear pair shared by the four partial products of
    output byte k in column j, its 4 f rows then its 4 g rows.
    ut_partners (9, 4, 4, 4, 2), [r-1, j, k, i, (upper, lower)]: the codec
    partners on the table output produced from input row i.
    stage_partners (9, 4, 4, 3, 2), [r-1, j, k, s, (upper, lower)]: those on
    XOR stage s, stage 2 being the round-output boundary."""

    seed: int
    key: bytes
    fg: np.ndarray
    ut_partners: np.ndarray
    stage_partners: np.ndarray
    xor_boundary_mode: str = "balanced"
    round_keys: RoundKeys = field(init=False, repr=False)

    def __post_init__(self):
        self.round_keys = RoundKeys.from_key(self.key)


# EncodingSpec's arrays in spec file order; the file stores each whole, in its index order.
_SPEC_SHAPES = {"fg": (9, 4, 4, 2, 4), "ut_partners": (9, 4, 4, 4, 2), "stage_partners": (9, 4, 4, 3, 2)}


@dataclass(frozen=True)
class TableSet:
    """One generated lookup-table set.

    ut:  (9, 4, 4, 256, 4) uint8, indexed [r-1][i][j][input][k]
    tx:  (9, 4, 4, 3, 2, 256) uint8 nibble values, indexed [r-1][j][k][stage][half][a<<4|b]
    t10: (4, 4, 256) uint8, indexed [i][j][input]

    The three arrays are made read-only here, so the walk-ready arrays derived
    from them cannot go stale."""

    set_id: int
    ut: np.ndarray
    tx: np.ndarray
    t10: np.ndarray

    def __post_init__(self):
        for table in (self.ut, self.tx, self.t10):
            table.flags.writeable = False

    def __eq__(self, other):
        return (
            isinstance(other, TableSet)
            and self.set_id == other.set_id
            and np.array_equal(self.ut, other.ut)
            and np.array_equal(self.tx, other.tx)
            and np.array_equal(self.t10, other.t10)
        )

    @functools.cached_property
    def walk(self) -> tuple:
        """The walk-ready (ut, tx) arrays, built on the first walk; see walk_tables."""
        return walk_tables(self.ut, self.tx)


@dataclass
class TableSetPair:
    q0: TableSet
    q1: TableSet

    def select(self, bit: int) -> TableSet:
        return self.q1 if bit else self.q0


def xor_tables(left, right, out) -> np.ndarray:
    """4-bit XOR tables for codec partner arrays of one shape: entry (a << 4) | b
    decodes a with left and b with right, XORs them and encodes with out.

    The linear layer is intentionally not decoded; it distributes over XOR.
    Returns (..., 256) nibble values."""
    xor = NIB[left][..., :, None] ^ NIB[right][..., None, :]
    return np.take_along_axis(NIB[out], xor.reshape(*xor.shape[:-2], 256), axis=-1)


RETRY_BUDGET = 32  # resamples of one slot in build_spec before it gives up


def build_spec(key: bytes, seed: int, xor_boundary_mode: str = "balanced") -> EncodingSpec:
    """Sample all linear pairs and codecs for one table set.

    A pair is accepted for a (round, column, out-byte) slot only if every
    boundary it serves has at least one nonzero swap candidate (one
    find_candidates call); otherwise the slot is resampled, up to
    RETRY_BUDGET times.  Each partner is then drawn with rng.choice over its
    boundary's nonzero candidates in ascending order.
    """
    if xor_boundary_mode not in ("balanced", "identity"):
        raise ValueError("xor_boundary_mode must be 'balanced' or 'identity'")
    balanced = xor_boundary_mode == "balanced"
    rng = random.Random(seed)
    fg = np.zeros(_SPEC_SHAPES["fg"], dtype=np.uint8)
    ut_partners = np.zeros(_SPEC_SHAPES["ut_partners"], dtype=np.uint8)
    stage_partners = np.zeros(_SPEC_SHAPES["stage_partners"], dtype=np.uint8)
    for r, j, k in np.ndindex(9, 4, 4):
        for attempt in range(RETRY_BUDGET + 1):
            pair = sample_pair(rng)
            cands = find_candidates(pair)  # (boundary, half, e)
            cands[..., 0] = False
            if cands[: 4 if balanced else 3].any(axis=-1).all():
                break
        else:
            raise GenerationError(f"no admissible encoding for slot r={r + 1} j={j} k={k}")
        fg[r, j, k] = pair
        choices = [[[e for e in range(16) if half[e]] for half in boundary] for boundary in cands.tolist()]
        for i in range(4):
            ch, cl = choices[_ELL[i, k]]
            ut_partners[r, j, k, i] = rng.choice(ch), rng.choice(cl)
        if balanced:  # identity mode keeps every stage partner 0
            for s in range(3):
                stage_partners[r, j, k, s] = rng.choice(choices[3][0]), rng.choice(choices[3][1])
    return EncodingSpec(seed=seed, key=bytes(key), fg=fg, ut_partners=ut_partners,
                        stage_partners=stage_partners, xor_boundary_mode=xor_boundary_mode)


_X = np.arange(256, dtype=np.uint8)
_I4 = np.arange(4)
# COEFF row of input row i in output byte k: _ELL[i, k] = MC[k][i] - 1.
_ELL = np.array(MC).T - 1
# Table (i, j) of round r + 1 reads the encoded output byte i of column (j + i) % 4
# of round r, after ShiftRows.
_PJ = (_I4 + _I4[:, None]) % 4


def generate_tableset(spec: EncodingSpec) -> TableSet:
    ut_e, st_e = spec.ut_partners, spec.stage_partners
    enc, dec = shear_maps(spec.fg)  # (9, 4, 4, 256) each
    kh = np.array(spec.round_keys.khat, dtype=np.uint8)  # (10, 4, 4), [r-1][i][j]
    # din[r-1, i, j, x]: the plain byte behind input x of table (i, j) of round r,
    # undoing the producing round-output boundary's codec and linear encoding.
    din = np.empty((10, 4, 4, 256), dtype=np.uint8)
    din[0] = _X  # round 1 reads the plaintext
    e_in = st_e[:, _PJ, _I4[:, None], 2]  # (9, 4, 4, 2)
    din[1:] = np.take_along_axis(dec[:, _PJ, _I4[:, None]],
                                 codec_bytes(_X, e_in[..., :1], e_in[..., 1:]), axis=-1)
    # Rounds 1..9: ell * S(x ^ k), then the slot's linear encoding, then the codec
    # on the table output; indexed [r-1][i][j][x][k].
    y = COEFF[_ELL[:, None, None, :], kh[:9, :, :, None, None], din[:9, :, :, :, None]]
    r, j, k = np.arange(9)[:, None, None, None, None], _I4[:, None, None], _I4
    y = enc[r, j, k, y]
    e_ut = ut_e.transpose(0, 3, 1, 2, 4)[:, :, :, None]  # [r-1][i][j][-][k][half]
    ut = codec_bytes(y, e_ut[..., 0], e_ut[..., 1])
    # XOR stage s folds the running value (row 0's table output for s = 0, else
    # stage s - 1's output) with row s + 1's table output.
    left = np.concatenate([ut_e[:, :, :, :1], st_e[:, :, :, :2]], axis=3)
    tx = xor_tables(left, ut_e[:, :, :, 1:], st_e)
    t10 = COEFF[0, kh[9, :, :, None], din[9]] ^ np.array(spec.round_keys.k[10], dtype=np.uint8)[:, :, None]
    return TableSet(set_id=0, ut=ut, tx=tx, t10=t10)


def build_q1(q0: TableSet) -> TableSet:
    """Complement twin: internal-boundary bits flipped on both index and value.

    Round-1 inputs and final-round outputs are external and stay unmodified,
    so both sets encrypt identically.
    """
    ut = np.empty_like(q0.ut)
    ut[0] = q0.ut[0] ^ 0xFF  # round 1: plaintext side is external, outputs complemented
    ut[1:] = q0.ut[1:, :, :, ::-1, :] ^ 0xFF  # inner rounds: index and value complemented
    tx = q0.tx[..., ::-1] ^ 0xF
    t10 = q0.t10[..., ::-1].copy()
    return TableSet(set_id=1, ut=ut, tx=tx, t10=t10)


def build_table_pair(key: bytes, seed: int, xor_boundary_mode: str = "balanced"):
    """(TableSetPair, EncodingSpec) of seed, in one pass: sample the spec,
    generate q0, verify it once, derive its complement q1.  A seed outside
    0..2**64 - 1, the spec file's u64 field, raises ValueError before any
    work.  The construction balances every sum verify_tableset checks, so a
    failed check is a generator fault: it raises GenerationError naming the
    first failures, and no other seed is tried."""
    if not 0 <= seed <= 2**64 - 1:
        raise ValueError(f"seed must be in 0..{2**64 - 1}, got {seed}")
    spec = build_spec(key, seed, xor_boundary_mode)
    q0 = generate_tableset(spec)
    report = verify_tableset(q0, spec)
    if not report.passed:
        raise GenerationError(f"generated tables failed verification: {report.failures[:4]}")
    return TableSetPair(q0=q0, q1=build_q1(q0)), spec


# --- network walk ------------------------------------------------------------

WALK_CHUNK = 1024  # rows per pass; 2,048 and up were slower on the 65,536-row grid

# Table (i, j) of a round starts at row (4i + j) * 256 of the round's flattened
# tables, and XOR table (j, k, stage, half) at entry (((j*4 + k)*3 + stage)*2 + half) * 256.
_TABLE_ROW = (np.arange(16, dtype=np.uint16) * 256).reshape(4, 4, 1)
_XOR_ROW = (np.arange(96, dtype=np.uint16) * 256).reshape(4, 4, 3, 2)
# Table (i, j) reads state byte i + 4 * ((i + j) % 4): ShiftRows, as a gather
# of the (16, rows) state in plaintext byte order.
_SHIFT_ROWS = _I4[:, None] + 4 * _PJ
# A walk-ready XOR table entry is its nibble v << _XOR_SHIFT plus _XOR_NEXT:
# stages 0 and 1 yield 16v plus the start of the next stage's table; stage 2's
# upper half yields 16v plus the start of the next round's table (k, (j - k) % 4),
# and its lower half v.
_XOR_SHIFT = np.full((4, 4, 3, 2), 4, dtype=np.uint16)
_XOR_SHIFT[:, :, 2, 1] = 0
_XOR_NEXT = np.zeros((4, 4, 3, 2), dtype=np.uint16)
_XOR_NEXT[:, :, :2] = _XOR_ROW[:, :, 1:]
_XOR_NEXT[:, :, 2, 0] = _TABLE_ROW.reshape(16)[4 * _I4 + (_I4[:, None] - _I4) % 4]


def walk_tables(ut: np.ndarray, tx: np.ndarray) -> tuple:
    """The walk-ready layout of a set's round and XOR tables, index arithmetic
    folded into the values, all uint16:

    ut (9, 4096, 8): row (4i + j) * 256 + x of round r holds table (i, j)'s
    output on input x as 8 nibbles in (k, upper-then-lower) order; those of
    input row 0 come times 16 plus the start of their stage-0 XOR table, so a
    stage's entry index is the running value plus one table-row nibble.
    tx (9, 24576): entry v of XOR table (j, k, stage, half) as in _XOR_SHIFT
    and _XOR_NEXT, so the sum of stage 2's two halves is the next round's row
    index of the output byte."""
    nib = np.empty((9, 4, 4, 256, 4, 2), dtype=np.uint16)
    np.right_shift(ut, 4, out=nib[..., 0])
    np.bitwise_and(ut, 0xF, out=nib[..., 1])
    nib[:, 0] <<= 4
    nib[:, 0] += _XOR_ROW[:, None, :, 0]
    xor = tx.astype(np.uint16) << _XOR_SHIFT[..., None]
    xor += _XOR_NEXT[..., None]
    return nib.reshape(9, 4096, 8), xor.reshape(9, -1)


def encrypt_batch_with_tables(ts: TableSet, pts: np.ndarray, record: bool = False):
    """The table walk over an (N, 16) uint8 plaintext array, WALK_CHUNK rows
    at a time, through the set's walk-ready arrays (walk_tables).

    Per round: one gather of the 16 table rows; per XOR stage, one add of the
    running values and a row's nibbles and one gather; then one add of stage
    2's halves gives the next round's indices in state byte order, and one
    ShiftRows gather puts them in table order.  With record, each round's
    samples are written as it is walked, each a shift and a mask of a value
    it gathered (see walk_tables): per column, byte pairs of table outputs
    (i, k), then of XOR nibbles (k, stage), built sample-major and transposed
    into the trace.  Returns (ciphertexts (N, 16), samples (N, 1456) or None,
    lookups), the lookup count summed from the sizes of the index arrays."""
    pts = np.asarray(pts, dtype=np.uint8)
    n = pts.shape[0]
    ut, tx = ts.walk
    t10 = ts.t10.reshape(-1)
    cts = np.empty((n, 16), dtype=np.uint8)
    samples = np.empty((n, 1456), dtype=np.uint8) if record else None
    lookups = 0
    for start in range(0, n, WALK_CHUNK):
        block = pts[start : start + WALK_CHUNK]
        m = block.shape[0]
        state = np.empty((16, m), dtype=np.uint16)
        halves = state.reshape(4, 4, m).transpose(0, 2, 1)  # byte 4j + k as (j, row, k)
        idx = block.T[_SHIFT_ROWS] + _TABLE_ROW  # (i, j, row) table-row indices
        if record:
            trace = samples[start : start + m].view(np.uint16)[:, :720].reshape(m, 9, 80)
            # a row of 32 mod 64 bytes keeps the transpose's reads off one cache set
            pairs = np.empty((80, m - m % 32 + 48), dtype=np.uint16)[:, :m].reshape(4, 20, m)  # (j, pair, row)
            table = np.empty((4, 4, m, 4), dtype=np.uint8)  # (i, j, row, k)
            xor = np.empty((3, 4, m, 8), dtype=np.uint8)  # (stage, j, row, 2k + half)
        for r in range(9):
            nib = ut[r].take(idx, axis=0)  # (i, j, row, 2k + half)
            lookups += idx.size
            if record:
                words = nib.view(np.uint32)  # (i, j, row, k): upper | lower << 16
                np.bitwise_or(words[0] & 0xF0, words[0] >> 20 & 0xF, out=table[0], casting="unsafe")
                np.bitwise_or(words[1:] << 4, words[1:] >> 16, out=table[1:], casting="unsafe")
            acc = nib[0]
            for s in range(3):
                entry = acc + nib[s + 1]  # (j, row, 2k + half) XOR-entry indices
                lookups += entry.size
                acc = tx[r].take(entry)
                if record:
                    np.copyto(xor[s], acc, casting="unsafe")  # the low byte: 16v, or v
            np.add(acc[..., 0::2], acc[..., 1::2], out=halves)
            if record:
                xor >>= 4
                xor[2, ..., 1::2] = acc[..., 1::2]  # stage 2's lower half is v itself
                pairs[:, :8].reshape(4, 4, 2, m)[...] = table.view(np.uint16).transpose(1, 0, 3, 2)
                pairs[:, 8:].reshape(4, 4, 3, m)[...] = xor.view(np.uint16).transpose(1, 3, 0, 2)
                trace[:, r] = pairs.reshape(80, m).T
            idx = state.take(_SHIFT_ROWS, axis=0)
        final = t10.take(idx)  # (i, j, row)
        lookups += idx.size
        cts[start : start + m].reshape(m, 4, 4)[...] = final.transpose(2, 1, 0)
    if record:
        samples[:, 1440:] = cts
    return cts, samples, lookups


def encrypt_with_tables(ts: TableSet, pt: bytes, record: bool = False):
    """One block through the table walk: (ciphertext, samples or None, lookups)."""
    if len(pt) != 16:
        raise ValueError("plaintext must be 16 bytes")
    cts, samples, lookups = encrypt_batch_with_tables(ts, np.frombuffer(pt, dtype=np.uint8)[None], record)
    return cts[0].tobytes(), (samples[0].tobytes() if record else None), lookups


# --- verification ------------------------------------------------------------

@dataclass
class VerifyReport:
    passed: bool
    checks: dict
    failures: list


def walsh_ut_grid_static(ts: TableSet, spec: EncodingSpec) -> np.ndarray:
    """Signed Walsh sums of every round-1 table output bit against every
    hypothesis bit at the correct key: (i, j, k, bit, ellp, iprime) grid."""
    grid = np.empty((4, 4, 4, 8, 3, 8), dtype=np.int32)
    for i in range(4):
        for j in range(4):
            grid[i, j] = walsh_grid(ts.ut[0, i, j].T, COEFF[:, spec.round_keys.khat[0][i][j]])
    return grid


def round_output_bytes_grid(ts: TableSet) -> np.ndarray:
    """Encoded first-round output byte (column 0, byte 0) over the full
    (p1, p2) grid, other contributing bytes fixed to zero.  Shape (256, 256)."""
    y0 = ts.ut[0, 0, 0, :, 0].astype(np.uint16)  # varies with p1
    y1 = ts.ut[0, 1, 0, :, 0].astype(np.uint16)  # varies with p2
    y2 = int(ts.ut[0, 2, 0, 0, 0])
    y3 = int(ts.ut[0, 3, 0, 0, 0])
    cu = (y0 >> 4)[:, None] * 16 + (y1 >> 4)[None, :]
    cl = (y0 & 0xF)[:, None] * 16 + (y1 & 0xF)[None, :]
    cu = ts.tx[0, 0, 0, 0, 0][cu].astype(np.uint16)
    cl = ts.tx[0, 0, 0, 0, 1][cl].astype(np.uint16)
    cu = ts.tx[0, 0, 0, 1, 0][cu * 16 + (y2 >> 4)].astype(np.uint16)
    cl = ts.tx[0, 0, 0, 1, 1][cl * 16 + (y2 & 0xF)].astype(np.uint16)
    cu = ts.tx[0, 0, 0, 2, 0][cu * 16 + (y3 >> 4)].astype(np.uint16)
    cl = ts.tx[0, 0, 0, 2, 1][cl * 16 + (y3 & 0xF)].astype(np.uint16)
    return (cu * 16 + cl).astype(np.uint8)


def round_output_walsh(c: np.ndarray, guesses=range(256)) -> np.ndarray:
    """Round-output Walsh statistic of a (p1, p2) grid c of encoded
    round-output bytes, one (i, iprime) block per second-row key guess g:

        out[n, i, iprime] = sum over p1 of |sum over p2 of
                            s(bit i of c[p1, p2]) * s(bit iprime of 3 * S(p2 ^ g_n))|

    with s(b) = (-1)^b and bits MSB first.  The full hypothesis byte is
    2 * S(p1 ^ k0) ^ 3 * S(p2 ^ g); its first term puts one sign per p1 in
    front of each inner sum, which the absolute value drops, so the known key
    byte k0 does not enter.  Every inner sum over every guess is one entry of
    a single Walsh grid: row p1 of c is one table over p2 for binmat.walsh_grid."""
    inner = walsh_grid(c, COEFF[2, np.asarray(guesses, dtype=np.uint8)])  # (p1, i, g, i')
    return np.abs(inner, out=inner).sum(axis=0, dtype=np.int64).transpose(1, 0, 2)


def verify_tableset(ts: TableSet, spec: EncodingSpec) -> VerifyReport:
    """Check the construction: at the correct key every Walsh sum of a round-1
    table output, and of the encoded round output on the two-byte input
    subspace, is zero, and the walk encrypts as plain AES does."""
    failures = []
    checks = {}

    # khat[0][1][0] is k1 of sca.round_output_keys, which tablegen cannot
    # import: sca imports tablegen
    for name, label, grid in (
            ("ut_walsh_zero", "ut walsh nonzero at (i,j,k,bit,ellp,iprime)", walsh_ut_grid_static(ts, spec)),
            ("round_output_walsh_zero", "round-output walsh nonzero at (i,iprime)",
             round_output_walsh(round_output_bytes_grid(ts), [spec.round_keys.khat[0][1][0]])[0])):
        checks[name] = not grid.any()
        failures += [f"{label}={tuple(int(x) for x in idx)}" for idx in np.argwhere(grid)[:8]]

    pts = np.frombuffer(random.Random(0xBA1A).randbytes(256 * 16), dtype=np.uint8).reshape(256, 16)
    cts, _, _ = encrypt_batch_with_tables(ts, pts)
    bad = np.flatnonzero((cts != reference_encrypt_batch(pts, spec.key)).any(axis=1))
    ok = not bad.size
    for n in bad:
        failures.append(f"functional mismatch on plaintext #{n}")
        if len(failures) > 16:
            break
    checks["functional_equality"] = ok

    return VerifyReport(passed=all(checks.values()), checks=checks, failures=failures)


def size_and_lookup_report(ts: TableSet) -> dict:
    ut_bytes = int(ts.ut.size)
    tx_bytes = int(ts.tx.size // 2)  # stored packed, two nibbles per byte
    t10_bytes = int(ts.t10.size)
    return {
        "ut_bytes": ut_bytes,
        "tx_bytes": tx_bytes,
        "t10_bytes": t10_bytes,
        "total_bytes": ut_bytes + tx_bytes + t10_bytes,
        "ut_lookups": UT_LOOKUPS,
        "tx_lookups": TX_LOOKUPS,
        "t10_lookups": T10_LOOKUPS,
        "total_lookups": TOTAL_LOOKUPS,
    }


# --- serialization -----------------------------------------------------------

def serialize_tableset(ts: TableSet) -> bytes:
    """Header, then ut, tx and t10 in their index order; tx holds two nibbles
    per byte, the even entry of each pair in the low nibble."""
    tx = ts.tx & 0xF
    out = b"".join((TABLE_MAGIC, struct.pack("<HBB", FORMAT_VERSION, ts.set_id, 0), ts.ut.tobytes(),
                    (tx[..., 0::2] | tx[..., 1::2] << 4).tobytes(), ts.t10.tobytes()))
    return out + struct.pack("<I", zlib.crc32(out))


def deserialize_tableset(data: bytes) -> TableSet:
    if len(data) < 12:
        raise FormatError("truncated table file")
    if data[:4] != TABLE_MAGIC:
        raise FormatError("bad magic for table file")
    version, set_id, _ = struct.unpack("<HBB", data[4:8])
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported table format version {version}")
    expected_len = 8 + TOTAL_BYTES + 4
    if len(data) != expected_len:
        raise FormatError(f"table file length {len(data)} != {expected_len}")
    (crc,) = struct.unpack("<I", data[-4:])
    if crc != zlib.crc32(memoryview(data)[:-4]):
        raise FormatError("table file checksum mismatch")
    if set_id not in (0, 1):
        raise FormatError(f"table set id {set_id} is not 0 or 1")
    body = np.frombuffer(data, dtype=np.uint8, count=TOTAL_BYTES, offset=8)
    packed = body[UT_BYTES : UT_BYTES + TX_BYTES].reshape(9, 4, 4, 3, 2, 128)
    tx = np.empty((9, 4, 4, 3, 2, 256), dtype=np.uint8)
    tx[..., 0::2] = packed & 0xF
    tx[..., 1::2] = packed >> 4
    return TableSet(set_id=set_id, ut=body[:UT_BYTES].reshape(9, 4, 4, 256, 4).copy(), tx=tx,
                    t10=body[UT_BYTES + TX_BYTES :].reshape(4, 4, 256).copy())


def serialize_spec(spec: EncodingSpec) -> bytes:
    """The spec file of a spec; raises ValueError if its seed does not fit the
    file's u64 seed field, since the file would name another seed."""
    if not 0 <= spec.seed <= 2**64 - 1:
        raise ValueError(f"spec seed {spec.seed} is outside 0..2**64 - 1 and cannot be saved")
    mode = 0 if spec.xor_boundary_mode == "balanced" else 1
    out = b"".join((SPEC_MAGIC, struct.pack("<HBBQ", FORMAT_VERSION, mode, 0, spec.seed), spec.key,
                    *(getattr(spec, name).tobytes() for name in _SPEC_SHAPES)))
    return out + struct.pack("<I", zlib.crc32(out))


_SPEC_SIZES = [math.prod(shape) for shape in _SPEC_SHAPES.values()]
_SPEC_PAYLOAD = 8 + 16 + sum(_SPEC_SIZES)


def deserialize_spec(data: bytes) -> EncodingSpec:
    """Parse a spec file into slices of one array over its bytes.  Any
    malformed field raises FormatError, and so does material build_spec could
    not have sampled: a linear pair with a row of its assembled matrix on the
    blacklist, a table-output codec partner 0, an XOR-stage partner 0 in
    balanced mode or nonzero in identity mode, or a partner outside its
    boundary's candidate set (one find_candidates call over all 144 pairs)."""

    if len(data) < 12 or data[:4] != SPEC_MAGIC:
        raise FormatError("bad magic for spec file")
    version, mode, _ = struct.unpack("<HBB", data[4:8])
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported spec format version {version}")
    expected_len = 8 + _SPEC_PAYLOAD + 4
    if len(data) != expected_len:
        raise FormatError(f"spec file length {len(data)} != {expected_len}")
    (crc,) = struct.unpack("<I", data[-4:])
    if crc != zlib.crc32(data[:-4]):
        raise FormatError("spec file checksum mismatch")
    if mode not in (0, 1):
        raise FormatError(f"unknown spec xor-boundary mode {mode}")
    body = np.frombuffer(data, dtype=np.uint8, count=sum(_SPEC_SIZES), offset=32)
    # Every field after the seed and key is an f or g row or a codec partner: one nibble each.
    if body.max() > 0xF:
        raise FormatError("spec matrix row or codec partner is not a nibble")
    fg, ut_partners, stage_partners = (part.reshape(shape) for part, shape in
                                       zip(np.split(body, np.cumsum(_SPEC_SIZES[:-1])), _SPEC_SHAPES.values()))
    rows = assembled_rows(fg[..., 0, :], fg[..., 1, :])  # (9, 4, 4, 8)
    bad = derive_blacklist_W().rows[rows]
    if bad.any():
        r, j, k, i = np.argwhere(bad)[0].tolist()
        row = rows[r, j, k, i]
        raise FormatError(f"spec linear pair r={r + 1} j={j} k={k} has blacklisted matrix row {row:08b}")
    # Whether each partner lies in its boundary's candidate set: the table
    # output of input row i in output byte k is boundary _ELL[i, k], every XOR stage boundary 3.
    cands = find_candidates(fg)  # (9, 4, 4, boundary, half, e)
    ut_ok = np.take_along_axis(cands[:, :, _I4[:, None], _ELL.T], ut_partners[..., None], axis=-1)[..., 0]
    stage_ok = np.take_along_axis(cands[:, :, :, 3:], stage_partners[..., None], axis=-1)[..., 0]
    stage_rule = (stage_partners == 0, "is 0") if mode == 0 else (stage_partners != 0, "is not 0 in identity mode")
    for name, b, (bad, rule) in (("table-output", "i", (ut_partners == 0, "is 0")),
                                 ("XOR-stage", "s", stage_rule),
                                 ("table-output", "i", (~ut_ok, "is not a candidate")),
                                 ("XOR-stage", "s", (~stage_ok, "is not a candidate"))):
        if bad.any():
            r, j, k, n, half = np.argwhere(bad)[0].tolist()
            half = ("upper", "lower")[half]
            raise FormatError(f"spec {name} codec partner r={r + 1} j={j} k={k} {b}={n} {half} {rule}")
    (seed,) = struct.unpack("<Q", data[8:16])
    return EncodingSpec(seed=seed, key=data[16:32], fg=fg, ut_partners=ut_partners, stage_partners=stage_partners,
                        xor_boundary_mode="balanced" if mode == 0 else "identity")
