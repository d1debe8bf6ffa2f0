"""Protected encryption over a complementary table-set pair, with set-selection
policies and bit-exact computational trace recording.

Every encryption, single block or campaign, runs the one table walk in
`tablegen.encrypt_batch_with_tables`; `encrypt` hands it one row.  Set
selection is `select_set`, which maps an (N, 16) plaintext array to N set
bits in one call.

Campaigns run in blocks of `tablegen.WALK_CHUNK` plaintext rows, walked in
the calling thread.  `write_campaign` appends each block to the trace file as
it is walked, so it never holds the whole campaign; `load_traces` reads the
file block by block and copies out only the sample columns it is asked for,
so an analysis holds only the columns it reads.  `resolve_window` turns a
window (None, a slice or a sequence of indices) into the int64 array of the
absolute samples it selects.  A `TraceSet` holds the plaintexts, set bits,
those sample columns and, as `sample_ids`, that array; `samples_at` reads
columns by absolute sample, refusing one that was not loaded.  (On a 2-core
machine, walking the blocks on a worker pool made a 65,536-row campaign about
20% faster while the other core was idle and no faster while another process
kept it busy, so the campaign rate followed the neighbours' load.)

Trace layout per encryption (1,456 samples): for each round 1..9 and each
column, 16 table-output bytes in (input row, byte position) order followed by
24 XOR nibbles in (output byte, stage, upper-then-lower) order; then the 16
final-round output bytes in ciphertext order."""

from __future__ import annotations

import os
import random
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .tablegen import (
    FORMAT_VERSION,
    FormatError,
    WALK_CHUNK,
    TableSetPair,
    encrypt_batch_with_tables,
    encrypt_with_tables,
)

TRACE_MAGIC = b"BTR1"
SAMPLE_COUNT = 1456


# --- sample index helpers (0-based r in 1..9, j, i, k, stage, half) ----------

def ut_sample_index(r: int, j: int, i: int, k: int) -> int:
    return (r - 1) * 160 + j * 40 + i * 4 + k


def xor_sample_index(r: int, j: int, k: int, stage: int, half: int) -> int:
    return (r - 1) * 160 + j * 40 + 16 + k * 6 + stage * 2 + half


def t10_sample_index(i: int, j: int) -> int:
    return 1440 + j * 4 + i


def round_sample_slice(r: int) -> slice:
    """All samples of one encoded round (r in 1..9)."""
    return slice((r - 1) * 160, r * 160)


def ut_output_indices(r: int) -> np.ndarray:
    """Indices of the 64 table-output byte samples of round r."""
    return np.array(
        [ut_sample_index(r, j, i, k) for j in range(4) for i in range(4) for k in range(4)],
        dtype=np.int64,
    )


def round_output_sample_indices(r: int, j: int, k: int) -> tuple:
    """(upper, lower) nibble sample indices holding the encoded round-output byte."""
    return xor_sample_index(r, j, k, 2, 0), xor_sample_index(r, j, k, 2, 1)


def resolve_window(window) -> np.ndarray:
    """The absolute samples a window selects, as an int64 array: None (every
    sample), a slice or a sequence of indices.  A window that selects nothing
    or reaches outside the trace raises ValueError."""
    if window is None:
        window = slice(None)
    if isinstance(window, slice):
        ids, name = np.arange(SAMPLE_COUNT)[window], f"[{window.start}:{window.stop}]"
        lo, hi = window.start or 0, SAMPLE_COUNT if window.stop is None else window.stop
    else:
        ids, name = np.asarray(window, dtype=np.int64), "of indices"
        lo, hi = ids.min(initial=0), ids.max(initial=-1) + 1
    if min(lo, hi) < 0 or hi > SAMPLE_COUNT:  # a negative bound would count from the end
        raise ValueError(f"window {name} reaches outside the {SAMPLE_COUNT}-sample traces")
    if ids.size == 0:
        raise ValueError(f"window {name} selects none of the {SAMPLE_COUNT} trace samples")
    return ids


# --- selection policies -------------------------------------------------------

@dataclass(frozen=True)
class SelectorPolicy:
    """Which table set an encryption uses.

    variant: "fixed-q0" | "fixed-q1" | "random" | "pt-derived"
    random draws set 0 with probability alpha; pt-derived indexes the bit
    sequence b by the XOR of all plaintext bytes mod n, needing no run-time
    randomness.
    """

    variant: str
    alpha: float = 0.5
    bits: tuple = ()

    def __post_init__(self):
        if self.variant not in ("fixed-q0", "fixed-q1", "random", "pt-derived"):
            raise ValueError(f"unknown policy variant {self.variant!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.variant == "pt-derived":
            n = len(self.bits)
            if not 1 <= n <= 256:
                raise ValueError("pt-derived needs a bit sequence of length 1..256")
            if any(b not in (0, 1) for b in self.bits):
                raise ValueError("bit sequence entries must be 0 or 1")

    @classmethod
    def fixed_q0(cls) -> "SelectorPolicy":
        return cls(variant="fixed-q0")

    @classmethod
    def fixed_q1(cls) -> "SelectorPolicy":
        return cls(variant="fixed-q1")

    @classmethod
    def random_bit(cls, alpha: float = 0.5) -> "SelectorPolicy":
        return cls(variant="random", alpha=alpha)

    @classmethod
    def pt_derived(cls, n: int) -> "SelectorPolicy":
        """Alternating bit sequence of length n (set fractions as equal as n allows)."""
        return cls(variant="pt-derived", bits=tuple(i % 2 for i in range(n)))

    @classmethod
    def parse(cls, text: str) -> "SelectorPolicy":
        if text == "q0":
            return cls.fixed_q0()
        if text == "q1":
            return cls.fixed_q1()
        if text.startswith("random:"):
            return cls.random_bit(float(text.split(":", 1)[1]))
        if text == "random":
            return cls.random_bit(0.5)
        if text.startswith("pt-derived:"):
            return cls.pt_derived(int(text.split(":", 1)[1]))
        raise ValueError(f"cannot parse policy {text!r}")

    def describe(self) -> str:
        if self.variant == "random":
            return f"random:{self.alpha}"
        if self.variant == "pt-derived":
            return f"pt-derived:{len(self.bits)}"
        return self.variant.replace("fixed-", "")


def select_set(policy: SelectorPolicy, pts: np.ndarray, rng: random.Random | None) -> np.ndarray:
    """Set bit of each row of an (N, 16) uint8 plaintext array, as (N,) uint8.

    The random policy takes rng.random() of each row, in row order.  Past one
    row it draws them all with one rng.randbytes call: each row's two 32-bit
    words make its double exactly as CPython's random() does, and the
    generator ends in the same state."""
    n = len(pts)
    if policy.variant in ("fixed-q0", "fixed-q1"):
        return np.full(n, policy.variant == "fixed-q1", dtype=np.uint8)
    if policy.variant == "random":
        if rng is None:
            raise ValueError("random policy needs a random source")
        if n == 1:  # a single block: one draw costs less than the array arithmetic
            return np.array([rng.random() >= policy.alpha], dtype=np.uint8)
        w = np.frombuffer(rng.randbytes(8 * n), "<u4").reshape(n, 2)
        u = ((w[:, 0] >> 5) * 67108864.0 + (w[:, 1] >> 6)) * (1.0 / 9007199254740992.0)
        return (u >= policy.alpha).astype(np.uint8)
    bits = np.array(policy.bits, dtype=np.uint8)
    return bits[np.bitwise_xor.reduce(pts, axis=1).astype(np.intp) % len(bits)]


# --- traces -------------------------------------------------------------------

@dataclass
class TraceSet:
    """A campaign, holding the sample columns it was built or loaded with."""

    plaintexts: np.ndarray  # (N, 16) uint8
    set_bits: np.ndarray  # (N,) uint8
    samples: np.ndarray  # (N, W) uint8: the held sample columns
    sample_ids: np.ndarray = None  # (W,) int64 absolute sample of each column; default: column s is sample s

    def __post_init__(self):
        if self.sample_ids is None:
            self.sample_ids = np.arange(self.samples.shape[1])

    def __len__(self) -> int:
        return int(self.plaintexts.shape[0])

    def samples_at(self, sel) -> np.ndarray:
        """(N, len(sel)) samples at the absolute samples of window `sel`, as
        resolve_window takes it.  When `sel` is exactly the held columns this
        is `samples` itself, and otherwise a row-major copy, laid out as
        load_traces(path, sel) lays it out; a sample that is not held raises
        ValueError naming it."""
        wanted = resolve_window(sel)
        if np.array_equal(wanted, self.sample_ids):
            return self.samples
        column = np.full(SAMPLE_COUNT, -1)
        column[self.sample_ids] = np.arange(self.sample_ids.size)
        cols = column[wanted]
        if (cols < 0).any():
            raise ValueError(f"sample {wanted[cols < 0][0]} was not loaded from the trace file")
        return self.samples.take(cols, axis=1)


@dataclass
class EncryptResult:
    ciphertext: bytes
    set_bit: int
    lookups: int


def encrypt(pt: bytes, pair: TableSetPair, policy: SelectorPolicy,
            rng: random.Random | None = None) -> EncryptResult:
    bit = int(select_set(policy, np.frombuffer(pt, dtype=np.uint8)[None], rng)[0])
    ct, _, lookups = encrypt_with_tables(pair.select(bit), pt)
    return EncryptResult(ciphertext=ct, set_bit=bit, lookups=lookups)


# --- plaintext sources ---------------------------------------------------------

def random_plaintexts(count: int, rng: random.Random) -> np.ndarray:
    return np.frombuffer(rng.randbytes(count * 16), dtype=np.uint8).reshape(count, 16).copy()


def fixed_plaintexts(pt: bytes, count: int) -> np.ndarray:
    if len(pt) != 16:
        raise ValueError("plaintext must be 16 bytes")
    return np.tile(np.frombuffer(pt, dtype=np.uint8), (count, 1))


def grid_plaintexts() -> np.ndarray:
    """All 65,536 plaintexts varying the two bytes entering the first column's
    first two round-1 tables (indices 0 and 5); the other 14 bytes are zero."""
    pts = np.zeros((65536, 16), dtype=np.uint8)
    p1, p2 = np.divmod(np.arange(65536), 256)
    pts[:, 0] = p1
    pts[:, 5] = p2
    return pts


def plaintexts_from_file(path, count: int | None = None) -> np.ndarray:
    """Raw 16-byte-records plaintext source."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data or len(data) % 16:
        raise FormatError(f"plaintext file must hold whole 16-byte records, got {len(data)} bytes")
    pts = np.frombuffer(data, dtype=np.uint8).reshape(-1, 16)
    if count is not None:
        if count > pts.shape[0]:
            raise FormatError(f"plaintext file holds {pts.shape[0]} records, {count} requested")
        pts = pts[:count]
    return pts.copy()


def collect_traces(pair: TableSetPair, policy: SelectorPolicy, plaintexts: np.ndarray,
                   rng: random.Random | None = None) -> TraceSet:
    """Run one encryption per plaintext row and record full traces in memory:
    a TraceSet holding all SAMPLE_COUNT samples, in plaintext order.
    Deterministic given the policy and the seeded random source."""
    pts = np.asarray(plaintexts, dtype=np.uint8)
    return _gather(len(pts), _campaign_blocks(pair, policy, pts, rng), resolve_window(None))


def write_campaign(pair: TableSetPair, policy: SelectorPolicy, plaintexts: np.ndarray,
                   rng: random.Random | None, path) -> None:
    """Run a campaign as `collect_traces` does, straight into a trace file:
    only one block of records is held at a time."""
    pts = np.asarray(plaintexts, dtype=np.uint8)
    _write_blocks(path, len(pts), _campaign_blocks(pair, policy, pts, rng))


# --- trace file format ----------------------------------------------------------
# Header (magic, version, count, sample count), one record per trace, then a
# CRC-32 chained over the header and the records.  Campaigns, TraceSets and
# files all travel as (rows, _RECORD) record blocks of up to WALK_CHUNK rows,
# so neither writing nor reading ever holds a second copy of a campaign.

_HEADER = 12
_RECORD = 16 + 1 + SAMPLE_COUNT  # plaintext, set bit, samples


def _record_block(pts: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """A record block with its plaintext and set-bit columns filled."""
    block = np.empty((len(pts), _RECORD), dtype=np.uint8)
    block[:, :16] = pts
    block[:, 16] = bits
    return block


def _campaign_blocks(pair: TableSetPair, policy: SelectorPolicy, pts: np.ndarray,
                     rng: random.Random | None):
    """The record blocks of a campaign, in plaintext order.  The set bits are
    drawn for all rows before the first block, so the random policy draws
    once per row, in row order."""
    bits = select_set(policy, pts, rng)
    starts = range(0, len(pts), WALK_CHUNK)
    return (_walk_block(pair, pts[s : s + WALK_CHUNK], bits[s : s + WALK_CHUNK]) for s in starts)


def _walk_block(pair: TableSetPair, pts: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """One record block: the walk runs once per set present, and its samples
    are scattered back into plaintext order."""
    block = _record_block(pts, bits)
    for bit in (0, 1):
        sel = np.nonzero(bits == bit)[0]
        if sel.size:
            block[sel, 17:] = encrypt_batch_with_tables(pair.select(bit), pts[sel], record=True)[1]
    return block


def _write_blocks(path, count: int, blocks) -> None:
    header = TRACE_MAGIC + struct.pack("<HIH", FORMAT_VERSION, count, SAMPLE_COUNT)
    crc = zlib.crc32(header)
    with open(path, "wb") as fh:
        fh.write(header)
        for block in blocks:
            fh.write(block.data)
            crc = zlib.crc32(block, crc)
        fh.write(struct.pack("<I", crc))


def _file_blocks(fh, count: int, crc: int):
    """The records after a checked header, read into one reused block buffer;
    raises on a checksum mismatch once the last block has been taken."""
    buf = np.empty((min(count, WALK_CHUNK), _RECORD), dtype=np.uint8)
    for start in range(0, count, WALK_CHUNK):
        block = buf[: count - start]
        if fh.readinto(block) != block.nbytes:
            raise FormatError("trace file ended early")
        crc = zlib.crc32(block, crc)
        yield block
    if fh.read(4) != struct.pack("<I", crc):
        raise FormatError("trace file checksum mismatch")


def _record_columns(ids: np.ndarray):
    """Record-block columns of the samples `ids`: a slice when they are one
    ascending run, which copies faster."""
    if np.array_equal(ids, np.arange(ids[0], ids[0] + ids.size)):
        return slice(17 + ids[0], 17 + ids[0] + ids.size)
    return 17 + ids


def _gather(count: int, blocks, ids: np.ndarray) -> TraceSet:
    """Copy `count` records, block by block, into the TraceSet's own arrays,
    keeping only the absolute samples `ids`.  Every set bit is checked,
    loaded columns or not."""
    cols = _record_columns(ids)
    pts = np.empty((count, 16), dtype=np.uint8)
    bits = np.empty(count, dtype=np.uint8)
    samples = np.empty((count, ids.size), dtype=np.uint8)
    start = 0
    for block in blocks:
        end = start + len(block)
        pts[start:end] = block[:, :16]
        bits[start:end] = block[:, 16]
        samples[start:end] = block[:, cols]
        start = end
    if (bits > 1).any():
        raise FormatError("trace set bit is not 0 or 1")
    return TraceSet(plaintexts=pts, set_bits=bits, samples=samples, sample_ids=ids)


def _stored_block(ts: TraceSet, samples: np.ndarray, start: int) -> np.ndarray:
    end = start + WALK_CHUNK
    block = _record_block(ts.plaintexts[start:end], ts.set_bits[start:end])
    block[:, 17:] = samples[start:end]
    return block


def save_traces(ts: TraceSet, path) -> None:
    samples = ts.samples_at(None)  # a set loaded with a window lacks samples
    _write_blocks(path, len(ts), (_stored_block(ts, samples, s) for s in range(0, len(ts), WALK_CHUNK)))


def load_traces(path, samples=None) -> TraceSet:
    """The campaign in a trace file, holding only the sample columns of the
    window `samples`, as resolve_window takes it (None: every sample); the
    window is checked before the file is opened.  Every record is still
    read, its set bit checked and the whole file CRC-checked."""
    ids = resolve_window(samples)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_HEADER)
        if size < _HEADER + 4 or header[:4] != TRACE_MAGIC:
            raise FormatError("bad magic for trace file")
        version, count, sample_count = struct.unpack("<HIH", header[4:])
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported trace format version {version}")
        if sample_count != SAMPLE_COUNT:
            raise FormatError(f"unexpected sample count {sample_count}")
        expected = _HEADER + count * _RECORD + 4
        if size != expected:
            raise FormatError(f"trace file length {size} != {expected}")
        return _gather(count, _file_blocks(fh, count, zlib.crc32(header)), ids)
