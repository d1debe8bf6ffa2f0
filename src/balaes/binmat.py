"""GF(2) matrix machinery behind the balanced byte encoding, the coefficient
tables, and the one Walsh-grid kernel every balance check runs on.

COEFF holds every coefficient table ell * S(x ^ k) the program uses: the
blacklist derivation, the candidate kernel (nibenc), the static table checks
(tablegen) and every hypothesis of the analyses (sca) read it.

The encoding is the shear map Z^H = X^H + f.X^L, Z^L = X^L + g.Z^H built from
4x4 bit blocks f and g. A linear pair has one form everywhere, from sampling
to the spec file: (2, 4) uint8, its 4 f rows then its 4 g rows, each a 4-bit
value with column 1 at the MSB; stacks of pairs are (..., 2, 4), and
shear_maps gives the encode and decode maps of any stack. A pair is
admissible when no row of the assembled 8x8 matrix selects a row combination
whose XOR collapses onto a single row of any coefficient-multiplied SubBytes
bit matrix; those forbidden combinations form the blacklist derived here by
brute force. Because idx_of is a bijection between 8-bit rows and index sets,
the blacklist is also a 256-entry table over row values, BlacklistW.rows:
admissible_g reads it at the assembled rows of any stack of f for every g row
value at once, which is all that sampling needs.  The derivation is checked
against the published table in the tests (criterion 2), not at import.

The paper's balance claim is that every first-order Walsh sum between a
table output bit and a key-dependent hypothesis bit is zero. walsh_grid(a, b)
computes all of them for two stacks of 256-entry byte tables at once, as
products of +-1 sign matrices; the static table checks (tablegen) and the
trace-mode and baseline analyses (sca) call it.

Bit vectors are stored as ints with position 1 at the most significant bit of
their width (4 or 8)."""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from .gfcore import MUL2, MUL3, SBOX


def idx_of(v: int, width: int = 8) -> frozenset:
    """Positions (1-based, MSB first) of the set bits of v."""
    return frozenset(p for p in range(1, width + 1) if (v >> (width - p)) & 1)


_UNIT8 = np.array([0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01], dtype=np.uint8)
_MSB_SHIFT4 = np.array([3, 2, 1, 0], dtype=np.uint8)


def assembled_rows(f, g) -> np.ndarray:
    """Rows of the block matrix [[I, f], [g, I + g.f]] for f and g rows given
    as (..., 4) arrays of 4-bit values, broadcast against each other: (..., 8)
    uint8, MSB = column 1."""
    f, g = np.asarray(f, dtype=np.uint8), np.asarray(g, dtype=np.uint8)
    g_bits = (g[..., :, None] >> _MSB_SHIFT4) & 1  # [..., i, j]: bit j of g row i
    lower = (g << 4) | (_UNIT8[4:] ^ np.bitwise_xor.reduce(g_bits * f[..., None, :], axis=-1))
    rows = np.empty((*lower.shape[:-1], 8), dtype=np.uint8)
    rows[..., :4] = _UNIT8[:4] | f
    rows[..., 4:] = lower
    return rows


_X = np.arange(256, dtype=np.uint8)
_PARITY4 = np.array([v.bit_count() & 1 for v in range(16)], dtype=np.uint8)


def shear_maps(fg) -> tuple:
    """Encode and decode maps of a (..., 2, 4) stack of linear pairs, each the
    4 f rows then the 4 g rows: two (..., 256) uint8 arrays.  Encoding is
    Z^H = X^H + f.X^L, Z^L = X^L + g.Z^H; decoding inverts it for every pair,
    singular blocks included."""
    fg = np.asarray(fg, dtype=np.uint8)
    # times[n, m, v]: block m (f, then g) of pair n times the nibble v; bit i is the parity of row i & v
    times = (_PARITY4[fg[..., None] & _X[:16]] << _MSB_SHIFT4[:, None]).sum(axis=-2, dtype=np.uint8).reshape(-1, 2, 16)
    f, g = (times[:, m].reshape(-1) for m in (0, 1))  # flat, block of pair n at 16n
    row = 16 * np.arange(len(times))[:, None]
    hi, lo = _X >> 4, _X & 0xF
    zh = hi ^ f.take(row + lo)
    yl = lo ^ g.take(row + hi)
    enc = (zh << 4) | (lo ^ g.take(row + zh))
    dec = ((hi ^ f.take(row + yl)) << 4) | yl
    return enc.reshape(*fg.shape[:-2], 256), dec.reshape(*fg.shape[:-2], 256)


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


# --- blacklists -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlacklistW:
    """Forbidden row-index combinations, grouped by (ell, ell', target row)."""

    by_group: dict  # (ell, ellp, iprime) -> frozenset of 1-based indices
    flat: frozenset  # union of all index sets
    rows: np.ndarray  # (256,) bool, read-only: rows[v] is True when the 8-bit row v selects a set in flat

    def forbids(self, row8: int) -> bool:
        return bool(self.rows[row8])


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
    rows = np.array([idx_of(v) in flat for v in range(256)])
    rows.flags.writeable = False
    return BlacklistW(by_group=by_group, flat=flat, rows=rows)


@functools.lru_cache(maxsize=1)
def derive_blacklist_F() -> tuple:
    """Per-row forbidden f rows: values b with Idx(e_i || b) blacklisted."""
    W = derive_blacklist_W()
    out = []
    for i in range(4):
        e_i = 1 << (7 - i)
        bad = frozenset(b for b in range(16) if W.forbids(e_i | b))
        out.append(bad)
    return tuple(out)


def sample_f(rng: random.Random) -> np.ndarray:
    """Row-wise rejection sampling of f against the per-row blacklist: (4,) uint8."""
    bf = derive_blacklist_F()
    rows = []
    for i in range(4):
        while True:
            b = rng.randrange(16)
            if b not in bf[i]:
                rows.append(b)
                break
    return np.array(rows, dtype=np.uint8)


_G_ROWS = np.repeat(_X[:16, None], 4, axis=1)  # [v, i] = v: every value in every g row


def admissible_g(f) -> np.ndarray:
    """(..., 4, 16) bool for a (..., 4) stack of f rows: [..., i, v] is True
    when g row i = v keeps row 4 + i of the assembled matrix off the
    blacklist.  That row depends on f and g row i only, so one assembled_rows
    call with every g row value at once decides them all."""
    lower = assembled_rows(np.asarray(f, dtype=np.uint8)[..., None, :], _G_ROWS)[..., 4:]  # [..., v, i]
    return ~derive_blacklist_W().rows[lower].swapaxes(-1, -2)


def sample_pair(rng: random.Random) -> np.ndarray:
    """One admissible linear pair as (2, 4) uint8, its f rows then its g rows:
    f by sample_f, then each g row by rng.choice over its admissible values in
    ascending order."""
    f = sample_f(rng)
    g = [rng.choice([v for v in range(16) if ok[v]]) for ok in admissible_g(f).tolist()]
    return np.array([f, g], dtype=np.uint8)


# --- Walsh grids ---------------------------------------------------------------

_SHIFTS = np.arange(7, -1, -1, dtype=np.uint8)  # bit i (MSB first) of v is (v >> _SHIFTS[i]) & 1
_SIGNS = 1 - 2 * ((_X >> _SHIFTS[:, None]) & 1).astype(np.int8)  # [i, v] = (-1)^(bit i of v)
_GRID_BLOCK = 256  # sign rows (32 tables) of each side per product: 256 KiB float32 blocks


def walsh_grid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every first-order Walsh sum between two stacks of 256-entry tables.

    a is (A, 256) and b is (B, 256), uint8 values over the same 256 inputs.
    Entry [n, i, m, i'] of the (A, 8, B, 8) int32 result is the sum over x of
    (-1)^(bit i of a[n, x] ^ bit i' of b[m, x]), bits MSB first: zero when the
    two bits are balanced against each other, +-256 when one is the other or
    its complement.  It is the product of the (8A, 256) and (256, 8B) +-1
    sign matrices; a's is held as int8.  Blocks of _GRID_BLOCK rows and
    columns are multiplied in float32, exact because every entry is an integer
    of magnitude at most 256, and written straight into the int32 result, so
    no float32 copy of the result is held."""
    rows = _SIGNS[:, a].transpose(1, 0, 2).reshape(-1, 256)  # (table, bit) of a by x
    out = np.empty((rows.shape[0], 8 * b.shape[0]), dtype=np.int32)
    for c in range(0, out.shape[1], _GRID_BLOCK):
        tables = b[c // 8:(c + _GRID_BLOCK) // 8]
        cols = _SIGNS[:, tables].transpose(2, 1, 0).reshape(256, -1).astype(np.float32)  # x by (table, bit)
        for r in range(0, out.shape[0], _GRID_BLOCK):
            out[r:r + _GRID_BLOCK, c:c + _GRID_BLOCK] = rows[r:r + _GRID_BLOCK].astype(np.float32) @ cols
    return out.reshape(a.shape[0], 8, b.shape[0], 8)


def table_bits(t: np.ndarray) -> np.ndarray:
    """(T, 256) byte tables to their (T, 8, 256) bits, MSB first."""
    return (t[:, None, :] >> _SHIFTS[:, None]) & 1
