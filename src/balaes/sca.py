"""Statistical trace analysis: trace-mode and round-output Walsh sums,
mono-bit DCA key ranking, collision and cluster scores, bit-level mutual
information, fixed-versus-random t-tests, and the deliberately-leaky encoding
demo.  Every hypothesis reads the coefficient tables binmat.COEFF.

A TraceSet is the sample selection, chosen once, when it is loaded
(cipher.load_traces) or built.  DCA, MIA and the t-test score every column
it holds; the kernels that read fixed samples (trace-mode walsh-ut and the
round-output analyses) take them through TraceSet.samples_at, which refuses
a sample the set does not hold.

Table-output Walsh sums, in trace mode (walsh_ut_trace_grid) and in the
baseline demo, are binmat.walsh_grid calls: one +-1 sign-matrix product of the
observed or encoded tables against the hypothesis tables of every guess.

DCA and MIA see each recorded byte as eight binary columns (MSB first) but
never build that (N, 8W) bit matrix.  Each hypothesis model states its byte
in XOR form (see the models below): hypothesis bit b of trace t under guess g
is h_b[x_t ^ g] ^ f_t.  The traces are sorted by x once, and each group's
rows are unpacked to bits and summed, every requested bit's flips f signing
the sums in the same pass (`_grouped_bit_sums`, in the calling thread).
Every integer the statistics need follows exactly from these signed sums.
The hypothesis bits are then scored one after another, in the calling
thread, each over all 256 candidates and blocks of _COLUMN_BLOCK bit
columns, so its temporaries stay small.  Memory scales with 256 x 8W, not
N x 8W.

Every per-guess sum, sum over x of h_b[x ^ g] D[x, c], is an XOR convolution
formed exactly through Walsh transforms (_GroupedSums._convolve), for MIA
and DCA's confirm alike.  DCA transforms, screens and confirms
(_walsh_columns, _dca_scores): the centred, scaled sums of each grouping are
Walsh-transformed once along x and stored in float32; per bit, one inverse
transform of their product with the transform of (-1)^h_b gives every
candidate's correlation up to a proven float32 error bound; and only the
(column, guess) pairs within twice that bound of the guess's peak get the
exact float64 r, so the scores are those of every column, bit for bit.
Every 256-point Walsh-Hadamard transform here is _wht, two batched 16-point
products.

The round-output analyses attack the one byte defined below and score all
256 guesses of k1 at once. walsh-ro is one Walsh grid (walsh_round_output_all);
collision and cluster scores come from a 2-D XOR convolution of per-(a, p5)
count and bit grids, a = 2 * S(p0 ^ k0), computed by Walsh-Hadamard transforms.
The t-test works from exact integer sums, so t does not depend on layout."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .gfcore import RoundKeys, position_for_pt_index
from .binmat import COEFF, admissible_g, derive_blacklist_W, sample_f, shear_maps, walsh_grid
from .cipher import UT_SAMPLES, XOR_SAMPLES, TraceSet


# --- the round-output experiment -------------------------------------------------
# walsh-ro, collision, cluster and the round-output MIA model attack one byte,
# the first-round output byte 0 of column 0,
#     2 * S(p0 ^ k0) ^ 3 * S(p5 ^ k1) ^ S(p10 ^ k2) ^ S(p15 ^ k3),
# with ki = khat[0][i][0] (round_output_keys).  Its encoded nibbles are
# samples 20 and 21 (ROUND_OUTPUT_SAMPLES).  A grid campaign varies p0 and p5.
# k0, k2 and k3 are known, and k1 is guessed.

ROUND_OUTPUT_SAMPLES = XOR_SAMPLES[0, 0, 0, 2]


def round_output_keys(key: bytes) -> tuple:
    """(k0, k1, k2, k3) of the round-output experiment, as ints."""
    khat = RoundKeys.from_key(key).khat[0]
    return tuple(int(khat[i][0]) for i in range(4))


# --- hypothesis models ----------------------------------------------------------
# Each model states its hypothesis byte in XOR form, (x, k, table): under guess
# g the byte of trace t is table[x[t] ^ g] ^ k[t], so its bit b (MSB first) is
# h_b[x[t] ^ g] ^ f[t], with h_b and f the bits b of table and k.  k is None
# where it is 0.  DCA and MIA read nothing else of a model.

@dataclass(frozen=True)
class SboxHypothesis:
    """Coefficient-multiplied SubBytes output of one plaintext byte:
    ell * S(p ^ g), so x is the plaintext byte and k is 0."""

    ell: int
    pt_index: int

    def xor_form(self, pts: np.ndarray):
        return pts[:, self.pt_index], None, COEFF[self.ell - 1, 0]


@dataclass(frozen=True)
class RoundOutputHypothesis:
    """The round-output byte with known = (k0, k2, k3) and k1 guessed: x is
    p5, table is 3 * S and k is the known term 2 * S(p0 ^ k0) ^ S(p10 ^ k2)
    ^ S(p15 ^ k3)."""

    known: tuple

    def xor_form(self, pts: np.ndarray):
        k0, k2, k3 = self.known
        known = COEFF[1, k0][pts[:, 0]] ^ COEFF[0, k2][pts[:, 10]] ^ COEFF[0, k3][pts[:, 15]]
        return pts[:, 5], known, COEFF[2, 0]


# --- trace-mode table-output Walsh ----------------------------------------------

def walsh_ut_sample_indices(pt_index: int) -> np.ndarray:
    """The four round-1 table-output samples of one plaintext byte, which
    walsh_ut_trace_grid reads."""
    i, j = position_for_pt_index(pt_index)
    return UT_SAMPLES[0, j, i]


def walsh_ut_trace_grid(traces: TraceSet, pt_index: int, ellp: int) -> np.ndarray:
    """Trace-mode Walsh sums for every candidate at once.

    The first trace with each value of the attacked plaintext byte supplies
    that input's four observed round-1 table outputs; one Walsh grid of those
    four tables against the ellp * S(v ^ guess) table of every guess gives
    the float64 (guess, out_byte, out_bit, iprime) result.  Under a mixed-set
    campaign the observed outputs come from whichever set each encryption
    selected, so the correct candidate no longer scores uniformly zero.
    Raises ValueError if some input value was never encrypted.
    """
    values, first = np.unique(traces.plaintexts[:, pt_index], return_index=True)
    if values.size < 256:
        v = int(np.flatnonzero(values != np.arange(values.size)).min(initial=values.size))
        raise ValueError(f"input byte value {v:#04x} unobserved at pt index {pt_index}")
    observed = traces.samples_at(walsh_ut_sample_indices(pt_index))[first]  # (v, out_byte)
    grid = walsh_grid(observed.T, COEFF[ellp - 1])  # (out_byte, out_bit, guess, iprime)
    return grid.transpose(2, 0, 1, 3).astype(np.float64)


# --- round-output Walsh -----------------------------------------------------------

def _round_output_samples(traces: TraceSet) -> np.ndarray:
    """The encoded round-output byte of every trace."""
    upper, lower = traces.samples_at(ROUND_OUTPUT_SAMPLES).T
    return (upper << 4) | lower


def _grid_round_output_bytes(traces: TraceSet) -> np.ndarray:
    """(256, 256) encoded round-output bytes from a complete two-byte grid."""
    keys = traces.plaintexts[:, 0].astype(np.int64) * 256 + traces.plaintexts[:, 5]
    grid = np.full(65536, -1, dtype=np.int32)
    grid[keys] = _round_output_samples(traces)
    if (grid < 0).any():
        missing = int((grid < 0).sum())
        raise ValueError(f"incomplete grid: {missing} of 65536 input pairs unobserved")
    return grid.reshape(256, 256).astype(np.uint8)


def walsh_round_output_all(traces: TraceSet) -> np.ndarray:
    """(guess, i, iprime) round-output Walsh statistic of a complete two-byte
    grid campaign, zero at the correct guess for a balanced single-set run:
    with c[p0, p5] the encoded round-output byte and s(b) = (-1)^b, bits MSB
    first, out[g, i, iprime] = sum over p0 of |sum over p5 of s(bit i of
    c[p0, p5]) * s(bit iprime of 3 * S(p5 ^ g))|.  The full hypothesis byte
    is 2 * S(p0 ^ k0) ^ 3 * S(p5 ^ g); its first term puts one sign per p0
    in front of each inner sum, which the absolute value drops, so k0 does
    not enter, and every inner sum is one entry of one binmat.walsh_grid of
    the rows of c against 3 * S(p5 ^ g) for every g."""
    inner = walsh_grid(_grid_round_output_bytes(traces), COEFF[2])  # (p0, i, g, iprime)
    return np.abs(inner, out=inner).sum(axis=0, dtype=np.int64).transpose(1, 0, 2)


# --- DCA ------------------------------------------------------------------------

def bit_expand(V: np.ndarray) -> np.ndarray:
    """Serialize byte-valued samples to bit samples, MSB first: (N, W) -> (N, 8W).

    This is the column layout DCA and MIA score; they reach it through
    _grouped_bit_sums without materializing it.  Nibble-valued samples
    contribute four constant zero columns.
    """
    return np.unpackbits(V, axis=1)


@dataclass
class BitRanking:
    bit: int
    scores: np.ndarray  # (256,) max |r| per guess
    ranks: np.ndarray  # (256,) 1 = highest score, ties by candidate ascending
    correct_guess: int

    @property
    def correct_score(self) -> float:
        return float(self.scores[self.correct_guess])

    @property
    def correct_rank(self) -> int:
        return int(self.ranks[self.correct_guess])


def _ranks_from_scores(scores: np.ndarray) -> np.ndarray:
    order = np.lexsort((np.arange(256), -scores))
    ranks = np.empty(256, dtype=np.int64)
    ranks[order] = np.arange(1, 257)
    return ranks


_F32_EXACT = 2**24  # float32 holds every integer up to 2^24 exactly
_ROW_BLOCK = 1024  # trace rows unpacked to bits at once: 8W bytes each
_COLUMN_BLOCK = 1024  # bit columns per block of a (256, columns) temporary
_H16 = np.array([[(-1) ** (a & b).bit_count() for b in range(16)] for a in range(16)], dtype=np.int64)


def _wht(x: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis, of length 256:
    out[w] = sum over v of (-1)^parity(w & v) x[v], its own inverse up to
    1/256.  It is the 16-point transform on each nibble of the index, so two
    batched (16, 16) products, in x's dtype."""
    h = _H16.astype(x.dtype)
    return (h @ x.reshape(*x.shape[:-1], 16, 16) @ h).reshape(x.shape)


def _exact_dtype(n: int):
    """The dtype in which the Walsh transform of signed group sums over n
    traces is exact: each partial sum is a signed count of at most n traces."""
    return np.float32 if n < _F32_EXACT else np.float64


def _grouped_bit_sums(x: np.ndarray, V: np.ndarray, flips: np.ndarray | None = None):
    """Trace counts and bit-plane sums of uint8 samples, grouped by the byte x.

    counts[v, 0] is the number of traces with x = v, and sums[v, 0, 8 * s + k]
    the number of those whose sample s has bit k (MSB first) set: the column
    sums of bit_expand(V) per group.  With flips, an (N, F) 0/1 array,
    counts[v, 1 + i] and sums[v, 1 + i] count trace t as (-1)^flips[t, i]
    instead, so every flip comes from the same pass.  The traces are sorted by
    x once, and each group's rows are unpacked to bits and summed _ROW_BLOCK
    rows at a time, so no (N, 8W) array is built.  One pass over the rows
    costs about a sixth of eight bit planes reduced with np.add.reduceat.
    """
    signs = np.zeros((len(x), 0)) if flips is None else 1 - 2.0 * flips
    counts = np.column_stack([np.bincount(x, minlength=256)]
                             + [np.bincount(x, s, minlength=256).astype(np.int64) for s in signs.T])
    ends = np.cumsum(counts[:, 0])
    order = np.argsort(x, kind="stable")
    Vs = V[order]
    signs = signs[order].astype(np.float32)
    # no sum exceeds its group's size, so int16 holds every sum while it holds the largest group
    dtype = np.int16 if counts[:, 0].max() < 2**15 else np.int32
    sums = np.zeros((256, 1 + signs.shape[1], 8 * V.shape[1]), dtype=dtype)
    for g in np.flatnonzero(counts[:, 0]):
        for lo in range(ends[g] - counts[g, 0], ends[g], _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, ends[g])
            bits = np.unpackbits(Vs[lo:hi], axis=1)
            # a 16-bit sum is exact over at most _ROW_BLOCK rows, and faster
            sums[g, 0] += bits.sum(axis=0, dtype=np.uint16)
            if flips is not None:  # float32 holds these sums of at most _ROW_BLOCK signs exactly
                sums[g, 1:] += (signs[lo:hi].T @ bits.astype(np.float32)).astype(dtype)
    return counts, sums


class _GroupedSums:
    """_grouped_bit_sums of a trace set, and its bit columns that are not
    constant (those score exactly 0 in DCA and MIA): their indices `ids` into
    the sums and their int64 totals `sv` over n traces.

    Grouping j of a hypothesis bit is entry j of the counts and sums: j = 0,
    every trace counted once, when the model has no k, else the entry signed
    by the bit's flips f.  Its signed counts d and sums D give every exact
    integer DCA and MIA need, as the flipped traces add (total - signed) / 2."""

    def __init__(self, counts: np.ndarray, sums: np.ndarray):
        self.counts, self.sums = counts, sums
        self.n = int(counts[:, 0].sum())
        totals = sums[:, 0].sum(axis=0, dtype=np.int64)
        self.ids = np.flatnonzero((totals > 0) & (totals < self.n))
        self.sv = totals[self.ids]

    def transforms(self, D: np.ndarray) -> np.ndarray:
        """float64 (C, 256) Walsh transforms along x of D's columns, exact in _exact_dtype(n)."""
        return _wht(D.T.astype(_exact_dtype(self.n), order="C")).astype(np.float64)

    def _convolve(self, h: np.ndarray, D: np.ndarray) -> np.ndarray:
        """float64 (256, C): per guess g, sum over x of h[x ^ g] D[x, c], the
        inverse transform of the product of the transforms of h and D.  The
        product and the inverse run in float64, exact as every value is an
        integer below 2^16 n < 2^48 for any u32 trace count."""
        D_hat = self.transforms(D)
        D_hat *= _wht(h.astype(np.float64))
        return np.divide(_wht(D_hat).T, 256, order="C")  # C order: _binary_mi runs faster on it

    def hypothesis_counts(self, j: int, h: np.ndarray) -> np.ndarray:
        """(256,) float64: per guess, the traces whose hypothesis bit is 1."""
        d = self.counts[:, j]
        return self._convolve(h, d[:, None])[:, 0] + (self.n - d.sum()) // 2

    def products(self, j: int, h: np.ndarray, cols) -> np.ndarray:
        """float64 (256, len(cols)): per guess, the traces whose hypothesis bit
        and bit column ids[c] are both 1, for the columns `cols` (a slice or
        indices into ids)."""
        D = self.sums[:, j][:, self.ids[cols]]
        return self._convolve(h, D) + (self.sv[cols] - D.sum(axis=0)) // 2


def _grouped(traces: TraceSet, model, bits: list):
    """The model's _GroupedSums over the traces, and per bit of `bits` its
    table bit h (MSB first) and grouping j."""
    x, k, table = model.xor_form(traces.plaintexts)
    flips = None if k is None else (k[:, None] >> (7 - np.asarray(bits, dtype=np.uint8))) & 1
    g = _GroupedSums(*_grouped_bit_sums(x, traces.samples, flips))
    return g, [((table >> (7 - bit)) & 1, 0 if k is None else 1 + i) for i, bit in enumerate(bits)]


def _walsh_columns(g: _GroupedSums, j: int):
    """The DCA screen's view of grouping j: the (C, 256) float32 Walsh
    transforms, along x, of every non-constant column's signed sums D,
    centred and scaled to (D - d m) / sd with the column's mean m = sv / n and
    sd = sqrt(var_v), and the largest L1 norm of one.  The transforms of D
    are exact (_GroupedSums.transforms); centring and scaling them runs in
    float64.  Each _COLUMN_BLOCK columns are stored in turn, so no (C, 256)
    float64 array is held."""
    d, D = g.counts[:, j], g.sums[:, j]
    m = g.sv / g.n
    sd = np.sqrt(g.sv - g.sv * m)
    d_hat = _wht(d.astype(np.float64))
    out = np.empty((g.ids.size, 256), dtype=np.float32)
    norm = 0.0
    for lo in range(0, g.ids.size, _COLUMN_BLOCK):
        cols = slice(lo, lo + _COLUMN_BLOCK)
        walsh = g.transforms(D[:, g.ids[cols]])
        walsh -= np.outer(m[cols], d_hat)
        walsh /= sd[cols, None]
        norm = max(norm, float(np.abs(walsh).sum(axis=1).max()))
        out[cols] = walsh
    return out, norm


def _dca_scores(g: _GroupedSums, h: np.ndarray, j: int, walsh: np.ndarray, norm: float) -> np.ndarray:
    """(256,) peak |r| per candidate of table bit h over the non-constant bit
    columns, r = (A - sh sv / n) / sqrt(var_h var_v) in float64 from the
    exact integers A and sh of g.

    Screen: B = r sqrt(var_h) peaks at the same column as |r| for each guess,
    and B = -1/2 sum over x of F[x ^ g] Dc[x, c], with F = (-1)^h and Dc the
    centred, scaled sums of _walsh_columns.  So B is the inverse transform of
    F^ / 512 times the stored transforms, computed in float32 over
    _COLUMN_BLOCK columns at a time.  Its error is at most
    e = 64 u max|F^| / 512 max_c ||walsh_c||_1 (u = 2^-24: rounding the
    transforms and the product, two 16-term sums, and a factor 2 to spare),
    plus a float64 slack, 2^-42 n (1 + sqrt(n)), for the centring and the r
    of the confirm.  A column more than 2e below a guess's largest screened
    |B| cannot hold that guess's peak |r|.
    Confirm: each kept (column, guess) pair gets its float64 r as above, and
    a guess's largest such |r| is its peak over every column."""
    n = g.n
    sh = g.hypothesis_counts(j, h)
    var_h = sh - sh * sh / n
    ok = var_h > 0  # a constant hypothesis bit scores 0
    spectrum = (_wht(1 - 2 * h.astype(np.int64)) / 512).astype(np.float32)
    e = 64 * 2.0**-24 * np.abs(spectrum).max() * norm + 2.0**-42 * n * (1 + np.sqrt(n))
    best = np.zeros(256)
    found = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float32))]  # (flat index, screened |B|)
    for lo in range(0, g.ids.size, _COLUMN_BLOCK):
        screen = _wht(walsh[lo:lo + _COLUMN_BLOCK] * spectrum).ravel()  # (column, guess), flattened
        np.abs(screen, out=screen)
        np.maximum(best, screen.reshape(-1, 256).max(axis=0), out=best)
        # a float32 threshold a step below best - 2e keeps every pair the float64 one keeps
        low = np.nextafter(np.where(ok, best - 2 * e, np.inf).astype(np.float32), np.float32(-np.inf))
        near = np.flatnonzero(screen.reshape(-1, 256) >= low)
        found.append((256 * lo + near, screen[near]))
    flat, value = (np.concatenate(a) for a in zip(*found))
    c, guess = np.divmod(flat[value >= best[flat % 256] - 2 * e], 256)
    cols, at = np.unique(c, return_inverse=True)
    sv = g.sv[cols][at].astype(np.float64)
    r = g.products(j, h, cols)[guess, at] - sh[guess] * sv / n
    r /= np.sqrt(var_h[guess] * (sv - sv * sv / n))  # binary columns: sum of squares equals the sum
    peak = np.zeros(256)
    np.maximum.at(peak, guess, np.abs(r))
    return peak


def dca_rank(traces: TraceSet, model, correct_guess: int, bits=range(8)) -> list:
    """Mono-bit attack over bit-serialized samples: every held sample byte is
    split into its bits, each candidate is scored by its peak |r| across
    those bit columns; one BitRanking per bit of `bits` ranks them by score.
    The Walsh transforms of each grouping are made once, and the bits are
    scored in turn."""
    bits = list(bits)
    g, per_bit = _grouped(traces, model, bits)
    out, made = [], None
    for bit, (h, j) in zip(bits, per_bit):
        if made is None or made[0] != j:
            made = (j, *_walsh_columns(g, j))
        scores = _dca_scores(g, h, *made)
        out.append(BitRanking(bit=bit, scores=scores, ranks=_ranks_from_scores(scores),
                              correct_guess=correct_guess))
    return out


# --- collision / cluster ---------------------------------------------------------

def collision_and_sse_scores(traces: TraceSet, known_k0: int):
    """For every candidate: the collision-consistency score (maximal when each
    hypothesis cluster holds one constant encoded byte) and the cluster
    sum-of-squared-error (minimal in the same situation).

    Cluster v of guess g holds the traces with 2 * S(p0 ^ k0) ^ 3 * S(p5 ^ g)
    = v.  With traces counted in a grid N[a, p5] over a = 2 * S(p0 ^ k0) (and
    likewise each encoded bit summed in a grid M_i), the cluster size is
    n_v(g) = sum over u of N[v ^ 3 * S(u), u ^ g]: a 2-D XOR convolution of the
    grid with the indicator D[w, u] = [w = 3 * S(u)].  A Walsh-Hadamard
    transform on each axis turns it into a pointwise product, giving all
    guesses and clusters of the 9 grids at once.  float64 holds every integer
    on the way exactly while fewer than 2^29 traces are scored."""
    c = _round_output_samples(traces)
    a = COEFF[1, known_k0][traces.plaintexts[:, 0]]
    cell = a.astype(np.int64) * 256 + traces.plaintexts[:, 5]
    grids = np.stack([np.bincount(cell, minlength=65536)]
                     + [np.bincount(cell, weights=(c >> (7 - i)) & 1, minlength=65536) for i in range(8)])
    grids = grids.astype(np.float64).reshape(9, 256, 256)
    d = np.zeros((256, 256))
    d[COEFF[2, 0], np.arange(256)] = 1.0

    def wht2(a):  # along both axes of each (256, 256) grid
        return _wht(_wht(a).swapaxes(-1, -2)).swapaxes(-1, -2)

    conv = wht2(wht2(grids) * wht2(d)) / 65536.0  # (channel, cluster v, guess g)
    conv = np.rint(conv).astype(np.int64)
    counts = np.ascontiguousarray(conv[0].T)  # (g, v)
    sums = np.ascontiguousarray(conv[1:].transpose(2, 1, 0))  # (g, v, bit)
    coll = np.abs(counts[:, :, None] - 2 * sums).sum(axis=(1, 2)).astype(np.float64)
    counts, sums = counts.astype(np.float64), sums.astype(np.float64)
    sse = np.zeros(256, dtype=np.float64)
    for guess in range(256):
        n_v, s = counts[guess], sums[guess]
        nz = n_v > 0
        # per guess, so the float sum runs in the order the reports were made with
        sse[guess] = (s[nz] * (n_v[nz, None] - s[nz]) / n_v[nz, None]).sum()
    return coll, sse


# --- mutual information -----------------------------------------------------------

def _plogp(p: np.ndarray) -> np.ndarray:
    """p * log2(p) where p > 0, else 0, computed in place of masked copies."""
    out = np.zeros_like(p)
    nz = p > 0
    np.log2(p, where=nz, out=out)
    return np.multiply(p, out, where=nz, out=out)


def _binary_mi(p11: np.ndarray, p1_: float | np.ndarray, p_1: np.ndarray) -> np.ndarray:
    """Plug-in mutual information (bits) of binary pairs from P(h=1, y=1),
    P(h=1) and P(y=1); broadcasts, so p1_ may hold one value per guess row."""
    p10 = p1_ - p11
    p01 = p_1 - p11
    p00 = 1.0 - p1_ - p01
    joint = np.stack([p00, p01, p10, p11])
    h_joint = -_plogp(joint).sum(axis=0)
    h_x = -(_plogp(np.atleast_1d(np.asarray(p1_, dtype=np.float64)))
            + _plogp(np.atleast_1d(1.0 - np.asarray(p1_, dtype=np.float64))))
    h_y = -(_plogp(p_1) + _plogp(1.0 - p_1))
    mi = h_x + h_y - h_joint
    return np.clip(mi, 0.0, None)


def _mia_scores(g: _GroupedSums, h: np.ndarray, j: int) -> np.ndarray:
    """(256,) peak bit-level MI per candidate of table bit h.  A block of bit
    columns per _binary_mi call bounds its (4, 256, columns) temporaries; the
    running max is the same in any order."""
    n = g.n
    p1_ = (g.hypothesis_counts(j, h) / n)[:, None]
    peak = np.zeros(256)
    for lo in range(0, g.ids.size, _COLUMN_BLOCK):
        cols = slice(lo, lo + _COLUMN_BLOCK)
        hs = g.products(j, h, cols)
        hs /= n
        np.maximum(peak, _binary_mi(hs, p1_, g.sv[cols] / n).max(axis=1), out=peak)
    return peak


def mia_max(traces: TraceSet, model, bits=range(8)) -> np.ndarray:
    """(256, len(bits)) peak mutual information per candidate between its
    hypothesis bit and any bit column of the held samples, as in DCA, one
    bit after another.  (Byte-binned MI saturates at H(X) for every
    candidate on noise-free traces, as many samples are bijections of the
    attacked byte.)"""
    g, per_bit = _grouped(traces, model, list(bits))
    out = np.zeros((256, len(per_bit)))
    for bi, (h, j) in enumerate(per_bit):
        out[:, bi] = _mia_scores(g, h, j)
    return out


# --- TVLA ---------------------------------------------------------------------

TVLA_THRESHOLD = 4.5  # |t| at or above it fails the fixed-versus-random test


@dataclass
class TvlaResult:
    t: np.ndarray
    max_abs_t: float
    degenerate: np.ndarray  # samples where both variances vanished


def _column_moments(x: np.ndarray):
    """float64 (mean, ddof=1 variance) per column of uint8 samples, from exact
    int64 sums s and sums of squares q, whatever the row order or layout; a
    constant column gets variance 0.  einsum casts in chunks: no (N, W) copy."""
    n = x.shape[0]
    s = x.sum(axis=0, dtype=np.int64)
    q = np.einsum("ij,ij->j", x, x, dtype=np.int64)
    mean = s / n
    return mean, (q - s * mean) / (n - 1)


def tvla(fixed: TraceSet, rand: TraceSet) -> TvlaResult:
    """Welch t statistic per held sample between a fixed-plaintext and a
    random-plaintext campaign holding the same samples: t[s] is the t of
    sample fixed.sample_ids[s]."""
    if not np.array_equal(fixed.sample_ids, rand.sample_ids):
        raise ValueError("trace layouts differ")
    nf, nr = len(fixed), len(rand)
    if nf < 2 or nr < 2:
        raise ValueError("both trace sets need at least two traces")
    (mf, vf), (mr, vr) = _column_moments(fixed.samples), _column_moments(rand.samples)
    denom = np.sqrt(vf / nf + vr / nr)
    t = np.zeros_like(mf)
    ok = denom > 0
    t[ok] = (mf[ok] - mr[ok]) / denom[ok]
    return TvlaResult(t=t, max_abs_t=float(np.abs(t).max()), degenerate=~ok)


# --- deliberately unbalanced baseline -------------------------------------------

def baseline_unbalanced_demo(seed: int = 0) -> dict:
    """Build a linear pair whose assembled matrix contains a forbidden row
    (last row reduced to the single index 8), generate the coefficient-2
    encoded table, and measure the resulting correlation leak.

    The forbidden combination {8} collapses the table's last output bit onto
    the first hypothesis bit of the plain SubBytes output, a full-magnitude
    Walsh value; wrong candidates show only S-box cross-correlation noise.
    The returned "pair" is that pair's (2, 4) uint8 f and g rows.
    """
    rng = random.Random(seed)
    while True:
        f = sample_f(rng)
        cand = admissible_g(f)
        if cand[:3].any(axis=-1).all():
            g = [rng.choice(np.flatnonzero(ok)) for ok in cand[:3]] + [0]
            break
    bad_pair = np.array([f, g], dtype=np.uint8)
    key_byte = rng.randrange(256)

    table = shear_maps(bad_pair)[0][COEFF[1:2, key_byte]]  # linear encoding of 2 * S(p ^ key_byte)
    grid = walsh_grid(table, COEFF[:, key_byte])[0]  # (i, ellp, iprime)
    leaks = [(int(i) + 1, int(lp) + 1, int(ip) + 1) for i, lp, ip in np.argwhere(np.abs(grid) == 256)]

    # table bit 8 against hypothesis bit 1 of S(p ^ guess), every wrong guess
    wrong = np.abs(walsh_grid(table, COEFF[0])[0, 7, :, 0])
    wrong = np.delete(wrong, key_byte).astype(np.float64)

    return {
        "pair": bad_pair,
        "key_byte": key_byte,
        "grid": grid,
        "leak_coords": leaks,
        "leak_value": int(np.abs(grid).max()),
        "expected_leak": (8, 1, 1),  # table bit 8 against coefficient-1 hypothesis bit 1
        "wrong_mean": float(wrong.mean()),
        "wrong_max": float(wrong.max()),
        "wrong_sd": float(wrong.std()),
        "forbidden_row_in_blacklist": derive_blacklist_W().forbids((0 << 4) | 0b0001),
    }
