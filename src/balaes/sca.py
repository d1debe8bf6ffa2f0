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
never build that (N, 8W) bit matrix. Each hypothesis model groups the traces
so that one hypothesis bit is a fixed function of the group label; the traces
are sorted by label once and each group's rows are unpacked to bits and
summed (`_grouped_bit_sums`, in the calling thread). Each hypothesis bit is
then one worker-pool task (see pool: one worker per CPU in the process's
affinity mask, at most 8, and at most workers + 1 tasks in flight) that
scores all 256 candidates from the per-group sums: a matrix product of the
0/1 matrix H and the group sums, in float32 while there are fewer than 2^24
traces, which is exact because every partial sum is an integer no larger
than the trace count, and then the float64 statistic over blocks of
_COLUMN_BLOCK bit columns, so its temporaries stay small.  Memory scales
with 256 x 8W, not N x 8W.

The round-output analyses attack the one byte defined below and score all
256 guesses of k1 at once. walsh-ro is one Walsh grid (tablegen.round_output_walsh);
collision and cluster scores come from a 2-D XOR convolution of per-(a, p5)
count and bit grids, a = 2 * S(p0 ^ k0), computed by Walsh-Hadamard transforms.
The t-test works from exact integer sums, so t does not depend on layout."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .gfcore import RoundKeys, position_for_pt_index
from .binmat import COEFF, admissible_g, derive_blacklist_W, sample_f, shear_maps, walsh_grid
from .cipher import TraceSet, round_output_sample_indices, ut_sample_index
from .pool import ordered_map
from .tablegen import round_output_walsh


# --- the round-output experiment -------------------------------------------------
# walsh-ro, collision, cluster and the round-output MIA model attack one byte,
# the first-round output byte 0 of column 0,
#     2 * S(p0 ^ k0) ^ 3 * S(p5 ^ k1) ^ S(p10 ^ k2) ^ S(p15 ^ k3),
# with ki = khat[0][i][0] (round_output_keys).  Its encoded nibbles are
# samples 20 and 21 (ROUND_OUTPUT_SAMPLES).  A grid campaign varies p0 and p5.
# k0, k2 and k3 are known, and k1 is guessed.

ROUND_OUTPUT_SAMPLES = round_output_sample_indices(1, 0, 0)


def round_output_keys(key: bytes) -> tuple:
    """(k0, k1, k2, k3) of the round-output experiment, as ints."""
    khat = RoundKeys.from_key(key).khat[0]
    return tuple(int(khat[i][0]) for i in range(4))


# --- hypothesis models ----------------------------------------------------------

@dataclass(frozen=True)
class SboxHypothesis:
    """Coefficient-multiplied SubBytes output of one plaintext byte."""

    ell: int
    pt_index: int

    def bit_groups(self, pts: np.ndarray, bit: int):
        """Per-trace group labels and the (256, groups) 0/1 matrix H with
        hypothesis bit (MSB first) of trace t under guess g = H[g, labels[t]].

        The label is the attacked byte, the same for every bit."""
        H = (COEFF[self.ell - 1] >> (7 - bit)) & 1
        return pts[:, self.pt_index], H


@dataclass(frozen=True)
class RoundOutputHypothesis:
    """The round-output byte with known = (k0, k2, k3) and k1 guessed."""

    known: tuple

    def bit_groups(self, pts: np.ndarray, bit: int):
        """As SboxHypothesis.bit_groups, with label 2 * p5 + kb, where kb is
        the bit of the known term 2 * S(p0 ^ k0) ^ S(p10 ^ k2) ^ S(p15 ^ k3):
        H[g, 2v + kb] = kb ^ bit(3 * S(v ^ g))."""
        k0, k2, k3 = self.known
        known = COEFF[1, k0][pts[:, 0]] ^ COEFF[0, k2][pts[:, 10]] ^ COEFF[0, k3][pts[:, 15]]
        kb = (known >> (7 - bit)) & 1
        tb = (COEFF[2] >> (7 - bit)) & 1
        H = np.stack([tb, tb ^ 1], axis=2).reshape(256, 512)
        return 2 * pts[:, 5].astype(np.int64) + kb, H


# --- trace-mode table-output Walsh ----------------------------------------------

def walsh_ut_sample_indices(pt_index: int) -> list:
    """The four round-1 table-output samples of one plaintext byte, which
    walsh_ut_trace_grid reads."""
    i, j = position_for_pt_index(pt_index)
    return [ut_sample_index(1, j, i, k) for k in range(4)]


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
    """(guess, i, iprime) grid of the round-output Walsh statistic of a
    complete two-byte grid campaign: zero at the correct guess for a balanced
    single-set run.  One sign-matrix product covers every guess (see
    tablegen.round_output_walsh)."""
    return round_output_walsh(_grid_round_output_bytes(traces))


# --- DCA ------------------------------------------------------------------------

def bit_expand(V: np.ndarray) -> np.ndarray:
    """Serialize byte-valued samples to bit samples, MSB first: (N, W) -> (N, 8W).

    This is the column layout DCA and MIA score; they reach it through
    _grouped_bit_sums without materializing it.  Nibble-valued samples
    contribute four constant zero columns.
    """
    shifts = np.arange(7, -1, -1, dtype=np.uint8)
    return ((V[:, :, None] >> shifts) & 1).reshape(V.shape[0], -1)


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


def _grouped_bit_sums(labels: np.ndarray, V: np.ndarray, groups: int):
    """Trace counts and bit-plane sums of uint8 samples, grouped by label.

    counts[g] is the number of traces labelled g, and sums[g, 8 * s + k] the
    number of those whose sample s has bit k (MSB first) set: the column sums
    of bit_expand(V) per group.  The traces are sorted by label once, and
    each group's rows are unpacked to bits and summed _ROW_BLOCK rows at a
    time, so no (N, 8W) array is built.  It runs in the calling thread: one
    pass over the rows costs about a sixth of eight bit planes reduced with
    np.add.reduceat, so a second core would have little to take over.
    """
    counts = np.bincount(labels, minlength=groups)
    ends = np.cumsum(counts)
    Vs = V[np.argsort(labels, kind="stable")]
    sums = np.zeros((groups, 8 * V.shape[1]), dtype=np.int32)
    for g in np.flatnonzero(counts):
        for lo in range(ends[g] - counts[g], ends[g], _ROW_BLOCK):
            rows = Vs[lo : min(lo + _ROW_BLOCK, ends[g])]
            # a 16-bit sum is exact over at most _ROW_BLOCK rows, and faster
            sums[g] += np.unpackbits(rows, axis=1).sum(axis=0, dtype=np.uint16)
    return counts, sums


_F32_EXACT = 2**24  # float32 holds every integer up to 2^24 exactly
_ROW_BLOCK = 1024  # trace rows unpacked to bits at once: 8W bytes each
_COLUMN_BLOCK = 1024  # bit columns per block of the float64 statistic


def _bit_column_stats(counts: np.ndarray, sums: np.ndarray):
    """float64 group counts, the group sums S of the bit columns that are not
    constant (those score exactly 0 in DCA and MIA) and their float64 totals.
    S is float32 when the trace count is below 2^24, so that H @ S, whose
    partial sums are integers no larger than the trace count, is exact in
    float32; otherwise it is float64."""
    n = int(counts.sum())
    sv = sums.sum(axis=0)
    nz = (sv > 0) & (sv < n)
    S = sums[:, nz].astype(np.float32 if n < _F32_EXACT else np.float64)
    return counts.astype(np.float64), S, sv[nz].astype(np.float64)


def _hypothesis_bit_stats(traces: TraceSet, model, bits):
    """Per hypothesis bit: the model's float64 (256, groups) matrix H and the
    _bit_column_stats of the bit columns of every held sample under its
    grouping.  The sums are recomputed only when the grouping changes."""
    labels = None
    for bit in bits:
        new_labels, H = model.bit_groups(traces.plaintexts, bit)
        if labels is None or not np.array_equal(new_labels, labels):
            labels = new_labels
            counts, S, sv = _bit_column_stats(*_grouped_bit_sums(labels, traces.samples, H.shape[1]))
        yield H.astype(np.float64), counts, S, sv


def _column_blocks(H: np.ndarray, S: np.ndarray):
    """(columns, H @ S over those columns as float64), _COLUMN_BLOCK bit
    columns at a time; the product runs in S's dtype (see _bit_column_stats)."""
    H = H.astype(S.dtype)
    for lo in range(0, S.shape[1], _COLUMN_BLOCK):
        cols = slice(lo, lo + _COLUMN_BLOCK)
        yield cols, (H @ S[:, cols]).astype(np.float64)


def _dca_scores(H, counts, S, sv, n: int) -> np.ndarray:
    """(256,) peak |r| per candidate of one hypothesis bit over the bit
    columns: r = (H @ S - sh sv / n) / sqrt(var_h var_v), evaluated in place,
    block by block."""
    sh = H @ counts
    var_h = sh - sh * sh / n
    var_v = sv - sv * sv / n  # binary columns: sum of squares equals the sum
    ok = var_h > 0  # a constant hypothesis bit scores 0
    sh, var_h = sh[ok], var_h[ok]
    peak = np.zeros(len(sh))
    for cols, r in _column_blocks(H[ok], S):
        tmp = np.outer(sh, sv[cols])
        tmp /= n
        r -= tmp
        np.sqrt(np.outer(var_h, var_v[cols], out=tmp), out=tmp)
        r /= tmp
        np.maximum(peak, np.abs(r, out=r).max(axis=1), out=peak)
    scores = np.zeros(256)
    scores[ok] = peak
    return scores


def dca_rank(traces: TraceSet, model, correct_guess: int, bits=range(8)) -> list:
    """Mono-bit attack over bit-serialized samples: every held sample byte is
    split into its bits, each candidate is scored by its peak |r| across
    those bit columns; one BitRanking per bit of `bits` ranks them by score."""
    n = traces.samples.shape[0]
    bits = list(bits)
    stats = _hypothesis_bit_stats(traces, model, bits)
    return [BitRanking(bit=bit, scores=col, ranks=_ranks_from_scores(col), correct_guess=correct_guess)
            for bit, col in zip(bits, ordered_map(lambda st: _dca_scores(*st, n), stats))]


# --- collision / cluster ---------------------------------------------------------

def _walsh_hadamard_matrix() -> np.ndarray:
    """(256, 256) float64 matrix of (-1)^parity(x & y), its own inverse up to 1/256."""
    h = np.ones((1, 1))
    for _ in range(8):
        h = np.block([[h, h], [h, -h]])
    return h


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
    h = _walsh_hadamard_matrix()
    d = np.zeros((256, 256))
    d[COEFF[2, 0], np.arange(256)] = 1.0
    conv = h @ ((h @ grids @ h) * (h @ d @ h)) @ h / 65536.0  # (channel, cluster v, guess g)
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


def _mia_scores(H, counts, S, sv, n: int) -> np.ndarray:
    """(256,) peak bit-level MI per candidate of one hypothesis bit.  A block
    of bit columns per _binary_mi call bounds its (4, 256, columns)
    temporaries; the running max is the same in any order."""
    p1_ = (H @ counts / n)[:, None]
    peak = np.zeros(256)
    for cols, hs in _column_blocks(H, S):
        hs /= n
        np.maximum(peak, _binary_mi(hs, p1_, sv[cols] / n).max(axis=1), out=peak)
    return peak


def mia_max(traces: TraceSet, model, bits=range(8)) -> np.ndarray:
    """(256, len(bits)) peak mutual information per candidate between its
    hypothesis bit and any bit column of the held samples, as in DCA.
    (Byte-binned MI saturates at H(X) for every candidate on noise-free
    traces, as many samples are bijections of the attacked byte.)"""
    n = traces.samples.shape[0]
    bits = list(bits)
    out = np.zeros((256, len(bits)))
    stats = _hypothesis_bit_stats(traces, model, bits)
    for bi, peak in enumerate(ordered_map(lambda st: _mia_scores(*st, n), stats)):
        out[:, bi] = peak
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
