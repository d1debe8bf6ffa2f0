import dataclasses
import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from balaes import cipher, sca, tablegen
from balaes.binmat import COEFF, sample_pair, walsh_grid
from balaes.cipher import SelectorPolicy, TraceSet, collect_traces, fixed_plaintexts, random_plaintexts
from balaes.gfcore import MC, SBOX, gf_mul, position_for_pt_index
from balaes.sca import (
    RoundOutputHypothesis,
    SboxHypothesis,
    round_output_keys,
    baseline_unbalanced_demo,
    bit_expand,
    collision_and_sse_scores,
    dca_rank,
    mia_max,
    tvla,
    walsh_round_output_all,
)

from conftest import STD_KEY, STD_SEED, non_candidate_stage2_spec, walsh_balance_check, windowed

_SBOX = np.frombuffer(SBOX, dtype=np.uint8)
_MUL = {c: np.array([gf_mul(c, x) for x in range(256)], dtype=np.uint8) for c in (1, 2, 3)}


def _toy_traceset(samples: np.ndarray, plaintexts: np.ndarray | None = None) -> TraceSet:
    n = samples.shape[0]
    if plaintexts is None:
        plaintexts = np.zeros((n, 16), dtype=np.uint8)
    pad = np.zeros((n, cipher.SAMPLE_COUNT), dtype=np.uint8)
    pad[:, : samples.shape[1]] = samples
    return TraceSet(plaintexts=plaintexts, set_bits=np.zeros(n, dtype=np.uint8), samples=pad)


# --- per-guess reference implementations -------------------------------------------
# Brute force over the explicit float64 bit matrix, one guess at a time.  The
# grouped-sum engine behind dca_rank and mia_max must reproduce these exactly.

def _bit_matrix(traces: TraceSet) -> np.ndarray:
    return bit_expand(traces.samples).astype(np.float64)


def hyp_bytes(model, guess: int, pts: np.ndarray) -> np.ndarray:
    """The model's hypothesis byte of every trace under one guess, gathered
    from gfcore's S-box and multiplications rather than the coefficient tables."""
    if isinstance(model, SboxHypothesis):
        return _MUL[model.ell][_SBOX[pts[:, model.pt_index] ^ np.uint8(guess)]]
    k0, k2, k3 = model.known
    return (_MUL[2][_SBOX[pts[:, 0] ^ np.uint8(k0)]] ^ _MUL[3][_SBOX[pts[:, 5] ^ np.uint8(guess)]]
            ^ _SBOX[pts[:, 10] ^ np.uint8(k2)] ^ _SBOX[pts[:, 15] ^ np.uint8(k3)])


def _hyp_bit(model, guess: int, bit: int, pts: np.ndarray) -> np.ndarray:
    return ((hyp_bytes(model, guess, pts) >> (7 - bit)) & 1).astype(np.float64)


def pearson_binary(h: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Pearson r of one binary hypothesis vector against every sample column;
    degenerate columns (or a constant hypothesis) give 0."""
    n = h.shape[0]
    h = h.astype(np.float64)
    V = V.astype(np.float64)
    sh = h.sum()
    var_h = sh - sh * sh / n
    if var_h == 0:
        return np.zeros(V.shape[1])
    sv = V.sum(axis=0)
    var_v = (V * V).sum(axis=0) - sv * sv / n
    num = h @ V - sh * sv / n
    with np.errstate(invalid="ignore", divide="ignore"):
        r = num / np.sqrt(var_h * var_v)
    r[var_v == 0] = 0.0
    return r


def cpa_monobit(traces: TraceSet, model, guess: int, bit: int) -> np.ndarray:
    """Correlation of one hypothesis bit against each held sample."""
    return pearson_binary(_hyp_bit(model, guess, bit, traces.plaintexts), traces.samples)


def mia(traces: TraceSet, model, guess: int, bit: int) -> np.ndarray:
    """Plug-in mutual information (bits) between one hypothesis bit and every
    bit-serialized held sample, one value per bit column."""
    Y = _bit_matrix(traces)
    h = _hyp_bit(model, guess, bit, traces.plaintexts)
    n = Y.shape[0]
    return sca._binary_mi(h @ Y / n, h.sum() / n, Y.sum(axis=0) / n)


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def mia_bytes(traces: TraceSet, model, guess: int, bit: int) -> np.ndarray:
    """Byte-granular MI: raw sample values as 256 bins, one value per sample."""
    V = traces.samples
    h = _hyp_bit(model, guess, bit, traces.plaintexts).astype(np.int64)
    n = V.shape[0]
    out = np.empty(V.shape[1])
    for s in range(V.shape[1]):
        joint = np.bincount(V[:, s].astype(np.int64) * 2 + h, minlength=512).astype(np.float64) / n
        jm = joint.reshape(256, 2)
        out[s] = _entropy(jm.sum(axis=1)) + _entropy(jm.sum(axis=0)) - _entropy(joint)
    return out


def _reference_scores(traces: TraceSet, model, bits):
    """(dca, mi), each (256, len(bits)): peak |r| as dca_rank scores it and
    peak bit-level MI as mia_max returns it, one guess and bit at a time.
    The correlation is pearson_binary with the column statistics hoisted."""
    Y = _bit_matrix(traces)
    n = Y.shape[0]
    sv = Y.sum(axis=0)
    var_v = sv - sv * sv / n
    dca = np.zeros((256, len(bits)))
    mi = np.zeros((256, len(bits)))
    for guess in range(256):
        for bi, bit in enumerate(bits):
            h = _hyp_bit(model, guess, bit, traces.plaintexts)
            sh = h.sum()
            hy = h @ Y
            var_h = sh - sh * sh / n
            if var_h > 0:
                with np.errstate(invalid="ignore", divide="ignore"):
                    r = (hy - sh * sv / n) / np.sqrt(var_h * var_v)
                r[var_v == 0] = 0.0
                dca[guess, bi] = np.abs(r).max()
            mi[guess, bi] = sca._binary_mi(hy / n, sh / n, sv / n).max()
    return dca, mi


# Round-output references: the guess-by-guess loops the all-guess kernels
# replace.  The kernels must reproduce them exactly.

def _hyp_round_output(pts: np.ndarray, known_k0: int, guess: int) -> np.ndarray:
    return (
        _MUL[2][_SBOX[pts[:, 0] ^ np.uint8(known_k0)]]
        ^ _MUL[3][_SBOX[pts[:, 5] ^ np.uint8(guess)]]
    )


def _walsh_round_output_reference(traces: TraceSet, known_k0: int) -> np.ndarray:
    """(guess, i, iprime) round-output Walsh grid over the full hypothesis
    byte 2 * S(p1 ^ k0) ^ 3 * S(p2 ^ guess), one guess at a time."""
    c = sca._grid_round_output_bytes(traces)
    cbits = ((c[None, :, :] >> (7 - np.arange(8)[:, None, None])) & 1).astype(np.int64)
    vals = np.arange(256, dtype=np.uint8)
    s2 = _MUL[2][_SBOX[vals ^ np.uint8(known_k0)]]
    out = np.zeros((256, 8, 8), dtype=np.int64)
    for guess in range(256):
        gamma = s2[:, None] ^ _MUL[3][_SBOX[vals ^ np.uint8(guess)]][None, :]
        gbits = ((gamma[None, :, :] >> (7 - np.arange(8)[:, None, None])) & 1).astype(np.int64)
        for i in range(8):
            inner = 256 - 2 * (cbits[i][None, :, :] ^ gbits).sum(axis=2)
            out[guess, i] = np.abs(inner).sum(axis=1)
    return out


def _cluster_sums(traces: TraceSet, known_k0: int, guess: int):
    """Per hypothesis cluster: trace count (256,) and encoded-bit sums (256, 8)."""
    c = sca._round_output_samples(traces)
    cbits = ((c[:, None] >> (7 - np.arange(8))) & 1).astype(np.float64)
    hyp = _hyp_round_output(traces.plaintexts, known_k0, guess)
    n_v = np.bincount(hyp, minlength=256).astype(np.float64)
    s = np.stack([np.bincount(hyp, weights=cbits[:, i], minlength=256) for i in range(8)], axis=1)
    return n_v, s


def collision_score(traces: TraceSet, known_k0: int, guess: int) -> int:
    n_v, s = _cluster_sums(traces, known_k0, guess)
    return int(np.abs(n_v[:, None] - 2 * s).sum())


def cluster_sse_score(traces: TraceSet, known_k0: int, guess: int) -> float:
    n_v, s = _cluster_sums(traces, known_k0, guess)
    nz = n_v > 0
    return float((s[nz] * (n_v[nz, None] - s[nz]) / n_v[nz, None]).sum())


def _collision_and_sse_reference(traces: TraceSet, known_k0: int):
    c = sca._round_output_samples(traces)
    cbits = ((c[:, None] >> (7 - np.arange(8))) & 1).astype(np.float64)  # (N, 8)
    coll = np.zeros(256, dtype=np.float64)
    sse = np.zeros(256, dtype=np.float64)
    for guess in range(256):
        hyp = _hyp_round_output(traces.plaintexts, known_k0, guess)
        n_v = np.bincount(hyp, minlength=256).astype(np.float64)
        s = np.stack(
            [np.bincount(hyp, weights=cbits[:, i], minlength=256) for i in range(8)], axis=1
        )  # (256 clusters, 8)
        coll[guess] = np.abs(n_v[:, None] - 2 * s).sum()
        nz = n_v > 0
        sse[guess] = (s[nz] * (n_v[nz, None] - s[nz]) / n_v[nz, None]).sum()
    return coll, sse


def _perfect_cluster_traces(secret: int) -> TraceSet:
    """Observations equal to a fixed bijection of the round-output hypothesis
    byte at k0 = 0 and the secret guess."""
    rng = random.Random(77)
    n = 2048
    pts = np.zeros((n, 16), dtype=np.uint8)
    pts[:, 0] = np.frombuffer(rng.randbytes(n), dtype=np.uint8)
    pts[:, 5] = np.frombuffer(rng.randbytes(n), dtype=np.uint8)
    c = _SBOX[_hyp_round_output(pts, 0, secret)]
    samples = np.zeros((n, 22), dtype=np.uint8)
    samples[:, 20] = c >> 4
    samples[:, 21] = c & 0xF
    return _toy_traceset(samples, pts)


def walsh(fbits, omega: int) -> int:
    """Signed correlation of a 256-point boolean function with x -> parity(x & omega)."""
    total = 0
    for x in range(256):
        total += -1 if (int(fbits[x]) ^ ((x & omega).bit_count() & 1)) else 1
    return total


def walsh_ut_from_traces(traces: TraceSet, pt_index: int, out_byte: int, out_bit: int,
                         ellp: int, iprime: int, guess: int, reps: int = 1) -> float:
    """One trace-mode Walsh sum: one (or reps, averaged) observed table output
    per input byte value.  Raises if some value was never encrypted."""
    i, j = position_for_pt_index(pt_index)
    s_idx = cipher.UT_SAMPLES[0, j, i, out_byte]
    b = traces.plaintexts[:, pt_index]
    col = traces.samples[:, s_idx]
    hyp = _MUL[ellp][_SBOX[np.arange(256, dtype=np.uint8) ^ np.uint8(guess)]]
    hbits = (hyp >> (7 - iprime)) & 1
    total = 0.0
    for v in range(256):
        hits = np.nonzero(b == v)[0][:reps]
        if hits.size == 0:
            raise ValueError(f"input byte value {v:#04x} unobserved at pt index {pt_index}")
        fb = (col[hits] >> (7 - out_bit)) & 1
        term = float((1 - 2 * fb.astype(np.int64)).mean())
        total += term * (1 if hbits[v] == 0 else -1)
    return total


def _ut_walsh_grid(ts, i: int, j: int, ellp: int) -> np.ndarray:
    """(out_byte, out_bit, guess, iprime) Walsh sums of round-1 table (i, j)
    against ellp * S(x ^ guess) for every guess."""
    return walsh_grid(ts.ut[0, i, j].T, COEFF[ellp - 1])


# --- walsh ----------------------------------------------------------------------

def test_walsh_constant_zero_function():
    assert walsh([0] * 256, 0) == 256
    assert walsh([0] * 256, 0x13) == 0


def test_walsh_linear_function_peaks_at_its_mask():
    for omega in (0x01, 0x80, 0x56):
        f = [(x & omega).bit_count() & 1 for x in range(256)]
        assert walsh(f, omega) == 256
        assert walsh(f, 0) == 0


def test_walsh_sbox_bit_against_direct_summation():
    f = [(SBOX[x] >> 7) & 1 for x in range(256)]
    ref = 0
    for x in range(256):
        ref += (-1) ** (f[x] ^ ((x & 0x80) >> 7))
    assert walsh(f, 0x80) == ref
    assert walsh(f, 0x80) % 2 == 0
    assert -256 <= walsh(f, 0x80) <= 256


def walsh_spectrum(fbits) -> np.ndarray:
    """Walsh transform of a 256-point boolean function over all 256 masks,
    through the Walsh-Hadamard kernel of DCA and the collision and cluster
    scores."""
    return sca._wht(1 - 2 * np.asarray(fbits, dtype=np.int64))


def test_walsh_spectrum_matches_pointwise_walsh():
    rng = random.Random(70)
    f = [rng.randrange(2) for _ in range(256)]
    spec = walsh_spectrum(f)
    for omega in (0, 1, 5, 0x80, 0xFF, 0x3C):
        assert spec[omega] == walsh(f, omega)


def test_one_resilient_function_spectrum():
    # parity of two fixed bits: spectrum vanishes for every mask of weight <= 1
    f = [((x >> 3) ^ (x >> 6)) & 1 for x in range(256)]
    spec = walsh_spectrum(f)
    for omega in range(256):
        if omega.bit_count() <= 1:
            assert spec[omega] == 0


def test_delta_imbalance_cases():
    # accumulated absolute Walsh values of a family, summed over every mask
    def delta_imbalance(family):
        return sum(int(np.abs(walsh_spectrum(f)).sum()) for f in family)

    assert delta_imbalance([[0] * 256]) == 256
    rng = random.Random(71)
    fam = [[rng.randrange(2) for _ in range(256)] for _ in range(3)]
    ref = sum(abs(walsh(f, w)) for f in fam for w in range(256))
    assert delta_imbalance(fam) == ref


# --- CPA ------------------------------------------------------------------------

def test_pearson_binary_self_and_complement():
    rng = random.Random(72)
    h = np.array([rng.randrange(2) for _ in range(500)], dtype=np.float64)
    V = np.stack([h, 1 - h, np.full(500, 7.0)], axis=1)
    r = pearson_binary(h, V)
    assert abs(r[0] - 1.0) < 1e-12
    assert abs(r[1] + 1.0) < 1e-12
    assert r[2] == 0.0  # degenerate column


def test_pearson_binary_affine_invariance():
    rng = random.Random(73)
    h = np.array([rng.randrange(2) for _ in range(1000)], dtype=np.float64)
    v = np.array([rng.gauss(0, 1) for _ in range(1000)])
    r1 = pearson_binary(h, v[:, None])[0]
    r2 = pearson_binary(h, (3.5 * v + 11.0)[:, None])[0]
    assert abs(r1 - r2) < 1e-12


def test_pearson_binary_null_bound():
    rng = random.Random(74)
    n = 10000
    h = np.array([rng.randrange(2) for _ in range(n)], dtype=np.float64)
    v = np.array([rng.randrange(256) for _ in range(n)], dtype=np.float64)
    assert abs(pearson_binary(h, v[:, None])[0]) < 0.05


def test_cpa_monobit_finds_injected_hypothesis(std_pair, traces_q0_10k):
    # correlation of the correct hypothesis against its own table-output bits
    # is tiny; against an unrelated sample column it is noise
    model = SboxHypothesis(ell=1, pt_index=0)
    r = cpa_monobit(windowed(traces_q0_10k, slice(0, 16)), model, guess=STD_KEY[0], bit=0)
    assert np.abs(r).max() < 0.06


def test_dca_rank_synthetic_planted_leak():
    rng = random.Random(75)
    n = 4000
    pts = np.frombuffer(rng.randbytes(n * 16), dtype=np.uint8).reshape(n, 16).copy()
    secret = 0x5A
    hyp = SboxHypothesis(ell=1, pt_index=3)
    leak_bits = (hyp_bytes(hyp, secret, pts) >> 7) & 1  # bit 1 of S(pt3 ^ secret)
    samples = np.zeros((n, 4), dtype=np.uint8)
    samples[:, 2] = leak_bits  # bit-expansion exposes it on the LSB column
    samples[:, 0] = np.frombuffer(rng.randbytes(n), dtype=np.uint8)
    ts = _toy_traceset(samples, pts)
    [br] = dca_rank(windowed(ts, slice(0, 4)), hyp, correct_guess=secret, bits=[0])
    assert br.correct_rank == 1
    assert br.correct_score > 0.99
    assert sorted(br.ranks) == list(range(1, 257))


def test_dca_rank_tie_break_by_candidate_value():
    scores = np.zeros(256)
    scores[10] = scores[20] = 0.5
    ranks = sca._ranks_from_scores(scores)
    assert ranks[10] == 1 and ranks[20] == 2
    assert ranks[0] == 3  # first of the zero-score ties
    assert sorted(ranks) == list(range(1, 257))


def test_dca_rank_scale_invariance():
    rng = random.Random(76)
    scores = np.array([rng.random() for _ in range(256)])
    assert np.array_equal(sca._ranks_from_scores(scores), sca._ranks_from_scores(scores * 2.0))


def test_dca_grouped_and_general_paths_agree(traces_q0_10k):
    m = 4
    sb = SboxHypothesis(ell=1, pt_index=m)
    col0 = windowed(traces_q0_10k, slice(0, 40))
    fast = dca_rank(col0, sb, correct_guess=STD_KEY[m], bits=[0, 5])
    slow, _ = _reference_scores(col0, sb, [0, 5])
    for bi, a in enumerate(fast):
        assert np.allclose(a.scores, slow[:, bi], atol=1e-10)
        assert np.array_equal(a.ranks, sca._ranks_from_scores(slow[:, bi]))


@pytest.mark.parametrize("model_name", ["sbox", "round-output"])
def test_grouped_engine_matches_per_guess_reference_exactly(traces_mixed_10k, round_output_model, model_name):
    # samples 0..39: 16 table-output bytes followed by 24 nibble samples
    model = SboxHypothesis(ell=1, pt_index=5) if model_name == "sbox" else round_output_model
    bits = [1, 6]
    col0 = windowed(traces_mixed_10k, slice(0, 40))
    ref_dca, ref_mi = _reference_scores(col0, model, bits)
    rankings = dca_rank(col0, model, correct_guess=0, bits=bits)
    assert [b.bit for b in rankings] == bits
    assert np.array_equal(np.stack([b.scores for b in rankings], axis=1), ref_dca)
    assert np.array_equal(mia_max(col0, model, bits=bits), ref_mi)


@pytest.mark.parametrize("model_name", ["sbox", "round-output"])
@pytest.mark.parametrize("window", [None, slice(0, 40)], ids=["full", "col0"])
def test_bit_subset_scores_equal_rows_of_the_all_bits_run(traces_mixed_10k, round_output_model, model_name, window):
    # the round-output model groups each requested bit by its own flips: bits [7, 0]
    # are groupings 1 and 2 here, against 8 and 1 in the range(8) run
    model = SboxHypothesis(ell=1, pt_index=0) if model_name == "sbox" else round_output_model
    traces = traces_mixed_10k if window is None else windowed(traces_mixed_10k, window)
    every = dca_rank(traces, model, correct_guess=0)
    subset = dca_rank(traces, model, correct_guess=0, bits=[7, 0])
    assert [b.bit for b in subset] == [7, 0]
    for part, whole in zip(subset, (every[7], every[0]), strict=True):
        assert np.array_equal(part.scores, whole.scores) and np.array_equal(part.ranks, whole.ranks)
    assert np.array_equal(mia_max(traces, model, bits=[7, 0]), mia_max(traces, model)[:, [7, 0]])


def test_grouped_bit_sums_match_bit_expand():
    rng = np.random.default_rng(83)
    V = rng.integers(0, 256, (300, 5), dtype=np.uint8)
    x = rng.integers(0, 7, 300)
    x[x == 3] = 4  # leave one group empty
    counts, sums = sca._grouped_bit_sums(x, V)
    bits = bit_expand(V)
    assert counts.shape == (256, 1) and sums.shape == (256, 1, 40)
    assert np.array_equal(counts[:, 0], np.bincount(x, minlength=256))
    for g in range(256):
        assert np.array_equal(sums[g, 0], bits[x == g].sum(axis=0))
    # with flips, one pass gives every flip's signed sums: traces with the
    # flip set count -1, and the label 2x + f of the per-bit grouping splits them
    flips = rng.integers(0, 2, (300, 3))
    counts_f, sums_f = sca._grouped_bit_sums(x, V, flips)
    assert np.array_equal(counts_f[:, :1], counts) and np.array_equal(sums_f[:, :1], sums)
    for i in range(3):
        labels = 2 * x + flips[:, i]
        by_label = np.stack([bits[labels == lab].sum(axis=0) for lab in range(512)])
        n_label = np.bincount(labels, minlength=512)
        assert np.array_equal(counts_f[:, 1 + i], n_label[0::2] - n_label[1::2])
        assert np.array_equal(sums_f[:, 1 + i], by_label[0::2].astype(np.int64) - by_label[1::2])
    # a group past the 16-bit accumulator's range still sums exactly
    _, sums = sca._grouped_bit_sums(np.zeros(70000, dtype=np.int64), np.full((70000, 1), 0x81, np.uint8))
    assert sums[0].tolist() == [[70000, 0, 0, 0, 0, 0, 0, 70000]]


def _bit_groups_before_the_xor_form(model, pts: np.ndarray, bit: int):
    """Labels and (256, groups) 0/1 matrix H as each model stated them before
    the XOR form: hypothesis bit of trace t under guess g = H[g, labels[t]]."""
    if isinstance(model, SboxHypothesis):
        return pts[:, model.pt_index], (COEFF[model.ell - 1] >> (7 - bit)) & 1
    k0, k2, k3 = model.known
    known = COEFF[1, k0][pts[:, 0]] ^ COEFF[0, k2][pts[:, 10]] ^ COEFF[0, k3][pts[:, 15]]
    kb = (known >> (7 - bit)) & 1
    tb = (COEFF[2] >> (7 - bit)) & 1
    return 2 * pts[:, 5].astype(np.int64) + kb, np.stack([tb, tb ^ 1], axis=2).reshape(256, 512)


def _hypothesis_matrix(h: np.ndarray) -> np.ndarray:
    """The dense (256, 256) 0/1 reference H[g, x] = h[x ^ g] of a table bit h."""
    x = np.arange(256)
    return h[np.bitwise_xor.outer(x, x)]


@pytest.mark.parametrize("model_name", ["sbox-1", "sbox-3", "round-output"])
def test_xor_form_rebuilds_bit_groups(round_output_model, model_name):
    model = {"sbox-1": SboxHypothesis(ell=1, pt_index=5), "sbox-3": SboxHypothesis(ell=3, pt_index=12),
             "round-output": round_output_model}[model_name]
    pts = np.frombuffer(random.Random(87).randbytes(2000 * 16), dtype=np.uint8).reshape(2000, 16)
    x, k, table = model.xor_form(pts)
    assert (k is None) == isinstance(model, SboxHypothesis)
    for bit in range(8):
        labels, H = _bit_groups_before_the_xor_form(model, pts, bit)
        h = (table >> (7 - bit)) & 1
        f = 0 if k is None else (k >> (7 - bit)) & 1
        dense = _hypothesis_matrix(h)
        assert np.array_equal(dense[:, x] ^ f, H[:, labels])  # every guess, every trace
        if k is None:
            assert np.array_equal(dense, H)
        else:
            assert np.array_equal(dense, H[:, 0::2]) and np.array_equal(dense ^ 1, H[:, 1::2])


def _dense_dca_reference(h: np.ndarray, counts: np.ndarray, sums: np.ndarray, n: int) -> np.ndarray:
    """DCA scores of table bit h from ungrouped-by-flip sums (counts (256,),
    sums (256, columns)), every column at once in float64: one product, then
    r = (A - sh sv / n) / sqrt(var_h var_v) and its peak |r| per guess."""
    H = _hypothesis_matrix(h).astype(np.float64)
    sv = sums.sum(axis=0)
    nz = (sv > 0) & (sv < n)
    S, sv = sums[:, nz].astype(np.float64), sv[nz].astype(np.float64)
    sh = H @ counts.astype(np.float64)
    var_h, var_v = sh - sh * sh / n, sv - sv * sv / n
    ok = var_h > 0
    r = (H[ok] @ S - np.outer(sh[ok], sv) / n) / np.sqrt(np.outer(var_h[ok], var_v))
    dca = np.zeros(256)
    dca[ok] = np.abs(r).max(axis=1, initial=0.0)
    return dca


def _screened_dca(h: np.ndarray, counts: np.ndarray, sums: np.ndarray) -> np.ndarray:
    g = sca._GroupedSums(counts[:, None], sums[:, None])
    return sca._dca_scores(g, h, 0, *sca._walsh_columns(g, 0))


@pytest.mark.parametrize("group_size, gemm", [(65000, np.float32), (70000, np.float64)])
def test_group_sums_past_2_24_traces_are_scored_in_float64(group_size, gemm):
    # 256 groups: 16,640,000 traces, below 2^24, or 17,920,000, past it
    rng = np.random.default_rng(11)
    counts = np.full(256, group_size)
    sums = np.where(rng.random((1, 2500)) < 0.5, rng.integers(0, group_size + 1, (256, 2500)),
                    group_size - rng.integers(0, 4, (256, 2500)))  # random and nearly full columns
    sums[:, 7] = 0  # a constant column is left out
    h = (rng.random(256) < 0.97).astype(np.uint8)  # dense rows: partial sums of H @ S pass 2^24
    n = int(counts.sum())
    g = sca._GroupedSums(counts[:, None], sums[:, None])
    assert sca._exact_dtype(n) == gemm and g.ids.size == 2499
    # the float64 reference: one product, then the statistics over all columns at once
    H = _hypothesis_matrix(h).astype(np.float64)
    S64 = np.delete(sums, 7, axis=1).astype(np.float64)
    HS = H @ S64
    sh = H @ counts.astype(np.float64)
    sv = S64.sum(axis=0)
    mi = sca._binary_mi(HS / n, (sh / n)[:, None], sv / n).max(axis=1)
    assert np.array_equal(_screened_dca(h, counts, sums), _dense_dca_reference(h, counts, sums, n))
    assert np.array_equal(sca._mia_scores(g, h, 0), mi)
    # the peaks read random columns only; every product is exact, the nearly full columns' too
    assert np.array_equal(g.products(0, h, slice(None)), HS)
    # float32 sums of integers past 2^24 round, so the switch is needed there:
    # in a dense product, and in the Walsh transforms the products go through
    exact32 = np.array_equal(H.astype(np.float32) @ S64.astype(np.float32), HS)
    transform32 = np.array_equal(sca._wht(S64.T.astype(np.float32)), sca._wht(S64.T))
    assert exact32 == transform32 == (gemm == np.float32)


def _leaky_sums(rng, counts: np.ndarray, h: np.ndarray, guess: int, p0: float, p1: float) -> np.ndarray:
    """(256,) bit sums of one column whose bit is set with probability p1
    where hypothesis bit h[x ^ guess] is 1, and p0 where it is 0."""
    return rng.binomial(counts, np.where(h[np.arange(256) ^ guess] == 1, p1, p0))


def test_dca_screen_keeps_exact_and_one_ulp_ties():
    # copies of a column tie exactly; a complemented column has the same |r|
    # in exact arithmetic, and in float64 a few ulps apart when the column is
    # sparse, since sh sv / n and sh (n - sv) / n then round in different binades
    rng = np.random.default_rng(88)
    h = ((COEFF[0, 0] >> 3) & 1).astype(np.uint8)
    counts = rng.integers(10, 40, 256)
    base = np.stack([_leaky_sums(rng, counts, h, g, 0.02, 0.08) for g in rng.integers(0, 256, 12)], axis=1)
    noise = rng.binomial(counts[:, None], 0.5, (256, 6))
    sums = np.concatenate([base, base, counts[:, None] - base, noise], axis=1)
    n = int(counts.sum())
    ref = _dense_dca_reference(h, counts, sums, n)
    # the cases are exercised: for some guesses the peak and the complement's
    # |r| differ by one to four ulps, for others they are equal
    H = _hypothesis_matrix(h).astype(np.float64)
    sh, sv = H @ counts, sums.sum(axis=0).astype(np.float64)
    r = np.abs(H @ sums - np.outer(sh, sv) / n) / np.sqrt(np.outer(sh - sh * sh / n, sv - sv * sv / n))
    gap = np.abs(r[:, :12] - r[:, 24:36]) / np.spacing(r[:, :12])
    at_peak = np.maximum(r[:, :12], r[:, 24:36]) == ref[:, None]
    assert (at_peak & (gap > 0) & (gap <= 4)).any() and (at_peak & (gap == 0)).any()
    assert np.array_equal(_screened_dca(h, counts, sums), ref)


def test_dca_screen_with_many_columns_inside_the_bound():
    # past 2^24 traces, columns one trace apart differ in B by about 2 / sqrt(n),
    # far inside the screen's error bound, and each has its own r
    rng = np.random.default_rng(89)
    h = ((COEFF[2, 0] >> 6) & 1).astype(np.uint8)
    counts = np.full(256, 70000)
    base = _leaky_sums(rng, counts, h, 0x3C, 0.4, 0.6)
    sums = base[:, None] + np.where(rng.random((256, 600)) < 0.01, rng.integers(-2, 3, (256, 600)), 0)
    sums = np.concatenate([sums, rng.binomial(counts[:, None], 0.5, (256, 50))], axis=1)
    n = int(counts.sum())
    ref = _dense_dca_reference(h, counts, sums, n)
    assert np.array_equal(_screened_dca(h, counts, sums), ref)


def test_dca_screen_without_columns_or_with_a_constant_hypothesis_bit():
    rng = np.random.default_rng(90)
    counts = rng.integers(0, 30, 256)
    n = int(counts.sum())
    h = ((COEFF[0, 0] >> 1) & 1).astype(np.uint8)
    # zero non-constant columns: every column all zeros or all ones
    constant = np.where(np.arange(20) % 2, counts[:, None], 0)
    assert not _screened_dca(h, counts, constant).any()
    assert np.array_equal(_screened_dca(h, counts, constant), _dense_dca_reference(h, counts, constant, n))
    sums = rng.binomial(counts[:, None], 0.5, (256, 40))
    # a constant table bit is constant under every guess
    for hc in (np.zeros(256, np.uint8), np.ones(256, np.uint8)):
        assert not _screened_dca(hc, counts, sums).any()
    # traces with x in {0, 1} only: the bit is constant under the guesses g
    # with h[g] == h[g ^ 1], which score 0, and varies under the others
    two = np.zeros(256, dtype=np.int64)
    two[:2] = [500, 700]
    sums2 = np.zeros((256, 40), dtype=np.int64)
    sums2[:2] = rng.binomial(two[:2, None], 0.5, (2, 40))
    ref = _dense_dca_reference(h, two, sums2, 1200)
    constant_guess = h == h[np.arange(256) ^ 1]
    assert constant_guess.any() and not constant_guess.all()
    assert not ref[constant_guess].any() and ref[~constant_guess].all()
    assert np.array_equal(_screened_dca(h, two, sums2), ref)


def test_dca_rank_full_window_memory_bound(traces_mixed_10k):
    # the (N, 8W) bit matrix alone would take 116 MB as uint8, 932 MB as float64;
    # the grouped sums are 11.4 MiB and the Walsh transforms 8 MiB
    tracemalloc.start()
    try:
        dca_rank(traces_mixed_10k, SboxHypothesis(ell=1, pt_index=0), correct_guess=STD_KEY[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6, peak
    assert peak <= 32 * 2**20, peak


def test_mia_max_full_window_memory_bound_and_exact(traces_mixed_10k):
    # over all 8,192 bit columns at once, _binary_mi's temporaries peaked at 440 MB
    model, bits, n = SboxHypothesis(ell=1, pt_index=0), [0, 7], len(traces_mixed_10k)
    tracemalloc.start()
    try:
        mi = mia_max(traces_mixed_10k, model, bits=bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6, peak
    whole = np.zeros_like(mi)
    g, per_bit = sca._grouped(traces_mixed_10k, model, bits)
    for bi, (h, j) in enumerate(per_bit):
        H = _hypothesis_matrix(h).astype(np.float64)
        hs = H @ g.sums[:, j][:, g.ids]  # no flips: the signed sums are the sums
        whole[:, bi] = sca._binary_mi(hs / n, (H @ g.counts[:, j] / n)[:, None], g.sv / n).max(axis=1, initial=0.0)
    assert np.array_equal(mi, whole)


# --- table-output walsh -----------------------------------------------------------

def test_walsh_ut_static_zero_at_correct_key(std_pair, std_spec):
    keys = std_spec.round_keys
    for i, j in ((0, 0), (2, 1), (3, 3)):
        guess = keys.khat[0][i][j]
        for ellp in (1, 2, 3):
            grid = _ut_walsh_grid(std_pair.q0, i, j, ellp)
            for k in range(4):
                assert grid[k, 0, guess, 0] == 0


def test_walsh_ut_static_wrong_keys_mostly_nonzero(std_pair, std_spec):
    keys = std_spec.round_keys
    grid = _ut_walsh_grid(std_pair.q0, 0, 0, 1)
    vals = [abs(grid[0, 0, g, 0]) for g in range(256) if g != keys.khat[0][0][0]]
    assert np.mean(vals) > 4
    assert max(vals) <= 64


def test_walsh_ut_from_traces_matches_static(std_pair, std_spec, traces_q0_10k):
    keys = std_spec.round_keys
    guess = keys.khat[0][0][0]
    grid = _ut_walsh_grid(std_pair.q0, 0, 0, 2)
    w_static = grid[1, 2, guess, 3]
    w_trace = walsh_ut_from_traces(traces_q0_10k, 0, 1, 2, 2, 3, guess)
    assert w_trace == w_static == 0
    wrong = (guess + 1) % 256
    assert walsh_ut_from_traces(traces_q0_10k, 0, 1, 2, 2, 3, wrong) == grid[1, 2, wrong, 3]


def test_walsh_ut_from_traces_unobserved_value_raises(std_pair):
    ts = collect_traces(std_pair, SelectorPolicy.fixed_q0(), fixed_plaintexts(bytes(16), 5))
    with pytest.raises(ValueError):
        walsh_ut_from_traces(ts, 0, 0, 0, 1, 1, 0)


@pytest.mark.parametrize("campaign, pt_index, ellp", [("traces_q0_10k", 5, 2), ("traces_mixed_10k", 0, 3)])
def test_walsh_ut_trace_grid_matches_reference_exactly(request, campaign, pt_index, ellp):
    traces = request.getfixturevalue(campaign)
    grid = sca.walsh_ut_trace_grid(traces, pt_index, ellp)
    assert grid.dtype == np.float64 and grid.shape == (256, 4, 8, 8)
    # every guess, each at one (out_byte, out_bit, iprime) cell; the guesses cycle through all 256 cells
    for g in range(256):
        k, bit, ip = g % 4, (g // 4) % 8, g // 32
        assert grid[g, k, bit, ip] == walsh_ut_from_traces(traces, pt_index, k, bit, ellp, ip, g)


@pytest.mark.parametrize("missing", [0x00, 0x37, 0xFF])
def test_walsh_ut_trace_grid_unobserved_value_raises_reference_message(std_pair, missing):
    pts = random_plaintexts(3000, random.Random(missing))
    pts[pts[:, 3] == missing, 3] ^= 0x01  # value `missing` never reaches byte 3
    traces = collect_traces(std_pair, SelectorPolicy.fixed_q0(), pts)
    with pytest.raises(ValueError) as ref:
        walsh_ut_from_traces(traces, 3, 0, 0, 1, 0, 0)
    with pytest.raises(ValueError) as got:
        sca.walsh_ut_trace_grid(traces, 3, 1)
    assert str(got.value) == str(ref.value) == f"input byte value {missing:#04x} unobserved at pt index 3"


# --- round-output walsh -----------------------------------------------------------

def test_walsh_round_output_correct_zero_wrong_positive(grid_q0, std_spec):
    keys = std_spec.round_keys
    correct = keys.khat[0][1][0]
    grid = walsh_round_output_all(grid_q0)
    for i in (0, 3, 7):
        for ip in (0, 4):
            assert grid[correct, i, ip] == 0
    wrong = (correct + 77) % 256
    vals = [grid[wrong, i, 0] for i in range(8)]
    assert all(v >= 0 for v in vals)
    assert max(vals) > 0


def test_walsh_round_output_memory_bound(grid_q0):
    # the (256, 8, 256, 8) int32 result is 16 MiB; a float32 copy of it would be 16 more
    tracemalloc.start()
    try:
        walsh_round_output_all(grid_q0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 * 2**20, peak


def test_walsh_round_output_incomplete_grid_raises(std_pair):
    ts = collect_traces(std_pair, SelectorPolicy.fixed_q0(), fixed_plaintexts(bytes(16), 4))
    with pytest.raises(ValueError):
        walsh_round_output_all(ts)


@pytest.mark.parametrize("campaign", ["grid_q0", "grid_mixed"])
def test_walsh_round_output_matches_per_guess_reference_exactly(request, std_spec, campaign):
    traces = request.getfixturevalue(campaign)
    known = std_spec.round_keys.khat[0][0][0]
    assert np.array_equal(walsh_round_output_all(traces), _walsh_round_output_reference(traces, known))


def test_static_round_output_check_is_the_grid_statistic_over_256():
    # STD_SEED + 15's round 1 admits non-candidate round-output partners in
    # column 0 bytes 0 and 2; with both broken, the statistic of one row of
    # input row 1 times 256 is the full (p0, p5) grid statistic of every
    # column-0 byte, byte 0's through walsh_round_output_all itself
    _, spec = tablegen.build_table_pair(STD_KEY, STD_SEED + 15)
    for k in range(4):
        spec = non_candidate_stage2_spec(spec, 0, k) or spec
    ts = tablegen.generate_tableset(spec)
    static = tablegen.round_output_walsh_static(ts, spec)
    assert static[0, 0].any() and static[0, 2].any()
    cols = cipher.XOR_SAMPLES[0, 0, :, 2].ravel()  # (k, half)
    pts = cipher.grid_plaintexts()
    nibs = np.concatenate([tablegen.encrypt_batch_with_tables(ts, pts[n : n + 8192], record=True)[1][:, cols]
                           for n in range(0, 65536, 8192)])
    grid = TraceSet(plaintexts=pts, set_bits=np.zeros(65536, dtype=np.uint8), samples=nibs, sample_ids=cols)
    k1 = spec.round_keys.khat[0][1][0]
    assert np.array_equal(walsh_round_output_all(grid)[k1], 256 * static[0, 0])
    c = (nibs[:, 0::2] << 4 | nibs[:, 1::2]).T.reshape(4, 256, 256)  # (k, p0, p5)
    for k in range(4):
        inner = walsh_grid(c[k], COEFF[MC[k][1] - 1, k1][None])[:, :, 0]  # (p0, i, iprime)
        assert np.array_equal(np.abs(inner).sum(axis=0), 256 * static[0, k])


# --- collision / cluster ------------------------------------------------------------

def test_collision_partition_sizes_sum_to_grid(grid_q0, std_spec):
    known = std_spec.round_keys.khat[0][0][0]
    for guess in (0, 131, 255):
        hyp = _hyp_round_output(grid_q0.plaintexts, known, guess)
        assert np.bincount(hyp, minlength=256).sum() == 65536


def test_collision_and_sse_synthetic_perfect_clusters():
    # perfect collisions, maximal score, zero squared error
    secret = 0x21
    ts = _perfect_cluster_traces(secret)
    n = len(ts)
    assert collision_score(ts, 0, secret) == n * 8
    assert cluster_sse_score(ts, 0, secret) == 0.0
    coll, sse = collision_and_sse_scores(ts, 0)
    assert int(np.argmax(coll)) == secret
    assert int(np.argmin(sse)) == secret


def test_collision_q0_vs_mixed(grid_q0, grid_mixed, std_spec):
    keys = std_spec.round_keys
    known = keys.khat[0][0][0]
    correct = int(keys.khat[0][1][0])
    coll, sse = collision_and_sse_scores(grid_q0, known)
    assert int(np.argmax(coll)) == correct
    assert int(np.argmin(sse)) == correct
    coll_m, sse_m = collision_and_sse_scores(grid_mixed, known)
    assert int(np.argmax(coll_m)) != correct
    assert int(np.argmin(sse_m)) != correct


@pytest.mark.parametrize("campaign", ["grid_q0", "grid_mixed", "traces_mixed_10k", "perfect_clusters"])
def test_collision_and_sse_match_per_guess_reference_exactly(request, std_spec, campaign):
    if campaign == "perfect_clusters":
        traces, known = _perfect_cluster_traces(0x21), 0
    else:
        traces, known = request.getfixturevalue(campaign), std_spec.round_keys.khat[0][0][0]
    coll, sse = collision_and_sse_scores(traces, known)
    ref_coll, ref_sse = _collision_and_sse_reference(traces, known)
    assert np.array_equal(coll, ref_coll)
    assert np.array_equal(sse, ref_sse)


# --- MIA ----------------------------------------------------------------------------

def test_mia_upper_bound_when_sample_equals_hypothesis():
    rng = random.Random(78)
    n = 3000
    pts = np.frombuffer(rng.randbytes(n * 16), dtype=np.uint8).reshape(n, 16).copy()
    model = SboxHypothesis(ell=1, pt_index=2)
    h = (hyp_bytes(model, 0x17, pts) >> 7) & 1
    samples = np.zeros((n, 2), dtype=np.uint8)
    samples[:, 0] = h
    ts = _toy_traceset(samples, pts)
    vals = mia(windowed(ts, slice(0, 1)), model, guess=0x17, bit=0)
    p1 = h.mean()
    h_x = -(p1 * np.log2(p1) + (1 - p1) * np.log2(1 - p1))
    assert abs(vals.max() - h_x) < 1e-9


def test_mia_independent_sample_near_zero():
    rng = random.Random(79)
    n = 10000
    pts = np.frombuffer(rng.randbytes(n * 16), dtype=np.uint8).reshape(n, 16).copy()
    samples = np.frombuffer(rng.randbytes(n), dtype=np.uint8).reshape(n, 1).copy()
    ts = _toy_traceset(samples, pts)
    model = SboxHypothesis(ell=1, pt_index=0)
    vals = mia(windowed(ts, slice(0, 1)), model, guess=0, bit=0)
    assert vals.max() < 0.002


def test_mia_bounds(traces_mixed_10k):
    model = SboxHypothesis(ell=1, pt_index=0)
    vals = mia(windowed(traces_mixed_10k, slice(0, 8)), model, guess=5, bit=3)
    assert (vals >= 0).all()
    assert (vals <= 1.0 + 1e-12).all()


def test_mia_bytes_saturates_on_bijective_byte_sample(traces_q0_10k):
    # single-set traces: the table output byte is a bijection of the input
    # byte, so byte-binned mutual information reaches H(X) for every guess
    model = SboxHypothesis(ell=1, pt_index=0)
    vals = mia_bytes(windowed(traces_q0_10k, slice(0, 4)), model, guess=123, bit=0)
    assert vals.max() > 0.99


# --- the round-output experiment ---------------------------------------------------

@pytest.mark.parametrize("key", [STD_KEY, random.Random(84).randbytes(16), random.Random(85).randbytes(16)],
                         ids=["fips", "random-84", "random-85"])
def test_round_output_experiment_is_the_named_byte(key):
    keys = round_output_keys(key)
    assert keys == (key[0], key[5], key[10], key[15])
    assert all(type(k) is int for k in keys)
    k0, k1, k2, k3 = keys
    model = RoundOutputHypothesis(known=(k0, k2, k3))
    pts = np.frombuffer(random.Random(86).randbytes(1000 * 16), dtype=np.uint8).reshape(1000, 16)
    x, k, table = model.xor_form(pts)
    byte = np.zeros(1000, dtype=np.int64)
    for bit in range(8):  # at the true k1, bit `bit` of the byte is H[k1, x] ^ f for table bit h
        H = _hypothesis_matrix((table >> (7 - bit)) & 1)
        byte |= (H[k1, x] ^ (k >> (7 - bit)) & 1).astype(np.int64) << (7 - bit)
    expected = [gf_mul(2, SBOX[p[0] ^ key[0]]) ^ gf_mul(3, SBOX[p[5] ^ key[5]])
                ^ SBOX[p[10] ^ key[10]] ^ SBOX[p[15] ^ key[15]] for p in pts.tolist()]
    assert byte.tolist() == expected


# --- TVLA ---------------------------------------------------------------------------

def test_tvla_null_case(std_pair):
    rng = random.Random(80)
    a = collect_traces(std_pair, SelectorPolicy.random_bit(0.5), random_plaintexts(2000, rng), rng)
    b = collect_traces(std_pair, SelectorPolicy.random_bit(0.5), random_plaintexts(2000, rng), rng)
    res = tvla(a, b)
    assert res.max_abs_t < 4.5


def test_tvla_does_not_depend_on_sample_layout(std_pair):
    rng = random.Random(88)
    policy = SelectorPolicy.random_bit(0.5)
    fixed = collect_traces(std_pair, policy, fixed_plaintexts(bytes(16), 2000), rng)
    rand = collect_traces(std_pair, policy, random_plaintexts(2000, rng), rng)
    rows = tvla(fixed, rand)
    cols = tvla(*(dataclasses.replace(ts, samples=np.asfortranarray(ts.samples)) for ts in (fixed, rand)))
    assert np.array_equal(rows.t, cols.t)
    assert np.array_equal(rows.degenerate, cols.degenerate)


def test_tvla_synthetic_leak_detected():
    rng = random.Random(81)
    n = 2000
    pts_f = np.zeros((n, 16), dtype=np.uint8)
    pts_f[:, 0] = 0xFF
    pts_r = np.frombuffer(rng.randbytes(n * 16), dtype=np.uint8).reshape(n, 16).copy()
    sf = np.zeros((n, 2), dtype=np.uint8)
    sr = np.zeros((n, 2), dtype=np.uint8)
    sf[:, 0] = pts_f[:, 0]
    sr[:, 0] = pts_r[:, 0]
    fixed = windowed(_toy_traceset(sf, pts_f), slice(0, 1))
    rand = windowed(_toy_traceset(sr, pts_r), slice(0, 1))
    res = tvla(fixed, rand)
    assert res.max_abs_t > 20


def test_tvla_degenerate_samples_flagged():
    a = _toy_traceset(np.full((10, 3), 7, dtype=np.uint8))
    b = _toy_traceset(np.full((12, 3), 7, dtype=np.uint8))
    res = tvla(windowed(a, slice(0, 3)), windowed(b, slice(0, 3)))
    assert res.max_abs_t == 0.0
    assert res.degenerate.all()


def test_tvla_layout_mismatch():
    a = _toy_traceset(np.zeros((5, 2), dtype=np.uint8))
    b = TraceSet(
        plaintexts=np.zeros((5, 16), dtype=np.uint8),
        set_bits=np.zeros(5, dtype=np.uint8),
        samples=np.zeros((5, 10), dtype=np.uint8),
    )
    with pytest.raises(ValueError):
        tvla(a, b)
    with pytest.raises(ValueError, match="layouts differ"):  # as many samples, but other ones
        tvla(windowed(a, slice(0, 2)), windowed(a, slice(1, 3)))
    with pytest.raises(ValueError):
        tvla(_toy_traceset(np.zeros((1, 2), dtype=np.uint8)), a)


# --- windowed trace sets -----------------------------------------------------------

def test_kernels_refuse_a_sample_that_was_not_loaded(std_pair, tmp_path):
    pts = random_plaintexts(512, random.Random(9))
    pts[:, 0] = np.arange(512) % 256  # every value of byte 0, so walsh_ut_trace_grid reads samples
    path = tmp_path / "t.btr"
    cipher.save_traces(collect_traces(std_pair, SelectorPolicy.fixed_q0(), pts), path)
    ut = cipher.load_traces(path, cipher.UT_SAMPLES[0].ravel())  # 16..39 are XOR nibbles
    with pytest.raises(ValueError, match="sample 20 was not loaded"):
        walsh_round_output_all(ut)
    with pytest.raises(ValueError, match="sample 20 was not loaded"):
        collision_and_sse_scores(ut, 0)
    with pytest.raises(ValueError, match="sample 16 was not loaded"):
        cipher.save_traces(ut, tmp_path / "copy.btr")
    with pytest.raises(ValueError, match="sample 0 was not loaded"):
        sca.walsh_ut_trace_grid(cipher.load_traces(path, sca.ROUND_OUTPUT_SAMPLES), 0, 1)


# --- baseline demo --------------------------------------------------------------------

def test_baseline_demo_leak_and_wrong_key_stats():
    demo = baseline_unbalanced_demo(seed=3)
    assert demo["leak_value"] == 256
    assert demo["forbidden_row_in_blacklist"]
    # leak at table bit 8 against hypothesis bit 1 of the plain SubBytes row
    assert (8, 1, 1) in demo["leak_coords"]
    assert 8 <= demo["wrong_mean"] <= 20
    assert demo["wrong_max"] <= 64


def test_baseline_demo_restored_by_valid_pair():
    rng = random.Random(82)
    assert not walsh_balance_check(sample_pair(rng), key_byte=0x42).any()


# Recorded from the per-row popcount implementation; the grid by its SHA-256.
BASELINE_DEMOS = {
    0: {"f": (13, 1, 8, 12), "g": (14, 15, 5, 0), "key_byte": 244},
    3: {"f": (7, 4, 11, 2), "g": (10, 1, 10, 0), "key_byte": 132},
}
BASELINE_GRID_SHA256 = "842eaeef8d045f3fdc2f2d8f28f2d14d407a03089f4c95a99c4d207eece6aac3"


@pytest.mark.parametrize("seed", sorted(BASELINE_DEMOS))
def test_baseline_demo_matches_recorded_dict(seed):
    demo = baseline_unbalanced_demo(seed)
    grid = demo.pop("grid")
    assert grid.dtype == np.int32 and grid.shape == (8, 3, 8)
    assert hashlib.sha256(grid.tobytes()).hexdigest() == BASELINE_GRID_SHA256
    rec = BASELINE_DEMOS[seed]
    pair = demo.pop("pair")
    assert pair.shape == (2, 4) and pair.dtype == np.uint8
    assert tuple(map(tuple, pair.tolist())) == (rec["f"], rec["g"])
    assert demo == {
        "key_byte": rec["key_byte"],
        "leak_coords": [(8, 1, 1), (8, 2, 8)],
        "leak_value": 256,
        "expected_leak": (8, 1, 1),
        "wrong_mean": 13.803921568627452,
        "wrong_max": 32.0,
        "wrong_sd": 8.630587665091463,
        "forbidden_row_in_blacklist": True,
    }


def test_bit_expand_layout():
    V = np.array([[0x80, 0x01]], dtype=np.uint8)
    bits = bit_expand(V)
    assert bits.shape == (1, 16)
    assert bits[0, 0] == 1 and bits[0, 1:8].sum() == 0
    assert bits[0, 15] == 1 and bits[0, 8:15].sum() == 0


def test_walsh_ut_trace_grid_single_set_vs_mixed(traces_q0_10k, traces_mixed_10k, std_spec):
    correct = STD_KEY[0]
    grid_q0 = sca.walsh_ut_trace_grid(traces_q0_10k, 0, ellp=1)
    assert not grid_q0[correct].any()
    # spot agreement with the scalar trace-mode transform
    w = walsh_ut_from_traces(traces_q0_10k, 0, 2, 3, 1, 5, 0x31)
    assert grid_q0[0x31, 2, 3, 5] == w
    grid_mx = sca.walsh_ut_trace_grid(traces_mixed_10k, 0, ellp=1)
    assert grid_mx[correct].any()  # mixing removes the uniform zero signature
    peak = np.abs(grid_mx).reshape(256, -1).max(axis=1)
    assert peak[correct] < peak.max()


def test_walsh_ut_from_traces_with_repetitions(traces_q0_10k, std_spec):
    guess = std_spec.round_keys.khat[0][0][0]
    assert walsh_ut_from_traces(traces_q0_10k, 0, 0, 0, 1, 0, guess, reps=3) == 0
