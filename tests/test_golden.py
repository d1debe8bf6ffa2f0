"""Golden SHA-256 digests of CLI outputs for `STD_KEY` and table seed 42.

The digests were recorded once from the scalar-and-batch walk and must not
be re-recorded: any change to table generation, the table walk, set selection
or the trace file format that moves a single byte shows up here."""

import hashlib
import random

import numpy as np
import pytest

from balaes import cipher, sca
from balaes.binmat import sample_pair
from balaes.cli import main

from conftest import STD_KEY, STD_SEED, windowed

GEN_DIGESTS = {
    "q0.tbl": "3ed56a21b519ada709b637bb4d7d6d773868b67e4bd626d9e3132dc2b5d04b49",
    "q1.tbl": "535caca27c9b7e4c3ce14e46767db65433ece311da5c20dd513c261a4bc1e7b0",
    "enc.spec": "26c84eabf9988cbebf8a56a0c87873a351047f9255c4fbf133f0e7fdc0c1907c",
}

# The same key and seed under `gen --xor-boundary identity`, whose XOR-stage
# codecs are all the identity: recorded before the XOR tables, the codec maps
# and the table serializer became whole-array expressions.
IDENTITY_GEN_DIGESTS = {
    "q0.tbl": "572df43c7bf04924a4c0261503ac4eddd4b6318fd09ec6140fd4bb5bf58eaded",
    "q1.tbl": "f1778df3b8729f30409d029824fb2f8e67f79ff05acdf004f12b983f246fdc32",
    "enc.spec": "6a25cbf3e3de07e5feaf4b4eb6e63030754138b2e9422e8a2181fb593c16f810",
}

# The same key under `gen --seed 0`, whose spec sampling resamples one slot
# (145 pairs drawn for 144 slots), so the retry path is pinned too: recorded
# before the encoding spec became array-backed.
SEED0_GEN_DIGESTS = {
    "q0.tbl": "264e336ab45f8004546b6cc52f4d7a4bdadac2a856ef356d5214d7c769a76800",
    "q1.tbl": "99532433d75ad1015a9fb6e9c707ff822f2e986b97401f7bc5d23bd1fe96b05c",
    "enc.spec": "8e658d95268e9f1e916670bbedb972e49be195df96e458a63cd4939efdd91e1e",
}

# 10,000 `sample_pair` draws from random.Random(0xF3): SHA-256 of their f and
# g rows (8 bytes per pair, f rows first) and the generator's next random(),
# recorded while pairs were still BitMat4 objects, so the draw order is pinned.
SAMPLED_PAIRS_SHA256 = "a80ef675741d4352af9648fdf2de65ed44ffb218a5ee9fc372a109ebb34e4f33"
SAMPLED_PAIRS_NEXT_RANDOM = 0.10560145412924882


def test_sampled_pairs_match_golden_digest():
    rng = random.Random(0xF3)
    digest = hashlib.sha256()
    for _ in range(10000):
        pair = sample_pair(rng)
        assert pair.shape == (2, 4) and pair.dtype.name == "uint8"
        digest.update(pair.tobytes())
    assert (digest.hexdigest(), rng.random()) == (SAMPLED_PAIRS_SHA256, SAMPLED_PAIRS_NEXT_RANDOM)


FIXED_PT = "00112233445566778899aabbccddeeff"

# label: (source, count, policy, campaign seed, digest of the trace file)
TRACE_CASES = {
    "random-q0": ("random", 300, "q0", 9,
                  "899cf250b72e7e0317ed08689789b83f3ffaa31a348c28bc9bcd1abf9063369f"),
    "random-q1": ("random", 300, "q1", 9,
                  "ecd5bcf9981da8bbb6b71f708fa9d0ab9f5309fa893b1e0773741ab3043bec04"),
    "random-mixed": ("random", 300, "random:0.5", 9,
                  "8e1be47eb556c96361cc27b32079bbf255fdec10116ed7c2fe8850d69dd28578"),
    "random-ptderived": ("random", 300, "pt-derived:16", 9,
                  "e90e24873e53e4208e26fab3bed3806c3dca57cfa8c0c6c9ae91249953b04212"),
    "fixed-mixed": (f"fixed:{FIXED_PT}", 32, "random:0.5", 10,
                  "5aa2bbe160fb32f5c26be9f1bf3ac6896cc38724edfa20a17e67aa8aac3ab6c9"),
    "file-mixed": ("file", 2500, "random:0.5", 11,
                  "73f2238cbc1a3cf4264aaea290529d9ee0929a3643b43859051a2ee45e4fa98d"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_tables(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_tables")
    assert main(["gen", "--key", STD_KEY.hex(), "--seed", str(STD_SEED), "--out", str(d)]) == 0
    return d


@pytest.mark.parametrize("name", sorted(GEN_DIGESTS))
def test_gen_outputs_match_golden_digest(golden_tables, name, capfd):
    assert _sha256(golden_tables / name) == GEN_DIGESTS[name]


@pytest.fixture(scope="module")
def identity_tables(tmp_path_factory):
    d = tmp_path_factory.mktemp("identity_tables")
    assert main(["gen", "--key", STD_KEY.hex(), "--seed", str(STD_SEED), "--xor-boundary", "identity",
                 "--out", str(d)]) == 0
    return d


@pytest.mark.parametrize("name", sorted(IDENTITY_GEN_DIGESTS))
def test_identity_gen_outputs_match_golden_digest(identity_tables, name, capfd):
    assert _sha256(identity_tables / name) == IDENTITY_GEN_DIGESTS[name]


@pytest.fixture(scope="module")
def seed0_tables(tmp_path_factory):
    d = tmp_path_factory.mktemp("seed0_tables")
    assert main(["gen", "--key", STD_KEY.hex(), "--seed", "0", "--out", str(d)]) == 0
    return d


@pytest.mark.parametrize("name", sorted(SEED0_GEN_DIGESTS))
def test_seed0_gen_outputs_match_golden_digest(seed0_tables, name, capfd):
    assert _sha256(seed0_tables / name) == SEED0_GEN_DIGESTS[name]


@pytest.mark.parametrize("label", sorted(TRACE_CASES))
def test_trace_file_matches_golden_digest(golden_tables, tmp_path, label, capfd):
    source, count, policy, seed, digest = TRACE_CASES[label]
    if source == "file":
        pts = tmp_path / "pts.bin"
        pts.write_bytes(random.Random(count).randbytes(count * 16))
        source = f"file:{pts}"
    out = tmp_path / f"{label}.btr"
    rc = main(["trace", "--tables", str(golden_tables), "--source", source, "--count", str(count),
               "--policy", policy, "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    assert _sha256(out) == digest


# Analysis reports (`analyze --out`, which writes PREFIX.json and PREFIX.csv),
# recorded before every 256-point Walsh sum moved onto `binmat.walsh_grid`.
# Traced reports read a 3,000-row random:0.5 campaign (seed 12) or a
# random:0.5 grid campaign (seed 13) made from the golden tables.
KEY_ARGS = ["--key", STD_KEY.hex()]

# label: (analyze options, digest of the .json report, digest of the .csv report)
REPORT_CASES = {
    "walsh-ut-static": (["--kind", "walsh-ut", "--tables", "{tables}", "--spec", "{tables}/enc.spec"],
                        "84b42de1e2898416dbf5abb870fc5782ca8dc800870d9ec17e1c65b1d40ccc3b",
                        "c8cb3fb9dcaf46ec4d2fcbbfd68ffff5b9adf52fc66d6bbcb7058b62051837f6"),
    "walsh-ut-traces-ell1": (["--kind", "walsh-ut", "--traces", "{mixed}", "--pt-index", "0", "--ell", "1",
                              *KEY_ARGS],
                             "d7d5a59795692fa9e0dd1db4b13f7811a17e755fa88b05cb7224a389a6d4daff",
                             "58a0f3f202589eb7304ab6fd3dd0d45a8ad3bfc4eded5a2d0440a4623092aac3"),
    "walsh-ut-traces-ell2": (["--kind", "walsh-ut", "--traces", "{mixed}", "--pt-index", "5", "--ell", "2",
                              *KEY_ARGS],
                             "dbd620cc61318b59bc0a06c08f62d6cb62a91d04c24d3fb0f950cabab64b827d",
                             "6a5d87a0419af2e089e3fb3851e65de7066ba2f6eb9154428451ce6e7c695d22"),
    "walsh-ut-traces-ell3": (["--kind", "walsh-ut", "--traces", "{mixed}", "--pt-index", "10", "--ell", "3",
                              *KEY_ARGS],
                             "d7075d74b02b09d37e6b65ddf845502480a989c8407853792bc8846896fbd646",
                             "6a9e484be476a9b605d4e4ff4f859098368084cd16e005860a04a1bf3f334946"),
    "baseline-seed0": (["--kind", "baseline", "--seed", "0"],
                       "68df1633bbfb255607627cd1f236097e96257729e71c2c1660e85486fa97e3a9",
                       "9d0ff306be8952a01a421e46f7b827a18b05550c6315c04ff08b09a343f4ae36"),
    "baseline-seed3": (["--kind", "baseline", "--seed", "3"],
                       "de391cfa3919c24b7152f64bdb8963b7355fede1eb90e0173f8aeb758157dc5d",
                       "9d0ff306be8952a01a421e46f7b827a18b05550c6315c04ff08b09a343f4ae36"),
    "walsh-ro-grid": (["--kind", "walsh-ro", "--traces", "{grid}", *KEY_ARGS],
                      "28c50401bd95cc85e1ac22d7d76b077c708af3bf0381131c37e958eeb1716b42",
                      "fe6c6f32d3333d354d3005ae8bfc40239b4f9bdafe2ba4364951d060594e6b00"),
    # Recorded before the analyze handlers became one dispatch table; tvla
    # compares a 1,000-row fixed-plaintext random:0.5 campaign (seed 14).
    "dca-pt3-ell2": (["--kind", "dca", "--traces", "{mixed}", "--pt-index", "3", "--ell", "2", *KEY_ARGS],
                     "fb54b3df6654dbf247ad082b0415b0f8e440ec9f4926e4ddcd278050c3ca26d9",
                     "549208a5e0aab591ecc16af44981d5567b5d8aa8a47d3a10e70d67bcb8b65004"),
    "cpa-all-round1-ut": (["--kind", "cpa", "--traces", "{mixed}", "--window", "round1-ut", *KEY_ARGS],
                          "75e479fcb6c3bde905690606d2d98befe87b0eb24dd438c21bb2a6adc146af86",
                          "886b10fe29bce00cc45a7da4e777ac76a1d9f013b171f944ffddf0c0a25406da"),
    "mia-sbox": (["--kind", "mia", "--traces", "{mixed}", "--model", "sbox", "--pt-index", "5", *KEY_ARGS],
                 "d87bf8e71de1a52438ab5ea05e1a71f4d7aaabfab14d50e2db54d9c041f150c8",
                 "6db8627c193daba18a8750c4001584c8194aaf0f9a7cece9c773a78579819f4f"),
    "mia-round-output": (["--kind", "mia", "--traces", "{mixed}", "--model", "round-output",
                          "--window", "round1-col0", *KEY_ARGS],
                         "c10e13d992e7c2a7bc8f95361c8d2bc7ff3146e734e0f6395650d8a2215fec0b",
                         "ac58bc81f5a98dcd06d4577a4e229379dc7b5fcf8c028a5e2097caee7ca922c7"),
    "collision-grid": (["--kind", "collision", "--traces", "{grid}", *KEY_ARGS],
                       "9de6c3e58a3636e2f3865ce82aa471ed2ff9c3b4161bd03c0b2712e9b4bc8dd8",
                       "c7b7c8b310258038599de475461da725364745becd7643e5e8341d6ccdca0485"),
    "cluster-grid": (["--kind", "cluster", "--traces", "{grid}", *KEY_ARGS],
                     "490f1e71e9a3f1d6c201cf17b42ed980053935e537c368bbb47b4bcfa0ea69b0",
                     "c7b7c8b310258038599de475461da725364745becd7643e5e8341d6ccdca0485"),
    "tvla-round1": (["--kind", "tvla", "--fixed", "{fixed}", "--random", "{mixed}", "--window", "round1"],
                    "bd51b6e5166085649600e6be369763dd53f5a72ec80c4652ca9cab4824f28933",
                    "049ecc72c87b0105b9095dbe61cf70bea0b1edd9e3c6bca494eb52f109efab36"),
}


@pytest.fixture(scope="module")
def golden_campaigns(golden_tables, tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_campaigns")
    campaigns = (("mixed", "random", "3000", "12"), ("grid", "grid", "65536", "13"),
                 ("fixed", f"fixed:{FIXED_PT}", "1000", "14"))
    for name, source, count, seed in campaigns:
        rc = main(["trace", "--tables", str(golden_tables), "--source", source, "--count", count,
                   "--policy", "random:0.5", "--seed", seed, "--out", str(d / f"{name}.btr")])
        assert rc == 0
    return {"tables": str(golden_tables), **{name: str(d / f"{name}.btr") for name, *_ in campaigns}}


@pytest.mark.parametrize("label", sorted(REPORT_CASES))
def test_analysis_report_matches_golden_digest(golden_campaigns, tmp_path, label, capfd):
    options, json_digest, csv_digest = REPORT_CASES[label]
    prefix = tmp_path / label
    rc = main(["analyze", *(o.format(**golden_campaigns) for o in options), "--out", str(prefix)])
    assert rc == 0
    assert (_sha256(prefix.with_suffix(".json")), _sha256(prefix.with_suffix(".csv"))) == (json_digest, csv_digest)


@pytest.mark.parametrize("campaign", ["mixed", "grid", "fixed"])
def test_windowed_load_equals_the_columns_of_a_full_load(golden_campaigns, campaign):
    path = golden_campaigns[campaign]
    full = cipher.load_traces(path)
    for window in (cipher.round_sample_slice(1), np.array([1455, 20, 3, 700]), sca.ROUND_OUTPUT_SAMPLES):
        part = cipher.load_traces(path, window)
        ids = cipher.resolve_window(window)
        assert np.array_equal(part.sample_ids, ids)
        assert np.array_equal(part.plaintexts, full.plaintexts)
        assert np.array_equal(part.set_bits, full.set_bits)
        assert np.array_equal(part.samples, full.samples[:, ids])
        assert part.samples_at(window) is part.samples
        assert np.array_equal(part.samples_at(ids[::-1]), full.samples_at(ids[::-1]))


@pytest.mark.parametrize("window", [cipher.ut_output_indices(1), slice(0, 40)], ids=["round1-ut", "0:40"])
def test_kernels_on_a_windowed_load_equal_the_kernels_on_the_windowed_set(golden_campaigns, window):
    # the kernels score every column a set holds; loading a window must leave
    # them exactly the columns that windowing the full set in memory leaves
    loaded = {name: cipher.load_traces(golden_campaigns[name], window) for name in ("mixed", "fixed")}
    cut = {name: windowed(cipher.load_traces(golden_campaigns[name]), window) for name in ("mixed", "fixed")}
    sbox = sca.SboxHypothesis(ell=1, pt_index=5)
    ranks = [sca.dca_rank(ts["mixed"], sbox, correct_guess=STD_KEY[5]) for ts in (loaded, cut)]
    for a, b in zip(*ranks, strict=True):
        assert np.array_equal(a.scores, b.scores) and np.array_equal(a.ranks, b.ranks)
    assert np.array_equal(sca.mia_max(loaded["mixed"], sbox), sca.mia_max(cut["mixed"], sbox))
    t_loaded, t_cut = (sca.tvla(ts["fixed"], ts["mixed"]) for ts in (loaded, cut))
    assert np.array_equal(t_loaded.t, t_cut.t) and t_loaded.t.size == cipher.resolve_window(window).size
    assert np.array_equal(t_loaded.degenerate, t_cut.degenerate)
