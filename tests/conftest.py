import functools
import random

import pytest

from balaes import cipher, tablegen
from balaes.binmat import coeff_tables, encoded_coeff_tables, walsh_grid
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
