"""A campaign whose table walk fails part way raises, and leaves nothing
behind that spoils the campaigns after it, however many fail in a row."""

import random

import numpy as np
import pytest

from balaes import cipher
from balaes.cipher import SelectorPolicy, collect_traces, random_plaintexts, write_campaign
from balaes.tablegen import WALK_CHUNK


@pytest.mark.parametrize("failures", [1, 2, 4])
def test_walk_error_on_third_block_propagates_and_next_campaign_succeeds(tmp_path, std_pair, failures):
    pts = random_plaintexts(5 * WALK_CHUNK, random.Random(4))
    policy = SelectorPolicy.fixed_q0()
    walk = cipher.encrypt_batch_with_tables

    def failing_walk(ts, block, record=False):
        if np.array_equal(block[0], pts[2 * WALK_CHUNK]):
            raise RuntimeError("walk failed on the third block")
        return walk(ts, block, record)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cipher, "encrypt_batch_with_tables", failing_walk)
        for i in range(failures):
            with pytest.raises(RuntimeError, match="third block"):
                collect_traces(std_pair, policy, pts)
            with pytest.raises(RuntimeError, match="third block"):
                write_campaign(std_pair, policy, pts, None, tmp_path / f"failed{i}.btr")
    ts = collect_traces(std_pair, policy, pts)
    write_campaign(std_pair, policy, pts, None, tmp_path / "next.btr")
    assert np.array_equal(ts.samples, walk(std_pair.q0, pts, record=True)[1])
    assert cipher.load_traces(tmp_path / "next.btr").samples.tobytes() == ts.samples.tobytes()
