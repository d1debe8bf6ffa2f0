"""The worker pool: its ordered, bounded map and its size rule; the DCA/MIA
scores that run on it, and the campaigns, must not depend on how many
workers there are."""

import os
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from balaes import cipher, pool
from balaes.cipher import SelectorPolicy, collect_traces, random_plaintexts, write_campaign
from balaes.sca import RoundOutputHypothesis, SboxHypothesis, dca_rank, mia_max
from balaes.tablegen import WALK_CHUNK, TableSetPair, deserialize_tableset, serialize_tableset

from conftest import windowed


@contextmanager
def forced_workers(n: int):
    """Run the block with the pool size forced to n, on a pool of its own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pool, "worker_count", lambda: n)
        mp.setattr(pool, "_executor", None)
        try:
            yield
        finally:
            if pool._executor is not None:
                pool._executor.shutdown()


def within_a_minute(fn):
    """fn() run in another thread; raises TimeoutError instead of hanging."""
    runner = ThreadPoolExecutor(1)
    try:
        return runner.submit(fn).result(timeout=60)
    finally:
        runner.shutdown(wait=False)


# --- the pool -------------------------------------------------------------------

def test_worker_count_follows_affinity_capped_at_eight(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert pool.worker_count() == pool.MAX_WORKERS == 8
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert pool.worker_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pool.worker_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool.worker_count() == 1


@pytest.mark.parametrize("workers", [1, 4])
def test_ordered_map_keeps_order_and_bounds_tasks_in_flight(workers):
    pulled, most, out = 0, 0, []

    def items():
        nonlocal pulled
        for i in range(40):
            pulled += 1
            yield i

    def task(i):
        time.sleep(random.Random(i).random() * 0.002)  # finish out of order
        return i * i

    with forced_workers(workers):
        for value in pool.ordered_map(task, items()):
            most = max(most, pulled - len(out))
            out.append(value)
    assert out == [i * i for i in range(40)]
    assert most == (1 if workers == 1 else workers + 1)


def test_closed_map_cancels_pending_tasks():
    started = []

    def task(i):
        started.append(i)
        time.sleep(0.01)
        return i

    with forced_workers(2):
        gen = pool.ordered_map(task, range(100))
        assert next(gen) == 0
        gen.close()
        seen = len(started)
        time.sleep(0.05)
    # tasks 0..2 were submitted when the first result came back
    assert len(started) == seen <= 3


def test_failed_task_propagates_and_cancels_pending_tasks():
    started = []

    def task(i):
        started.append(i)
        time.sleep(0.005)
        if i == 3:
            raise ValueError("task 3")
        return i

    with forced_workers(2):
        with pytest.raises(ValueError, match="task 3"):
            within_a_minute(lambda: list(pool.ordered_map(task, range(100))))
        seen = len(started)
        time.sleep(0.05)
    # tasks 0..5 were submitted when task 3's result was read
    assert len(started) == seen <= 6


# --- what runs on it ---------------------------------------------------------------

def _round_output_model(std_spec) -> RoundOutputHypothesis:
    k = std_spec.round_keys.khat[0]
    return RoundOutputHypothesis(column=0, out_byte=0, target_row=1,
                                 known_keys={0: k[0][0], 2: k[2][0], 3: k[3][0]})


def test_dca_and_mia_do_not_depend_on_worker_count(traces_mixed_10k, std_spec):
    sbox, round_output = SboxHypothesis(ell=1, pt_index=0), _round_output_model(std_spec)
    col0 = windowed(traces_mixed_10k, slice(0, 40))
    runs = [(sbox, traces_mixed_10k, range(8)), (sbox, col0, range(8)),
            (round_output, traces_mixed_10k, [0, 7]), (round_output, col0, range(8))]

    def scores():
        out = []
        for model, traces, bits in runs:
            report = dca_rank(traces, model, correct_guess=0, bits=bits)
            out += [np.stack([b.scores for b in report.bits]), np.stack([b.ranks for b in report.bits])]
            out.append(mia_max(col0, model, bits=bits))
        return out

    default = scores()
    for workers in (1, 4):
        with forced_workers(workers):
            forced = scores()
        assert all(np.array_equal(a, b) for a, b in zip(forced, default, strict=True))


def test_campaigns_do_not_depend_on_worker_count(tmp_path, std_pair):
    pts = random_plaintexts(5 * WALK_CHUNK + 17, random.Random(3))
    policy = SelectorPolicy.random_bit(0.5)
    tables = [serialize_tableset(std_pair.q0), serialize_tableset(std_pair.q1)]

    def fresh_pair():  # freshly loaded sets, so each campaign builds their walk arrays itself
        return TableSetPair(*(deserialize_tableset(blob) for blob in tables))

    def campaign(name):
        write_campaign(fresh_pair(), policy, pts, random.Random(9), tmp_path / name)
        ts = collect_traces(fresh_pair(), policy, pts, random.Random(9))
        return (tmp_path / name).read_bytes(), ts.set_bits, ts.samples

    default = campaign("default.btr")
    interval = sys.getswitchinterval()
    for workers in (1, 4):
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            with forced_workers(workers):
                forced = campaign(f"{workers}.btr")
        finally:
            sys.setswitchinterval(interval)
        assert forced[0] == default[0]
        assert np.array_equal(forced[1], default[1]) and np.array_equal(forced[2], default[2])


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_walk_error_on_third_block_propagates_and_next_campaign_succeeds(tmp_path, std_pair, workers):
    pts = random_plaintexts(5 * WALK_CHUNK, random.Random(4))
    policy = SelectorPolicy.fixed_q0()
    walk = cipher.encrypt_batch_with_tables

    def failing_walk(ts, block, record=False):
        if np.array_equal(block[0], pts[2 * WALK_CHUNK]):
            raise RuntimeError("walk failed on the third block")
        return walk(ts, block, record)

    with forced_workers(workers):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cipher, "encrypt_batch_with_tables", failing_walk)
            with pytest.raises(RuntimeError, match="third block"):
                within_a_minute(lambda: collect_traces(std_pair, policy, pts))
            with pytest.raises(RuntimeError, match="third block"):
                within_a_minute(lambda: write_campaign(std_pair, policy, pts, None, tmp_path / "failed.btr"))
        ts = within_a_minute(lambda: collect_traces(std_pair, policy, pts))
        within_a_minute(lambda: write_campaign(std_pair, policy, pts, None, tmp_path / "next.btr"))
    assert np.array_equal(ts.samples, walk(std_pair.q0, pts, record=True)[1])
    assert cipher.load_traces(tmp_path / "next.btr").samples.tobytes() == ts.samples.tobytes()
