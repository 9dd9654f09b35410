"""Keyed Philox streams: the batched key hash is numpy's SeedSequence; runs
of chunks drawn as one; and the ordered map that shares runs and blocks out
among threads."""

import sys
import threading
import time

import numpy as np
import pytest

import levy_info as li
from levy_info.rng import (
    CHUNK,
    RUN,
    _chunks,
    _runs,
    _RunStreams,
    keyed_stream,
    map_ordered,
    stream,
    stream_keys,
    worker_count,
)

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130)
SPAWN_KEYS = ((0,), (2**40,), (0, 7), (2**40, 3), (0, 5, 9), (1, 2**40, 2**32 - 1), (0, 1, 2, 3), (2**64, 0, 2**40, 4))


def numpy_key(seed, key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", SPAWN_KEYS + ((),))
def test_keys_are_numpy_seed_sequence_keys(seed, key):
    got = stream_keys(seed, *key)
    assert got.dtype == np.uint64 and got.shape == (2,)
    np.testing.assert_array_equal(got, numpy_key(seed, key))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", SPAWN_KEYS)
def test_stream_draws_as_a_seed_sequence_philox(seed, key):
    reference = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))
    gen = stream(seed, *key)
    np.testing.assert_array_equal(gen.random(8), reference.random(8))
    np.testing.assert_array_equal(gen.standard_normal(5), reference.standard_normal(5))


@pytest.mark.parametrize("seed", SEEDS)
def test_a_key_table_is_one_key_per_row(seed):
    # an ensemble's (seed, tag, chunk, interval) table, chunks down and intervals across
    chunks, intervals = np.arange(3)[:, None], np.array([0, 1, 2, 2**32 - 1])[None, :]
    table = stream_keys(seed, 2**40, chunks, intervals)
    assert table.shape == (3, 4, 2)
    for c in range(3):
        for i, j in enumerate(intervals[0]):
            np.testing.assert_array_equal(table[c, i], numpy_key(seed, (2**40, c, int(j))))
    assert stream_keys(seed, 0, np.arange(0), 1).shape == (0, 2)


def test_a_keyed_stream_resets_one_generator_to_each_key():
    table = stream_keys(9, 0, np.arange(4), 1)
    gen = keyed_stream(table[0])
    for c, key in enumerate(table):
        assert keyed_stream(key, gen) is gen
        np.testing.assert_array_equal(gen.random(3), stream(9, 0, c, 1).random(3))
        gen.integers(0, 2**32, dtype=np.uint32)  # leaves half a word buffered


def test_runs_hold_up_to_four_chunks_and_give_every_worker_an_item(monkeypatch):
    monkeypatch.setenv("LEVY_INFO_THREADS", "2")
    assert _runs(2 * CHUNK) == [[chunk] for chunk in _chunks(2 * CHUNK)]
    runs = _runs(62 * CHUNK)
    assert len(runs) == 16 and max(map(len, runs)) == RUN == 4
    assert [chunk for run in runs for chunk in run] == _chunks(62 * CHUNK)


def test_a_run_of_chunks_draws_each_chunks_part_from_its_own_stream():
    run = _chunks(2 * CHUNK + 3)
    n = run[-1][1].stop
    lam = np.linspace(0.5, 3.0, n)
    streams = _RunStreams(run).reset(stream_keys(1, 0, np.arange(3), 1))
    got = [streams.poisson(lam), streams.gamma(2.0, 0.5, n), streams.random(n)]
    want = []
    for c, sl in run:
        gen, count = stream(1, 0, c, 1), sl.stop - sl.start
        want.append((gen.poisson(lam[sl]), gen.gamma(2.0, 0.5, count), gen.random(count)))
    for g, parts in zip(got, zip(*want)):
        np.testing.assert_array_equal(g, np.concatenate(parts))


def test_a_run_of_chunks_refuses_a_draw_it_cannot_split():
    run = _chunks(2 * CHUNK + 3)
    n = run[-1][1].stop
    streams = _RunStreams(run).reset(stream_keys(1, 0, np.arange(3), 1))
    for draw in (lambda: streams.random(n - 1), lambda: streams.standard_normal(), lambda: streams.random((n, 1)),
                 lambda: streams.poisson(np.ones(n - 1)), lambda: streams.standard_gamma(np.ones(5), n)):
        with pytest.raises(li.InvalidParameter, match="one variate per path"):
            draw()


def test_a_run_of_one_chunk_draws_straight_from_its_generator():
    one = _RunStreams(_chunks(5))
    gen = one.reset(stream_keys(1, 0, np.arange(1), 1))
    assert gen is one.gens[0]
    np.testing.assert_array_equal(gen.random(5), stream(1, 0, 0, 1).random(5))


@pytest.mark.parametrize("key", [np.array([-1, 2]), np.array([2**32]), np.array([0.5]), np.array([1], dtype=bool)])
def test_an_array_key_holds_one_word_integers(key):
    with pytest.raises(li.InvalidParameter, match="stream key"):
        stream_keys(1, 0, key)


@pytest.mark.parametrize("seed, key", [(-1, ()), (1.5, ()), (1, (-1,)), (1, (2.0,)), (1, (np.arange(3),))])
def test_stream_takes_non_negative_integers(seed, key):
    with pytest.raises(li.InvalidParameter, match="seed|stream key"):
        stream(seed, *key)


THREADS = pytest.mark.parametrize("threads", ["1", "2", "3"])


@THREADS
def test_map_ordered_returns_results_in_item_order(threads, monkeypatch):
    monkeypatch.setenv("LEVY_INFO_THREADS", threads)
    items = list(range(40, 0, -1))
    # later items finish first, so completion order is not item order
    assert map_ordered(lambda n: time.sleep(n * 1e-4) or -n, items) == [-n for n in items]


@THREADS
def test_map_ordered_runs_on_the_caller_and_at_most_its_helpers(threads, monkeypatch):
    monkeypatch.setenv("LEVY_INFO_THREADS", threads)
    ran_on = map_ordered(lambda _: time.sleep(1e-3) or threading.get_ident(), range(30))
    assert threading.get_ident() in ran_on
    assert len(set(ran_on)) <= worker_count()


@THREADS
def test_map_ordered_raises_the_first_failing_items_exception(threads, monkeypatch):
    monkeypatch.setenv("LEVY_INFO_THREADS", threads)
    started = []

    def fn(i):
        started.append(i)
        if i == 5:
            time.sleep(0.02)  # item 6 fails first in time on two threads or more
        if i in (5, 6, 9):
            raise ValueError(i)
        time.sleep(1e-3)
        return i

    with pytest.raises(ValueError, match="^5$"):
        map_ordered(fn, range(1000))
    assert set(range(6)) <= set(started)  # every index below the first failure ran
    assert len(started) < 100  # no index is handed out after a failure
    # an exit or interrupt inside an item is not lost on a helper thread
    with pytest.raises(SystemExit, match="^3$"):
        map_ordered(lambda i: sys.exit(i) if i in (3, 8) else i, range(20))


@THREADS
def test_map_ordered_of_no_items_is_empty(threads, monkeypatch):
    monkeypatch.setenv("LEVY_INFO_THREADS", threads)
    assert map_ordered(pytest.fail, []) == []


def test_map_ordered_hands_out_each_index_once_under_contention(monkeypatch):
    # more threads than cores and a switch at almost every bytecode: a lost or
    # doubled hand-out of the shared index iterator shows as a missing or
    # repeated item
    monkeypatch.setenv("LEVY_INFO_THREADS", "8")
    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = map_ordered(lambda i: calls.append(i) or i, range(5000))
    finally:
        sys.setswitchinterval(interval)
    assert out == list(range(5000))
    assert sorted(calls) == list(range(5000))
