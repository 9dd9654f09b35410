"""Keyed Philox streams: the batched key hash is numpy's SeedSequence; an
ensemble's streams laid out as runs of chunks drawn as one; and the ordered
map that shares runs and blocks out among threads."""

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
    _RunStreams,
    ensemble_streams,
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
    assert [r.paths for r in ensemble_streams(0, 0, 2 * CHUNK, [1])] == [sl for _, sl in _chunks(2 * CHUNK)]
    runs = ensemble_streams(0, 0, 62 * CHUNK, [1])
    assert len(runs) == 16 and max(len(r.gens) for r in runs) == RUN == 4
    assert [r.paths.start for r in runs] == [0] + [r.paths.stop for r in runs[:-1]]
    assert runs[-1].paths.stop == 62 * CHUNK


def run_streams(run, seed=1, tag=0, intervals=(1,)):
    """The streams of ``run``, a run of chunks, on ``intervals`` of the (seed, tag) ensemble."""
    keys = stream_keys(seed, tag, np.array([c for c, _ in run])[:, None], np.array(intervals)[None, :])
    return _RunStreams(run, keys, intervals)


def test_a_run_of_chunks_draws_each_chunks_part_from_its_own_stream():
    # each of the four methods fills its slice of one run-sized array with
    # what the chunk's own Generator draws, scalar and per-path parameters alike
    run = _chunks(2 * CHUNK + 3)
    n = run[-1][1].stop
    lam, shape = np.linspace(0.5, 3.0, n), np.linspace(0.2, 4.0, n)
    ((j, streams),) = run_streams(run)
    assert j == 1
    got = [streams.poisson(lam), streams.poisson(2.5, n), streams.standard_gamma(2.0, n),
           streams.standard_gamma(shape), streams.random(n), streams.standard_normal(n)]
    want = []
    for c, sl in run:
        gen, count = stream(1, 0, c, 1), sl.stop - sl.start
        want.append((gen.poisson(lam[sl]), gen.poisson(2.5, count), gen.standard_gamma(2.0, count),
                     gen.standard_gamma(shape[sl]), gen.random(count), gen.standard_normal(count)))
    for g, parts in zip(got, zip(*want)):
        whole = np.concatenate(parts)
        assert g.dtype == whole.dtype and g.shape == (n,)
        np.testing.assert_array_equal(g, whole)


def test_a_run_of_chunks_refuses_a_draw_it_cannot_split():
    run = _chunks(2 * CHUNK + 3)
    n = run[-1][1].stop
    ((_, streams),) = run_streams(run)
    for draw in (lambda: streams.random(n - 1), lambda: streams.standard_normal(), lambda: streams.random((n, 1)),
                 lambda: streams.poisson(np.ones(n - 1)), lambda: streams.standard_gamma(np.ones(5), n)):
        with pytest.raises(li.InvalidParameter, match="one variate per path"):
            draw()


def test_a_run_of_one_chunk_draws_straight_from_its_generator():
    one = run_streams(_chunks(5), intervals=(0, 1))
    for j, gen in one:
        assert gen is one.gens[0]
        np.testing.assert_array_equal(gen.random(5), stream(1, 0, 0, j).random(5))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("run", [RUN, 1])
def test_ensemble_streams_yield_each_runs_intervals_in_order(run, threads, monkeypatch):
    # every chunk of every run draws interval j from the (seed, tag, chunk, j)
    # stream, whatever the run length and the worker count
    monkeypatch.setenv("LEVY_INFO_THREADS", threads)
    n, intervals = 9 * CHUNK + 17, range(2, 6)
    runs = ensemble_streams(2**40, 7, n, intervals, run)
    assert max(len(r.gens) for r in runs) <= run
    assert [r.paths.start for r in runs] == [0] + [r.paths.stop for r in runs[:-1]] and runs[-1].paths.stop == n
    for streams in runs:
        assert [j for j, _ in streams] == list(intervals)
        for j, source in streams:
            got = source.random(streams.total)
            want = [stream(2**40, 7, c, j).random(sl.stop - sl.start) for c, sl in _chunks(n)
                    if streams.paths.start <= sl.start < streams.paths.stop]
            np.testing.assert_array_equal(got, np.concatenate(want))


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
