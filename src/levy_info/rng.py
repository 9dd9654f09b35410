"""Reproducible, splittable random streams for parallel Monte Carlo.

Streams are counter-based (Philox), and the (seed, key...) stream starts at
counter 0 under numpy's ``SeedSequence(seed, spawn_key=key)`` key, so any
(seed, key...) tuple names the same stream no matter when or on which worker
it is drawn.  :func:`ensemble_streams` lays out every ensemble's streams,
keyed by (seed, tag, chunk index, interval index) with a fixed chunk size,
so results are independent of evaluation order and of the worker count.

A Philox stream is its key and a counter (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), so :func:`stream_keys` computes an
ensemble's keys in one vectorized pass of the SeedSequence hash, and
:func:`keyed_stream` resets a Generator to (key, counter 0) instead of
building one per stream.
"""

from __future__ import annotations

import collections
import math
import os
import threading

import numpy as np

from .errors import InvalidParameter, _count

__all__ = ["stream", "stream_keys", "keyed_stream", "ensemble_streams", "worker_count", "map_ordered", "CHUNK"]

# Paths are generated in fixed-size chunks; the chunk size is part of the
# reproducibility contract (changing it changes which variates go where).
CHUNK = 4096
# An ensemble's thread item is a run of at most this many consecutive chunks,
# so the samplers' numpy calls are long enough for two threads to overlap.
RUN = 4
# An ensemble computes the stream keys of this many intervals at a time, which
# bounds the hash's temporaries (about 112 bytes per key) on long grids.
_BLOCK = 4096

# numpy's SeedSequence: a pool of 4 uint32 words, hashed with these constants
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _chunks(n: int) -> list:
    """(index, slice) of each chunk of ``n`` paths, in order; the last may be short."""
    return [(c, slice(start, min(n, start + CHUNK))) for c, start in enumerate(range(0, n, CHUNK))]


def _key(k, name: str) -> int:
    """A seed or stream key: an integer >= 0 of any size."""
    return _count(k, name, 0, math.inf)


def _words(n: int) -> list:
    """The uint32 words of a non-negative integer, least significant first; [0] for 0."""
    words = [n & _MASK]
    while n := n >> 32:
        words.append(n & _MASK)
    return words


def _key_words(k) -> list:
    """A key as entropy words: an integer's words, or an integer array as one word per entry."""
    if np.ndim(k) == 0:
        return _words(_key(k, "stream key"))
    k = np.asarray(k)
    if k.dtype.kind not in "iu" or (k.size and (k.min() < 0 or k.max() > _MASK)):
        raise InvalidParameter("a stream key array must hold integers in [0, 2**32)")
    return [k.astype(np.uint64)]


def stream_keys(seed: int, *key) -> np.ndarray:
    """The Philox keys of the (seed, *key) streams, as uint64 of shape
    ``broadcast(*key).shape + (2,)``.

    Each is ``SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)``,
    numpy's hash computed on Python integers, or on uint64 arrays with every
    result masked to 32 bits where a key is an array, so one pass serves every
    row.  Array keys hold integers in [0, 2**32), one word each.

    Raises
    ------
    InvalidParameter
        If ``seed`` or a key is not a non-negative integer (numpy's included),
        or an array key is not integers in [0, 2**32).
    """
    entropy = _words(_key(seed, "seed"))
    if key:
        # numpy pads the seed's words to the pool size when a spawn key follows
        entropy += [0] * (4 - len(entropy))
    for k in key:
        entropy += _key_words(k)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = (value ^ const) * (const := const * _MULT_A & _MASK) & _MASK
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for value in pool:
        value = (value ^ const) * (const := const * _MULT_B & _MASK) & _MASK
        state.append(value ^ value >> 16)
    halves = [np.asarray(state[i] | state[i + 1] << 32, dtype=np.uint64) for i in (0, 2)]
    return np.stack(np.broadcast_arrays(*halves), axis=-1)


_ZEROS = (0, 0, 0, 0)  # a tuple: the state setter reads it faster than an array


def keyed_stream(key, gen=None):
    """A Generator at counter 0 of the stream with Philox key ``key`` (a row
    of :func:`stream_keys`): ``gen`` reset to it, ending the stream ``gen``
    was on, or a new Generator when ``gen`` is None."""
    if gen is None:
        return np.random.Generator(np.random.Philox(key=key))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,  # the buffer is empty
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


class _RunStreams:
    """The streams of a run of chunks (see :func:`ensemble_streams`), drawn as one.

    ``paths`` is the run's slice of the ensemble's paths.  Iterating yields
    (j, source) per interval j, each chunk's Generator reset to its stream:
    ``source`` is that Generator for a run of one chunk, else this.  Each of
    the four methods the samplers call draws every chunk's part from that
    chunk's own stream, in chunk order, with array parameters (one entry per
    path) sliced by chunk, into its slice of one run-sized array (with
    ``out=``, or by assignment for ``poisson``, which has none): a sampler
    handed this draws what it draws chunk by chunk, on arrays as long as the
    run.  A draw that is not one variate per path of the run raises
    InvalidParameter instead of being split.
    """

    def __init__(self, run, keys, intervals):
        start = run[0][1].start
        self.paths = slice(start, run[-1][1].stop)
        self.total = self.paths.stop - start
        self.chunks = [slice(sl.start - start, sl.stop - start) for _, sl in run]
        self.keys = keys  # (chunks of the run, intervals, 2)
        self.intervals = intervals
        self.gens = [None] * len(run)

    def __iter__(self):
        for i, j in enumerate(self.intervals):
            self.gens = [keyed_stream(key, gen) for key, gen in zip(self.keys[:, i], self.gens)]
            yield j, self.gens[0] if len(self.gens) == 1 else self

    def _draw(self, method, params, size):
        shapes = [np.shape(p) for p in params]
        shape = np.broadcast_shapes(*shapes) if size is None else tuple(np.atleast_1d(size))
        if shape != (self.total,) or any(s not in ((), shape) for s in shapes):
            raise InvalidParameter(f"a run of chunks draws one variate per path ({self.total}), not shape {shape}")
        out = np.empty(self.total, dtype=np.int64 if method == "poisson" else float)
        for gen, sl in zip(self.gens, self.chunks):
            args = [p[sl] if np.ndim(p) else p for p in params]
            if method == "poisson":
                out[sl] = gen.poisson(*args, size=sl.stop - sl.start)
            else:
                getattr(gen, method)(*args, out=out[sl])
        return out

    def standard_normal(self, size=None):
        return self._draw("standard_normal", (), size)

    def random(self, size=None):
        return self._draw("random", (), size)

    def standard_gamma(self, shape, size=None):
        return self._draw("standard_gamma", (shape,), size)

    def poisson(self, lam=1.0, size=None):
        return self._draw("poisson", (lam,), size)


def ensemble_streams(seed: int, tag: int, n_paths: int, intervals, run: int = RUN) -> list:
    """One :class:`_RunStreams` per run of up to ``run`` consecutive chunks
    of an ensemble of ``n_paths`` paths, in path order, on the interval
    indices ``intervals``: chunk c draws interval j from the stream
    (seed, tag, c, j), whatever the runs or the worker count.  Runs are
    shorter when there are too few chunks to give every worker one.  Every
    key is computed before any run draws, one hash pass per ``_BLOCK``
    intervals; ``seed`` and ``tag`` are checked (InvalidParameter) first.
    """
    seed, tag = _key(seed, "seed"), _key(tag, "stream key")
    chunks = _chunks(n_paths)
    size = max(1, min(run, len(chunks) // worker_count()))
    keys = np.empty((len(chunks), len(intervals), 2), dtype=np.uint64)
    for start in range(0, len(intervals), _BLOCK):
        block = np.asarray(intervals[start : start + _BLOCK])
        keys[:, start : start + _BLOCK] = stream_keys(seed, tag, np.arange(len(chunks))[:, None], block[None, :])
    return [_RunStreams(chunks[i : i + size], keys[i : i + size], intervals) for i in range(0, len(chunks), size)]


def stream(seed: int, *key: int) -> np.random.Generator:
    """A Generator for the (seed, *key) stream; same inputs, same stream:
    ``Generator(Philox(SeedSequence(seed, spawn_key=key)))``.

    Raises
    ------
    InvalidParameter
        If ``seed`` or a key is not a non-negative integer (numpy's included).
    """
    seed, key = _key(seed, "seed"), tuple(_key(k, "stream key") for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def worker_count() -> int:
    """Worker cap from the LEVY_INFO_THREADS environment variable; 1 when it
    is unset or empty.

    Raises
    ------
    InvalidParameter
        If the variable is set to anything but a positive integer.
    """
    raw = os.environ.get("LEVY_INFO_THREADS", "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
        if workers < 1:
            raise ValueError
    except ValueError:
        raise InvalidParameter(f"LEVY_INFO_THREADS must be a positive integer, got {raw!r}") from None
    return workers


def map_ordered(fn, items):
    """``[fn(it) for it in items]`` on up to worker_count() threads, the
    caller being one of them.

    The caller and its ``worker_count() - 1`` helper threads each take the
    next index from one shared iterator, so items start in order and no
    thread waits on another's item.  Once an item raises, no more indices are
    handed out; after the items in flight finish, the exception of the lowest
    failing index is raised.  Every index below it was handed out first and
    has run, so that is the exception the serial map raises: results and
    errors do not depend on the worker count.  Threading only overlaps the
    underlying (GIL-releasing) numpy work: an ensemble's runs of up to
    ``RUN`` chunks, each chunk drawing from its own streams (see
    :func:`ensemble_streams`), and filter blocks.
    """
    items = list(items)
    out = [None] * len(items)
    errors = {}
    indices = iter(range(len(items)))

    def work():
        for i in indices:
            try:
                out[i] = fn(items[i])
            except BaseException as exc:  # re-raised below, so none is lost on a helper
                errors[i] = exc
                collections.deque(indices, maxlen=0)  # hand out no more

    helpers = [threading.Thread(target=work) for _ in range(min(worker_count(), len(items)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        collections.deque(indices, maxlen=0)  # stops the helpers if the caller was interrupted
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return out
