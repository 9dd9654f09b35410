"""Reproducible, splittable random streams for parallel Monte Carlo.

Streams are counter-based (Philox) and keyed through ``SeedSequence`` spawn
keys, so any (seed, key...) tuple names the same stream no matter when or on
which worker it is created.  Ensemble generators key their streams by
(seed, tag, chunk index, interval index) with a fixed chunk size, which makes
results independent of evaluation order and of the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidParameter, _count

__all__ = ["stream", "worker_count", "map_ordered", "CHUNK"]

# Paths are generated in fixed-size chunks; the chunk size is part of the
# reproducibility contract (changing it changes which variates go where).
CHUNK = 4096


def _chunks(n: int) -> list:
    """(index, slice) of each chunk of ``n`` paths, in order; the last may be short."""
    return [(c, slice(start, min(n, start + CHUNK))) for c, start in enumerate(range(0, n, CHUNK))]


def stream(seed: int, *key: int) -> np.random.Generator:
    """A Generator for the (seed, *key) stream; same inputs, same stream.

    Raises
    ------
    InvalidParameter
        If ``seed`` or a key is not a non-negative integer (numpy's included).
    """
    seed = _count(seed, "seed", 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(_count(k, "stream key", 0) for k in key))
    return np.random.Generator(np.random.Philox(seed=ss))


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
    """Map ``fn`` over ``items`` preserving order, on up to worker_count()
    threads.  Results do not depend on the worker count; threading only
    overlaps the underlying (GIL-releasing) numpy work: sampler chunks and
    filter blocks."""
    items = list(items)
    workers = min(worker_count(), max(1, len(items)))
    if workers <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
