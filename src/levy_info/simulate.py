"""Exact-in-distribution simulation of information processes.

Every sampler here draws increments from the exact conditional law of the
process given its message; there is no Euler discretization error anywhere.
Conditioning on X = x turns each family into a tilted copy of itself, so a
single per-family increment sampler, the ``sample`` field of the family's
record in :mod:`levy_info.noise`, covers both fiducial and conditional draws.

The alternative VG and NB constructions (scaled subordinator, gamma
difference, compound Poisson with logarithmic jumps), named in
``REPRESENTATIONS``, are the records' ``constructions``: written in the
tilted parameters, they hold for drifted and tilted models too.  They serve
cross-validation, as does the finite-horizon time-changed bridge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridExceedsHorizon, InvalidParameter, UnsupportedRepresentation, _count, _positive, _real
from .noise import _FAMILIES, NoiseModel, _check_domain, _check_times
from .prior import Prior, check_compatibility
from .rng import _chunks, _runs, _RunStreams, keyed_stream, map_ordered, stream_keys

__all__ = [
    "TimeGrid",
    "InformationPath",
    "sample_messages",
    "simulate_information_path",
    "simulate_bridge_path",
    "REPRESENTATIONS",
    "increment_draws",
    "simulate_ensemble",
    "representation_draws",
]

REPRESENTATIONS = tuple(name for rec in _FAMILIES.values() for name in rec.constructions)

# An ensemble computes the stream keys of this many intervals at a time, which
# bounds the hash's temporaries (about 112 bytes per key) on long grids.
_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing, finite observation times starting at 0."""

    times: np.ndarray

    def __post_init__(self):
        times = np.ascontiguousarray(_real(self.times, "grid times"), dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise InvalidParameter("a time grid needs at least the point t=0")
        if times[0] != 0.0:
            raise InvalidParameter(f"time grids start at 0, got t0={times[0]}")
        if not np.isfinite(times).all():
            raise InvalidParameter("time grid contains non-finite times")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise InvalidParameter("time grid must be strictly increasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @classmethod
    def regular(cls, t_max: float, steps: int) -> "TimeGrid":
        """An equally spaced grid of ``steps`` intervals on [0, t_max]."""
        steps = _count(steps, "steps")
        return cls(np.linspace(0.0, _positive(t_max, "t_max"), steps + 1))

    def __len__(self):
        return self.times.size


@dataclass(frozen=True, eq=False)
class InformationPath:
    """A sampled trajectory (t_i, xi_i) plus the hidden message draw.

    The message is retained for verification only; filtering never reads it.
    Plain information paths of the monotone families (Poisson, Gamma, NB, IG)
    are nondecreasing; bridge paths, being rescaled, are not.
    """

    grid: TimeGrid
    values: np.ndarray
    message: float
    model: NoiseModel


def _path(grid: TimeGrid, values: np.ndarray, message: float, model: NoiseModel) -> InformationPath:
    values = np.ascontiguousarray(values, dtype=float)
    values.setflags(write=False)
    return InformationPath(grid, values, float(message), model)


# ---------------------------------------------------------------------------
# elementary samplers
# ---------------------------------------------------------------------------


def increment_draws(model: NoiseModel, x, dt, rng, size=None):
    """Exact draws of xi(t+dt) - xi(t) given X = x; vectorized over x and dt.

    ``x`` and ``dt`` broadcast against each other (and against ``size`` when
    given).  ``dt`` must be finite and >= 0, and ``size`` None, a count or a
    sequence of counts (InvalidParameter).  ``x`` is not checked: callers check
    messages once, and an ensemble calls this once per interval and chunk.
    """
    if isinstance(size, (tuple, list)):
        size = tuple(_count(n, "size", 0) for n in size)
    elif size is not None:
        size = _count(size, "size", 0)
    return _draws(model, _FAMILIES[model.family].sample, x, _check_times(dt, "dt"), rng, size)


def _draws(model: NoiseModel, sample, x, dt, rng, size):
    """Draws of ``sample``, the record's sampler or a construction, drift added once."""
    x = np.asarray(x, dtype=float)
    dt = np.asarray(dt, dtype=float)
    if size is None:
        size = np.broadcast(x, dt).shape or None
    if _FAMILIES[model.family].drift_is_tilt:
        return sample(model.drift + x, dt, rng, size, *model.params)
    out = sample(x, dt, rng, size, *model.params)
    if model.drift != 0.0:
        out = out + model.drift * dt
    return out


# ---------------------------------------------------------------------------
# message and path sampling
# ---------------------------------------------------------------------------


def sample_messages(prior: Prior, size, rng):
    """``size`` atom positions, each drawn with its prior probability by the
    inverse CDF; ``size=None`` draws one, as a scalar."""
    cum = np.cumsum(prior.weights)
    u = rng.random(size if size is None else _count(size, "size", 0))
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(prior) - 1)
    return prior.positions[idx]


def simulate_information_path(
    model: NoiseModel, prior: Prior, grid: TimeGrid, rng
) -> InformationPath:
    """Draw X from the prior, then the exact conditional path on the grid.

    Increments over disjoint grid intervals are conditionally independent
    given X, each drawn from the exact tilted increment law.

    Raises
    ------
    IncompatibleSupport
        If a prior atom is not admissible for the model.
    """
    check_compatibility(prior, model)
    x = sample_messages(prior, None, rng)
    values = np.zeros(len(grid))
    if len(grid) > 1:
        values[1:] = np.cumsum(increment_draws(model, x, np.diff(grid.times), rng))
    return _path(grid, values, x, model)


def simulate_ensemble(model: NoiseModel, prior: Prior, grid: TimeGrid, n_paths: int, seed: int, tag: int = 0):
    """Simulate ``n_paths`` conditionally independent paths on ``grid``.

    Returns ``(x, xi)`` where ``x`` has shape (n_paths,) and ``xi`` has shape
    (n_paths, len(grid)).  Streams are keyed by (seed, tag, chunk, interval)
    with a fixed chunk size.  A thread item is a run of up to four
    consecutive chunks (fewer when there are too few to give each worker
    one), sampled in one call per draw, but each chunk still draws its part
    from its own stream, so results depend neither on the grouping nor on
    the worker count; LEVY_INFO_THREADS caps the threads that run the items,
    the caller included (see :func:`~levy_info.rng.map_ordered`).  Each run
    is sampled in place into its rows of ``x`` and ``xi``; the studies
    sample the same runs into run-sized storage and fold each one on its
    worker instead, so a study that reduces the paths holds no
    (n_paths, len(grid)) matrix and draws the same variates.
    """
    return _fold_runs(model, prior, grid, n_paths, seed, tag)


def _fold_runs(model: NoiseModel, prior: Prior, grid: TimeGrid, n_paths: int, seed: int, tag: int, fold=None):
    """The ensemble of :func:`simulate_ensemble`, with its checks, one run of
    chunks per thread item.

    With ``fold``, each item samples its run into run-sized storage, then
    calls ``fold(sl, messages, rows)`` on the same thread, where ``sl`` is
    the run's slice of the paths, ``messages`` its (count,) messages and
    ``rows`` its (count, len(grid)) values; the fold results come back in
    run order, and a fold that raises raises as an item would (see
    :func:`~levy_info.rng.map_ordered`).  Without one, each run is sampled
    into its rows of the n-path outputs, returned as ``(x, xi)``.  The keys
    of every chunk and interval are computed before any item runs, one hash
    pass per ``_BLOCK`` intervals.
    """
    check_compatibility(prior, model)
    n_paths = _count(n_paths, "n_paths")
    # checked here too: a one-atom prior on a one-point grid builds no stream
    seed, tag = _count(seed, "seed", 0), _count(tag, "stream key", 0)
    dts = np.diff(grid.times)
    runs = _runs(n_paths)
    chunk_ids = np.arange(sum(map(len, runs)))[:, None]
    # a one-atom prior names every message; no other draw reads interval 0
    first = 1 if len(prior) == 1 else 0
    keys = np.empty((chunk_ids.size, len(grid), 2), dtype=np.uint64)
    for start in range(first, len(grid), _BLOCK):
        stop = min(len(grid), start + _BLOCK)
        keys[:, start:stop] = stream_keys(seed, tag, chunk_ids, np.arange(start, stop)[None, :])
    if fold is None:
        x, xi = np.empty(n_paths), np.zeros((n_paths, len(grid)))

    def sample_run(run):
        sl = slice(run[0][1].start, run[-1][1].stop)
        count = sl.stop - sl.start
        messages, rows = (x[sl], xi[sl]) if fold is None else (np.empty(count), np.zeros((count, len(grid))))
        if first:
            messages[:] = prior.positions[0]
        acc = np.zeros(count)
        streams = _RunStreams(run)
        for j in range(first, len(grid)):
            gen = streams.reset(keys[:, j])
            if j == 0:
                messages[:] = sample_messages(prior, count, gen)
            else:
                acc += increment_draws(model, messages, dts[j - 1], gen, count)
                rows[:, j] = acc
        return None if fold is None else fold(sl, messages, rows)

    folded = map_ordered(sample_run, runs)
    return (x, xi) if fold is None else folded


def _construction(model: NoiseModel, rep: str):
    """The sampler of one named construction of the model's family."""
    constructions = _FAMILIES[model.family].constructions
    if rep not in constructions:
        raise UnsupportedRepresentation(
            f"{model.family} has no representation {rep!r}; it has {tuple(constructions)} (all: {REPRESENTATIONS})"
        )
    return constructions[rep]


def representation_draws(model: NoiseModel, rep: str, x: float, t: float, n: int, seed: int, tag: int = 0):
    """n draws of xi_t at a fixed message, under the named construction.

    ``rep`` is one of ``REPRESENTATIONS`` that the model's family has (VG_*
    for VarianceGamma, NB_* for NegativeBinomial); any other name is an
    ``UnsupportedRepresentation``.

    Chunk-keyed like :func:`simulate_ensemble` (interval index is always 1:
    the construction is conditionally Levy, so xi_t is a single increment).
    """
    sample = _construction(model, rep)
    x = _check_domain(model, x, "message x")
    t = _positive(t, "t")
    n = _count(n, "n")
    chunks = _chunks(n)
    keys = stream_keys(seed, tag, np.arange(len(chunks)), 1)
    out = np.empty(n)

    def run_chunk(chunk):
        c, sl = chunk
        out[sl] = _draws(model, sample, x, t, keyed_stream(keys[c]), sl.stop - sl.start)

    map_ordered(run_chunk, chunks)
    return out


def simulate_bridge_path(
    model: NoiseModel,
    prior: Prior,
    horizon: float,
    grid: TimeGrid,
    rng,
    u_cap: float | None = None,
) -> InformationPath:
    """Simulate the finite-horizon bridge xi_{tT} = ((T-t)/T) xi(tT/(T-t)).

    The bridge is the information path of
    :func:`simulate_information_path` on the transformed clock
    u = tT/(T-t), rescaled; it reveals X as t -> T.  Grid times must stay
    below the horizon and the transformed times below ``u_cap`` (default
    1e6 * T), which guards the singularity at t = T.

    Raises
    ------
    GridExceedsHorizon
    """
    u, scale = _bridge_clock(horizon, grid.times, u_cap)
    path = simulate_information_path(model, prior, TimeGrid(u), rng)
    return _path(grid, scale * path.values, path.message, model)


def _bridge_clock(horizon: float, times: np.ndarray, u_cap: float | None = None) -> tuple:
    """(u, scale) at increasing ``times``: the clock u = tT/(T - t) and the
    rescale (T - t)/T, once T and ``u_cap`` are positive and finite, t < T
    and u <= ``u_cap``."""
    horizon = _positive(horizon, "horizon")
    u_cap = 1e6 * horizon if u_cap is None else _positive(u_cap, "u_cap")
    if times[-1] >= horizon:
        raise GridExceedsHorizon(
            f"bridge grid reaches t={times[-1]:g} but the horizon is T={horizon:g}"
        )
    u = times * horizon / (horizon - times)
    if u[-1] > u_cap:
        raise GridExceedsHorizon(
            f"transformed time {u[-1]:.6g} exceeds the cap {u_cap:.6g}; "
            f"refine u_cap or keep the grid away from the horizon"
        )
    return u, (horizon - times) / horizon
