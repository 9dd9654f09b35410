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
cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameter,
    NonFiniteValue,
    UnsupportedRepresentation,
    _count,
    _floats,
    _positive,
    _real,
)
from .noise import _FAMILIES, NoiseModel, _check_domain, _check_times
from .prior import Prior, check_compatibility
from .rng import ensemble_streams, map_ordered

__all__ = [
    "TimeGrid",
    "InformationPath",
    "sample_messages",
    "simulate_information_path",
    "REPRESENTATIONS",
    "increment_draws",
    "simulate_ensemble",
    "representation_draws",
]

REPRESENTATIONS = tuple(name for rec in _FAMILIES.values() for name in rec.constructions)

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


def _checked(model: NoiseModel, draw):
    """``draw()``, unless the draws overflow, times too long for the model's
    increments: numpy refuses a rate beyond its sampler's range (ValueError),
    or a value ``draw`` returns is not finite (NonFiniteValue either way).
    Callers return a path's sum of increments, which is non-finite once any
    of them is, so each path is checked once, never once per draw.  The
    draws run with numpy's overflow and invalid warnings off, so that this
    error is the only signal of an overflow."""
    cause = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = draw()
        if np.isfinite(out).all():
            return out
    except ValueError as exc:
        cause = exc
    detail = "" if cause is None else f" ({cause})"
    message = f"the draws of {model!r} overflow: the time is too long for its increments{detail}"
    raise NonFiniteValue(message) from cause


def increment_draws(model: NoiseModel, x, dt, rng, size=None):
    """Exact draws of xi(t+dt) - xi(t) given X = x; vectorized over x and dt.

    ``x`` and ``dt`` broadcast against each other (and against ``size`` when
    given).  ``dt`` must be finite and >= 0, and ``size`` None, a count or a
    sequence of counts (InvalidParameter).  ``x`` is not checked: callers check
    messages once, and an ensemble calls this once per interval and run.

    Nor are the draws checked for overflow, by design: a Poisson rate beyond
    numpy's range (dt = 1e19 at rate 1) raises numpy's own ValueError, and
    Gamma increments at dt = 1e308 come back inf, with numpy's overflow
    warning.  The samplers built on this check once instead, each raising
    NonFiniteValue: an ensemble once per run of chunks, representation draws
    once per chunk and a single path once per path.
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
        values[1:] = _checked(model, lambda: np.cumsum(increment_draws(model, x, np.diff(grid.times), rng)))
    return _path(grid, values, x, model)


def simulate_ensemble(model: NoiseModel, prior: Prior, grid: TimeGrid, n_paths: int, seed: int, tag: int = 0):
    """Simulate ``n_paths`` conditionally independent paths on ``grid``.

    Returns ``(x, xi)`` where ``x`` has shape (n_paths,) and ``xi`` has shape
    (n_paths, len(grid)).  The streams and their runs of up to four chunks,
    one thread item each, are those of :func:`~levy_info.rng.ensemble_streams`,
    so results depend only on (seed, tag, chunk, interval), neither on the
    grouping nor on the worker count, which LEVY_INFO_THREADS caps (see
    :func:`~levy_info.rng.map_ordered`).  Each run is sampled in place into
    its rows of ``x`` and ``xi``; the studies sample the same runs into
    run-sized storage and fold each one on its worker instead, so a study
    that reduces the paths holds no (n_paths, len(grid)) matrix and draws
    the same variates.
    """
    return _fold_runs(model, prior, grid, n_paths, seed, tag)


def _fold_runs(model: NoiseModel, prior: Prior, grid: TimeGrid, n_paths: int, seed: int, tag: int, fold=None):
    """The ensemble of :func:`simulate_ensemble`, with its checks, one run of
    chunks of :func:`~levy_info.rng.ensemble_streams` per thread item.

    With ``fold``, each item samples its run into run-sized storage, then
    calls ``fold(sl, messages, rows)`` on the same thread, where ``sl`` is
    the run's slice of the paths, ``messages`` its (count,) messages and
    ``rows`` its (count, len(grid)) values; the fold results come back in
    run order, and a fold that raises raises as an item would (see
    :func:`~levy_info.rng.map_ordered`).  Without one, each run is sampled
    into its rows of the n-path outputs, returned as ``(x, xi)``.  Interval
    0 draws the messages, interval j > 0 the increments up to grid point j.
    """
    check_compatibility(prior, model)
    n_paths = _floats(_count(n_paths, "n_paths"), len(grid), "n_paths")
    dts = np.diff(grid.times)
    # a one-atom prior names every message; no other draw reads interval 0
    first = 1 if len(prior) == 1 else 0
    if fold is None:
        x, xi = np.empty(n_paths), np.zeros((n_paths, len(grid)))
    runs = ensemble_streams(seed, tag, n_paths, range(first, len(grid)))

    def sample_run(streams):
        sl, count = streams.paths, streams.total
        messages, rows = (x[sl], xi[sl]) if fold is None else (np.empty(count), np.zeros((count, len(grid))))
        if first:
            messages[:] = prior.positions[0]

        def walk():  # the run interval by interval; the paths' final values
            acc = np.zeros(count)
            for j, gen in streams:
                if j == 0:
                    messages[:] = sample_messages(prior, count, gen)
                else:
                    acc += increment_draws(model, messages, dts[j - 1], gen, count)
                    rows[:, j] = acc
            return acc

        _checked(model, walk)
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
    the construction is conditionally Levy, so xi_t is a single increment),
    one chunk per thread item: ``NB_compound`` draws a data-dependent count.
    The message ``x`` and the time ``t`` are scalars (InvalidParameter).
    """
    sample = _construction(model, rep)
    if np.ndim(x) or np.ndim(t):
        raise InvalidParameter(f"representation_draws takes a scalar x and t, got shapes {np.shape(x)} and {np.shape(t)}")
    x = _check_domain(model, x, "message x")
    t = _positive(t, "t")
    n = _floats(_count(n, "n"), 1, "n")
    out = np.empty(n)

    def run_chunk(streams):
        ((_, gen),) = streams
        out[streams.paths] = _checked(model, lambda: _draws(model, sample, x, t, gen, streams.total))

    map_ordered(run_chunk, ensemble_streams(seed, tag, n, [1], run=1))
    return out
