"""Innovations decomposition xi_t = integral of Yhat du + M_t.

Yhat_t is the filtered estimate of psi0'(X); its left-endpoint Riemann sum
is subtracted from the path to leave the innovations martingale M.  The
left endpoint is not an arbitrary choice: using the filter value entering
each interval makes the discretized M an exact martingale with respect to
the grid filtration, so martingale tests check the construction rather than
a discretization bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, TooFewSamples, _instances, _positive
from .filtering import posterior_expectations
from .noise import NoiseModel, check_observation, exponent_derivatives
from .prior import Prior, check_compatibility
from .simulate import InformationPath, TimeGrid, simulate_ensemble
from .stats import StudyReport, StudyRow, mean_stderr, zscore

__all__ = [
    "InnovationsPath",
    "innovations_path",
    "innovations_ensemble",
    "martingale_test",
]


@dataclass(frozen=True, eq=False)
class InnovationsPath:
    """The decomposition of one observed path on its grid.

    ``xi == integral + M`` holds pointwise exactly by construction and
    ``M[0] == 0``; ``yhat[j]`` is the filter value given observations up to
    and including grid time j.
    """

    grid: TimeGrid
    xi: np.ndarray
    yhat: np.ndarray
    integral: np.ndarray
    M: np.ndarray


def _check_values(path: InformationPath) -> None:
    """InvalidParameter unless the path holds one value per grid time."""
    if np.shape(path.values) != path.grid.times.shape:
        raise InvalidParameter(
            f"path values of shape {np.shape(path.values)} do not fit its grid of {len(path.grid)} times"
        )


def _decompose(model: NoiseModel, prior: Prior, grid: TimeGrid, xi: np.ndarray):
    """Filter a matrix of paths (rows) and return (yhat, integral, M)."""
    check_compatibility(prior, model)  # before psi0' is evaluated at the atoms
    times = grid.times
    dpsi = exponent_derivatives(model, prior.positions)[0]
    yhat = posterior_expectations(prior, model, xi, times, dpsi[:, None])[..., 0]
    integral = np.zeros_like(xi)
    integral[:, 1:] = np.cumsum(yhat[:, :-1] * np.diff(times), axis=1)
    return yhat, integral, xi - integral


def innovations_path(path: InformationPath, prior: Prior) -> InnovationsPath:
    """Filter every grid point of one path in one shot and split off the martingale.

    By the restart property the filter value at grid time t_j depends only
    on (xi_j, t_j), so every point is filtered on its own by
    :func:`~levy_info.filtering.posterior_expectations`.

    Yhat is accumulated with the left-endpoint rule: the value entering each
    interval multiplies its length, matching the predictable integrand of
    the continuous-time identity.

    Raises
    ------
    InvalidParameter
        If ``path`` is not an InformationPath or ``prior`` not a Prior (the
        two swapped, say), its values do not fit its grid, or the grid has
        fewer than two points.
    NonFiniteValue, OffSupport
        If an increment is not finite or no message could produce it (a decreasing Gamma path).
    IncompatibleSupport, DegenerateWeights
        Propagated from the filter.
    """
    _instances((path, InformationPath), (prior, Prior))
    _check_values(path)
    if len(path.grid) < 2:
        raise InvalidParameter("innovations need a grid with at least two points")
    check_observation(path.model, np.diff(path.values), np.diff(path.grid.times))
    yhat, integral, m = _decompose(path.model, prior, path.grid, path.values[None, :])
    return InnovationsPath(path.grid, path.values, yhat[0], integral[0], m[0])


def innovations_ensemble(model: NoiseModel, prior: Prior, grid: TimeGrid, n_paths: int, seed: int, tag: int = 0):
    """Simulate an ensemble and decompose every path.

    Returns ``(messages, xi, yhat, M)`` with one row per path; every
    (path, time) cell is filtered in one batched call, so large martingale
    studies stay cheap.  Reproducibility follows :func:`simulate_ensemble`.
    """
    if len(grid) < 2:
        raise InvalidParameter("innovations need a grid with at least two points")
    messages, xi = simulate_ensemble(model, prior, grid, n_paths, seed, tag)
    yhat, _, m = _decompose(model, prior, grid, xi)
    return messages, xi, yhat, m


def martingale_test(samples, threshold: float = 3.5) -> StudyReport:
    """z-test that martingale increments have mean zero, per interval.

    ``samples`` is either a flat collection of increments over one interval
    or a sequence of such collections (one per interval).  Each interval
    needs at least 100 samples.

    Raises
    ------
    TooFewSamples
    """
    threshold = _positive(threshold, "study threshold")
    two_d = isinstance(samples, np.ndarray) and samples.ndim == 2
    nested = isinstance(samples, (list, tuple)) and len(samples) > 0 and np.ndim(samples[0]) > 0
    rows = []
    for i, g in enumerate(samples if two_d or nested else [samples]):
        if np.size(g) < 100:
            raise TooFewSamples(f"interval {i}: need at least 100 increments, got {np.size(g)}")
        mean, se = mean_stderr(g)
        rows.append(StudyRow(f"increment[{i}]", mean, 0.0, se, zscore(mean, 0.0, se)))
    return StudyReport("martingale", tuple(rows), threshold)
