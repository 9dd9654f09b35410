"""Weighted-atom representation of the message law pi(dx).

A Prior is a finite list of atoms (x_i, w_i) with strictly positive weights
summing to one and strictly increasing positions.  Continuous message laws
are reduced to atoms once, by Gauss-Legendre quadrature, after which every
posterior update is exact on the atomic approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyPrior,
    IncompatibleSupport,
    InvalidParameter,
    NonFiniteValue,
    NonPositiveWeight,
    ZeroMass,
    _count,
    _instances,
    _real,
)
from .noise import Interval, NoiseModel, admissible_set

__all__ = [
    "Prior",
    "prior_from_atoms",
    "prior_from_density",
    "check_compatibility",
    "prior_expectation",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Prior:
    """Atoms of the message law: positions (increasing), weights (sum 1) and
    their logs, which stay finite where a posterior weight underflows to 0."""

    positions: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray

    @property
    def atoms(self) -> list:
        """The atoms as a list of (position, weight) tuples."""
        return list(zip(self.positions.tolist(), self.weights.tolist()))

    @property
    def mean(self) -> float:
        return float(self.weights @ self.positions)

    @property
    def variance(self) -> float:
        mu = self.weights @ self.positions
        return float(self.weights @ (self.positions - mu) ** 2)

    def __len__(self) -> int:
        return self.positions.size


def _build_prior(positions: np.ndarray, weights: np.ndarray) -> Prior:
    return Prior(_frozen(positions), _frozen(weights), _frozen(np.log(weights)))


def _on_atoms(f, xs: np.ndarray) -> np.ndarray:
    """``f`` at every entry of ``xs``, as floats: one call on the array, or
    one call per entry when ``f`` raises on the array or returns another
    shape."""
    try:
        fx = np.asarray(f(xs), dtype=float)
        if fx.shape != xs.shape:
            raise TypeError
    except Exception:
        fx = np.array([float(f(x)) for x in xs])
    return fx


def prior_from_atoms(points) -> Prior:
    """Build a prior from (position, weight) pairs.

    Weights are normalized to sum 1; atoms are sorted by position and atoms
    at exactly equal positions are merged by adding their weights.

    Raises
    ------
    EmptyPrior
        If ``points`` is empty.
    NonPositiveWeight
        If any weight is <= 0.
    NonFiniteValue
        If any position or weight is not finite.
    """
    pts = list(points)
    if len(pts) == 0:
        raise EmptyPrior("a prior needs at least one atom")
    xs = np.array([float(_real(x, "atom position")) for x, _ in pts])
    ws = np.array([float(_real(w, "atom weight")) for _, w in pts])
    if not (np.isfinite(xs).all() and np.isfinite(ws).all()):
        raise NonFiniteValue("prior atoms must have finite positions and weights")
    if np.any(ws <= 0.0):
        bad = xs[ws <= 0.0]
        raise NonPositiveWeight(f"atom weights must be > 0; offending positions: {bad.tolist()}")
    order = np.argsort(xs, kind="stable")
    xs, ws = xs[order], ws[order]
    # merge exactly-equal positions (no epsilon merging)
    uniq, inverse = np.unique(xs, return_inverse=True)
    merged = np.zeros_like(uniq)
    np.add.at(merged, inverse, ws)
    merged /= merged.sum()
    return _build_prior(uniq, merged)


def prior_from_density(f, interval: Interval, n: int) -> Prior:
    """Discretize a density on a bounded interval by Gauss-Legendre quadrature.

    The n-point rule is numpy's ``np.polynomial.legendre.leggauss``, exact
    for polynomials of degree below 2n, mapped from [-1, 1] onto the interval.

    Parameters
    ----------
    f : callable
        Nonnegative density (need not be normalized); called with an ndarray
        of nodes, falling back to pointwise evaluation.
    interval : Interval
        Bounded support interval.
    n : int
        Number of quadrature nodes (>= 2).

    Returns
    -------
    Prior
        Atoms at the mapped Legendre nodes with weights proportional to
        quadrature-weight * f(node); zero-weight nodes are dropped.

    Raises
    ------
    ZeroMass
        If the quadrature mass of ``f`` is zero.
    """
    if not (np.isfinite(interval.lo) and np.isfinite(interval.hi)):
        raise InvalidParameter("prior_from_density requires a bounded interval")
    n = _count(n, "quadrature node count n", 2)
    nodes, gl_weights = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (interval.hi - interval.lo)
    mid = 0.5 * (interval.hi + interval.lo)
    xs = mid + half * nodes
    fx = _on_atoms(f, xs)
    if not np.isfinite(fx).all():
        raise NonFiniteValue("density returned non-finite values on quadrature nodes")
    if np.any(fx < 0.0):
        raise NonPositiveWeight("density must be nonnegative on the interval")
    ws = half * gl_weights * fx
    mass = ws.sum()
    if mass <= 0.0:
        raise ZeroMass("density integrates to zero over the interval")
    keep = ws > 0.0
    return _build_prior(xs[keep], ws[keep] / mass)


# An atom keeps this relative distance from each finite open end of A.
MARGIN = 1e-9


def check_compatibility(prior: Prior, model: NoiseModel) -> None:
    """Verify that every prior atom is admissible for the model.

    An atom x passes when it lies in the admissible set A and, for each
    finite open boundary c of A, keeps a relative distance
    ``|x - c| >= MARGIN * max(1, |c|)``.  A closed endpoint belongs to A
    and takes no margin (the InverseGaussian atom x = 0 is the fiducial law
    itself).

    Raises
    ------
    InvalidParameter
        If ``prior`` is not a Prior or ``model`` not a NoiseModel (the two
        swapped, say).
    IncompatibleSupport
        Listing the offending atom positions.
    """
    _instances((prior, Prior), (model, NoiseModel))
    interval = admissible_set(model)
    xs = prior.positions
    ok = interval.contains(xs)
    if interval.lo_open and np.isfinite(interval.lo):
        ok &= (xs - interval.lo) >= MARGIN * max(1.0, abs(interval.lo))
    if interval.hi_open and np.isfinite(interval.hi):
        ok &= (interval.hi - xs) >= MARGIN * max(1.0, abs(interval.hi))
    if not ok.all():
        bad = xs[~ok].tolist()
        raise IncompatibleSupport(
            f"prior atoms {bad} outside the admissible set of {model!r} "
            f"(margin {MARGIN:g})",
            atoms=bad,
        )


def prior_expectation(prior: Prior, g) -> float:
    """The weighted sum ``sum_i w_i g(x_i)`` over the atoms of ``prior``.

    ``g`` is called with the array of positions, falling back to one call
    per atom (as ``prior_from_density`` calls its density).

    Raises
    ------
    NonFiniteValue
        If any ``g(x_i)`` is not finite.
    """
    vals = _on_atoms(g, prior.positions)
    if not np.isfinite(vals).all():
        bad = prior.positions[~np.isfinite(vals)].tolist()
        raise NonFiniteValue(f"g is not finite on atoms {bad}")
    return float(np.dot(prior.weights, vals))
