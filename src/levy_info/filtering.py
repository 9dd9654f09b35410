"""Optimal Bayesian filtering of the message from an observed path.

The posterior over message atoms after observing xi at time t reweights the
prior by exp(x xi - psi0(x) t); the exponent grows linearly in t, so all
weight arithmetic happens in log space with max-subtraction and a single
renormalization per update.  The restart property makes the sequential form
(reweight by increments) exactly consistent with the one-shot form, so
batched callers (the innovations decomposition, ``levy-info filter``) use
the closed form: :func:`posterior_expectations` filters every observation
(xi_j, t_j) on its own, with no recursion along the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeights, InvalidParameter, NonFiniteValue
from .noise import NoiseModel, check_support, inverse_marginal_clamped, psi_unchecked
from .prior import Prior, _frozen, check_compatibility, prior_expectation
from .rng import map_ordered

__all__ = [
    "Posterior",
    "posterior_update",
    "sequential_update",
    "posterior_expectations",
    "conditional_cdf",
    "best_estimate",
    "gamma_linear_filter",
    "MessageEstimate",
    "estimate_message",
]


@dataclass(frozen=True, eq=False)
class Posterior(Prior):
    """A message law conditioned on the observation (xi, t).

    A posterior is a prior again: its atoms are the prior's (the update is
    absolutely continuous with respect to the prior) with new weights, and
    filtering restarts from it.  ``log_weights`` are the normalized
    log-probabilities.
    """

    xi: float
    t: float


def _reweighted(base: Prior, model: NoiseModel, dxi: float, dt: float, xi: float, t: float) -> Posterior:
    """``base`` reweighted by exp(x dxi - psi0(x) dt) and renormalized in log
    space with max-subtraction: the posterior at (xi, t)."""
    x = base.positions
    if dxi == 0.0 and dt == 0.0:
        return Posterior(x, base.weights, base.log_weights, xi, t)
    with np.errstate(over="ignore"):  # +-inf log-weights raise below
        raw = base.log_weights + x * dxi - psi_unchecked(model, x) * dt
    top = raw.max()
    if not np.isfinite(top):
        raise DegenerateWeights(
            "all posterior log-weights collapsed to -inf; the observation is "
            "numerically impossible under every prior atom"
        )
    shifted = np.exp(raw - top)
    total = shifted.sum()
    return Posterior(x, _frozen(shifted / total), _frozen(raw - (top + math.log(total))), xi, t)


def _check_observation(xi: float, t: float, t_name: str = "t") -> tuple:
    xi, t = float(xi), float(t)
    if not math.isfinite(xi):
        raise NonFiniteValue(f"observation xi must be finite, got {xi}")
    if not (math.isfinite(t) and t >= 0.0):
        raise InvalidParameter(f"{t_name} must be finite and >= 0, got {t}")
    return xi, t


def posterior_update(prior: Prior, model: NoiseModel, xi: float, t: float) -> Posterior:
    """Posterior over message atoms given the observation xi at time t.

    Weights w_i' are proportional to w_i exp(x_i xi - psi0(x_i) t), computed
    in log space with max-subtraction.  At t = 0 the posterior equals the
    prior exactly.  ``prior`` may itself be a Posterior: the filter then
    restarts from it, and (xi, t) is the observation made since.

    Raises
    ------
    IncompatibleSupport
        If a prior atom fails :func:`~levy_info.prior.check_compatibility`.
    OffSupport
        If ``xi - drift t`` is a value the family cannot produce at time t
        (within ``noise.SUPPORT_RTOL`` where the drift is not zero).
    DegenerateWeights
        If every reweighted atom underflows to zero probability.
    """
    xi, t = _check_observation(xi, t)
    check_compatibility(prior, model)
    check_support(model, xi, t)
    return _reweighted(prior, model, xi, t, xi, t)


def sequential_update(posterior: Posterior, model: NoiseModel, dxi: float, dt: float) -> Posterior:
    """Restart the filter on a fresh increment: reweight by exp(x dxi - psi0(x) dt).

    The reweighting of ``posterior_update(posterior, model, dxi, dt)``, with
    the result labelled by the summed observation (xi + dxi, t + dt).
    Composing sequential updates over consecutive increments reproduces the
    one-shot :func:`posterior_update` at the summed observation.

    Raises
    ------
    InvalidParameter
        If ``posterior`` is not a Posterior or ``model`` not a NoiseModel.
    IncompatibleSupport
        If an atom fails :func:`~levy_info.prior.check_compatibility`.
    DegenerateWeights
        If every reweighted atom underflows to zero probability.
    OffSupport
        If the increment is off the support of an increment over ``dt``.
    """
    if not (isinstance(posterior, Posterior) and isinstance(model, NoiseModel)):
        raise InvalidParameter(
            f"expected a Posterior and a NoiseModel, got {type(posterior).__name__} and {type(model).__name__}"
        )
    dxi, dt = _check_observation(dxi, dt, t_name="dt")
    if dxi == 0.0 and dt == 0.0:
        return posterior
    check_support(model, dxi, dt)
    check_compatibility(posterior, model)
    return _reweighted(posterior, model, dxi, dt, posterior.xi + dxi, posterior.t + dt)


# Observation rows per block of posterior_expectations: a block's
# (rows x atoms) weight matrix stays cache-sized, and each block is one unit
# of work for map_ordered.  Blocks share nothing, so results do not depend on
# the worker count.
BLOCK_ROWS = 512


def posterior_expectations(prior: Prior, model: NoiseModel, xi, t, g) -> np.ndarray:
    """Posterior expectations of the columns of ``g`` at every observation (xi, t).

    The one-shot form: the posterior at (xi, t) has log-weights
    log pi(x) + x xi - psi0(x) t, so each observation is filtered on its own.
    Rows are taken in blocks of ``BLOCK_ROWS``; per block, one matrix product
    [xi, t, 1] @ [x; -psi0(x); log pi] gives the log-weights, the row maximum
    is subtracted, and a second product of their exponentials with [1 | g]
    gives the normalizer and the unnormalized expectations.  Blocks run on up
    to ``worker_count()`` threads.

    Parameters
    ----------
    xi : array_like
        Observations, of any shape S.
    t : array_like
        Observation times, broadcastable to S.
    g : array_like
        Shape (atoms, k): g[i, c] is the c-th function at prior atom i.  The
        identity gives the posterior weights.

    Returns
    -------
    ndarray
        Shape S + (k,).

    Raises
    ------
    InvalidParameter
        If a time is negative or not finite, or ``g`` does not have one row
        per prior atom.
    IncompatibleSupport
        If a prior atom is outside the admissible set.
    OffSupport
        If some observation is off the family's support.
    DegenerateWeights
        If at some observation the log-weights are not finite: every
        reweighted atom underflows to zero probability, or one overflows.
    """
    check_compatibility(prior, model)
    x = prior.positions
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != x.size:
        raise InvalidParameter(f"g must have shape (atoms, k) = ({x.size}, k), got {g.shape}")
    t = np.asarray(t, dtype=float)
    if not (np.isfinite(t).all() and (t >= 0.0).all()):
        raise InvalidParameter("observation times must be finite and >= 0")
    xi = np.asarray(xi, dtype=float)
    t = np.broadcast_to(t, xi.shape)
    check_support(model, xi, t)
    xi_rows = xi.reshape(-1)
    coef = np.stack([x, -psi_unchecked(model, x), prior.log_weights])
    ones_g = np.column_stack([np.ones(x.size), g])
    out = np.empty((xi_rows.size, g.shape[1]))

    def block(start: int) -> None:
        stop = min(start + BLOCK_ROWS, xi_rows.size)
        obs = np.empty((stop - start, 3))
        obs[:, 0] = xi_rows[start:stop]
        obs[:, 1] = t.flat[start:stop]
        obs[:, 2] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows raise below
            log_w = obs @ coef
        top = log_w.max(axis=1, keepdims=True)
        finite = np.isfinite(top[:, 0])
        if not finite.all():
            bad = obs[np.argmin(finite)]
            raise DegenerateWeights(
                f"posterior log-weights at xi={bad[0]:g}, t={bad[1]:g} are not finite; "
                "the observation is numerically impossible under every prior atom"
            )
        log_w -= top
        w = np.exp(log_w, out=log_w)
        sums = w @ ones_g
        np.divide(sums[:, 1:], sums[:, :1], out=out[start:stop])

    map_ordered(block, range(0, xi_rows.size, BLOCK_ROWS))
    return out.reshape(xi.shape + (g.shape[1],))


def conditional_cdf(posterior: Posterior, y: float) -> float:
    """P(X <= y) under the posterior: the right-continuous step function."""
    idx = int(np.searchsorted(posterior.positions, float(y), side="right"))
    return float(posterior.weights[:idx].sum())


def best_estimate(posterior: Posterior, g) -> float:
    """Posterior expectation of g(X); with g = psi0' this is the filter value.

    The same weighted sum as :func:`prior_expectation`, over the posterior's
    weights.

    Raises
    ------
    NonFiniteValue
        If g is non-finite at some atom.
    """
    return prior_expectation(posterior, g)


def gamma_linear_filter(theta: float, r: float, m: float, xi: float, t: float) -> float:
    """Closed-form linear filter for gamma information.

    For a shifted-gamma message X = 1 - U with U ~ Gamma(r, rate theta) and
    Y = psi0'(X) = m/(1 - X), the optimal estimate of Y is
    (xi + theta)/(t + tau) with tau = (r - 1)/m.

    Raises
    ------
    InvalidParameter
        Unless r > 1, theta > 0, m > 0 and t >= 0.
    """
    theta, r, m = float(theta), float(r), float(m)
    if not (r > 1.0 and theta > 0.0 and m > 0.0):
        raise InvalidParameter(f"need r > 1, theta > 0, m > 0; got r={r}, theta={theta}, m={m}")
    xi, t = _check_observation(xi, t)
    return (xi + theta) / (t + (r - 1.0) / m)


@dataclass(frozen=True)
class MessageEstimate:
    """The diagnostic pair of message estimates at one observation.

    ``i0`` inverts the marginal rate xi/t through psi0'; when xi/t falls
    outside the attainable mean range it is clamped to the closure of the
    range and ``clamped`` is set (the inverse may then be infinite).
    ``posterior_mean`` is the Bayes estimate of X.
    """

    i0: float
    posterior_mean: float
    clamped: bool


def estimate_message(posterior: Posterior, model: NoiseModel, xi: float, t: float) -> MessageEstimate:
    """Point estimates of the message: inverse-rate I0(xi/t) and posterior mean.

    Raises
    ------
    InvalidParameter
        If t <= 0 (the rate xi/t is undefined).
    """
    xi = float(xi)
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise InvalidParameter(f"estimate_message needs t > 0, got {t}")
    i0, clamped = inverse_marginal_clamped(model, xi / t)
    return MessageEstimate(float(i0), posterior.mean, bool(clamped))
