"""Optimal Bayesian filtering of the message from an observed path.

The posterior over message atoms after observing xi at time t reweights the
prior by exp(x xi - psi0(x) t); the exponent grows linearly in t, so all
weight arithmetic happens in log space with max-subtraction and a single
renormalization per update.  The restart property makes the sequential form
(reweight by increments) exactly consistent with the one-shot form, so
batched callers (the innovations decomposition, ``levy-info filter``) use
the closed form: :func:`posterior_expectations` filters every observation
(xi_j, t_j) on its own, with no recursion along the path.  One kernel,
``_log_weights``, serves both forms, behind one ``noise.check_observation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeights, InvalidParameter, _instances, _positive, _real
from .noise import GAMMA, NoiseModel, check_observation, fiducial_exponent, inverse_marginal_clamped, make_noise_model
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


def _coefficients(prior: Prior, model: NoiseModel) -> np.ndarray:
    """The kernel's coefficients [x; -psi0(x); log pi] over the prior atoms."""
    x = prior.positions
    return np.stack([x, -fiducial_exponent(model, x), prior.log_weights])


def _log_weights(coef: np.ndarray, xi, t) -> np.ndarray:
    """The filter kernel: [xi, t, 1] @ coef, coef = [x; -psi0(x); log pi],
    gives the posterior log-weights at each observation (1-D xi and t, or
    one pair); each row less its maximum, DegenerateWeights if that is not
    finite (every atom underflows, or one overflows)."""
    obs = np.empty((np.size(xi), 3))
    obs[:, 0] = xi
    obs[:, 1] = t
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
    return log_w


def posterior_update(prior: Prior, model: NoiseModel, xi: float, t: float) -> Posterior:
    """Posterior over message atoms given the observation xi at time t.

    Weights w_i' are proportional to w_i exp(x_i xi - psi0(x_i) t): the
    one-row case of the kernel of :func:`posterior_expectations`, normalized
    in log space.  At t = 0 the posterior equals the prior exactly.
    ``prior`` may itself be a Posterior: the filter then restarts from it,
    and (xi, t) is the observation made since.

    Raises
    ------
    NonFiniteValue, InvalidParameter
        If xi is not finite, or t is negative or not finite.
    IncompatibleSupport
        If a prior atom fails :func:`~levy_info.prior.check_compatibility`.
    OffSupport
        If ``xi - drift t`` is a value the family cannot produce at time t
        (within ``noise.SUPPORT_RTOL`` where the drift is not zero).
    DegenerateWeights
        If every reweighted atom underflows to zero probability.
    """
    check_compatibility(prior, model)
    xi, t = map(float, check_observation(model, xi, t))
    if xi == 0.0 and t == 0.0:
        return Posterior(prior.positions, prior.weights, prior.log_weights, xi, t)
    log_w = _log_weights(_coefficients(prior, model), xi, t)[0]
    w = np.exp(log_w)
    total = w.sum()
    return Posterior(prior.positions, _frozen(w / total), _frozen(log_w - math.log(total)), xi, t)


def sequential_update(posterior: Posterior, model: NoiseModel, dxi: float, dt: float) -> Posterior:
    """Restart the filter on a fresh increment: reweight by exp(x dxi - psi0(x) dt).

    ``posterior_update(posterior, model, dxi, dt)``, labelled by the summed
    observation (xi + dxi, t + dt); the posterior itself when dxi = dt = 0.
    Composing sequential updates over consecutive increments reproduces the
    one-shot :func:`posterior_update` at the summed observation.

    Raises
    ------
    InvalidParameter
        If ``posterior`` is not a Posterior or ``model`` not a NoiseModel.
    NonFiniteValue, InvalidParameter, IncompatibleSupport, OffSupport, DegenerateWeights
        As :func:`posterior_update` at (dxi, dt).
    """
    _instances((posterior, Posterior), (model, NoiseModel))
    step = posterior_update(posterior, model, dxi, dt)
    if step.xi == 0.0 and step.t == 0.0:
        return posterior
    return Posterior(step.positions, step.weights, step.log_weights, posterior.xi + step.xi, posterior.t + step.t)


# Observation rows per block of posterior_expectations: a block's
# (rows x atoms) weight matrix stays cache-sized, and each block is one index
# that map_ordered hands to the caller or a helper thread.  Blocks share
# nothing, so results, and which observation an error names, do not depend on
# the worker count.
BLOCK_ROWS = 512


def posterior_expectations(prior: Prior, model: NoiseModel, xi, t, g) -> np.ndarray:
    """Posterior expectations of the columns of ``g`` at every observation (xi, t).

    The one-shot form: the posterior at (xi, t) has log-weights
    log pi(x) + x xi - psi0(x) t, so each observation is filtered on its own.
    Rows are taken in blocks of ``BLOCK_ROWS``; per block, the filter kernel
    (one matrix product [xi, t, 1] @ [x; -psi0(x); log pi], less the row
    maximum) gives the log-weights, and a second product of their
    exponentials with [1 | g] gives the normalizer and the unnormalized
    expectations.  Blocks run on up to ``worker_count()`` threads.

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
    NonFiniteValue, InvalidParameter
        If an observation is not finite, a time is negative or not finite,
        or ``g`` does not have one row per prior atom.
    IncompatibleSupport
        If a prior atom is outside the admissible set.
    OffSupport
        If some observation is off the family's support.
    DegenerateWeights
        If at some observation the log-weights are not finite: every
        reweighted atom underflows to zero probability, or one overflows.
    """
    check_compatibility(prior, model)
    xi, t = check_observation(model, xi, t)
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != len(prior):
        raise InvalidParameter(f"g must have shape (atoms, k) = ({len(prior)}, k), got {g.shape}")
    xi_rows = xi.reshape(-1)
    coef = _coefficients(prior, model)
    ones_g = np.column_stack([np.ones(len(prior)), g])
    out = np.empty((xi_rows.size, g.shape[1]))

    def block(start: int) -> None:
        stop = min(start + BLOCK_ROWS, xi_rows.size)
        log_w = _log_weights(coef, xi_rows[start:stop], t.flat[start:stop])
        w = np.exp(log_w, out=log_w)
        sums = w @ ones_g
        np.divide(sums[:, 1:], sums[:, :1], out=out[start:stop])

    map_ordered(block, range(0, xi_rows.size, BLOCK_ROWS))
    return out.reshape(xi.shape + (g.shape[1],))


def conditional_cdf(posterior: Posterior, y: float) -> float:
    """P(X <= y) under the posterior: the right-continuous step function
    (0 at y = -inf, 1 at y = inf, InvalidParameter at y = NaN)."""
    y = float(_real(y, "y"))
    if math.isnan(y):
        raise InvalidParameter("conditional_cdf needs a threshold y that is not NaN")
    idx = int(np.searchsorted(posterior.positions, y, side="right"))
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
        Unless theta, m and r - 1 are positive and finite.
    NonFiniteValue, InvalidParameter, OffSupport
        As ``noise.check_observation`` under Gamma(m, 1), whose psi0' is Y.
    """
    theta, m = _positive(theta, "theta"), _positive(m, "m")
    tau = _positive(float(_real(r, "r")) - 1.0, "r - 1") / m
    xi, t = map(float, check_observation(make_noise_model(GAMMA, (m, 1.0)), xi, t))
    return (xi + theta) / (t + tau)


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
    NonFiniteValue, InvalidParameter, IncompatibleSupport, OffSupport
        As :func:`posterior_update`, and InvalidParameter at t = 0 (the rate
        xi/t is undefined).
    """
    check_compatibility(posterior, model)
    xi, t = map(float, check_observation(model, xi, t))
    i0, clamped = inverse_marginal_clamped(model, xi / _positive(t, "t"))
    return MessageEstimate(float(i0), posterior.mean, bool(clamped))
