"""Optimal Bayesian filtering of the message from an observed path.

The posterior over message atoms after observing xi at time t reweights the
prior by exp(x xi - psi0(x) t); the exponent grows linearly in t, so all
weight arithmetic happens in log space and a single renormalization per
update.  The restart property makes the sequential form (update a
posterior by the increments since) consistent with the one-shot form, so
one update, :func:`posterior_update`, serves both, and batched callers use
the closed form, which filters every observation (xi_j, t_j) on its own,
with no recursion along the path: the innovations decomposition through
:func:`posterior_expectations`, and ``levy-info filter`` through
``_posterior_moments``, which reduces each block to the posterior mean and
variance (and through ``posterior_expectations`` for ``--weights``).  One
kernel, ``_log_weights``, serves both forms, and one block loop,
``_each_block``, every batched caller, behind one ``noise.check_observation``.

The kernel shifts each row of log-weights by s inside its one matrix
product, ``[xi, t, 1, s] @ [x; -psi0(x); log pi; -1]``.  For a single
update s is the row's maximum.  For a block of rows it is the maximum over a
fixed sample of atoms (every ``max(1, K // 16)``-th of K and the last, so
every atom when K < 32), which needs no full-width max or subtract pass.  A
sampled s is at most the row's maximum, so the largest weight is at least 1
and the weight sum cannot underflow; it overflows only where the maximum lies
more than ~709 above the sample (a very concentrated posterior) or the
observation is degenerate.  Such rows are redone with the exact maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeights, InvalidParameter, NonFiniteValue, _positive, _real
from .noise import (GAMMA, NoiseModel, check_observation, check_scalar_observation, fiducial_exponent,
                    inverse_marginal_clamped, make_noise_model)
from .prior import Prior, _frozen, check_compatibility
from .rng import map_ordered

__all__ = [
    "posterior_update",
    "posterior_expectations",
    "gamma_linear_filter",
    "MessageEstimate",
    "estimate_message",
]


def _coefficients(prior: Prior, model: NoiseModel) -> np.ndarray:
    """The kernel's coefficients [x; -psi0(x); log pi; -1] over the prior atoms."""
    x = prior.positions
    return np.stack([x, -fiducial_exponent(model, x), prior.log_weights, np.full(x.size, -1.0)])


def _shift_coefficients(coef: np.ndarray) -> np.ndarray:
    """Rows x, -psi0(x), log pi of ``coef`` as columns, at the atoms whose
    largest log-weight shifts a row of a block: every ``max(1, K // 16)``-th
    of the K atoms and the last, so every atom where K < 32."""
    atoms = coef.shape[1]
    return np.ascontiguousarray(coef[:3, np.r_[0:atoms - 1:max(1, atoms // 16), atoms - 1]].T)


def _log_weights(coef: np.ndarray, xi, t, shift_coef=None) -> np.ndarray:
    """The filter kernel: [xi, t, 1, s] @ coef, coef = [x; -psi0(x); log pi; -1],
    gives the posterior log-weights at each observation (1-D xi and t, or one
    pair), each row less s, its largest log-weight over the atoms of
    ``shift_coef`` (from :func:`_shift_coefficients`).  With no
    ``shift_coef``, s is the row's maximum, and DegenerateWeights if that is
    not finite (every atom underflows, or one overflows).  A sampled s is at
    most the maximum, so the largest weight is at least 1; a row whose s is
    not finite, or lies more than ~709 below the maximum, has weights whose
    sum is not finite, and is to be redone with the maximum.

    The caller ignores overflow and invalid operations (``np.errstate``):
    rows that are not finite raise here or are redone."""
    exact = shift_coef is None
    obs = np.empty((4, np.size(xi)))
    obs[0] = xi
    obs[1] = t
    obs[2] = 1.0
    shift = np.max((coef[:3].T if exact else shift_coef) @ obs[:3], axis=0, out=obs[3])
    if exact and not np.isfinite(shift).all():
        bad = obs[:, np.argmin(np.isfinite(shift))]
        raise DegenerateWeights(
            f"posterior log-weights at xi={bad[0]:g}, t={bad[1]:g} are not finite; "
            "the observation is numerically impossible under every prior atom"
        )
    return obs.T @ coef


def posterior_update(prior: Prior, model: NoiseModel, xi: float, t: float) -> Prior:
    """Posterior over message atoms given the observation xi at time t.

    Weights w_i' are proportional to w_i exp(x_i xi - psi0(x_i) t): the
    one-row case of the kernel of :func:`posterior_expectations`, normalized
    in log space.  At xi = t = 0 the posterior is the prior itself.  Its
    weights equal the row of ``posterior_expectations(prior, model, [xi],
    [t], np.eye(len(prior)))`` to rounding, not bitwise: the two sum the
    weights with different kernels.

    A posterior is a prior again, on the prior's atoms, and the filter
    restarts from it: updating it by the observation made since, (xi, t)
    the increments, reproduces the one-shot update at their sums to
    rounding.

    Raises
    ------
    NonFiniteValue, InvalidParameter
        If xi is not finite, t is negative or not finite, or either is not a
        scalar.
    IncompatibleSupport
        If a prior atom fails :func:`~levy_info.prior.check_compatibility`.
    OffSupport
        If ``xi - drift t`` is a value the family cannot produce at time t
        (within ``noise.SUPPORT_RTOL`` where the drift is not zero).
    DegenerateWeights
        If every reweighted atom underflows to zero probability.
    """
    check_compatibility(prior, model)
    xi, t = check_scalar_observation(model, xi, t)
    if xi == 0.0 and t == 0.0:
        return prior
    with np.errstate(over="ignore", invalid="ignore"):  # the kernel raises on a row that is not finite
        log_w = _log_weights(_coefficients(prior, model), xi, t)[0]
    w = np.exp(log_w)
    total = w.sum()
    return Prior(prior.positions, _frozen(w / total), _frozen(log_w - math.log(total)))


# Observation rows per block of the batched filter: a block's
# (rows x atoms) weight matrix stays cache-sized, and each block is one index
# that map_ordered hands to the caller or a helper thread.  Blocks share
# nothing, so results, and which observation an error names, do not depend on
# the worker count.
BLOCK_ROWS = 512


def _each_block(prior: Prior, model: NoiseModel, xi: np.ndarray, t: np.ndarray, columns: np.ndarray,
                write) -> None:
    """The block loop of :func:`posterior_expectations` and
    ``_posterior_moments``, over checked observations: per block of
    ``BLOCK_ROWS`` rows, e the exponentiated kernel weights and S = e @
    ``columns`` (atoms x k, ones first), a row whose S is not finite redone
    with the exact maximum and written back into e; then ``write(rows, e,
    S)``, rows the block's slice of the flattened observations.  e is the
    block's own array, and ``write`` may overwrite it."""
    xi_rows, t_rows = xi.reshape(-1), t.reshape(-1)
    coef = _coefficients(prior, model)
    sampled = _shift_coefficients(coef)

    def block(start: int) -> None:
        rows = slice(start, start + BLOCK_ROWS)
        xi_block, t_block = xi_rows[rows], t_rows[rows]
        with np.errstate(over="ignore", invalid="ignore"):  # rows that are not finite are redone
            e = _log_weights(coef, xi_block, t_block, sampled)
            sums = np.exp(e, out=e) @ columns
            if not np.isfinite(sums).all():
                redo = np.flatnonzero(~np.isfinite(sums).all(axis=1))
                e[redo] = np.exp(_log_weights(coef, xi_block[redo], t_block[redo]))
                sums[redo] = e[redo] @ columns
        write(rows, e, sums)

    map_ordered(block, range(0, xi_rows.size, BLOCK_ROWS))


def posterior_expectations(prior: Prior, model: NoiseModel, xi, t, g) -> np.ndarray:
    """Posterior expectations of the columns of ``g`` at every observation (xi, t).

    The one-shot form: the posterior at (xi, t) has log-weights
    log pi(x) + x xi - psi0(x) t, so each observation is filtered on its own.
    Rows are taken in blocks of ``BLOCK_ROWS``; per block, the filter kernel
    (one matrix product [xi, t, 1, s] @ [x; -psi0(x); log pi; -1], s each
    row's largest log-weight over a fixed sample of atoms) gives the shifted
    log-weights, and a second product of their exponentials with [1 | g]
    gives the normalizer and the unnormalized expectations.  A row whose sums
    are not finite (its maximum lies far above the sample, or the observation
    is degenerate) is redone with s the row's maximum.  Blocks run on up to
    ``worker_count()`` threads.

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
        If an observation is not finite, a time is negative, not finite or
        not broadcast to ``xi``, or ``g`` does not have one row per prior
        atom or is not finite at some atom (the message names the atoms).
    TypeError
        If ``g`` is complex.
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
    g = np.asarray(_real(g, "g"), dtype=float)
    if g.ndim != 2 or g.shape[0] != len(prior):
        raise InvalidParameter(f"g must have shape (atoms, k) = ({len(prior)}, k), got {g.shape}")
    finite = np.isfinite(g).all(axis=1)
    if not finite.all():
        raise NonFiniteValue(f"g is not finite on atoms {prior.positions[~finite].tolist()}")
    out = np.empty((xi.size, g.shape[1]))

    def write(rows, e, sums):
        np.divide(sums[:, 1:], sums[:, :1], out=out[rows])

    _each_block(prior, model, xi, t, np.column_stack([np.ones(len(prior)), g]), write)
    return out.reshape(xi.shape + (g.shape[1],))


def _posterior_moments(prior: Prior, model: NoiseModel, xi, t) -> tuple:
    """Posterior mean and variance, each of the shape of ``xi``, at every
    observation (xi, t): :func:`posterior_expectations` with its checks,
    each block reduced where it is exponentiated.  With S = e @ [1 | x], the
    mean is S_1 / S_0 and the variance sum_i e_i (x_i - mean)^2 / S_0, never
    E[X^2] - mean^2, which cancels to negative values where the posterior
    concentrates on one atom."""
    check_compatibility(prior, model)
    xi, t = check_observation(model, xi, t)
    x = prior.positions
    # sum_i e_i (x_i - mean)^2 <= S_0 (x_K - x_1)^2, with room for the mean's rounding
    span = float(x[-1] - x[0])
    reach = 2.0 * span * span
    mean, var = np.empty(xi.size), np.empty(xi.size)

    def write(rows, e, sums):
        m = np.divide(sums[:, 1], sums[:, 0], out=mean[rows])
        d = x - m[:, None]
        np.multiply(d, d, out=d)
        scale = sums[:, 0]
        if not float(scale.max()) * reach < math.inf:  # the sum may overflow: weigh by e / S_0, at most 1
            np.divide(e, sums[:, :1], out=e)
            scale = 1.0
        np.divide(np.einsum("ij,ij->i", e, d), scale, out=var[rows])

    _each_block(prior, model, xi, t, np.column_stack([np.ones(len(prior)), x]), write)
    return mean.reshape(xi.shape), var.reshape(xi.shape)


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
        As ``noise.check_scalar_observation`` under Gamma(m, 1), whose psi0' is Y.
    """
    theta, m = _positive(theta, "theta"), _positive(m, "m")
    tau = _positive(float(_real(r, "r")) - 1.0, "r - 1") / m
    xi, t = check_scalar_observation(make_noise_model(GAMMA, (m, 1.0)), xi, t)
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


def estimate_message(posterior: Prior, model: NoiseModel, xi: float, t: float) -> MessageEstimate:
    """Point estimates of the message: inverse-rate I0(xi/t) and posterior mean.

    Raises
    ------
    NonFiniteValue, InvalidParameter, IncompatibleSupport, OffSupport
        As :func:`posterior_update`, and InvalidParameter at t = 0 (the rate
        xi/t is undefined).
    """
    check_compatibility(posterior, model)
    xi, t = check_scalar_observation(model, xi, t)
    i0, clamped = inverse_marginal_clamped(model, xi / _positive(t, "t"))
    return MessageEstimate(float(i0), posterior.mean, bool(clamped))
