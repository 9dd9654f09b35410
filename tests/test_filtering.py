"""Posterior updates, sequential restarts, best estimates, gamma filter."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levy_info as li
from conftest import FAMILY_PARAMS, window
from levy_info.filtering import posterior_expectations
from levy_info.noise import SUPPORT_BLOCK
from levy_info.prior import MARGIN


def poisson_bayes_weights(prior, m, n, t):
    """Brute-force Bayes with the Poisson counting pmf."""
    lam = m * t * np.exp(prior.positions)
    pmf = np.exp(-lam) * lam ** n / math.factorial(n)
    w = prior.weights * pmf
    return w / w.sum()


# ---------------------------------------------------------------------------
# posterior_update
# ---------------------------------------------------------------------------

def test_zero_time_returns_prior_exactly():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.3, 2.0), (0.7, 1.0)])
    post = li.posterior_update(prior, model, 0.0, 0.0)
    np.testing.assert_array_equal(post.weights, prior.weights)
    np.testing.assert_array_equal(post.positions, prior.positions)


def test_brownian_symmetric_prior_stays_balanced():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)])
    post = li.posterior_update(prior, model, 0.0, 3.7)
    np.testing.assert_allclose(post.weights, [0.5, 0.5], atol=1e-15)


def test_poisson_posterior_matches_bayes_oracle():
    # equal-weight atoms {0, ln 2}, m=1, xi=2, t=1:
    # weight on ln 2 is (4/e)/(1 + 4/e) = 4/(e + 4)
    model = li.make_noise_model("Poisson", (1.0,))
    prior = li.prior_from_atoms([(0.0, 1.0), (math.log(2.0), 1.0)])
    post = li.posterior_update(prior, model, 2.0, 1.0)
    want = 4.0 / (math.e + 4.0)
    assert post.weights[1] == pytest.approx(want, abs=1e-14)
    np.testing.assert_allclose(
        post.weights, poisson_bayes_weights(prior, 1.0, 2, 1.0), atol=1e-14)


def test_posterior_mass_and_support(model):
    prior = li.prior_from_atoms([(0.05, 1.0), (0.2, 2.0), (0.4, 0.5)])
    post = li.posterior_update(prior, model, 1.0, 2.0)  # on every family's support
    assert abs(post.weights.sum() - 1.0) <= 1e-12
    np.testing.assert_array_equal(post.positions, prior.positions)
    assert post.xi == 1.0 and post.t == 2.0
    np.testing.assert_allclose(
        post.log_weights, np.log(post.weights), atol=1e-12)


def test_posterior_moments():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)])
    post = li.posterior_update(prior, model, 0.5, 1.0)
    # weights proportional to exp(+-0.5 - 0.5)
    w1 = 1.0 / (1.0 + math.exp(-1.0))
    assert post.mean == pytest.approx(2.0 * w1 - 1.0, abs=1e-14)
    assert post.variance == pytest.approx(1.0 - post.mean ** 2, abs=1e-14)


def test_degenerate_weights_is_an_error():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-2.0, 1.0), (-3.0, 1.0)])
    with pytest.raises(li.DegenerateWeights):
        li.posterior_update(prior, model, 1e308, 1.0)


def test_posterior_expectations_validates_times_and_g():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(0.0, 1.0), (1.0, 1.0)])
    with pytest.raises(li.InvalidParameter):
        posterior_expectations(prior, model, [0.0, 1.0], [0.0, -1.0], np.eye(2))
    with pytest.raises(li.InvalidParameter):
        posterior_expectations(prior, model, [0.0, 1.0], [0.0, 1.0], np.eye(3))


def test_posterior_update_validates_observation():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(0.0, 1.0)])
    with pytest.raises(li.NonFiniteValue):
        li.posterior_update(prior, model, float("nan"), 1.0)
    with pytest.raises(li.InvalidParameter):
        li.posterior_update(prior, model, 0.0, -1.0)


def _filter_entry_points():
    """Each filter entry point as a call taking one observation (xi, t)."""
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)])
    post = li.posterior_update(prior, model, 1.0, 1.0)

    def along_a_path(xi, t):
        path = li.InformationPath(li.TimeGrid([0.0, t]), np.array([0.0, xi]), 1.0, model)
        return li.innovations_path(path, prior)

    return {
        "posterior_update": lambda xi, t: li.posterior_update(prior, model, xi, t),
        "sequential_update": lambda xi, t: li.sequential_update(post, model, xi, t),
        "posterior_expectations": lambda xi, t: posterior_expectations(
            prior, model, [0.0, xi], [0.0, t], np.eye(2)),
        "innovations_path": along_a_path,
        "estimate_message": lambda xi, t: li.estimate_message(post, model, xi, t),
    }


@pytest.mark.parametrize("entry", sorted(_filter_entry_points()))
@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
def test_every_entry_point_raises_non_finite_value_for_a_non_finite_xi(entry, xi):
    # one observation check: the batched filter used to raise
    # DegenerateWeights here and estimate_message returned i0 = nan
    with pytest.raises(li.NonFiniteValue, match="xi must be finite"):
        _filter_entry_points()[entry](xi, 1.0)


# a path's times are checked where its TimeGrid is built
@pytest.mark.parametrize("entry", sorted(set(_filter_entry_points()) - {"innovations_path"}))
@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_every_entry_point_rejects_a_bad_time(entry, t):
    with pytest.raises(li.InvalidParameter, match="time must be finite and >= 0"):
        _filter_entry_points()[entry](1.0, t)


# ---------------------------------------------------------------------------
# sequential_update
# ---------------------------------------------------------------------------

def test_sequential_identity_step():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    post = li.posterior_update(prior, model, 1.0, 1.0)
    again = li.sequential_update(post, model, 0.0, 0.0)
    assert again is post


def test_sequential_gamma_restart_factor():
    # reweighting by exp(x dxi - psi0(x) dt): ratio e^{0.5} * (1-0.5)^{1}
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    post = li.posterior_update(prior, model, 0.0, 0.0)
    stepped = li.sequential_update(post, model, 1.0, 1.0)
    ratio = stepped.weights[1] / stepped.weights[0]
    assert ratio == pytest.approx(math.exp(0.5) / 2.0, rel=1e-13)


def test_sequential_composition_equals_one_shot(model):
    prior = li.prior_from_atoms([(0.05, 1.0), (0.2, 1.0), (0.45, 1.0)])
    rng = np.random.default_rng(30)
    for _ in range(25):
        d1, d2 = rng.uniform(0.1, 1.5, size=2)
        x1 = float(li.increment_draws(model, 0.2, d1, rng))
        x2 = float(li.increment_draws(model, 0.2, d2, rng))
        one = li.posterior_update(prior, model, x1 + x2, d1 + d2)
        two = li.sequential_update(
            li.posterior_update(prior, model, x1, d1), model, x2, d2)
        np.testing.assert_allclose(two.weights, one.weights, atol=1e-12)
        assert two.xi == pytest.approx(one.xi)
        assert two.t == pytest.approx(one.t)


def test_sequential_recheck_guards_support():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    post = li.posterior_update(prior, model, 1.0, 1.0)
    shrunk = li.make_noise_model("Gamma", (1.0, 4.0))  # A = (-inf, 0.25)
    with pytest.raises(li.IncompatibleSupport):
        li.sequential_update(post, shrunk, 0.5, 0.5)


def test_sequential_margin_is_the_prior_check():
    # one admissibility rule: an atom within MARGIN of an open end of A is
    # refused by the restart as by the one-shot update
    model = li.make_noise_model("Gamma", (1.0, 1.0))  # A = (-inf, 1)
    post = li.posterior_update(li.prior_from_atoms([(0.0, 1.0)]), model, 1.0, 1.0)
    near = li.make_noise_model("Gamma", (1.0, 1.0 / (1.0 + MARGIN / 2.0)))  # A = (-inf, 1 + MARGIN/2)
    edge = li.prior_from_atoms([(1.0, 1.0)])
    with pytest.raises(li.IncompatibleSupport):
        li.posterior_update(edge, near, 1.0, 1.0)
    with pytest.raises(li.IncompatibleSupport):
        li.sequential_update(dataclasses.replace(post, positions=edge.positions), near, 1.0, 1.0)


def reweighting_scale(model, prior, dxis, dts):
    """max_i sum_j |x_i dxi_j| + |psi0(x_i) dt_j| + |log w_i|: the size of
    the terms either form of the update sums into a log-weight."""
    x = prior.positions
    psi = np.abs(li.fiducial_exponent(model, x))
    terms = np.abs(np.outer(x, dxis)).sum(axis=1) + psi * np.sum(dts) + np.abs(prior.log_weights)
    return float(terms.max())


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILY_PARAMS)),
    spots=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=8, unique=True),
    masses=st.lists(st.floats(0.1, 10.0), min_size=8, max_size=8),
    dts=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6),
    cut=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_sequential_updates_compose_to_the_one_shot_update(family, spots, masses, dts, cut, seed):
    model = li.make_noise_model(family, FAMILY_PARAMS[family])
    lo, hi = window(li.admissible_set(model))
    prior = li.prior_from_atoms(zip([lo + u * (hi - lo) for u in spots], masses))
    # xi_t split into increments on the support, drawn under one of the atoms
    rng = np.random.default_rng(seed)
    x = prior.positions[rng.integers(len(prior))]
    dxis = np.atleast_1d(li.increment_draws(model, x, np.array(dts), rng))
    xi, t = float(dxis.sum()), float(np.sum(dts))
    one = li.posterior_update(prior, model, xi, t)

    chained = li.posterior_update(prior, model, 0.0, 0.0)
    for dxi, dt in zip(dxis, dts):
        chained = li.sequential_update(chained, model, float(dxi), dt)
    # a restart: the posterior after the first `cut` increments is the prior
    # of the rest
    cut = min(cut, len(dts))
    head = li.posterior_update(prior, model, float(dxis[:cut].sum()), float(np.sum(dts[:cut])))
    restarted = li.posterior_update(head, model, float(dxis[cut:].sum()), float(np.sum(dts[cut:])))

    # each log-weight sums the same terms in another order: a few ulps of
    # their size per term, and a weight moves by at most twice the largest
    # log-weight error
    tol = 8.0 * (len(dts) + 2) * np.finfo(float).eps * max(1.0, reweighting_scale(model, prior, dxis, dts))
    for other in (chained, restarted):
        np.testing.assert_allclose(other.weights, one.weights, rtol=0.0, atol=tol)
        np.testing.assert_array_equal(other.positions, one.positions)
    assert chained.xi == pytest.approx(xi, rel=1e-12, abs=1e-12) and chained.t == pytest.approx(t)
    assert isinstance(restarted, li.Prior) and restarted.xi == float(dxis[cut:].sum())


def test_restart_from_an_underflowed_weight():
    # after xi = -800 at t = 1 the weight of x = 1 is exp(-1600) and
    # underflows to 0; its log-weight does not, and the next increment
    # brings the atom back
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)])
    post = li.posterior_update(prior, model, -800.0, 1.0)
    assert post.weights[1] == 0.0 and math.isfinite(post.log_weights[1])
    one = li.posterior_update(prior, model, 800.0, 2.0)
    for after in (li.sequential_update(post, model, 1600.0, 1.0),
                  li.posterior_update(post, model, 1600.0, 1.0)):
        np.testing.assert_array_equal(after.weights, [0.0, 1.0])
        np.testing.assert_allclose(after.log_weights, one.log_weights, rtol=1e-12)
    # the batched filter reads the same log-weights
    np.testing.assert_array_equal(
        posterior_expectations(post, model, [1600.0], 1.0, np.eye(2)), [[0.0, 1.0]])


# ---------------------------------------------------------------------------
# conditional_cdf / best_estimate
# ---------------------------------------------------------------------------

def test_conditional_cdf_steps():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)])
    post = li.posterior_update(prior, model, 0.0, 1.0)
    assert li.conditional_cdf(post, -2.0) == 0.0
    assert li.conditional_cdf(post, -1.0) == pytest.approx(0.5)  # right-cont.
    assert li.conditional_cdf(post, 0.0) == pytest.approx(0.5)
    assert li.conditional_cdf(post, 1.0) == pytest.approx(1.0)
    assert li.conditional_cdf(post, 5.0) == 1.0


def test_conditional_cdf_at_infinite_and_nan_thresholds():
    model = li.make_noise_model("Brownian", ())
    post = li.posterior_update(li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)]), model, 0.0, 1.0)
    assert li.conditional_cdf(post, -math.inf) == 0.0
    assert li.conditional_cdf(post, math.inf) == 1.0
    with pytest.raises(li.InvalidParameter, match="NaN"):
        li.conditional_cdf(post, math.nan)


def test_conditional_cdf_degenerate_prior():
    model = li.make_noise_model("Poisson", (1.0,))
    post = li.posterior_update(li.prior_from_atoms([(0.3, 1.0)]), model, 4.0, 2.0)
    assert li.conditional_cdf(post, 0.29) == 0.0
    assert li.conditional_cdf(post, 0.3) == 1.0


def test_best_estimate_examples():
    brown = li.make_noise_model("Brownian", ())
    sym = li.posterior_update(
        li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)]), brown, 0.0, 2.0)
    assert li.best_estimate(sym, lambda x: x) == pytest.approx(0.0, abs=1e-15)

    driftless = li.posterior_update(
        li.prior_from_atoms([(0.7, 1.0)]), brown, 1.3, 2.0)
    d1 = lambda x: li.exponent_derivatives(brown, x)[0]
    assert li.best_estimate(driftless, d1) == pytest.approx(0.7)

    poisson = li.make_noise_model("Poisson", (1.0,))
    post = li.posterior_update(
        li.prior_from_atoms([(0.0, 1.0), (math.log(2.0), 1.0)]), poisson, 2.0, 1.0)
    want = 4.0 / (math.e + 4.0) * math.log(2.0)
    assert li.best_estimate(post, lambda x: x) == pytest.approx(want, abs=1e-14)


def test_best_estimate_rejects_nonfinite():
    model = li.make_noise_model("Brownian", ())
    post = li.posterior_update(
        li.prior_from_atoms([(0.0, 1.0), (1.0, 1.0)]), model, 0.0, 1.0)
    with pytest.raises(li.NonFiniteValue):
        li.best_estimate(post, lambda x: math.inf if x > 0 else 0.0)


def test_estimate_mean_is_time_constant_martingale():
    # tower property: E[posterior mean of psi0'(X)] is constant in t
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    grid = li.TimeGrid([0.0, 0.5, 1.0, 2.0])
    _, xi, yhat, _ = li.innovations_ensemble(model, prior, grid, 20_000, seed=31)
    ref = li.prior_expectation(
        prior, lambda x: li.exponent_derivatives(model, x)[0])
    for j in range(yhat.shape[1]):
        mean, se = li.mean_stderr(yhat[:, j])
        assert abs(mean - ref) <= 3.5 * se + 1e-12, j


# ---------------------------------------------------------------------------
# gamma_linear_filter / estimate_message
# ---------------------------------------------------------------------------

def test_gamma_linear_filter_values():
    assert li.gamma_linear_filter(1.0, 2.0, 1.0, 3.0, 2.0) == pytest.approx(4.0 / 3.0)
    assert li.gamma_linear_filter(1.0, 3.0, 2.0, 0.0, 0.0) == pytest.approx(1.0)
    with pytest.raises(li.InvalidParameter):
        li.gamma_linear_filter(1.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(li.InvalidParameter):
        li.gamma_linear_filter(-1.0, 2.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("theta, r, m", [(math.inf, 2.0, 1.0), (1.0, math.inf, 1.0), (1.0, 2.0, math.inf),
                                         (math.nan, 2.0, 1.0), (1.0, 2.0, 0.0)])
def test_gamma_linear_filter_parameters_are_positive_and_finite(theta, r, m):
    # theta = inf used to return inf
    with pytest.raises(li.InvalidParameter):
        li.gamma_linear_filter(theta, r, m, 1.0, 1.0)


def test_gamma_linear_filter_checks_the_observation_under_gamma():
    # the observation is one of Gamma(m, 1); xi = -5 used to give Y = -2
    with pytest.raises(li.OffSupport):
        li.gamma_linear_filter(1.0, 2.0, 1.0, -5.0, 1.0)
    with pytest.raises(li.NonFiniteValue):
        li.gamma_linear_filter(1.0, 2.0, 1.0, math.nan, 1.0)


def test_estimate_message_inversions():
    brown = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    post = li.posterior_update(prior, brown, 2.0, 4.0)
    est = li.estimate_message(post, brown, 2.0, 4.0)
    assert est.i0 == pytest.approx(0.5)
    assert not est.clamped
    assert est.posterior_mean == pytest.approx(post.mean)

    poisson = li.make_noise_model("Poisson", (1.0,))
    prior_p = li.prior_from_atoms([(0.0, 1.0), (1.0, 1.0)])
    t = 5.0 / math.e  # a count of 5 at rate e
    post_p = li.posterior_update(prior_p, poisson, 5.0, t)
    assert li.estimate_message(post_p, poisson, 5.0, t).i0 == pytest.approx(
        1.0, abs=1e-12)

    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    prior_g = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    post_g = li.posterior_update(prior_g, gamma, 2.0, 1.0)
    assert li.estimate_message(post_g, gamma, 2.0, 1.0).i0 == pytest.approx(
        0.5, abs=1e-12)


def test_estimate_message_clamps_out_of_range_observations():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    post = li.posterior_update(prior, gamma, 0.0, 1.0)
    est = li.estimate_message(post, gamma, 0.0, 1.0)  # xi/t = 0 below range
    assert est.clamped
    assert np.isneginf(est.i0)
    with pytest.raises(li.InvalidParameter):
        li.estimate_message(post, gamma, 0.0, 0.0)


def test_estimate_message_checks_the_observation_like_the_filter():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    post = li.posterior_update(li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)]), gamma, 1.0, 1.0)
    with pytest.raises(li.OffSupport):
        li.estimate_message(post, gamma, -1.0, 1.0)
    with pytest.raises(li.IncompatibleSupport):
        li.estimate_message(post, li.make_noise_model("Gamma", (1.0, 2.0)), 1.0, 1.0)  # A = (-inf, 0.5)


# ---------------------------------------------------------------------------
# observations off the support, swapped arguments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family, params, xi", [
    ("Gamma", (1.0, 1.0), -5.0),
    ("Poisson", (1.0,), 0.37),
    ("Poisson", (1.0,), -1.0),
    ("NegativeBinomial", (1.0, 0.5), 1.5),
    ("InverseGaussian", (1.0, 2.0), -0.1),
])
def test_observation_off_support_raises(family, params, xi):
    assert issubclass(li.OffSupport, li.LevyInfoError)
    model = li.make_noise_model(family, params)
    prior = li.prior_from_atoms([(0.0, 1.0), (0.2, 1.0)])
    with pytest.raises(li.OffSupport, match="support"):
        li.posterior_update(prior, model, xi, 1.0)
    post = li.posterior_update(prior, model, 2.0, 1.0)
    with pytest.raises(li.OffSupport):
        li.sequential_update(post, model, xi, 1.0)
    # one bad observation in the second block of the check
    obs = np.full(SUPPORT_BLOCK + 5, 3.0)
    obs[SUPPORT_BLOCK + 2] = xi
    with pytest.raises(li.OffSupport, match=f"xi={xi:g}"):
        posterior_expectations(prior, model, obs, 1.0, np.eye(2))


@pytest.mark.parametrize("family, params", [
    ("Brownian", ()), ("VarianceGamma", (2.0,)), ("NormalInverseGaussian", (2.0, 0.5, 1.0))])
def test_real_families_take_any_observation(family, params):
    model = li.make_noise_model(family, params)
    prior = li.prior_from_atoms([(0.0, 1.0), (0.2, 1.0)])
    assert len(li.posterior_update(prior, model, -5.37, 1.0)) == 2


def test_drifted_support_is_checked_within_the_stated_tolerance():
    poisson = li.make_noise_model("Poisson", (1.0,), drift=0.3)
    prior = li.prior_from_atoms([(0.0, 1.0), (0.2, 1.0)])
    t = 0.7
    li.posterior_update(prior, poisson, 2.0 + 0.3 * t, t)
    li.posterior_update(prior, poisson, 2.0 + 0.3 * t + 1e-12, t)  # rounding of the sums
    with pytest.raises(li.OffSupport):
        li.posterior_update(prior, poisson, 2.0 + 0.3 * t + 1e-6, t)
    with pytest.raises(li.OffSupport):
        li.posterior_update(prior, poisson, 2.0, t)  # the drift not added
    # the tolerance is per observation: a large one next to it in the same
    # block does not widen it
    obs = np.array([1e6 + 0.3 * t, 2.0005 + 0.3 * t])
    with pytest.raises(li.OffSupport, match="xi=2.2105"):
        posterior_expectations(prior, poisson, obs, t, np.eye(2))
    with pytest.raises(li.OffSupport):
        li.posterior_update(prior, poisson, obs[1], t)
    # drifted paths as the sampler builds them, summed interval by interval
    grid = li.TimeGrid.regular(1.0, 50)
    gamma = li.make_noise_model("Gamma", (1.0, 1.0), drift=-0.4)
    for model in (poisson, li.make_noise_model("NegativeBinomial", (1.0, 0.5), drift=-1.9), gamma):
        _, _, yhat, _ = li.innovations_ensemble(model, prior, grid, 600, seed=3)
        assert np.isfinite(yhat).all()


def test_swapped_prior_and_model_is_invalid_parameter():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.2, 1.0)])
    with pytest.raises(li.InvalidParameter, match="Prior and a NoiseModel"):
        li.posterior_update(model, prior, 1.0, 1.0)
    with pytest.raises(li.InvalidParameter, match="Prior and a NoiseModel"):
        posterior_expectations(model, prior, [1.0], 1.0, np.eye(2))
    post = li.posterior_update(prior, model, 1.0, 1.0)
    with pytest.raises(li.InvalidParameter, match="Posterior and a NoiseModel"):
        li.sequential_update(model, post, 1.0, 1.0)
    with pytest.raises(li.InvalidParameter, match="Prior and a NoiseModel"):
        li.simulate_ensemble(prior, model, li.TimeGrid.regular(1.0, 2), 3, seed=1)


def test_swapped_path_and_prior_or_model_is_invalid_parameter():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.2, 1.0)])
    path = li.simulate_information_path(model, prior, li.TimeGrid.regular(1.0, 4), np.random.default_rng(0))
    with pytest.raises(li.InvalidParameter, match="InformationPath and a Prior"):
        li.innovations_path(prior, path)
    with pytest.raises(li.InvalidParameter, match="InformationPath and a NoiseModel"):
        li.compensated_path(model, path)
