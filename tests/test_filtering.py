"""Posterior updates, sequential restarts, best estimates, gamma filter."""

import math

import numpy as np
import pytest

import levy_info as li
from conftest import FAMILY_PARAMS
from levy_info.filtering import posterior_expectations
from levy_info.noise import SUPPORT_BLOCK


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
