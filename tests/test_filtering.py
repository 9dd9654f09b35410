"""Posterior updates, sequential restarts, best estimates, gamma filter."""

import math

import numpy as np
import pytest

import levy_info as li
from conftest import FAMILY_PARAMS
from levy_info.filtering import posterior_expectations


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
    post = li.posterior_update(prior, model, 0.8, 2.0)
    assert abs(post.weights.sum() - 1.0) <= 1e-12
    np.testing.assert_array_equal(post.positions, prior.positions)
    assert post.xi == 0.8 and post.t == 2.0
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
    t = 2.0
    post_p = li.posterior_update(prior_p, poisson, math.e * t, t)
    assert li.estimate_message(post_p, poisson, math.e * t, t).i0 == pytest.approx(
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
