"""Posterior updates and restarts, posterior expectations, gamma filter."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levy_info as li
from conftest import FAMILY_PARAMS, interior_grid, window
from levy_info import filtering, noise
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
    assert type(post) is li.Prior
    np.testing.assert_allclose(
        post.log_weights, np.log(post.weights), atol=1e-12)


def test_posterior_moments():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)])
    post = li.posterior_update(prior, model, 0.5, 1.0)
    # weights proportional to exp(+-0.5 - 0.5)
    w1 = 1.0 / (1.0 + math.exp(-1.0))
    assert post.mean == pytest.approx(2.0 * w1 - 1.0, abs=1e-14)
    assert li.prior_expectation(post, lambda x: (x - post.mean) ** 2) == pytest.approx(1.0 - post.mean ** 2, abs=1e-14)


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
        "posterior_update_restart": lambda xi, t: li.posterior_update(post, model, xi, t),
        "posterior_expectations": lambda xi, t: posterior_expectations(
            prior, model, [0.0, xi], [0.0, t], np.eye(2)),
        "posterior_moments": lambda xi, t: filtering._posterior_moments(prior, model, [0.0, xi], [0.0, t]),
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


def test_the_batched_filter_refuses_times_that_do_not_broadcast():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    with pytest.raises(li.InvalidParameter, match=r"times of shape \(2,\) do not broadcast to xi's \(3,\)"):
        li.posterior_expectations(prior, gamma, np.ones(3), np.ones(2), np.eye(2))


@pytest.mark.parametrize("entry", ["posterior_update", "posterior_update_restart", "estimate_message",
                                   "gamma_linear_filter"])
@pytest.mark.parametrize("xi, t", [([1.0, 2.0], 1.0), (1.0, [1.0, 2.0]), (np.ones((1, 1)), 1.0)])
def test_the_single_observation_entry_points_refuse_an_array(entry, xi, t):
    # a single observation only: an array used to pass the check and then
    # fail in float() with a bare TypeError, or in broadcasting with a ValueError
    calls = dict(_filter_entry_points(), gamma_linear_filter=lambda xi, t: li.gamma_linear_filter(2.0, 3.0, 1.0, xi, t))
    with pytest.raises(li.InvalidParameter, match=r"scalar xi and t, got shapes \(.*\) and \(.*\)"):
        calls[entry](xi, t)


def test_times_that_do_not_broadcast_to_the_observations_are_invalid():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(0.0, 1.0), (1.0, 1.0)])
    with pytest.raises(li.InvalidParameter, match=r"times of shape \(2,\) do not broadcast to xi's \(\)"):
        posterior_expectations(prior, model, 2.0, [1.0, 2.0], np.eye(2))


@pytest.mark.parametrize("family", ["Brownian", "Gamma", "NormalInverseGaussian"])
@pytest.mark.parametrize("atoms", [2, 64, 256])
def test_the_one_row_update_is_the_batched_filter_to_rounding(family, atoms):
    # the same weights from two kernels: a one-row product and w.sum() against
    # a block product and w @ ones, so equal to rounding, not bitwise
    model = li.make_noise_model(family, FAMILY_PARAMS[family])
    rng = np.random.default_rng(atoms)
    prior = li.prior_from_atoms(list(zip(interior_grid(model, atoms), rng.uniform(0.5, 2.0, atoms))))
    for xi, t in ((0.0, 0.0), (0.7, 0.5), (3.0, 2.0), (1.0, 10.0)):
        got = li.posterior_update(prior, model, xi, t).weights
        want = posterior_expectations(prior, model, [xi], [t], np.eye(atoms))[0]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_posterior_expectations_names_the_atoms_where_g_is_not_finite(bad):
    # as prior_expectation: g used to give inf or nan rows
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
    g = [[bad, 1.0], [1.0, 1.0], [1.0, bad]]
    with pytest.raises(li.NonFiniteValue, match=re.escape("g is not finite on atoms [0.0, 2.0]")):
        posterior_expectations(prior, model, [0.0, 1.0], [1.0, 1.0], g)


def test_posterior_expectations_refuses_a_complex_g():
    # its imaginary part used to be dropped with only a ComplexWarning
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(0.0, 1.0), (1.0, 1.0)])
    with pytest.raises(TypeError, match="g must be real"):
        posterior_expectations(prior, model, [0.0, 1.0], [1.0, 1.0], [[1.0 + 2.0j], [1.0]])


def exact_expectations(prior, model, xi, t, g):
    """The one-shot posterior expectations of the columns of g, each row of
    log-weights less its exact maximum: the reference for the kernel."""
    psi = li.fiducial_exponent(model, prior.positions)
    log_w = np.log(prior.weights) + np.multiply.outer(xi, prior.positions) - np.multiply.outer(t, psi)
    w = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
    return (w / w.sum(axis=-1, keepdims=True)) @ g


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rows_far_above_the_sampled_shift_are_redone_exactly(threads, monkeypatch):
    # each message is the atom midway between two sampled atoms, so at large t
    # the row's maximum lies far above the sampled shift and its weights overflow
    monkeypatch.setenv("LEVY_INFO_THREADS", threads)
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_density(lambda x: np.exp(-0.5 * x * x), li.Interval(-3.0, 3.0), 256)
    x = prior.positions
    times = np.array([1e5, 1e6])
    xi = np.multiply.outer(x[8:248:32], times)
    g = np.column_stack([x, x * x])
    redone, kernel = [], filtering._log_weights

    def counting(coef, xi, t, shift_coef=None):
        # the kernel with no sample, s the exact maximum, is the call that redoes rows
        if shift_coef is None:
            redone.append(np.size(xi))
        return kernel(coef, xi, t, shift_coef)

    monkeypatch.setattr(filtering, "_log_weights", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = posterior_expectations(prior, model, xi, times, g)
    assert 0 < sum(redone) <= xi.size
    np.testing.assert_allclose(got, exact_expectations(prior, model, xi, times, g), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("family", ["Brownian", "Gamma", "NormalInverseGaussian"])
@pytest.mark.parametrize("atoms", [2, 31, 32, 64, 256])
def test_the_sampled_shift_matches_the_exact_maximum(family, atoms):
    # below 32 atoms every atom is sampled, so the block is the exact kernel's bit for bit
    model = li.make_noise_model(family, FAMILY_PARAMS[family])
    rng = np.random.default_rng(atoms)
    prior = li.prior_from_atoms(list(zip(interior_grid(model, atoms), rng.uniform(0.5, 2.0, atoms))))
    grid = li.TimeGrid.regular(5.0, 10)
    _, xi = li.simulate_ensemble(model, prior, grid, 30, seed=atoms)
    t = np.broadcast_to(grid.times, xi.shape)
    x = prior.positions
    g = np.column_stack([np.exp(x), 1.0 + x - x[0]])
    got = posterior_expectations(prior, model, xi, t, g)
    np.testing.assert_allclose(got, exact_expectations(prior, model, xi, t, g), rtol=1e-13, atol=0.0)
    if atoms <= 31:
        assert xi.size <= filtering.BLOCK_ROWS  # one block, so the same products
        w = np.exp(filtering._log_weights(filtering._coefficients(prior, model), xi.ravel(), t.ravel()))
        sums = w @ np.column_stack([np.ones(atoms), g])
        np.testing.assert_array_equal(got.reshape(-1, 2), sums[:, 1:] / sums[:, :1])


def update_moments(prior, model, xi, t):
    """The posterior mean and variance at each observation, from one
    posterior_update per row and prior_expectation over it."""
    moments = []
    for a, b in zip(np.ravel(xi), np.ravel(t)):
        post = li.posterior_update(prior, model, a, b)
        mean = li.prior_expectation(post, lambda x: x)
        moments.append((mean, li.prior_expectation(post, lambda x: (x - mean) ** 2)))
    return np.array(moments).T


def log_weight_rounding(prior, model, xi, t):
    """Per row, eps times the largest term of the log-weights x xi - psi0(x) t
    + log pi: two kernels that sum those terms in another order disagree on
    a weight by about this much, relative."""
    psi = np.abs(li.fiducial_exponent(model, prior.positions))
    terms = (np.multiply.outer(np.abs(np.ravel(xi)), np.abs(prior.positions))
             + np.multiply.outer(np.ravel(t), psi) + np.abs(prior.log_weights))
    return np.finfo(float).eps * terms.max(axis=1)


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_posterior_moments_match_the_one_row_update(family):
    # the paths run to t = 5, and one more set of paths to t = 10^6, where each
    # posterior concentrates on one atom: there the variance is far below the
    # atoms' scale and E[X^2] - mean^2 would cancel to noise of either sign.
    # Two kernels' weights differ by the log-weights' rounding, which grows
    # with t, so each row is held to a few times that rounding, relative to
    # the atoms' scale: scale for the mean, scale^2 for the variance
    model = li.make_noise_model(family, FAMILY_PARAMS[family])
    rng = np.random.default_rng(7)
    prior = li.prior_from_atoms(list(zip(interior_grid(model, 40), rng.uniform(0.5, 2.0, 40))))
    xi, t = [], []
    for grid in (li.TimeGrid.regular(5.0, 10), li.TimeGrid.regular(1e6, 2)):
        _, values = li.simulate_ensemble(model, prior, grid, 60, seed=3)
        xi.append(values.ravel())
        t.append(np.broadcast_to(grid.times, values.shape).ravel())
    xi, t = np.concatenate(xi), np.concatenate(t)
    assert xi.size > filtering.BLOCK_ROWS  # more than one block
    mean, var = filtering._posterior_moments(prior, model, xi, t)
    want_mean, want_var = update_moments(prior, model, xi, t)
    scale = np.abs(prior.positions).max()
    tol = 16 * (log_weight_rounding(prior, model, xi, t) + np.finfo(float).eps)
    assert (var >= 0.0).all()
    assert (np.abs(mean - want_mean) <= tol * scale).all()
    assert (np.abs(var - want_var) <= tol * scale * scale).all()
    assert (var[t == 1e6] < 1e-6 * scale * scale).mean() > 0.5  # mostly concentrated


# the layouts of the times the block loops read: t and the shape of the xi
# it is broadcast to
TIME_LAYOUTS = {
    "0-d": (np.array(2.5), (3, 5)),
    "1-D": (0.25 * np.arange(1.0, 8.0), (7,)),
    "grid broadcast over paths": (0.25 * np.arange(1.0, 6.0), (4, 5)),
    "middle-axis broadcast": (0.25 * np.arange(1.0, 4.0)[:, None], (2, 3, 4)),
    "transposed": (0.25 * np.arange(1.0, 25.0).reshape(2, 3, 4).transpose(1, 2, 0), (3, 4, 2)),
    "rows longer than a block": (0.25 * np.arange(1.0, 31.0), (3, 30)),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("layout", sorted(TIME_LAYOUTS))
def test_every_time_layout_filters_each_cell_at_its_own_time(layout, threads, monkeypatch):
    # blocks of 7 cells straddle the rows of every layout with rows, in the
    # filter's block loop and in the support check's
    monkeypatch.setenv("LEVY_INFO_THREADS", threads)
    monkeypatch.setattr(filtering, "BLOCK_ROWS", 7)
    monkeypatch.setattr(noise, "SUPPORT_BLOCK", 7)
    model = li.make_noise_model("Gamma", (2.0, 1.0))
    prior = li.prior_from_atoms(list(zip(interior_grid(model, 5), [1.0, 2.0, 1.0, 0.5, 1.0])))
    t, shape = TIME_LAYOUTS[layout]
    cells = np.broadcast_to(t, shape)
    xi = np.random.default_rng(1).uniform(0.0, 4.0, shape)
    weights = posterior_expectations(prior, model, xi, t, np.eye(5))
    for index in np.ndindex(shape):
        want = li.posterior_update(prior, model, xi[index], cells[index]).weights
        np.testing.assert_allclose(weights[index], want, rtol=1e-13, atol=0.0)
    mean, var = filtering._posterior_moments(prior, model, xi, t)
    assert mean.shape == var.shape == shape
    want_mean, want_var = update_moments(prior, model, xi, cells)
    scale = np.abs(prior.positions).max()
    tol = 16 * (log_weight_rounding(prior, model, xi, cells) + np.finfo(float).eps)
    assert (np.abs(mean.ravel() - want_mean) <= tol * scale).all()
    assert (np.abs(var.ravel() - want_var) <= tol * scale * scale).all()


@pytest.mark.parametrize("layout", sorted(TIME_LAYOUTS))
def test_every_time_layout_names_an_observation_off_the_support_with_its_own_time(layout, monkeypatch):
    monkeypatch.setattr(noise, "SUPPORT_BLOCK", 7)
    model = li.make_noise_model("Gamma", (2.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    t, shape = TIME_LAYOUTS[layout]
    xi = np.ones(shape)
    index = np.unravel_index(2 * xi.size // 3, shape)
    xi[index] = -1.0
    message = re.escape(f"xi=-1 at t={np.broadcast_to(t, shape)[index]:g} ")
    with pytest.raises(li.OffSupport, match=message):
        posterior_expectations(prior, model, xi, t, np.eye(2))
    with pytest.raises(li.OffSupport, match=message):
        filtering._posterior_moments(prior, model, xi, t)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rows_redone_exactly_give_the_exact_kernels_moments(threads, monkeypatch):
    # the construction of test_rows_far_above_the_sampled_shift_are_redone_exactly,
    # with times from 10^3 to 10^6: rows far above the sampled shift are redone,
    # and the exponentials written back into the block, so their moments are
    # the one-row update's, however concentrated the posterior.  Weights off
    # the maximum differ by the log-weights' rounding, relative, and so does
    # the variance, which they make up
    monkeypatch.setenv("LEVY_INFO_THREADS", threads)
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_density(lambda x: np.exp(-0.5 * x * x), li.Interval(-3.0, 3.0), 256)
    x = prior.positions
    times = np.geomspace(1e3, 1e6, 40)
    xi = np.multiply.outer(x[8:248:32], times)
    t = np.broadcast_to(times, xi.shape)
    redone, kernel = [], filtering._log_weights

    def counting(coef, xi, t, shift_coef=None):
        if shift_coef is None:
            redone.append(np.size(xi))
        return kernel(coef, xi, t, shift_coef)

    monkeypatch.setattr(filtering, "_log_weights", counting)
    mean, var = filtering._posterior_moments(prior, model, xi, times)
    assert 0 < sum(redone) < xi.size
    want_mean, want_var = update_moments(prior, model, xi, t)
    tol = 16 * (log_weight_rounding(prior, model, xi, t) + np.finfo(float).eps)
    mean, var = mean.ravel(), var.ravel()
    assert (var > 0.0).all()
    assert (np.abs(mean - want_mean) <= tol * 3.0).all()
    assert (np.abs(var - want_var) <= tol * want_var).all()


def test_the_variance_is_finite_where_its_unnormalized_sum_overflows():
    # at t = 0 the log-weights are log pi.  Of 32 atoms, the sampled ones are
    # the even and the last; two odd ones carry the mass, 707 above every
    # sampled atom, so e is e^707 ~ 1e307 there and S = e @ [1 | x] is finite
    # (no row is redone), but sum_i e_i (x_i - mean)^2 = 30.25 S_0 overflows
    # unless the weights are normalized first
    x = 0.5 * (np.arange(32) - 15.5)
    w = np.full(32, math.exp(-707.0))
    w[[5, 27]] = 1.0
    prior = li.prior_from_atoms(list(zip(x, w)))
    model = li.make_noise_model("Brownian", ())
    mean, var = filtering._posterior_moments(prior, model, [0.0, 0.0], [0.0, 0.0])
    np.testing.assert_allclose(mean, 0.25, rtol=1e-13)
    np.testing.assert_allclose(var, 30.25, rtol=1e-13)


# ---------------------------------------------------------------------------
# posterior_update from a posterior: the restart
# ---------------------------------------------------------------------------

def test_a_restart_at_zero_keeps_the_posterior():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    post = li.posterior_update(prior, model, 1.0, 1.0)
    assert li.posterior_update(post, model, 0.0, 0.0) is post


def test_restart_gamma_factor():
    # reweighting by exp(x dxi - psi0(x) dt): ratio e^{0.5} * (1-0.5)^{1}
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    post = li.posterior_update(prior, model, 0.0, 0.0)
    stepped = li.posterior_update(post, model, 1.0, 1.0)
    ratio = stepped.weights[1] / stepped.weights[0]
    assert ratio == pytest.approx(math.exp(0.5) / 2.0, rel=1e-13)


def test_two_updates_equal_one_shot(model):
    prior = li.prior_from_atoms([(0.05, 1.0), (0.2, 1.0), (0.45, 1.0)])
    rng = np.random.default_rng(30)
    for _ in range(25):
        d1, d2 = rng.uniform(0.1, 1.5, size=2)
        x1 = float(li.increment_draws(model, 0.2, d1, rng))
        x2 = float(li.increment_draws(model, 0.2, d2, rng))
        one = li.posterior_update(prior, model, x1 + x2, d1 + d2)
        two = li.posterior_update(li.posterior_update(prior, model, x1, d1), model, x2, d2)
        np.testing.assert_allclose(two.weights, one.weights, atol=1e-12)


def test_a_chain_of_updates_reweights_by_each_increment():
    # each step reweights the last posterior, a plain Prior, by its increment
    # alone: the weights are those of the one-shot update at the sums
    model = li.make_noise_model("Poisson", (2.0,))
    prior = li.prior_from_atoms([(-0.5, 1.0), (0.0, 2.0), (0.7, 1.0)])
    chained, xi, t = prior, 0.0, 0.0
    for dxi, dt in ((1.0, 0.5), (0.0, 0.25), (3.0, 1.5), (2.0, 0.125)):
        last = chained
        chained = li.posterior_update(chained, model, dxi, dt)
        xi, t = xi + dxi, t + dt
        assert type(chained) is li.Prior
        ratio = np.exp(chained.log_weights - last.log_weights)
        np.testing.assert_allclose(ratio / ratio[1], np.exp(chained.positions * dxi - li.fiducial_exponent(
            model, chained.positions) * dt), rtol=1e-13)
    np.testing.assert_allclose(chained.weights, li.posterior_update(prior, model, xi, t).weights, atol=1e-14)


def test_restart_recheck_guards_support():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    post = li.posterior_update(prior, model, 1.0, 1.0)
    shrunk = li.make_noise_model("Gamma", (1.0, 4.0))  # A = (-inf, 0.25)
    with pytest.raises(li.IncompatibleSupport):
        li.posterior_update(post, shrunk, 0.5, 0.5)


def test_restart_margin_is_the_prior_check():
    # one admissibility rule: an atom within MARGIN of an open end of A is
    # refused by the restart as by the one-shot update
    model = li.make_noise_model("Gamma", (1.0, 1.0))  # A = (-inf, 1)
    post = li.posterior_update(li.prior_from_atoms([(0.0, 1.0)]), model, 1.0, 1.0)
    near = li.make_noise_model("Gamma", (1.0, 1.0 / (1.0 + MARGIN / 2.0)))  # A = (-inf, 1 + MARGIN/2)
    edge = li.prior_from_atoms([(1.0, 1.0)])
    with pytest.raises(li.IncompatibleSupport):
        li.posterior_update(edge, near, 1.0, 1.0)
    with pytest.raises(li.IncompatibleSupport):
        li.posterior_update(dataclasses.replace(post, positions=edge.positions), near, 1.0, 1.0)


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
def test_updates_over_increments_compose_to_the_one_shot_update(family, spots, masses, dts, cut, seed):
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
        chained = li.posterior_update(chained, model, float(dxi), dt)
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


def test_restart_from_an_underflowed_weight():
    # after xi = -800 at t = 1 the weight of x = 1 is exp(-1600) and
    # underflows to 0; its log-weight does not, and the next increment
    # brings the atom back
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)])
    post = li.posterior_update(prior, model, -800.0, 1.0)
    assert post.weights[1] == 0.0 and math.isfinite(post.log_weights[1])
    one = li.posterior_update(prior, model, 800.0, 2.0)
    after = li.posterior_update(post, model, 1600.0, 1.0)
    np.testing.assert_array_equal(after.weights, [0.0, 1.0])
    np.testing.assert_allclose(after.log_weights, one.log_weights, rtol=1e-12)
    # the batched filter reads the same log-weights
    np.testing.assert_array_equal(
        posterior_expectations(post, model, [1600.0], 1.0, np.eye(2)), [[0.0, 1.0]])


# ---------------------------------------------------------------------------
# prior_expectation over a posterior
# ---------------------------------------------------------------------------

def test_prior_expectation_over_a_posterior():
    brown = li.make_noise_model("Brownian", ())
    sym = li.posterior_update(
        li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)]), brown, 0.0, 2.0)
    assert li.prior_expectation(sym, lambda x: x) == pytest.approx(0.0, abs=1e-15)

    driftless = li.posterior_update(
        li.prior_from_atoms([(0.7, 1.0)]), brown, 1.3, 2.0)
    d1 = lambda x: li.exponent_derivatives(brown, x)[0]
    assert li.prior_expectation(driftless, d1) == pytest.approx(0.7)

    poisson = li.make_noise_model("Poisson", (1.0,))
    post = li.posterior_update(
        li.prior_from_atoms([(0.0, 1.0), (math.log(2.0), 1.0)]), poisson, 2.0, 1.0)
    want = 4.0 / (math.e + 4.0) * math.log(2.0)
    assert li.prior_expectation(post, lambda x: x) == pytest.approx(want, abs=1e-14)


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
        li.posterior_update(post, model, xi, 1.0)
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
    with pytest.raises(li.InvalidParameter, match="Prior and a NoiseModel"):
        li.simulate_ensemble(prior, model, li.TimeGrid.regular(1.0, 2), 3, seed=1)


def test_swapped_path_and_prior_is_invalid_parameter():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.2, 1.0)])
    path = li.simulate_information_path(model, prior, li.TimeGrid.regular(1.0, 4), np.random.default_rng(0))
    with pytest.raises(li.InvalidParameter, match="InformationPath and a Prior"):
        li.innovations_path(prior, path)
