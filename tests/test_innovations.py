"""Innovations decomposition, compensated paths, martingale tests."""

import math
import re

import numpy as np
import pytest

import levy_info as li
from conftest import interior_grid
from levy_info.filtering import BLOCK_ROWS

# Kernel vs recursion: |yhat - reference| <= KERNEL_TOL * max(1, |reference|).
# Set from float64 rounding, not fitted to the kernel: both sides compute the
# same posterior and differ only in the order of their roundings.
KERNEL_TOL = 1e-12


def compensated_path(path, model):
    """The conditional martingale m_t = xi_t - psi0'(x) t of ``path``, read
    with its hidden message x, which the filter itself never sees."""
    return path.values - li.exponent_derivatives(model, path.message)[0] * path.grid.times


def degenerate(x):
    return li.prior_from_atoms([(x, 1.0)])


# ---------------------------------------------------------------------------
# innovations_path
# ---------------------------------------------------------------------------

def test_decomposition_is_exact(model):
    rng = np.random.default_rng(40)
    prior = li.prior_from_atoms([(0.1, 1.0), (0.3, 1.0)])
    grid = li.TimeGrid.regular(1.0, 20)
    path = li.simulate_information_path(model, prior, grid, rng)
    inn = li.innovations_path(path, prior)
    np.testing.assert_array_equal(inn.xi, path.values)
    # M is defined as xi - integral, so this identity is bitwise
    np.testing.assert_array_equal(inn.M, inn.xi - inn.integral)
    np.testing.assert_allclose(inn.integral + inn.M, inn.xi, atol=1e-12)
    assert inn.M[0] == 0.0
    assert inn.integral[0] == 0.0


def test_degenerate_prior_reduces_to_compensated_path():
    rng = np.random.default_rng(41)
    model = li.make_noise_model("Brownian", ())
    grid = li.TimeGrid.regular(2.0, 50)
    path = li.simulate_information_path(model, degenerate(0.7), grid, rng)
    inn = li.innovations_path(path, degenerate(0.7))
    comp = compensated_path(path, model)
    np.testing.assert_allclose(inn.M, comp, atol=1e-12)
    # Brownian with X = x0: M recovers the driving noise xi - x0 t
    np.testing.assert_allclose(comp, path.values - 0.7 * grid.times, atol=1e-12)


def test_innovations_path_needs_two_grid_points():
    rng = np.random.default_rng(42)
    model = li.make_noise_model("Brownian", ())
    path = li.simulate_information_path(model, degenerate(0.0),
                                        li.TimeGrid([0.0]), rng)
    with pytest.raises(li.InvalidParameter):
        li.innovations_path(path, degenerate(0.0))
    with pytest.raises(li.InvalidParameter, match="at least two points"):
        li.innovations_ensemble(model, degenerate(0.0), li.TimeGrid([0.0]), 3, seed=1)


def test_innovations_mean_zero_brownian():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)])
    grid = li.TimeGrid.regular(1.0, 100)
    _, _, _, M = li.innovations_ensemble(model, prior, grid, 20_000, seed=43)
    mean, se = li.mean_stderr(M[:, -1])
    assert abs(mean) <= 3.5 * se


def test_innovations_ensemble_matches_per_path_filter():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    grid = li.TimeGrid.regular(1.0, 8)
    x, xi, yhat, M = li.innovations_ensemble(model, prior, grid, 16, seed=44)
    d1 = lambda v: li.exponent_derivatives(model, v)[0]
    for i in range(xi.shape[0]):
        post = li.posterior_update(prior, model, 0.0, 0.0)
        assert yhat[i, 0] == pytest.approx(li.prior_expectation(post, d1), abs=1e-12)
        for j in range(1, len(grid)):
            post = li.posterior_update(post, model,
                                       float(xi[i, j] - xi[i, j - 1]),
                                       float(grid.times[j] - grid.times[j - 1]))
            assert yhat[i, j] == pytest.approx(
                li.prior_expectation(post, d1), abs=1e-12)


def sequential_yhat(model, prior, times, xi):
    """Reference filter: step through time over whole (paths x atoms) matrices.

    This is the per-step recursion the one-shot kernel replaced; it reweights
    by each increment and renormalizes after every step.
    """
    x = prior.positions
    psi = li.fiducial_exponent(model, x)
    dpsi = li.exponent_derivatives(model, x)[0]
    dts = np.diff(times)
    log_w = np.tile(np.log(prior.weights), (xi.shape[0], 1))
    yhat = np.empty_like(xi)
    yhat[:, 0] = prior.weights @ dpsi
    for j in range(1, times.size):
        log_w += np.outer(xi[:, j] - xi[:, j - 1], x) - psi * dts[j - 1]
        log_w -= log_w.max(axis=1, keepdims=True)
        w = np.exp(log_w)
        w /= w.sum(axis=1, keepdims=True)
        yhat[:, j] = w @ dpsi
    return yhat


def assert_matches_recursion(yhat, reference):
    bound = KERNEL_TOL * np.maximum(1.0, np.abs(reference))
    err = np.abs(yhat - reference)
    assert np.all(err <= bound), f"off by up to {float(np.max(err / bound)):.3g} x tolerance"


@pytest.mark.parametrize("n_atoms", [1, 2, 256])
def test_one_shot_filter_matches_sequential_recursion(model, n_atoms):
    prior = li.prior_from_atoms(zip(interior_grid(model, n_atoms), np.linspace(1.0, 3.0, n_atoms)))
    grid = li.TimeGrid.regular(1.0, 20)
    _, xi, yhat, _ = li.innovations_ensemble(model, prior, grid, 37, seed=50)
    assert xi.size % BLOCK_ROWS != 0  # a partial last block
    assert_matches_recursion(yhat, sequential_yhat(model, prior, grid.times, xi))
    long_grid = li.TimeGrid.regular(1.0, 10_000)
    path = li.simulate_information_path(model, prior, long_grid, np.random.default_rng(51))
    inn = li.innovations_path(path, prior)
    reference = sequential_yhat(model, prior, long_grid.times, path.values[None, :])[0]
    assert_matches_recursion(inn.yhat, reference)


def test_innovations_ensemble_independent_of_worker_count(monkeypatch):
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_density(lambda x: np.ones_like(x), li.Interval(-1.0, 0.5), 16)
    grid = li.TimeGrid.regular(1.0, 20)
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("LEVY_INFO_THREADS", threads)
        _, xi, yhat, M = li.innovations_ensemble(model, prior, grid, 100, seed=52)
        runs.append((yhat.tobytes(), M.tobytes()))
    assert xi.size > 2 * BLOCK_ROWS  # several blocks to share out
    assert runs[0] == runs[1]


def test_overflowing_observation_raises_degenerate_weights():
    # as posterior_update at (1e308, 1): x * xi is -inf at every atom
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-2.0, 1.0), (-3.0, 1.0)])
    path = li.InformationPath(li.TimeGrid([0.0, 1.0]), np.array([0.0, 1e308]), -2.0, model)
    with pytest.raises(li.DegenerateWeights):
        li.innovations_path(path, prior)


@pytest.mark.parametrize("atoms", [2, 256])
@pytest.mark.parametrize("first, second", [(1e308, 1.5e308), (1.5e308, 1e308)])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_first_overflowing_observation_of_an_ensemble_is_named(first, second, threads, atoms, monkeypatch):
    # two overflowing cells in different blocks: whichever block fails first
    # in time, the error names the first cell in row order, as a serial filter
    # does; with 256 atoms the cell is caught by its weight sum, not by the
    # sampled shift, and named when its row is redone with the exact maximum
    monkeypatch.setenv("LEVY_INFO_THREADS", threads)
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(x, 1.0) for x in np.linspace(-3.0, -2.0, atoms)])
    grid = li.TimeGrid.regular(1.0, 20)
    xi = np.zeros((100, len(grid)))
    xi[3, 5], xi[60, 7] = first, second
    assert (3 * len(grid) + 5) // BLOCK_ROWS < (60 * len(grid) + 7) // BLOCK_ROWS
    with pytest.raises(li.DegenerateWeights, match=re.escape(f"xi={first:g}, t={grid.times[5]:g} ")):
        li.posterior_expectations(prior, model, xi, grid.times, np.eye(len(prior)))


@pytest.mark.parametrize("family, params, drift, values", [
    ("Gamma", (1.0, 1.0), 0.0, [0.0, 3.0, 1.0]),
    ("Poisson", (1.0,), 0.0, [0.0, 3.0, 2.0]),
    ("Poisson", (1.0,), 0.3, [0.0, 3.3, 2.6]),
    ("NegativeBinomial", (1.0, 0.5), 0.0, [0.0, 2.0, 1.0]),
    ("InverseGaussian", (1.0, 2.0), 0.0, [0.0, 0.5, 0.4]),
])
def test_path_with_increments_off_the_support_raises(family, params, drift, values):
    # every observation xi_t is on the support, but no message makes a
    # nondecreasing process step down
    model = li.make_noise_model(family, params, drift)
    prior = li.prior_from_atoms([(0.0, 1.0), (0.2, 1.0)])
    grid = li.TimeGrid([0.0, 1.0, 2.0])
    path = li.InformationPath(grid, np.array(values), 0.0, model)
    with pytest.raises(li.OffSupport, match="support"):
        li.innovations_path(path, prior)
    ok = li.InformationPath(grid, np.array([0.0, 3.0, 4.0]) + drift * grid.times, 0.0, model)
    assert np.isfinite(li.innovations_path(ok, prior).M).all()


# ---------------------------------------------------------------------------
# compensated_path
# ---------------------------------------------------------------------------

def test_compensated_poisson_mean_zero():
    model = li.make_noise_model("Poisson", (1.0,))
    grid = li.TimeGrid([0.0, 5.0])
    _, xi = li.simulate_ensemble(model, degenerate(0.0), grid, 20_000, seed=45)
    comp = xi[:, -1] - 1.0 * 5.0  # psi0'(0) = m
    mean, se = li.mean_stderr(comp)
    assert abs(mean) <= 3.0 * se


def test_compensated_gamma_mean_zero():
    model = li.make_noise_model("Gamma", (2.0, 1.0))
    grid = li.TimeGrid([0.0, 1.0])
    rng = np.random.default_rng(46)
    vals = []
    for _ in range(5000):
        path = li.simulate_information_path(model, degenerate(0.5), grid, rng)
        vals.append(compensated_path(path, model)[-1])
    mean, se = li.mean_stderr(vals)
    assert abs(mean) <= 3.0 * se


@pytest.mark.parametrize("values", [[0.0, 0.5, 1.0], [[0.0, 0.5]]], ids=["three-values", "one-row-matrix"])
def test_path_values_must_fit_the_grid(values):
    # three values on two times broadcast to a bare ValueError; a (1, 2)
    # matrix was decomposed as if it were a path
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    path = li.InformationPath(li.TimeGrid([0.0, 1.0]), np.array(values), 0.5, model)
    with pytest.raises(li.InvalidParameter, match="do not fit"):
        li.innovations_path(path, degenerate(0.5))


# ---------------------------------------------------------------------------
# martingale_test
# ---------------------------------------------------------------------------

def test_martingale_test_all_zero_passes():
    report = li.martingale_test(np.zeros((3, 500)))  # 3 intervals
    assert report.passed
    assert all(row.z == 0.0 for row in report.rows)
    assert len(report.rows) == 3


def test_martingale_test_flags_shifted_mean():
    rng = np.random.default_rng(48)
    report = li.martingale_test(rng.normal(1.0, 1.0, size=10_000))
    assert not report.passed
    assert abs(report.rows[0].z) > 50.0


def test_martingale_test_sheffer_brownian():
    rng = np.random.default_rng(49)
    b = rng.standard_normal(20_000)
    q2 = 0.5 * (b * b - 1.0)  # Sheffer Q^2 at t=1 minus its value at 0
    report = li.martingale_test(q2)
    assert report.passed


def test_martingale_test_nan_samples_fail():
    report = li.martingale_test(np.full(200, np.nan))
    assert not report.passed
    assert report.max_abs_z == math.inf


def test_martingale_test_requires_samples():
    with pytest.raises(li.TooFewSamples):
        li.martingale_test(np.zeros(99))


def test_martingale_rows_are_each_intervals_mean_and_stderr():
    # every input shape reduces to a contiguous float copy per interval, and
    # its row is that copy's mean and standard error, bit for bit
    rng = np.random.default_rng(50)
    block = rng.standard_normal((300, 3))
    ragged = [rng.standard_normal(150), rng.standard_normal(400).tolist()]
    for samples, groups in ((block.T, list(block.T)), (ragged, ragged), (block[:, 1], [block[:, 1]]),
                            (block[:, 2].tolist(), [block[:, 2]])):
        rows = li.martingale_test(samples).rows
        assert len(rows) == len(groups)
        for row, g in zip(rows, groups):
            g = np.ascontiguousarray(g, dtype=float)
            assert (row.estimate, row.stderr) == (float(g.mean()), float(g.std(ddof=1) / math.sqrt(g.size)))
    with pytest.raises(li.TooFewSamples, match="interval 1"):
        li.martingale_test([np.zeros(100), np.zeros(99)])


def test_martingale_interval_labels_and_report_name():
    report = li.martingale_test(np.zeros((2, 200)), threshold=4.0)
    assert report.name == "martingale"
    assert report.threshold == 4.0
    assert [row.quantity for row in report.rows] == [
        "increment[0]", "increment[1]"]
