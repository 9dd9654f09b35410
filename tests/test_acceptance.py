"""End-to-end acceptance checks.

Each test verifies one headline guarantee of the package at its stated
tolerance and runtime budget, and prints a single summary line

    [acceptance] C<n> <label>: PASS|FAIL (<elapsed>s / <budget>s)

so the whole scorecard is visible in one pytest run.
"""

import contextlib
import hashlib
import io
import math
import time

import numpy as np
import pytest

import levy_info as li
from levy_info.cli import main as cli_main
from levy_info.noise import Interval, inverse_marginal_clamped

from conftest import FAMILY_PARAMS

TWO_ATOM_PRIORS = {
    "Brownian": [(-1.0, 1.0), (1.0, 1.0)],
    "Poisson": [(0.0, 1.0), (math.log(2.0), 1.0)],
    "Gamma": [(0.0, 1.0), (0.5, 1.0)],
    "VarianceGamma": [(0.0, 1.0), (0.5, 1.0)],
    "NegativeBinomial": [(0.0, 1.0), (0.3, 1.0)],
    "InverseGaussian": [(0.5, 1.0), (1.0, 1.0)],
    "NormalInverseGaussian": [(-0.5, 1.0), (0.5, 1.0)],
}

INTERIOR_TILT = {
    "Brownian": 0.5,
    "Poisson": 0.3,
    "Gamma": 0.5,
    "VarianceGamma": 0.5,
    "NegativeBinomial": 0.3,
    "InverseGaussian": 0.8,
    "NormalInverseGaussian": 0.5,
}


@pytest.fixture
def report(capfd):
    def _report(num, label, ok, elapsed, budget):
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[acceptance] C{num} {label}: {verdict} "
                  f"({elapsed:.2f}s / {budget:.0f}s)", flush=True)
        assert ok, f"C{num} {label} failed"
        assert elapsed < budget, \
            f"C{num} exceeded {budget}s budget ({elapsed:.2f}s)"

    return _report


def d1(model):
    return lambda v: li.exponent_derivatives(model, v)[0]


def test_c01_poisson_exact_bayes_weights(report):
    start = time.perf_counter()
    priors = [
        [(0.0, 1.0), (math.log(2.0), 1.0)],
        [(-0.3, 0.10), (0.1, 0.20), (0.4, 0.30), (0.9, 0.25), (1.3, 0.15)],
    ]
    worst = 0.0
    for m in (0.5, 1.0, 3.0):
        model = li.make_noise_model("Poisson", (m,))
        for atoms in priors:
            prior = li.prior_from_atoms(atoms)
            rates = m * np.exp(prior.positions)
            for t in (0.5, 1.0, 5.0):
                for n in range(11):
                    post = li.posterior_update(prior, model, float(n), t)
                    pmf = np.exp(-rates * t) * (rates * t) ** n
                    brute = prior.weights * pmf
                    brute /= brute.sum()
                    worst = max(worst, float(np.abs(post.weights - brute).max()))
    report(1, "Poisson posterior matches brute-force Bayes",
           worst <= 1e-12, time.perf_counter() - start, 1.0)


def test_c02_gamma_posterior_weight_ratios(report):
    start = time.perf_counter()
    m, kappa = 2.0, 0.5
    model = li.make_noise_model("Gamma", (m, kappa))
    atoms = [(-0.5, 0.1), (0.3, 0.2), (1.2, 0.3), (1.8, 0.4)]
    prior = li.prior_from_atoms(atoms)
    x = prior.positions
    pi = prior.weights
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.1, 4.0))
        xi = float(rng.uniform(0.05, 6.0))
        post = li.posterior_update(prior, model, xi, t)
        got = post.weights / post.weights[0]
        expected = (pi / pi[0]) * ((1.0 - kappa * x) / (1.0 - kappa * x[0])) \
            ** (m * t) * np.exp(xi * (x - x[0]))
        worst = max(worst, float(np.abs(got / expected - 1.0).max()))
    report(2, "Gamma posterior weight ratios match conditional density",
           worst <= 1e-12, time.perf_counter() - start, 1.0)


def test_c03_gamma_linear_filter_vs_quadrature(report):
    start = time.perf_counter()
    theta, r, m = 2.0, 3.0, 1.0
    model = li.make_noise_model("Gamma", (m, 1.0))
    prior = li.prior_from_density(
        lambda x: (1.0 - x) ** (r - 1.0) * np.exp(-theta * (1.0 - x)),
        Interval(1.0 - 40.0, 1.0), 2001)
    rate = d1(model)
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(50):
        t = float(rng.uniform(0.2, 3.0))
        x = 1.0 - float(rng.gamma(r, 1.0 / theta))
        xi = float(np.asarray(li.increment_draws(model, x, t, rng)))
        linear = li.gamma_linear_filter(theta, r, m, xi, t)
        generic = li.prior_expectation(li.posterior_update(prior, model, xi, t), rate)
        worst = max(worst, abs(generic / linear - 1.0))
    report(3, "Gamma linear filter agrees with quadrature filter",
           worst <= 1e-4, time.perf_counter() - start, 5.0)


def test_c04_rate_inversion_round_trip(report):
    start = time.perf_counter()
    worst = 0.0
    for family, params in sorted(FAMILY_PARAMS.items()):
        model = li.make_noise_model(family, params)
        dom = li.admissible_set(model)
        lo = dom.lo if math.isfinite(dom.lo) else min(-4.0, dom.hi - 8.0)
        hi = dom.hi if math.isfinite(dom.hi) else max(4.0, dom.lo + 8.0)
        pad = 0.005 * (hi - lo)
        rate = d1(model)
        for a in np.linspace(lo + pad, hi - pad, 200):
            alpha, clamped = inverse_marginal_clamped(model, rate(a))
            worst = max(worst, math.inf if clamped else abs(alpha - a))
    report(4, "rate inversion round-trip on 99% of each admissible set",
           worst <= 1e-10, time.perf_counter() - start, 1.0)


def test_c05_convergence_law_all_families(report):
    start = time.perf_counter()
    ok = True
    for i, (family, params) in enumerate(sorted(FAMILY_PARAMS.items())):
        model = li.make_noise_model(family, params)
        prior = li.prior_from_atoms(TWO_ATOM_PRIORS[family])
        rep = li.convergence_study(model, prior, [1.0, 4.0, 16.0],
                                   20_000, seed=500 + i)
        ok = ok and rep.passed
    report(5, "signal-to-noise convergence law, 7 families",
           ok, time.perf_counter() - start, 60.0)


def test_c06_innovations_martingale_increments(report):
    start = time.perf_counter()
    grid = li.TimeGrid.regular(2.0, 200)
    idx = [0, 40, 80, 120, 160, 200]
    ok = True
    for i, family in enumerate(("Brownian", "Poisson", "Gamma")):
        model = li.make_noise_model(family, FAMILY_PARAMS[family])
        prior = li.prior_from_atoms(TWO_ATOM_PRIORS[family])
        _, _, _, M = li.innovations_ensemble(model, prior, grid,
                                             20_000, seed=600 + i)
        increments = np.diff(M[:, idx], axis=1).T
        rep = li.martingale_test(increments)
        ok = ok and rep.passed
    report(6, "innovations increments pass the martingale test",
           ok, time.perf_counter() - start, 120.0)


def test_c07_sequential_consistency(report):
    start = time.perf_counter()
    grid = li.TimeGrid.regular(1.0, 10)
    worst = 0.0
    for i, (family, params) in enumerate(sorted(FAMILY_PARAMS.items())):
        model = li.make_noise_model(family, params)
        prior = li.prior_from_atoms(TWO_ATOM_PRIORS[family])
        _, xi = li.simulate_ensemble(model, prior, grid, 100, seed=700 + i)
        for path in xi:
            direct = li.posterior_update(prior, model, float(path[-1]), 1.0)
            chained = li.posterior_update(prior, model, 0.0, 0.0)
            for j in range(1, grid.times.size):
                chained = li.posterior_update(
                    chained, model, float(path[j] - path[j - 1]), 0.1)
            worst = max(worst, float(
                np.abs(direct.weights - chained.weights).max()))
    report(7, "one-shot vs 10-step sequential posteriors",
           worst <= 1e-12, time.perf_counter() - start, 5.0)


def test_c08_esscher_consistency_all_families(report):
    start = time.perf_counter()
    ok = True
    for i, (family, params) in enumerate(sorted(FAMILY_PARAMS.items())):
        model = li.make_noise_model(family, params)
        rep = li.esscher_consistency_study(model, INTERIOR_TILT[family],
                                           1.0, 20_000, seed=800 + i)
        ok = ok and rep.passed
    report(8, "tilted simulation matches importance-weighted moments",
           ok, time.perf_counter() - start, 60.0)


def test_c09_representation_equivalence(report):
    start = time.perf_counter()
    ok = True
    vg = li.make_noise_model("VarianceGamma", (2.0,))
    nb = li.make_noise_model("NegativeBinomial", (1.0, 0.5))
    for i, (model, x) in enumerate([(vg, 0.0), (vg, 0.5),
                                    (nb, 0.0), (nb, 0.3)]):
        rep = li.representation_equivalence_study(model, x, 1.0,
                                                  50_000, seed=900 + i)
        ok = ok and rep.passed
    report(9, "alternative constructions agree on first three cumulants",
           ok, time.perf_counter() - start, 120.0)


def test_c10_factorization_grid(report):
    start = time.perf_counter()
    ok = True
    cases = [
        (li.make_noise_model("Brownian", ()), TWO_ATOM_PRIORS["Brownian"]),
        (li.make_noise_model("Gamma", (1.0, 1.0)), TWO_ATOM_PRIORS["Gamma"]),
    ]
    seed = 1000
    for model, atoms in cases:
        prior = li.prior_from_atoms(atoms)
        for a in (0.3, 0.6, 0.9):
            for b in (0.2, 0.5, 0.8):
                rep = li.factorization_study(model, prior, 1j * a, 1j * b,
                                             1.0, 20_000, seed)
                ok = ok and rep.passed
                seed += 1
    report(10, "weighted joint characteristic function factorizes",
           ok, time.perf_counter() - start, 30.0)


def test_c11_bridge_moments(report):
    start = time.perf_counter()
    ok = True
    for i, model in enumerate([li.make_noise_model("Brownian", ()),
                               li.make_noise_model("Gamma", (1.0, 1.0))]):
        rep = li.bridge_study(model, 0.3, 2.0, 0.5, 1.0, 20_000, seed=1100 + i)
        ok = ok and rep.passed
    report(11, "pinned-path mean and covariance",
           ok, time.perf_counter() - start, 30.0)


def test_c12_cli_determinism(report):
    start = time.perf_counter()

    def capture(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        return code, hashlib.sha256(out.getvalue().encode()).hexdigest()

    ok = True
    for argv in (["experiment", "convergence", "--seed", "42"],
                 ["simulate", "--seed", "42", "--paths", "50"]):
        code_a, hash_a = capture(argv)
        code_b, hash_b = capture(argv)
        ok = ok and code_a == code_b == 0 and hash_a == hash_b
    report(12, "seeded CLI reruns are byte-identical",
           ok, time.perf_counter() - start, 10.0)
