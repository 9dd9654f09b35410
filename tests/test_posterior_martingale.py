"""The filter checked without Monte Carlo: the posterior is a martingale.

For any prior, noise family, observation (xi, t) and s > 0,
E[pi_{t+s}(x | xi + D)] = pi_t(x), where the increment D over s follows the
posterior mixture over the atoms of the increment laws given X = x (Doob,
"Application of the theory of martingales", 1949).  So does the posterior
mean of psi0'(X), which the innovations integrate.  The identity holds for
a kernel only if its log-weights x xi - psi0(x) t + log pi(x) are those of
the family's own increments, so it checks the kernel's coefficients and
psi0 against each family's law.

The expectation over D is computed, not sampled, with the laws taken from
scipy and numpy rather than from ``levy_info.noise``: an exact sum over
scipy's pmf for Poisson and NegativeBinomial noise (the tilt by x makes
the rate m e^x and the NB parameter q e^x), and Gauss-Hermite quadrature
over the normal law N(x s, s) for Brownian noise.  There is no seed.
"""

import numpy as np
import pytest
from scipy import stats

import levy_info as li
from levy_info import filtering

LATTICE = 200  # increment values summed for lattice noise; the tails beyond are below 1e-200
HERMITE = 80  # Gauss-Hermite nodes for Brownian noise


def poisson_law(params, x, s):
    (m,) = params
    values = np.arange(LATTICE, dtype=float)
    return values, stats.poisson.pmf(values, m * np.exp(x) * s)


def negative_binomial_law(params, x, s):
    m, q = params
    values = np.arange(LATTICE, dtype=float)
    return values, stats.nbinom.pmf(values, m * s, 1.0 - q * np.exp(x))


def brownian_law(params, x, s):
    nodes, weights = np.polynomial.hermite.hermgauss(HERMITE)
    return x * s + np.sqrt(2.0 * s) * nodes, weights / np.sqrt(np.pi)


LAWS = {"Poisson": poisson_law, "NegativeBinomial": negative_binomial_law, "Brownian": brownian_law}

# family, params, atoms (position, weight) whose psi0 differ, and (xi, t, s);
# the last Brownian case puts all but 9e-4 of the posterior on one atom
CASES = [
    ("Poisson", (1.0,), [(0.0, 0.4), (np.log(2.0), 0.6)], (3.0, 1.0, 0.5)),
    ("NegativeBinomial", (1.0, 0.5), [(0.0, 0.4), (0.3, 0.6)], (3.0, 1.0, 0.5)),
    ("Brownian", (), [(-1.0, 0.2), (0.5, 0.5), (2.0, 0.3)], (0.3, 1.0, 0.5)),
    ("Brownian", (), [(-1.0, 0.2), (0.5, 0.5), (2.0, 0.3)], (-2.0, 4.0, 1.0)),
    ("Brownian", (), [(-1.0, 0.2), (0.5, 0.5), (2.0, 0.3)], (30.0, 20.0, 2.0)),
]
IDS = ["poisson", "nb", "brownian", "brownian-later", "brownian-concentrated"]

# One bound per family on the gap of a correct kernel, set from the gaps
# measured over these cases at 1 and 2 threads: at most 1.1e-16 (Poisson),
# 2.2e-16 (NegativeBinomial), 2.2e-16 (Brownian) and 2.0e-15 (Brownian, the
# concentrated case), rounding in the sums of 200 lattice terms or of the
# 80-node rule.  Each bound is about 4x the family's largest gap.
BOUND = {"Poisson": 5e-16, "NegativeBinomial": 1e-15, "Brownian": 1e-14}
# A kernel whose psi0 row is scaled by 0.99 opens gaps of 4.4e-4 (NB) to
# 9.2e-4 (Brownian) at the first three cases, ten orders above the bounds.
DEFECT = 1e-4


def martingale_gaps(model, prior, xi, t, s):
    """max over atoms of |E[pi_{t+s}(x | xi + D)] - pi_t(x)|, and the same
    gap for the posterior mean of psi0'(X)."""
    g = np.column_stack([np.eye(len(prior)), li.exponent_derivatives(model, prior.positions)[0]])
    now = li.posterior_expectations(prior, model, xi, t, g)
    later = np.zeros_like(now)
    for weight, x in zip(now[:-1], prior.positions):
        values, probs = LAWS[model.family](model.params, x, s)
        later += weight * (probs @ li.posterior_expectations(prior, model, xi + values, t + s, g))
    gaps = np.abs(later - now)
    return float(gaps[:-1].max()), float(gaps[-1])


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("family, params, atoms, observation", CASES, ids=IDS)
def test_the_posterior_is_a_martingale_under_each_familys_increments(family, params, atoms, observation,
                                                                    threads, monkeypatch):
    # blocks of 16 rows spread each sum over both threads
    monkeypatch.setenv("LEVY_INFO_THREADS", threads)
    monkeypatch.setattr(filtering, "BLOCK_ROWS", 16)
    model, prior = li.make_noise_model(family, params), li.prior_from_atoms(atoms)
    weights_gap, mean_gap = martingale_gaps(model, prior, *observation)
    assert weights_gap <= BOUND[family] and mean_gap <= BOUND[family], (weights_gap, mean_gap)


@pytest.mark.parametrize("family, params, atoms, observation", CASES[:3], ids=IDS[:3])
def test_a_kernel_with_psi0_off_by_one_percent_breaks_the_martingale(family, params, atoms, observation,
                                                                     monkeypatch):
    exponent = filtering.fiducial_exponent
    monkeypatch.setattr(filtering, "fiducial_exponent", lambda model, x: 0.99 * exponent(model, x))
    model, prior = li.make_noise_model(family, params), li.prior_from_atoms(atoms)
    weights_gap, _ = martingale_gaps(model, prior, *observation)
    assert weights_gap >= DEFECT
