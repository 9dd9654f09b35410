"""Every public entry point at its numeric edges, in one table-driven sweep.

Each callable of ``levy_info.__all__`` has one valid call in ``CALLS``,
written as a function of its numeric arguments.  The sweep replaces one
argument at a time: a float by NaN, +-inf, -1e3 and 0, a count or seed by
2.5, -1 and NaN.  At a float edge a call returns finite output or raises a
``LevyInfoError``; a count edge is no count, and the call raises one.
Wrong types are out of scope: a TypeError propagates by design (errors.py).

Some outputs are infinite or NaN by contract and pass: an unbounded end of
an ``Interval``, the I0 of a clamped rate (-inf, flagged by
``MessageEstimate.clamped``) and the NaN reference and z of a study row.
``conditional_cdf`` takes y = +-inf by contract and returns 0 and 1.
"""

import dataclasses
import math

import numpy as np
import pytest

import levy_info as li

GAMMA = li.make_noise_model("Gamma", (1.0, 1.0))
VG = li.make_noise_model("VarianceGamma", (2.0,))
PRIOR = li.prior_from_atoms([(-1.0, 1.0), (0.5, 1.0)])
POST = li.posterior_update(PRIOR, GAMMA, 1.0, 1.0)
GRID = li.TimeGrid.regular(1.0, 4)
SAMPLES = np.linspace(-1.0, 1.0, 200)


def rng():
    return np.random.default_rng(0)


def path(xi=1.0, message=0.5):
    return li.InformationPath(li.TimeGrid([0.0, 1.0]), np.array([0.0, xi]), message, GAMMA)


def call(fn, counts=None, **floats):
    """A table entry: the call, its float arguments and its counts, each at a valid value."""
    return fn, floats, counts or {}


CALLS = {
    # noise models and characteristics
    "make_noise_model": call(lambda m, kappa, drift: li.make_noise_model("Gamma", (m, kappa), drift),
                             m=1.0, kappa=1.0, drift=0.0),
    "admissible_set": call(lambda: li.admissible_set(GAMMA)),
    "fiducial_exponent": call(lambda alpha: li.fiducial_exponent(GAMMA, alpha), alpha=0.5),
    "exponent_derivatives": call(lambda alpha: li.exponent_derivatives(GAMMA, alpha), alpha=0.5),
    "marginal_range": call(lambda: li.marginal_range(GAMMA)),
    "inverse_marginal": call(lambda y: li.inverse_marginal(GAMMA, y), y=2.0),
    "conditional_exponent": call(lambda x, alpha: li.conditional_exponent(GAMMA, x, alpha), x=0.25, alpha=0.25),
    "esscher_transform": call(lambda lam: li.esscher_transform(GAMMA, lam), lam=0.5),
    "sheffer_polynomials": call(lambda xi, t: li.sheffer_polynomials(GAMMA, xi, t), xi=2.0, t=1.0),
    "characteristic_triplet": call(lambda: li.characteristic_triplet(GAMMA)),
    "tilted_characteristics": call(lambda x: li.tilted_characteristics(GAMMA, x), x=0.5),
    # priors
    "prior_from_atoms": call(lambda x, w: li.prior_from_atoms([(x, w), (2.0, 1.0)]), x=0.0, w=1.0),
    "prior_from_density": call(lambda lo, hi, n: li.prior_from_density(np.ones_like, li.Interval(lo, hi), n),
                               counts={"n": 8}, lo=-1.0, hi=0.5),
    "check_compatibility": call(lambda: li.check_compatibility(PRIOR, GAMMA)),
    "prior_expectation": call(lambda: li.prior_expectation(PRIOR, abs)),
    # simulation
    "TimeGrid": call(lambda t: li.TimeGrid([0.0, t]), t=1.0),
    "TimeGrid.regular": call(lambda t_max, steps: li.TimeGrid.regular(t_max, steps), counts={"steps": 4}, t_max=1.0),
    "sample_messages": call(lambda size: li.sample_messages(PRIOR, size, rng()), counts={"size": 3}),
    "simulate_information_path": call(lambda: li.simulate_information_path(GAMMA, PRIOR, GRID, rng())),
    "simulate_ensemble": call(lambda n_paths, seed, tag: li.simulate_ensemble(GAMMA, PRIOR, GRID, n_paths, seed, tag),
                              counts={"n_paths": 3, "seed": 1, "tag": 0}),
    "increment_draws": call(lambda x, dt, size: li.increment_draws(GAMMA, x, dt, rng(), size),
                            counts={"size": 3}, x=0.0, dt=0.5),
    "representation_draws": call(
        lambda x, t, n, seed, tag: li.representation_draws(VG, "VG_subordinated", x, t, n, seed, tag),
        counts={"n": 5, "seed": 1, "tag": 0}, x=0.5, t=1.0),
    "simulate_bridge_path": call(lambda horizon, u_cap: li.simulate_bridge_path(GAMMA, PRIOR, horizon, GRID, rng(), u_cap),
                                 horizon=2.0, u_cap=100.0),
    # filtering and innovations
    "posterior_update": call(lambda xi, t: li.posterior_update(PRIOR, GAMMA, xi, t), xi=1.0, t=1.0),
    "sequential_update": call(lambda dxi, dt: li.sequential_update(POST, GAMMA, dxi, dt), dxi=0.5, dt=0.5),
    "posterior_expectations": call(lambda xi, t: li.posterior_expectations(PRIOR, GAMMA, [xi], [t], np.eye(2)),
                                   xi=1.0, t=1.0),
    "conditional_cdf": call(lambda y: li.conditional_cdf(POST, y), y=0.0),
    "best_estimate": call(lambda: li.best_estimate(POST, abs)),
    "gamma_linear_filter": call(li.gamma_linear_filter, theta=1.0, r=2.0, m=1.0, xi=1.0, t=1.0),
    # xi = 0 is a clamped rate, so the valid call's I0 is -inf
    "estimate_message": call(lambda xi, t: li.estimate_message(POST, GAMMA, xi, t), xi=0.0, t=1.0),
    "innovations_path": call(lambda xi: li.innovations_path(path(xi=xi), PRIOR), xi=1.0),
    "innovations_ensemble": call(
        lambda n_paths, seed, tag: li.innovations_ensemble(GAMMA, PRIOR, GRID, n_paths, seed, tag),
        counts={"n_paths": 3, "seed": 1, "tag": 0}),
    "compensated_path": call(lambda message: li.compensated_path(path(message=message), GAMMA), message=0.5),
    "martingale_test": call(lambda threshold: li.martingale_test(SAMPLES, threshold), threshold=3.5),
    # statistics
    "StudyReport": call(lambda threshold: li.StudyReport("demo", (), threshold), threshold=3.5),
    "zscore": call(li.zscore, estimate=1.0, reference=0.5, stderr=0.25),
    "mean_stderr": call(lambda: li.mean_stderr(SAMPLES)),
    "k_statistics": call(lambda: li.k_statistics(SAMPLES)),
    "jackknife_se": call(lambda: li.jackknife_se(SAMPLES)),
    "jackknife_cumulants": call(lambda: li.jackknife_cumulants(SAMPLES)),
    "jackknife_covariance": call(lambda: li.jackknife_covariance(SAMPLES, SAMPLES)),
    # studies
    "convergence_study": call(
        lambda t, epsilon, threshold, n_paths, seed: li.convergence_study(
            GAMMA, PRIOR, t, n_paths, seed, epsilon, threshold),
        counts={"n_paths": 1000, "seed": 1}, t=1.0, epsilon=0.5, threshold=3.5),
    "factorization_study": call(
        lambda t, threshold, n_paths, seed: li.factorization_study(GAMMA, PRIOR, 0.5j, 0.5j, t, n_paths, seed, threshold),
        counts={"n_paths": 200, "seed": 1}, t=1.0, threshold=3.5),
    "esscher_consistency_study": call(
        lambda lam, t, threshold, n_paths, seed: li.esscher_consistency_study(GAMMA, lam, t, n_paths, seed, threshold),
        counts={"n_paths": 200, "seed": 1}, lam=0.25, t=1.0, threshold=3.5),
    "representation_equivalence_study": call(
        lambda x, t, threshold, n_paths, seed: li.representation_equivalence_study(VG, x, t, n_paths, seed, threshold),
        counts={"n_paths": 200, "seed": 1}, x=0.5, t=1.0, threshold=3.5),
    "bridge_study": call(
        lambda x, horizon, s, t, threshold, n_paths, seed: li.bridge_study(
            GAMMA, x, horizon, s, t, n_paths, seed, threshold),
        counts={"n_paths": 200, "seed": 1}, x=0.3, horizon=2.0, s=0.5, t=1.0, threshold=3.5),
}

# Plain records hold what a checked entry point built (make_noise_model,
# admissible_set, prior_from_atoms, the samplers, the filter, the studies)
# and check nothing themselves; the error types take a message.
RECORDS = {"NoiseModel", "Interval", "LevyMeasure", "CharacteristicTriplet", "Prior", "InformationPath",
           "Posterior", "MessageEstimate", "InnovationsPath", "StudyRow", "CumulantEstimate"}

# (call, argument) -> why its float edges are not swept; None stands for every argument
EXEMPT = {
    ("zscore", None): "a NaN z is how a study fails: StudyReport counts its row as failed",
    ("increment_draws", "x"): "callers check the message once; an ensemble draws once per interval and chunk",
}

# (call, argument) -> why it takes a complex value.  Every other float argument
# of the table is read through errors._real before any float(): a complex
# value is a TypeError there, as float() makes it, rather than a number
# without its imaginary part
COMPLEX = {
    ("fiducial_exponent", "alpha"): "psi0 at complex alpha is the log characteristic function",
    ("conditional_exponent", "alpha"): "the conditional exponent is psi0's complex form, shifted by x",
}

FLOAT_EDGES = (math.nan, math.inf, -math.inf, -1e3, 0.0)
COUNT_EDGES = (2.5, -1, math.nan)


def finite(value) -> bool:
    """Every number in ``value`` is finite, but for the contract cases of the module docstring."""
    if isinstance(value, li.Interval):
        return not (math.isnan(value.lo) or math.isnan(value.hi))
    if isinstance(value, li.MessageEstimate) and value.clamped:
        return finite(value.posterior_mean)
    if isinstance(value, li.StudyRow):
        return finite((value.estimate, value.stderr))
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(map(finite, value))
    if isinstance(value, (float, complex, np.ndarray, np.number)):
        return bool(np.isfinite(value).all())
    return True  # names, flags, None


def edge_cases(kind: int):
    """(call, argument) pairs over the floats (kind 1) or the counts (kind 2) of the table."""
    return [pytest.param(name, arg, id=f"{name}.{arg}") for name, entry in CALLS.items() for arg in entry[kind]
            if (name, arg) not in EXEMPT and (name, None) not in EXEMPT]


def run(name, arg=None, edge=None):
    fn, floats, counts = CALLS[name]
    args = {**floats, **counts}
    if arg is not None:
        args[arg] = edge
    return fn(**args)


def test_the_table_covers_every_export():
    exported = {name for name in li.__all__ if callable(getattr(li, name))}
    errors = {name for name in exported if isinstance(getattr(li, name), type)
              and issubclass(getattr(li, name), Exception)}
    assert exported - errors - RECORDS - set(CALLS) == set()
    assert all(arg is None or arg in CALLS[name][1] for name, arg in EXEMPT)
    assert all(arg in CALLS[name][1] for name, arg in COMPLEX)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_valid_call_gives_finite_output(name):
    assert finite(run(name))


@pytest.mark.parametrize("edge", FLOAT_EDGES, ids=str)
@pytest.mark.parametrize("name, arg", edge_cases(1))
def test_a_float_at_its_edge_gives_finite_output_or_a_typed_error(name, arg, edge):
    try:
        out = run(name, arg, edge)
    except li.LevyInfoError:
        return
    assert finite(out), out


@pytest.mark.parametrize("edge", COUNT_EDGES, ids=str)
@pytest.mark.parametrize("name, arg", edge_cases(2))
def test_a_count_at_its_edge_raises_a_typed_error(name, arg, edge):
    with pytest.raises(li.LevyInfoError):
        run(name, arg, edge)


def test_finite_sees_a_nan_anywhere():
    assert finite((1.0, np.zeros(3), POST, li.admissible_set(GAMMA)))
    assert not finite(li.InformationPath(GRID, np.array([0.0, math.nan]), 0.5, GAMMA))
    assert not finite(li.MessageEstimate(-math.inf, 0.0, False))
    assert not finite([li.StudyRow("q", 1.0, 1.0, math.inf, 0.0)])
    assert not finite(li.Interval(math.nan, 1.0))


@pytest.mark.parametrize("name, arg", [case for case in edge_cases(1) if tuple(case.values) not in COMPLEX])
def test_a_complex_value_where_a_real_one_is_due_is_a_type_error(name, arg):
    with pytest.raises(TypeError, match="must be real"):
        run(name, arg, np.complex128(CALLS[name][1][arg] + 1j))
