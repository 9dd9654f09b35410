"""Statistical studies: convergence, factorization, Esscher, representations, bridge."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levy_info as li
from conftest import FAMILY_PARAMS, interior_grid, window
from levy_info import experiments
from levy_info.experiments import _exceed_thresholds
from levy_info.noise import inverse_marginal_clamped
from levy_info.prior import MARGIN
from levy_info.rng import CHUNK


def rows_by_name(report):
    return {row.quantity: row for row in report.rows}


# ---------------------------------------------------------------------------
# convergence_study
# ---------------------------------------------------------------------------

def test_convergence_brownian_reference_is_one_over_t():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)])
    report = li.convergence_study(model, prior, [1.0, 4.0], 2000, seed=60)
    rows = rows_by_name(report)
    assert rows["mse[t=1]"].reference == 1.0
    assert rows["mse[t=4]"].reference == 0.25
    assert report.passed


def test_convergence_gamma_reference_literal():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    report = li.convergence_study(model, prior, [1.0, 4.0, 16.0], 4000, seed=61)
    rows = rows_by_name(report)
    assert rows["mse[t=4]"].reference == pytest.approx(0.625, abs=1e-15)
    assert report.passed


def test_convergence_exceedance_rows_decrease():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    report = li.convergence_study(model, prior, [1.0, 4.0, 16.0], 8000,
                                  seed=62, epsilon=0.25)
    ex = [row for row in report.rows if row.quantity.startswith("exceed")]
    assert len(ex) == 3
    for row in ex:
        assert row.informational and math.isnan(row.z)
    for a, b in zip(ex, ex[1:]):
        assert b.estimate <= a.estimate + 2.0 * math.hypot(a.stderr, b.stderr)


def test_convergence_study_deterministic_and_validated():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)])
    r1 = li.convergence_study(model, prior, [1.0], 1500, seed=63)
    r2 = li.convergence_study(model, prior, [1.0], 1500, seed=63)
    assert [(q.quantity, q.estimate) for q in r1.rows] == \
           [(q.quantity, q.estimate) for q in r2.rows]
    with pytest.raises(li.InvalidParameter):
        li.convergence_study(model, prior, [1.0], 999, seed=63)
    with pytest.raises(li.InvalidParameter):
        li.convergence_study(model, prior, [4.0, 1.0], 2000, seed=63)
    for epsilon in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(li.InvalidParameter, match="epsilon"):
            li.convergence_study(model, prior, [1.0], 1500, seed=63, epsilon=epsilon)


def materialized_convergence_rows(model, prior, times, n_paths, seed, epsilon=0.5):
    """The convergence rows from the whole (n_paths, len(grid)) ensemble, one
    new array per step: the reference the run-by-run fold must reproduce."""
    messages, xi = li.simulate_ensemble(model, prior, li.TimeGrid(np.concatenate(([0.0], times))), n_paths, seed)
    idx = np.searchsorted(prior.positions, messages)
    d1, d2, _ = li.exponent_derivatives(model, prior.positions)
    hi, lo = (side[idx] for side in _exceed_thresholds(model, prior.positions, epsilon))
    reference_d2 = float(prior.weights @ d2)
    rows = []
    for j, t in enumerate(times, start=1):
        rate = xi[:, j] / t
        sq = (rate - d1[idx]) ** 2
        est, se, ref = float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(n_paths)), reference_d2 / t
        rows.append(li.StudyRow(f"mse[t={t:g}]", est, ref, se, li.zscore(est, ref, se)))
        p = float(((rate >= hi) | (rate <= lo)).mean())
        se_p = math.sqrt(p * (1.0 - p) / n_paths)
        rows.append(li.StudyRow(f"exceed[t={t:g},eps={epsilon:g}]", p, math.nan, se_p, math.nan))
    return tuple(rows)


@pytest.mark.parametrize("one_atom", [False, True])
@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_convergence_rows_are_those_of_the_whole_ensemble(family, one_atom, monkeypatch):
    model = li.make_noise_model(family, FAMILY_PARAMS[family])
    a, b = interior_grid(model, 4)[1:3]
    prior = li.prior_from_atoms([(a, 1.0)] if one_atom else [(a, 0.4), (b, 0.6)])
    times = np.array([0.5, 1.0, 4.0, 16.0])
    want = repr(materialized_convergence_rows(model, prior, times, 9 * CHUNK + 17, 31))
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("LEVY_INFO_THREADS", threads)
        assert repr(li.convergence_study(model, prior, times, 9 * CHUNK + 17, 31).rows) == want


def inversion_exceeds(model, atom, epsilon, rates):
    """|I0(rate) - atom| >= epsilon, inverting psi0' at every rate: the
    reference for the per-atom thresholds the study compares rates with.
    I0 is compared with atom +- epsilon, the ends the study's thresholds are
    taken at; the difference I0 - atom would round, and next to an end of A
    may round up to epsilon where I0 is strictly inside atom - epsilon."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        i0, _ = inverse_marginal_clamped(model, rates)
        return (i0 >= atom + epsilon) | (i0 <= atom - epsilon)


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILY_PARAMS)),
    tilt=st.floats(0.05, 0.95),
    drift=st.sampled_from([0.0, 0.7, -1.9]),
    where=st.floats(0.0, 0.995),
    epsilon=st.floats(1e-3, 4.0),
    to_lower_end=st.booleans(),
    spots=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
    gap=st.floats(0.0, 1e3),
)
def test_exceed_thresholds_match_inversion(family, tilt, drift, where, epsilon, to_lower_end, spots, gap):
    base = li.make_noise_model(family, FAMILY_PARAMS[family])
    lo, hi = window(li.admissible_set(base))
    model = li.esscher_transform(base, lo + tilt * (hi - lo))
    model = dataclasses.replace(model, drift=model.drift + drift)
    domain = li.admissible_set(model)
    lo, hi = window(domain)
    atom = lo + where * (hi - lo)
    if not domain.contains(atom):  # where = 0 at an open end of A
        atom = lo + 0.005 * (hi - lo)
    if to_lower_end and np.isfinite(domain.lo) and atom > domain.lo:
        epsilon = atom - domain.lo  # x - epsilon on the lower end of A
    (upper,), (lower,) = _exceed_thresholds(model, np.array([atom]), epsilon)

    # rates across the range of psi0', at and around each threshold, at and
    # below the finite lower end of the range (where I0 clamps), and NaN
    inside = lo + np.array(spots) * (hi - lo)
    rates = [li.exponent_derivatives(model, inside[domain.contains(inside)])[0], [math.nan]]
    range_lo = li.marginal_range(model).lo
    for level in (upper, lower, range_lo):
        if np.isfinite(level):
            rates.append(level + np.arange(-3, 4) * np.spacing(abs(level)))
    if np.isfinite(range_lo):
        rates.append([range_lo - gap, 0.0])
    rates = np.concatenate(rates)

    fired = (rates >= upper) | (rates <= lower)
    reference = inversion_exceeds(model, atom, epsilon, rates)
    # they may disagree only within a few ulps of a threshold, counting the
    # rounding of x +- epsilon through psi0'' as well as that of psi0'
    for rate in rates[fired != reference]:
        ulps = []
        for level, end in ((upper, atom + epsilon), (lower, atom - epsilon)):
            if np.isfinite(level):
                slope = li.exponent_derivatives(model, end)[1]
                unit = np.spacing(abs(level)) + slope * np.spacing(max(abs(atom), epsilon, abs(end)))
                ulps.append(abs(rate - level) / unit)
        assert min(ulps, default=math.inf) <= 8.0, (model, atom, epsilon, rate, upper, lower)


# ---------------------------------------------------------------------------
# factorization_study
# ---------------------------------------------------------------------------

def test_factorization_trivial_point_is_exact():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-1.0, 1.0), (1.0, 1.0)])
    report = li.factorization_study(model, prior, 0j, 0j, 1.0, 2000, seed=64)
    rows = rows_by_name(report)
    assert rows["cf_re[alpha=0i,beta=0i]"].estimate == 1.0
    assert rows["cf_re[alpha=0i,beta=0i]"].reference == 1.0
    assert rows["cf_re[alpha=0i,beta=0i]"].z == 0.0
    assert rows["cf_im[alpha=0i,beta=0i]"].z == 0.0


def test_factorization_marginal_slices_pass():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    # beta = 0: weighted cf of xi against exp(psi0(alpha) t)
    rep_a = li.factorization_study(gamma, prior, 0.5j, 0j, 1.0, 20_000, seed=65)
    assert rep_a.passed
    ref = complex(np.exp(li.fiducial_exponent(gamma, 0.5j)))
    rows = rows_by_name(rep_a)
    assert rows["cf_re[alpha=0.5i,beta=0i]"].reference == pytest.approx(ref.real)
    assert rows["cf_im[alpha=0.5i,beta=0i]"].reference == pytest.approx(ref.imag)
    # alpha = 0: weighted cf of X against the prior characteristic function
    rep_b = li.factorization_study(gamma, prior, 0j, 0.7j, 1.0, 20_000, seed=66)
    assert rep_b.passed
    prior_cf = 0.5 + 0.5 * np.exp(0.7j * 0.5)
    rows_b = rows_by_name(rep_b)
    assert rows_b["cf_re[alpha=0i,beta=0.7i]"].reference == pytest.approx(prior_cf.real)
    assert rows_b["cf_im[alpha=0i,beta=0.7i]"].reference == pytest.approx(prior_cf.imag)


def test_factorization_weight_mean_row():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(-0.5, 1.0), (0.5, 1.0)])
    report = li.factorization_study(model, prior, 0.3j, 0.2j, 1.0, 20_000, seed=67)
    assert rows_by_name(report)["weight_mean"].reference == 1.0
    assert report.passed


def test_factorization_grid_matches_per_pair_calls():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    alphas, betas = [0.3j, 0.6j, 0.9j], [0.2j, 0.5j]
    grid = li.factorization_study(gamma, prior, alphas, betas, 1.0, 5000, seed=69)
    expected = []
    for a in alphas:
        for b in betas:
            rows = li.factorization_study(gamma, prior, a, b, 1.0, 5000, seed=69).rows
            expected.extend(rows if not expected else rows[1:])
    assert [r.quantity for r in grid.rows] == [r.quantity for r in expected]
    got = np.array([(r.estimate, r.reference, r.stderr, r.z) for r in grid.rows])
    want = np.array([(r.estimate, r.reference, r.stderr, r.z) for r in expected])
    assert got.tobytes() == want.tobytes()


def plain_factorization_rows(model, prior, alphas, betas, t, n_paths, seed):
    """The study's rows as plain expressions, one new array per step: the
    reference its reused buffers must reproduce bit for bit."""
    messages, xi = li.simulate_ensemble(model, prior, li.TimeGrid(np.array([0.0, t])), n_paths, seed)
    idx = np.searchsorted(prior.positions, messages)
    xi_t = xi[:, 1]
    weights = np.exp(-messages * xi_t + li.fiducial_exponent(model, prior.positions)[idx] * t)
    w_mean = weights.mean()
    rows = [li.mean_stderr(weights)]
    for a in alphas:
        a_factor = np.exp(a * xi_t) * weights
        for b in betas:
            samples = a_factor * np.exp(b * prior.positions)[idx]
            for take in (np.real, np.imag):
                est = float(take(samples).mean() / w_mean)
                resid = take(samples) - est * weights
                rows.append((est, float(np.sqrt((resid * resid).sum() / (n_paths - 1) / n_paths) / w_mean)))
    return rows


@pytest.mark.parametrize("family, atoms", [
    ("Gamma", [(0.0, 1.0), (0.3, 2.0), (0.5, 1.0)]),
    ("NormalInverseGaussian", [(-0.5, 1.0), (0.5, 1.0)]),
])
def test_factorization_matches_the_plain_expressions(family, atoms):
    model = li.make_noise_model(family, FAMILY_PARAMS[family])
    prior = li.prior_from_atoms(atoms)
    alphas, betas = [0.3j, 0.9j], [0.2j, 0.5j, 0.8j]
    report = li.factorization_study(model, prior, alphas, betas, 1.5, 9000, seed=70)
    got = np.array([(r.estimate, r.stderr) for r in report.rows])
    want = np.array(plain_factorization_rows(model, prior, alphas, betas, 1.5, 9000, 70))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha, beta", [
    ([0.3j, 0.3j], 0.2j),
    (0.3j, [0.2j, 0.5j, 0.2j]),
    (0.3j, [0.2j, 0.2000001j]),  # distinct values, same row label
    ([], 0.2j),
    ([[0.3j]], 0.2j),
])
def test_factorization_rejects_bad_grids(alpha, beta):
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(0.0, 1.0)])
    with pytest.raises(li.InvalidParameter):
        li.factorization_study(model, prior, alpha, beta, 1.0, 1000, seed=68)


def test_factorization_rejects_nonimaginary_arguments():
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(0.0, 1.0)])
    with pytest.raises(li.InvalidParameter):
        li.factorization_study(model, prior, 0.1 + 0.3j, 0j, 1.0, 1000, seed=68)
    with pytest.raises(li.InvalidParameter):
        li.factorization_study(model, prior, 0j, 1.0 + 0j, 1.0, 1000, seed=68)


@pytest.mark.parametrize("imag", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("which", ["alpha", "beta"])
def test_factorization_rejects_non_finite_imaginary_values_before_sampling(imag, which, monkeypatch):
    # a real part of 0 made these pass as purely imaginary; the ensemble was
    # then sampled and the rows came out NaN
    def fail(*args, **kwargs):
        raise AssertionError("sampled before checking the grids")

    monkeypatch.setattr(experiments, "_fold_runs", fail)
    grids = {"alpha": 0.5j, "beta": 0.5j, which: complex(0.0, imag)}
    model = li.make_noise_model("Brownian", ())
    prior = li.prior_from_atoms([(0.0, 1.0)])
    with pytest.raises(li.InvalidParameter, match=which):
        li.factorization_study(model, prior, grids["alpha"], grids["beta"], 1.0, 1000, seed=68)


# ---------------------------------------------------------------------------
# esscher_consistency_study
# ---------------------------------------------------------------------------

def test_esscher_zero_tilt_agrees_exactly():
    model = li.make_noise_model("Brownian", ())
    report = li.esscher_consistency_study(model, 0.0, 1.0, 2000, seed=69)
    rows = rows_by_name(report)
    assert rows["mean"].z == 0.0
    assert rows["mean"].estimate == rows["mean"].reference


def test_esscher_zero_tilt_at_the_closed_end_of_A_is_the_trivial_case():
    # lambda = 0 is the closed lower end of the InverseGaussian A: not
    # interior, but the tilt by 0 is the model itself
    model = li.make_noise_model("InverseGaussian", (1.0, 2.0))
    report = li.esscher_consistency_study(model, 0.0, 1.0, 2000, seed=69)
    assert report.passed
    mean = rows_by_name(report)["mean"]
    assert mean.estimate == mean.reference and mean.z == 0.0


def test_esscher_zero_tilt_rows_agree_with_one_divisor():
    # at lambda = 0 the weights are 1 and both sides see the same draws, so
    # both variances take the divisor n - 1 and so do their leave-one-out
    # values: the weighted side's jackknife error is the direct side's
    model = li.make_noise_model("InverseGaussian", (1.0, 2.0))
    report = li.esscher_consistency_study(model, 0.0, 1.0, 2000, seed=69)
    for row in report.rows:
        assert row.reference == pytest.approx(row.estimate, rel=1e-12, abs=0.0)
    origin, grid = li.prior_from_atoms([(0.0, 1.0)]), li.TimeGrid(np.array([0.0, 1.0]))
    direct = li.simulate_ensemble(model, origin, grid, 2000, 69, tag=1)[1][:, 1]
    _, se = li.jackknife_covariance(direct, direct)
    assert rows_by_name(report)["variance"].stderr == pytest.approx(math.sqrt(2.0) * se, rel=1e-9)


def test_esscher_poisson_tilted_mean():
    model = li.make_noise_model("Poisson", (1.0,))
    report = li.esscher_consistency_study(model, math.log(2.0), 2.0, 20_000, seed=70)
    assert report.passed
    row = rows_by_name(report)["mean"]
    assert abs(row.estimate - 4.0) <= 3.5 * max(row.stderr, 1e-12)


def test_esscher_gamma_tilted_mean():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    report = li.esscher_consistency_study(model, 0.5, 1.0, 20_000, seed=71)
    assert report.passed
    row = rows_by_name(report)["mean"]
    assert abs(row.estimate - 2.0) <= 3.5 * max(row.stderr, 1e-12)


def test_esscher_rejects_boundary_tilt():
    model = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.OutOfDomain):
        li.esscher_consistency_study(model, 1.0, 1.0, 1000, seed=72)


@pytest.mark.parametrize("lam", [1e308, -1e308])
def test_esscher_weights_that_overflow_are_non_finite_value(lam):
    # psi0(lam) = lam^2/2 is inf and lam xi is +-inf, so the weights are nan
    with pytest.raises(li.NonFiniteValue, match="Esscher weights"):
        li.esscher_consistency_study(li.make_noise_model("Brownian", ()), lam, 1.0, 200, seed=1)


def test_esscher_and_bridge_refuse_a_law_whose_spread_underflows():
    # Gamma(1, 1) tilted by -1e308 has kappa ~ 1e-308 and psi0''(0) = kappa^2
    # = 0: the draws' stderr was 0 and a rounding gap of 1e-308 read z = inf.
    # At -1e153 psi0'' is 1e-306, yet the variance rows' jackknife squares
    # deviations of 1e-153: their stderr was 0 and z = +-inf
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    for x, spread in ((-1e308, "0"), (-1e153, "1e-306")):
        with pytest.raises(li.InvalidParameter, match=re.escape(f"psi0'' of the tilted model at lam={x:g} is {spread},")):
            li.esscher_consistency_study(gamma, x, 1.0, 200, seed=1)
        with pytest.raises(li.InvalidParameter, match=re.escape(f"psi0'' of the model at x={x:g} is {spread},")):
            li.bridge_study(gamma, x, 2.0, 0.5, 1.0, 200, seed=1)
    # 2^-511, the square root of the smallest normal float, passes the check,
    # the next float below it does not
    floor = np.ldexp(1.0, -511)
    experiments._check_spread(floor, "a law")
    with pytest.raises(li.InvalidParameter, match="psi0'' of a law is"):
        experiments._check_spread(np.nextafter(floor, 0.0), "a law")


def test_esscher_weights_that_all_underflow_are_invalid_parameter():
    # at lam = -1e76 psi0'' of the tilted Gamma(1, 1) is 1e-152, above the
    # spread check, yet every weight exp(lam xi - psi0(lam) t) is 0: the mean
    # row read z = 13.7 and the variance row z = 6.8
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.InvalidParameter, match=r"every Esscher weight .* underflows to 0 at lam=-1e\+76"):
        li.esscher_consistency_study(gamma, -1e76, 1.0, 200, seed=1)


def test_esscher_and_bridge_draw_through_the_ensemble_at_tags_1_and_2(monkeypatch):
    # both Esscher sides are the ensemble at the message 0 under one key, so
    # they share their random numbers; the bridge is one ensemble on its
    # clock; each is folded run by run
    calls = []

    def recording(sample):
        def record(model, prior, grid, n_paths, seed, tag=0, *fold):
            calls.append((model, prior.positions.tolist(), grid.times.tolist(), n_paths, seed, tag))
            return sample(model, prior, grid, n_paths, seed, tag, *fold)

        return record

    monkeypatch.setattr(experiments, "_fold_runs", recording(experiments._fold_runs))
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    li.esscher_consistency_study(gamma, 0.25, 1.5, 1000, seed=5)
    li.bridge_study(gamma, 0.3, 2.0, 0.5, 1.0, 1000, seed=6)
    tilted = li.esscher_transform(gamma, 0.25)
    assert calls == [(tilted, [0.0], [0.0, 1.5], 1000, 5, 1), (gamma, [0.0], [0.0, 1.5], 1000, 5, 1),
                     (gamma, [0.3], [0.0, 2.0 / 3.0, 2.0], 1000, 6, 2)]


def test_esscher_tilt_and_bridge_message_keep_the_prior_margin():
    # each study samples a one-atom prior, so it is refused where a prior
    # atom would be: within MARGIN of the open end 1 of the Gamma(1, 1) A
    # (tilting by lam moves that end to 1 - lam, next to the atom 0)
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    near_end = 1.0 - MARGIN / 2
    with pytest.raises(li.IncompatibleSupport):
        li.esscher_consistency_study(gamma, near_end, 1.0, 1000, seed=72)
    with pytest.raises(li.IncompatibleSupport):
        li.bridge_study(gamma, near_end, 2.0, 0.5, 1.0, 1000, seed=72)


# ---------------------------------------------------------------------------
# representation_equivalence_study
# ---------------------------------------------------------------------------

def test_representation_vg_all_three_at_zero_message():
    vg = li.make_noise_model("VarianceGamma", (2.0,))
    report = li.representation_equivalence_study(vg, 0.0, 1.0, 20_000, seed=73)
    assert report.passed
    names = {row.quantity for row in report.rows}
    for rep in ("VG_subordinated", "VG_scaled_subordinator",
                "VG_gamma_difference"):
        assert f"k1[{rep}]" in names
    assert "k3[VG_subordinated|VG_gamma_difference]" in names


def test_representation_nb_mean_reference():
    nb = li.make_noise_model("NegativeBinomial", (1.0, 0.5))
    report = li.representation_equivalence_study(nb, 0.0, 1.0, 20_000, seed=74)
    assert report.passed
    rows = rows_by_name(report)
    assert rows["k1[NB_subordinated]"].reference == pytest.approx(1.0)  # q/(1-q)
    assert rows["k1[NB_compound]"].reference == pytest.approx(1.0)


def test_representation_vg_nonzero_message():
    vg = li.make_noise_model("VarianceGamma", (2.0,))
    report = li.representation_equivalence_study(vg, 0.5, 1.0, 20_000, seed=75)
    assert report.passed


@pytest.mark.parametrize("model", [
    li.make_noise_model("VarianceGamma", (2.0,), drift=0.5),
    li.make_noise_model("NegativeBinomial", (1.0, 0.5), drift=0.25),
    li.esscher_transform(li.make_noise_model("VarianceGamma", (2.0,)), 0.4),
], ids=["drifted-vg", "drifted-nb", "tilted-vg"])
def test_representation_study_holds_for_drifted_and_tilted_models(model):
    # every construction is written in the record's (tilted) parameters and
    # takes the drift, so each agrees with the analytic cumulants
    report = li.representation_equivalence_study(model, 0.5, 1.0, 20_000, seed=3)
    assert report.passed, report.summary()


def test_representation_rejects_other_families():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.InvalidParameter):
        li.representation_equivalence_study(gamma, 0.0, 1.0, 1000, seed=76)


# ---------------------------------------------------------------------------
# bridge_study
# ---------------------------------------------------------------------------

def test_bridge_gamma_references_and_pass():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    report = li.bridge_study(gamma, 0.3, 2.0, 0.5, 1.0, 20_000, seed=77)
    assert report.passed
    rows = rows_by_name(report)
    assert rows["mean[s]"].reference == pytest.approx(0.5 / 0.7)
    assert rows["var[s]"].reference == pytest.approx(
        0.5 * 1.5 / 2.0 / 0.49)  # s(T-s)/T psi''(x)
    assert rows["cov[s,t]"].reference == pytest.approx(0.5 * 1.0 / 2.0 / 0.49)


def test_bridge_validates_arguments():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.InvalidParameter):
        li.bridge_study(gamma, 0.3, 2.0, 1.5, 1.0, 1000, seed=78)  # s > t
    with pytest.raises(li.InvalidParameter):
        li.bridge_study(gamma, 0.3, 1.0, 0.5, 1.0, 1000, seed=78)  # t = T
    with pytest.raises(li.OutOfDomain):
        li.bridge_study(gamma, 1.5, 2.0, 0.5, 1.0, 1000, seed=78)  # bad x


def test_bridge_study_keeps_the_bridge_clock_checks():
    # t next to the horizon runs the clock u = tT/(T - t) past its cap of 1e6 T
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.GridExceedsHorizon, match="cap"):
        li.bridge_study(gamma, 0.3, 2.0, 0.5, 2.0 - 1e-7, 1000, seed=78)
    with pytest.raises(li.InvalidParameter, match="horizon"):
        li.bridge_study(gamma, 0.3, math.inf, 0.5, 1.0, 1000, seed=78)


def _study_at(name, threshold):
    """Run the named study at ``threshold`` with small, valid arguments."""
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)])
    if name == "convergence":
        return li.convergence_study(gamma, prior, [1.0], 1000, seed=1, threshold=threshold)
    if name == "factorization":
        return li.factorization_study(gamma, prior, 0.3j, 0.2j, 1.0, 1000, seed=1, threshold=threshold)
    if name == "esscher":
        return li.esscher_consistency_study(gamma, 0.25, 1.0, 1000, seed=1, threshold=threshold)
    if name == "representation":
        vg = li.make_noise_model("VarianceGamma", (2.0,))
        return li.representation_equivalence_study(vg, 0.5, 1.0, 1000, seed=1, threshold=threshold)
    return li.bridge_study(gamma, 0.3, 2.0, 0.5, 1.0, 1000, seed=1, threshold=threshold)


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("name", ["convergence", "factorization", "esscher", "representation", "bridge"])
def test_study_threshold_is_checked_before_sampling(name, threshold, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before the threshold was checked")

    for sampler in ("_fold_runs", "representation_draws"):
        monkeypatch.setattr(experiments, sampler, refuse)
    with pytest.raises(li.InvalidParameter, match="threshold"):
        _study_at(name, threshold)


def test_studies_are_deterministic_given_seed():
    vg = li.make_noise_model("VarianceGamma", (2.0,))
    a = li.representation_equivalence_study(vg, 0.5, 1.0, 2000, seed=79)
    b = li.representation_equivalence_study(vg, 0.5, 1.0, 2000, seed=79)
    assert [(r.quantity, r.estimate, r.stderr) for r in a.rows] == \
           [(r.quantity, r.estimate, r.stderr) for r in b.rows]


def test_esscher_and_bridge_path_counts_must_be_integers():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.InvalidParameter, match="n_paths"):
        li.esscher_consistency_study(gamma, 0.25, 1.0, 2000.7, seed=1)
    with pytest.raises(li.InvalidParameter, match="n_paths"):
        li.bridge_study(gamma, 0.3, 2.0, 0.5, 1.0, 2000.7, seed=1)


@pytest.mark.parametrize("bad", ["abc", None, 2000.5, 999])
def test_convergence_path_count_is_a_whole_number_of_at_least_1000(bad):
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.0, 1.0)])
    with pytest.raises(li.InvalidParameter, match="n_paths"):
        li.convergence_study(gamma, prior, [1.0], bad, seed=1)
