"""k-statistics, jackknife errors, study reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levy_info as li
from levy_info.stats import _jackknife_se, _mean_stderr


def brute_force_jackknife_se(x, statistic):
    n = len(x)
    loo = np.array([statistic(np.delete(x, i)) for i in range(n)])
    return math.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum())


def k2(x):
    return x.var(ddof=1)


def k3(x):
    n = len(x)
    d = x - x.mean()
    return n * (d ** 3).sum() / ((n - 1) * (n - 2))


# ---------------------------------------------------------------------------
# point statistics
# ---------------------------------------------------------------------------

def test_mean_stderr_known_values():
    mean, se = li.mean_stderr([1.0, 2.0, 3.0, 4.0])
    assert mean == pytest.approx(2.5)
    assert se == pytest.approx(math.sqrt((5.0 / 3.0) / 4.0))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 8, 9, 128, 129, 4096, 100_003]), offset=st.sampled_from([0.0, -3.5, 1e6, 1e12]),
       scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1), column=st.integers(0, 3))
def test_mean_stderr_sums_once_to_numpys_bits(n, offset, scale, seed, column):
    # the in-place form runs on a row of a 2-D scratch array, as the
    # convergence study's rows are, at any alignment of the row's start
    x = offset + scale * np.random.default_rng(seed).standard_normal(n)
    want = (float(x.mean()), float(x.std(ddof=1) / math.sqrt(n)))
    assert li.mean_stderr(x) == want
    scratch = np.empty(n + 3)[column:column + n]
    scratch[:] = x
    assert _mean_stderr(scratch, scratch) == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mean_stderr_of_finite_samples_that_overflow_is_non_finite_value():
    # draws near the largest float, as a study makes at t = 1e308, once
    # gave an inf mean or an inf standard error
    for x in ([1e308] * 4, [1e308, -1e308] * 2):
        with pytest.raises(li.NonFiniteValue, match="overflow"):
            li.mean_stderr(x)
        with pytest.raises(li.NonFiniteValue, match="overflow"):
            _mean_stderr(np.array(x), np.empty(4))
    # a sample that is not finite itself still gives its non-finite mean
    assert all(math.isnan(v) for v in li.mean_stderr([math.nan, 1.0]))
    assert li.mean_stderr([math.inf, 1.0])[0] == math.inf


def test_k_statistics_symmetric_sample():
    key1, key2, key3 = li.jackknife_cumulants([1.0, 2.0, 3.0, 4.0]).cumulants
    assert key1 == pytest.approx(2.5)
    assert key2 == pytest.approx(5.0 / 3.0)
    assert key3 == pytest.approx(0.0, abs=1e-14)


def test_k_statistics_are_unbiased_for_gamma_cumulants():
    # cumulants of Gamma(shape=2, scale=1): k1=2, k2=2, k3=4
    rng = np.random.default_rng(23)
    reps = np.array([li.jackknife_cumulants(rng.gamma(2.0, 1.0, size=8)).cumulants
                     for _ in range(40_000)])
    for idx, ref in enumerate([2.0, 2.0, 4.0]):
        mean, se = li.mean_stderr(reps[:, idx])
        assert abs(mean - ref) <= 4.0 * se, idx


def test_too_few_samples():
    with pytest.raises(li.TooFewSamples):
        li.mean_stderr([1.0])
    with pytest.raises(li.TooFewSamples):
        li.jackknife_cumulants([1.0, 2.0, 3.0])
    with pytest.raises(li.TooFewSamples, match="paired samples differ in length: 5 vs 6"):
        li.jackknife_covariance(np.ones(5), np.ones(6))


# ---------------------------------------------------------------------------
# jackknife
# ---------------------------------------------------------------------------

def test_jackknife_cumulants_match_brute_force():
    rng = np.random.default_rng(24)
    x = rng.gamma(1.5, 2.0, size=40)
    est = li.jackknife_cumulants(x)
    assert est.k1 == pytest.approx(x.mean())
    assert est.k2 == pytest.approx(k2(x))
    assert est.k3 == pytest.approx(k3(x))
    assert est.se1 == pytest.approx(li.mean_stderr(x)[1], rel=1e-10)
    assert est.se2 == pytest.approx(brute_force_jackknife_se(x, k2), rel=1e-8)
    assert est.se3 == pytest.approx(brute_force_jackknife_se(x, k3), rel=1e-8)
    assert est.cumulants == (est.k1, est.k2, est.k3)
    assert est.stderrs == (est.se1, est.se2, est.se3)


def test_jackknife_covariance_matches_brute_force():
    rng = np.random.default_rng(25)
    a = rng.normal(size=35)
    b = 0.5 * a + rng.normal(size=35)
    cov, se = li.jackknife_covariance(a, b)
    want = np.cov(a, b, ddof=1)[0, 1]
    assert cov == pytest.approx(want, rel=1e-12)

    def cov_stat(idx):
        keep = np.ones(len(a), bool)
        keep[idx] = False
        return np.cov(a[keep], b[keep], ddof=1)[0, 1]

    loo = np.array([cov_stat(i) for i in range(len(a))])
    ref = math.sqrt((len(a) - 1) / len(a) * ((loo - loo.mean()) ** 2).sum())
    assert se == pytest.approx(ref, rel=1e-8)


def test_jackknife_se_coverage_sanity():
    # se2 should approximate the true spread of k2 across replications
    rng = np.random.default_rng(26)
    ests = []
    ses = []
    for _ in range(300):
        x = rng.normal(size=200)
        e = li.jackknife_cumulants(x)
        ests.append(e.k2)
        ses.append(e.se2)
    spread = np.std(ests, ddof=1)
    assert np.mean(ses) == pytest.approx(spread, rel=0.2)


# The kernels as they were written with pow cubes, kept as the reference for
# the product form: k1, k2 and their errors must not move at all, k3 and its
# error only in the last bits.

def pow_k_statistics(x):
    n = x.size
    shift = x.mean()
    xc = x - shift
    m = xc.mean()
    s2 = float(((xc - m) ** 2).sum())
    s3 = float(((xc - m) ** 3).sum())
    return float(shift + m), s2 / (n - 1), n * s3 / ((n - 1) * (n - 2))


def pow_jackknife_cumulants(x):
    n = x.size
    k1, k2, k3 = pow_k_statistics(x)
    shift = x.mean()
    xc = x - shift
    s1, s2, s3 = xc.sum(), float((xc**2).sum()), float((xc**3).sum())
    m = n - 1
    mu = (s1 - xc) / m
    c2 = s2 - xc**2 - (s1 - xc) * mu
    c3 = (s3 - xc**3) - 3.0 * mu * (s2 - xc**2) + 2.0 * m * mu**3
    loos = (shift + mu, c2 / (m - 1), m * c3 / ((m - 1) * (m - 2)))
    ses = [math.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum()) for loo in loos]
    return (k1, k2, k3), tuple(ses)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(4, 5000), seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["normal", "gamma", "student", "lattice"]),
       offset=st.floats(-1e6, 1e6), scale=st.floats(1e-3, 1e3))
def test_cumulant_kernels_match_pow_reference(n, seed, shape, offset, scale):
    rng = np.random.default_rng(seed)
    z = {
        "normal": lambda: rng.standard_normal(n),
        "gamma": lambda: rng.gamma(0.5, size=n) - 0.5,
        "student": lambda: rng.standard_t(3.0, size=n),
        "lattice": lambda: rng.poisson(2.0, size=n) - 2.0,
    }[shape]()
    x = offset + scale * z
    (r1, r2, r3), (rs1, rs2, rs3) = pow_jackknife_cumulants(x)
    est = li.jackknife_cumulants(x)
    assert (est.k1, est.k2, est.se1, est.se2) == (r1, r2, rs1, rs2)
    for got, ref in ((est.k3, r3), (est.se3, rs3)):
        assert abs(got - ref) <= 1e-12 * max(abs(ref), r2**1.5), (got, ref)


def plain_jackknife_cumulants(x):
    """The kernel as plain expressions, one new array per step: the reference
    its reused buffers must reproduce bit for bit."""
    n = x.size
    shift = x.mean()
    xc = x - shift
    d = xc - xc.mean()
    k1 = float(shift + xc.mean())
    k2 = float((d * d).sum()) / (n - 1)
    k3 = n * float((d * d * d).sum()) / ((n - 1) * (n - 2))
    xc2 = xc * xc
    xc3 = xc2 * xc
    s1, s2, s3 = xc.sum(), float(xc2.sum()), float(xc3.sum())
    m = n - 1
    r1 = s1 - xc
    r2 = s2 - xc2
    mu = r1 / m
    c2 = r2 - r1 * mu
    c3 = (s3 - xc3) - 3.0 * mu * r2 + 2.0 * m * (mu * mu * mu)
    loos = (shift + mu, c2 / (m - 1), m * c3 / ((m - 1) * (m - 2)))
    ses = [math.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum()) for loo in loos]
    return li.CumulantEstimate(k1, k2, k3, *ses)


@pytest.mark.parametrize("n", [4, 5, 1000, 8193, 40_001])
@pytest.mark.parametrize("shape", ["student", "lattice"])
def test_jackknife_cumulants_match_the_plain_expressions(n, shape):
    rng = np.random.default_rng(n)
    z = rng.standard_t(3.0, size=n) if shape == "student" else rng.poisson(2.0, size=n) - 2.0
    x = 1e3 + 5.0 * z
    assert li.jackknife_cumulants(x) == plain_jackknife_cumulants(x)
    loo = rng.standard_normal(n)
    assert _jackknife_se(loo.copy()) == math.sqrt((n - 1) / n * ((loo - loo.mean()) ** 2).sum())


# ---------------------------------------------------------------------------
# study reports
# ---------------------------------------------------------------------------

def test_zscore_edge_cases():
    row = li.StudyRow("q", 1.0, 1.0, 0.0, li.zscore(1.0, 1.0, 0.0))
    assert row.z == 0.0
    assert li.zscore(2.0, 1.0, 0.0) == math.inf
    assert li.zscore(1.0, 1.5, 0.1) == pytest.approx(-5.0)


def test_report_pass_fail_and_summary():
    ok = li.StudyRow("a", 1.0, 1.1, 0.05, -2.0)
    info = li.StudyRow("b", 3.0, float("nan"), 0.1, float("nan"))
    rep = li.StudyReport("demo", (ok, info), threshold=3.5)
    assert rep.passed
    assert rep.max_abs_z == 2.0
    assert rep.flagged == ()
    assert info.informational
    assert rep.summary() == (
        "study=demo passed=true rows=2 max_abs_z=2 threshold=3.5")
    bad = li.StudyRow("c", 9.0, 1.0, 0.1, 80.0)
    rep2 = li.StudyReport("demo", (ok, bad), threshold=3.5)
    assert not rep2.passed
    assert rep2.flagged == (bad,)
    assert "passed=false" in rep2.summary()


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0, math.inf])
def test_report_threshold_must_be_positive(threshold):
    with pytest.raises(li.InvalidParameter, match="threshold"):
        li.StudyReport("demo", (), threshold=threshold)


def test_row_with_reference_and_nan_estimate_fails():
    nan_row = li.StudyRow("q", math.nan, 1.0, 0.1, li.zscore(math.nan, 1.0, 0.1))
    ok = li.StudyRow("a", 1.0, 1.1, 0.05, -2.0)
    rep = li.StudyReport("demo", (ok, nan_row), threshold=3.5)
    assert not nan_row.informational
    assert not rep.passed
    assert rep.flagged == (nan_row,)
    assert rep.max_abs_z == math.inf
    assert "passed=false" in rep.summary() and "max_abs_z=inf" in rep.summary()
