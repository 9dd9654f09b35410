"""Prior construction, quadrature discretization, compatibility checks."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import levy_info as li
from levy_info.prior import MARGIN


def gamma_density(r, theta):
    c = theta ** r / math.gamma(r)
    return lambda u: c * u ** (r - 1.0) * math.exp(-theta * u)


# ---------------------------------------------------------------------------
# prior_from_atoms
# ---------------------------------------------------------------------------

def test_atoms_are_normalized():
    p = li.prior_from_atoms([(0.0, 2.0), (1.0, 2.0)])
    np.testing.assert_array_equal(p.positions, [0.0, 1.0])
    np.testing.assert_allclose(p.weights, [0.5, 0.5])


def test_atoms_sorted_and_duplicates_merged():
    p = li.prior_from_atoms([(1.0, 1.0), (0.0, 1.0), (1.0, 1.0)])
    np.testing.assert_array_equal(p.positions, [0.0, 1.0])
    np.testing.assert_allclose(p.weights, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-15)


def test_atoms_reject_bad_input():
    with pytest.raises(li.NonPositiveWeight):
        li.prior_from_atoms([(0.0, -1.0)])
    with pytest.raises(li.NonPositiveWeight):
        li.prior_from_atoms([(0.0, 0.0)])
    with pytest.raises(li.EmptyPrior):
        li.prior_from_atoms([])


def test_constructor_idempotent():
    p = li.prior_from_atoms([(0.3, 1.0), (-0.2, 2.0), (1.5, 0.5)])
    q = li.prior_from_atoms(list(zip(p.positions, p.weights)))
    np.testing.assert_array_equal(p.positions, q.positions)
    np.testing.assert_array_equal(p.weights, q.weights)


def test_weights_sum_to_one():
    p = li.prior_from_atoms([(float(i), 1.0 + 0.1 * i) for i in range(20)])
    assert abs(p.weights.sum() - 1.0) <= 1e-12
    assert (np.diff(p.positions) > 0.0).all()


# ---------------------------------------------------------------------------
# prior_from_density
# ---------------------------------------------------------------------------

def test_uniform_density_two_nodes():
    p = li.prior_from_density(lambda x: 1.0, li.Interval(0.0, 1.0, True, True), 2)
    np.testing.assert_allclose(p.weights, [0.5, 0.5], rtol=1e-14)
    # two-point Gauss-Legendre nodes on [0, 1]
    node = 0.5 - 0.5 / math.sqrt(3.0)
    np.testing.assert_allclose(p.positions, [node, 1.0 - node], rtol=1e-14)


def test_shifted_gamma_prior_mean():
    # X = 1 - U with U ~ Gamma(r=3, rate theta=2): mean 1 - r/theta = -0.5
    f = gamma_density(3.0, 2.0)
    p = li.prior_from_density(lambda x: f(1.0 - x),
                              li.Interval(1.0 - 30.0, 1.0, True, True), 501)
    mean = li.prior_expectation(p, lambda x: x)
    assert mean == pytest.approx(-0.5, abs=1e-9)


@pytest.mark.parametrize("n", [2.7, 2.0, "3", None, 1])
def test_density_node_count_is_a_whole_number(n):
    with pytest.raises(li.InvalidParameter, match="node count"):
        li.prior_from_density(lambda x: np.ones_like(x), li.Interval(0.0, 1.0), n)


def test_zero_density_raises():
    with pytest.raises(li.ZeroMass):
        li.prior_from_density(lambda x: 0.0, li.Interval(0.0, 1.0, True, True), 8)


# n-point Gauss-Legendre rules on [-1, 1], the rule prior_from_density maps
RULE_SIZES = [2, 3, 8, 64, 256]


@pytest.mark.parametrize("n", RULE_SIZES)
def test_density_prior_on_the_reference_interval_is_the_rule(n):
    nodes, weights = leggauss(n)
    p = li.prior_from_density(np.ones_like, li.Interval(-1.0, 1.0), n)
    np.testing.assert_array_equal(p.positions, nodes)
    np.testing.assert_allclose(p.weights, weights / weights.sum(), rtol=1e-15)


@pytest.mark.parametrize("n", RULE_SIZES)
def test_legendre_rule_is_symmetric_with_weights_summing_to_two(n):
    nodes, weights = leggauss(n)
    np.testing.assert_array_equal(nodes, -nodes[::-1])
    np.testing.assert_array_equal(weights, weights[::-1])
    assert abs(weights.sum() - 2.0) <= 1e-14


@pytest.mark.parametrize("n", RULE_SIZES)
def test_legendre_rule_integrates_every_degree_below_2n(n):
    nodes, weights = leggauss(n)
    k = np.arange(2 * n)
    exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
    sums = np.array([weights @ nodes ** j for j in k])
    np.testing.assert_allclose(sums, exact, rtol=0.0, atol=1e-13)


def test_legendre_rule_closed_forms():
    nodes, weights = leggauss(2)
    np.testing.assert_allclose(nodes, [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], rtol=1e-15)
    np.testing.assert_allclose(weights, [1.0, 1.0], rtol=1e-15)
    nodes, weights = leggauss(3)
    np.testing.assert_allclose(nodes, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], rtol=1e-15, atol=1e-16)
    np.testing.assert_allclose(weights, [5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0], rtol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_mapped_prior_reproduces_a_polynomial_densitys_moments(n):
    # f(x) = 1 + x^2 on [0, 2]: x^k f has degree k + 2, integrated exactly for k < 2n - 2
    p = li.prior_from_density(lambda x: 1.0 + x * x, li.Interval(0.0, 2.0), n)
    for k in range(2 * n - 2):
        exact = (2.0 ** (k + 1) / (k + 1) + 2.0 ** (k + 3) / (k + 3)) / (2.0 + 8.0 / 3.0)
        assert li.prior_expectation(p, lambda x: x ** k) == pytest.approx(exact, rel=1e-12)


def test_density_mean_converges_when_doubling_nodes():
    f = gamma_density(3.0, 2.0)
    dom = li.Interval(0.0, 30.0, True, True)
    m1 = li.prior_expectation(li.prior_from_density(f, dom, 200), lambda x: x)
    m2 = li.prior_expectation(li.prior_from_density(f, dom, 400), lambda x: x)
    assert abs(m2 - m1) < 1e-8


# ---------------------------------------------------------------------------
# compatibility
# ---------------------------------------------------------------------------

def test_compatibility_examples():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    li.check_compatibility(li.prior_from_atoms([(0.0, 1.0), (0.5, 1.0)]), gamma)
    with pytest.raises(li.IncompatibleSupport):
        li.check_compatibility(li.prior_from_atoms([(1.5, 1.0)]), gamma)
    ig = li.make_noise_model("InverseGaussian", (1.0, 2.0))
    li.check_compatibility(li.prior_from_atoms([(0.1, 1.0), (1.9, 1.0)]), ig)


def test_compatibility_closed_end_takes_no_margin():
    ig = li.make_noise_model("InverseGaussian", (1.0, 2.0))
    # lo = 0 is closed, hi = 2 is open and keeps MARGIN * max(1, 2)
    li.check_compatibility(li.prior_from_atoms([(0.0, 1.0)]), ig)
    li.check_compatibility(li.prior_from_atoms([(2.0 - 4.0 * MARGIN, 1.0)]), ig)
    for atom in (2.0, 2.0 - MARGIN, 2.5):
        with pytest.raises(li.IncompatibleSupport):
            li.check_compatibility(li.prior_from_atoms([(atom, 1.0)]), ig)
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.IncompatibleSupport):
        li.check_compatibility(li.prior_from_atoms([(1.0, 1.0)]), gamma)


def test_compatibility_error_lists_offenders():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    prior = li.prior_from_atoms([(0.5, 1.0), (1.5, 1.0), (2.5, 1.0)])
    with pytest.raises(li.IncompatibleSupport) as err:
        li.check_compatibility(prior, gamma)
    assert tuple(err.value.atoms) == (1.5, 2.5)


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

def test_prior_expectation_examples():
    p = li.prior_from_atoms([(0.0, 0.5), (1.0, 0.5)])
    assert li.prior_expectation(p, lambda x: x) == pytest.approx(0.5)
    single = li.prior_from_atoms([(2.0, 1.0)])
    assert li.prior_expectation(single, lambda x: x * x - 7.0) == pytest.approx(-3.0)
    sym = li.prior_from_atoms([(-1.0, 0.5), (1.0, 0.5)])
    assert li.prior_expectation(sym, lambda x: x * x) == pytest.approx(1.0)


def test_prior_expectation_rejects_nonfinite_values():
    p = li.prior_from_atoms([(0.0, 0.5), (1.0, 0.5)])
    with pytest.raises(li.NonFiniteValue, match=r"atoms \[1.0\]"):
        li.prior_expectation(p, lambda x: float("inf") if x > 0.5 else 0.0)
    with pytest.raises(li.NonFiniteValue, match=r"atoms \[0.0\]"):
        li.prior_expectation(p, lambda x: np.where(x < 0.5, np.inf, x))


def counted(g):
    """g, recording the shape of each argument it is called with."""
    shapes = []
    return shapes, lambda x: shapes.append(np.shape(x)) or g(x)


@pytest.mark.parametrize("g, calls", [
    (np.exp, [(3,)]),  # one call on the array
    (math.exp, [(3,)] + [()] * 3),  # raises on the array: one call per atom
    (lambda x: 2.0, [(3,)] + [()] * 3),  # another shape: one call per atom
])
def test_functions_of_the_atoms_take_the_array_and_fall_back_to_each_atom(g, calls):
    p = li.prior_from_atoms([(0.0, 0.2), (0.5, 0.3), (1.0, 0.5)])
    shapes, f = counted(g)
    want = sum(w * float(g(x)) for x, w in p.atoms)
    assert li.prior_expectation(p, f) == pytest.approx(want, rel=1e-15)
    assert shapes == calls
    shapes, f = counted(lambda x: g(x) + 1.0)
    li.prior_from_density(f, li.Interval(0.0, 1.0), 3)
    assert shapes == calls
