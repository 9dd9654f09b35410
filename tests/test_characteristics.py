"""Characteristic triplets, message tilting, Levy-Khintchine reconstruction."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, special

import levy_info as li
from levy_info.noise import _k1e, _nig_triplet
from levy_khintchine import reconstruct_exponent


def conditional_exponent(model, x, a):
    """psi0(a + x) - psi0(x), the exponent of the law given X = x."""
    return li.fiducial_exponent(model, a + x) - li.fiducial_exponent(model, x)


def tilted_triplet(model, x):
    """The triplet of the law given X = x: that of the Esscher transform by x."""
    return li.characteristic_triplet(li.esscher_transform(model, x))


def test_brownian_tilt_shifts_drift_only():
    brown = li.make_noise_model("Brownian", ())
    tr = tilted_triplet(brown, 0.7)
    assert tr.drift == pytest.approx(0.7, abs=1e-15)
    assert tr.gaussian == 1.0
    assert tr.levy_measure.tag == "none"
    assert tr.levy_measure.atoms == ()


def test_gamma_tilt_rescales_measure():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    tr = tilted_triplet(gamma, 0.5)
    assert tr.levy_measure.tag == "gamma"
    # density m z^-1 e^{-0.5 z}, i.e. scale parameter 2
    assert tr.levy_measure.params == pytest.approx((1.0, 2.0))
    z = np.array([0.25, 1.0, 3.0])
    want = np.exp(-0.5 * z) / z
    np.testing.assert_allclose(tr.levy_measure.density(z), want, rtol=1e-12)


def test_nb_tilt_gives_logarithmic_jump_law():
    nb = li.make_noise_model("NegativeBinomial", (1.0, 0.25))
    tr = tilted_triplet(nb, math.log(2.0))
    atoms = dict(tr.levy_measure.atoms)
    # atom masses m (q e^x)^k / k with q e^x = 0.5
    assert atoms[1.0] == pytest.approx(0.5, abs=1e-14)
    assert atoms[2.0] == pytest.approx(0.125, abs=1e-14)
    assert atoms[3.0] == pytest.approx(0.5 ** 3 / 3.0, abs=1e-14)
    # total rate -m ln(1 - q e^x) = ln 2; masses normalized by it give the
    # logarithmic law with parameter 0.5
    total = sum(atoms.values())
    assert total == pytest.approx(math.log(2.0), abs=1e-12)
    assert atoms[1.0] / total == pytest.approx(
        0.5 / math.log(2.0), abs=1e-12)


def test_poisson_triplet_single_atom():
    poisson = li.make_noise_model("Poisson", (3.0,))
    tr = li.characteristic_triplet(poisson)
    assert tr.drift == 0.0
    assert tr.gaussian == 0.0
    assert tr.levy_measure.atoms == ((1.0, 3.0),)
    tilted = tilted_triplet(poisson, math.log(2.0))
    assert tilted.levy_measure.atoms == ((1.0, 6.0),)


def test_small_jump_drift_compensation_constants():
    # p = int_{|z|<1} z nu(dz), evaluated in closed form / high precision
    gamma = li.characteristic_triplet(li.make_noise_model("Gamma", (1.0, 1.0)))
    assert gamma.drift == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)
    ig = li.characteristic_triplet(
        li.make_noise_model("InverseGaussian", (1.0, 2.0)))
    assert ig.drift == pytest.approx(0.47724986805182079, rel=1e-10)
    nig = li.characteristic_triplet(
        li.make_noise_model("NormalInverseGaussian", (2.0, 0.5, 1.0)))
    assert nig.drift == pytest.approx(0.20020508336584638, rel=1e-9)
    vg = li.characteristic_triplet(
        li.make_noise_model("VarianceGamma", (2.0,)))
    assert vg.drift == 0.0  # symmetric measure


def test_gaussian_component_zero_for_pure_jump_families():
    for fam, p in [("Poisson", (1.0,)), ("Gamma", (1.0, 1.0)),
                   ("VarianceGamma", (2.0,)),
                   ("NegativeBinomial", (1.0, 0.5)),
                   ("InverseGaussian", (1.0, 2.0)),
                   ("NormalInverseGaussian", (2.0, 0.5, 1.0))]:
        tr = li.characteristic_triplet(li.make_noise_model(fam, p))
        assert tr.gaussian == 0.0, fam


def test_nb_atom_masses_positive_and_near_total_mass():
    nb = li.make_noise_model("NegativeBinomial", (2.0, 0.5))
    tr = li.characteristic_triplet(nb)
    masses = np.array([m for _, m in tr.levy_measure.atoms])
    assert (masses > 0.0).all()
    total = -2.0 * math.log(0.5)
    assert abs(masses.sum() - total) <= 1e-11 * total


def test_atom_series_continues_past_the_stored_atoms():
    # the NB record gives its masses m q^k / k, so a measure holding only
    # the first three atoms still reconstructs the whole exponent
    model = li.make_noise_model("NegativeBinomial", (1.0, 0.25))
    x = math.log(2.0)
    tr = tilted_triplet(model, x)
    head = dataclasses.replace(tr.levy_measure, atoms=tr.levy_measure.atoms[:3])
    short = dataclasses.replace(tr, levy_measure=head)
    for a in (-0.5, 0.1, 0.4):
        assert reconstruct_exponent(short, a) == pytest.approx(conditional_exponent(model, x, a), abs=1e-12)


def test_atom_series_is_summed_in_log_space_near_the_end_of_a():
    # at alpha = 0.69 < ln 2 the terms (q e^alpha)^k / k decay slowly: past
    # k ~ 1030, e^{alpha k} alone overflows and q^k alone underflows
    model = li.make_noise_model("NegativeBinomial", (1.0, 0.5))
    got = reconstruct_exponent(li.characteristic_triplet(model), 0.69)
    assert got == pytest.approx(li.fiducial_exponent(model, 0.69), abs=1e-12)


def test_levy_khintchine_reconstruction_matches_conditional_exponent():
    # finite / truncatable measures: Poisson, NB, Gamma
    cases = [
        ("Poisson", (2.0,), 0.4),
        ("NegativeBinomial", (1.0, 0.25), math.log(2.0)),
        ("Gamma", (1.0, 1.0), 0.5),
    ]
    for fam, params, x in cases:
        model = li.make_noise_model(fam, params)
        tr = tilted_triplet(model, x)
        for a in np.linspace(-0.5, 0.4, 7):
            a = float(a)
            want = conditional_exponent(model, x, a)
            got = reconstruct_exponent(tr, a)
            assert got == pytest.approx(want, abs=1e-8), (fam, a)


@pytest.mark.parametrize("family, params, x", [
    ("VarianceGamma", (2.0,), 0.4),
    ("InverseGaussian", (1.0, 2.0), 0.5),
    ("NormalInverseGaussian", (2.0, 0.5, 1.0), 0.0),
    ("NormalInverseGaussian", (2.0, 1.5, 1.0), 0.0),
])
def test_reconstruction_from_the_record_densities(family, params, x):
    # both half-lines of a two-sided density are integrated; the NIG density
    # stays finite where e^{bz} alone overflows and K1 underflows
    model = li.make_noise_model(family, params)
    tr = tilted_triplet(model, x)
    for a in (-0.3, 0.2):
        assert reconstruct_exponent(tr, a) == pytest.approx(conditional_exponent(model, x, a), abs=1e-8)


def test_reconstruction_covers_gaussian_and_drift_terms():
    brown = li.make_noise_model("Brownian", (), drift=0.25)
    tr = li.characteristic_triplet(brown)
    for a in (-1.0, 0.3, 2.0):
        assert reconstruct_exponent(tr, a) == pytest.approx(
            li.fiducial_exponent(brown, a), abs=1e-14)


# ---------------------------------------------------------------------------
# the numpy rules behind the NIG triplet, against scipy as a reference
# ---------------------------------------------------------------------------

def test_k1e_rule_matches_scipy_from_tiny_to_huge_arguments():
    x = np.logspace(-300, 300, 6001)
    np.testing.assert_allclose(_k1e(x), special.k1e(x), rtol=2e-15, atol=0.0)
    assert np.shape(_k1e(0.5)) == ()


@pytest.mark.parametrize("a, b, m, rtol", [
    (2.0, 0.5, 1.0, 1e-12), (2.0, 1.5, 1.0, 1e-12), (2.0, 1.999, 1.0, 1e-12),
    (1.0, 1e-6, 1.0, 1e-12), (1.0, 1e-12, 1.0, 1e-12), (50.0, 49.0, 3.0, 1e-12),
    (1e3, 5e2, 1.0, 1e-12), (0.01, -0.005, 2.0, 1e-12),
    # b - e^{-c}(c sinh b + b cosh b) cancels at small c = a cosh u
    (1e-4, 5e-5, 1.0, 1e-11),
    # large a near its end of A: the inner integral varies on u ~ sqrt(2 / a)
    (400.0, 399.0, 1.0, 1e-12), (700.0, 699.99, 1.0, 1e-12),
])
def test_nig_compensator_matches_tight_quadrature(a, b, m, rtol):
    # (2ma/pi) int_0^1 sinh(bz) K1(az) dz; epsabs=0, or quad stops at its
    # default absolute tolerance of 1.5e-8
    want = integrate.quad(lambda z: 2.0 * m * a / math.pi * math.sinh(b * z) * special.k1(a * z),
                          0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert _nig_triplet(a, b, m)[0] == pytest.approx(want, rel=rtol, abs=0.0)


def test_nig_compensator_is_finite_where_sinh_b_alone_overflows():
    # b > 710: sinh(bz) overflows near z = 1, where quad of it stops; the value
    # is a 25-digit mpmath quadrature of (2a/pi) sinh(bz) K1(az) on [0, 1]
    assert _nig_triplet(1e3, 999.0, 1.0)[0] == pytest.approx(18.825745964964171053, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("a, b, m", [(2.0, 0.5, 1.0), (1e-4, 5e-5, 1.0), (1e3, 999.0, 2.0)])
def test_nig_compensator_is_odd_in_b_and_zero_at_b_zero(a, b, m):
    assert _nig_triplet(a, -b, m)[0] == -_nig_triplet(a, b, m)[0]
    assert _nig_triplet(a, 0.0, m)[0] == 0.0
    assert _nig_triplet(a, -0.0, m)[0] == 0.0


def test_nig_density_matches_scipy_where_the_exponential_alone_overflows():
    a, b, m = 2.0, 1.5, 1.0
    density = li.characteristic_triplet(li.make_noise_model("NormalInverseGaussian", (a, b, m))).levy_measure.density
    # at z >= 500, e^{bz} alone overflows and K1(az) alone underflows
    z = np.array([-100.0, -3.0, -0.25, -1e-9, 1e-9, 0.25, 3.0, 500.0, 800.0])
    az = a * np.abs(z)
    want = m * a / math.pi * np.exp(b * z - az) * special.k1e(az) / np.abs(z)
    got = density(z)
    assert np.isfinite(got).all() and (got > 0.0).all()
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    small = np.abs(z) < 10.0
    np.testing.assert_allclose(got[small], m * a / math.pi * np.exp(b * z[small]) * special.k1(az[small]) / np.abs(z[small]),
                               rtol=1e-14, atol=0.0)
    assert density(0.0) == 0.0


def test_an_atomic_measure_has_no_density():
    poisson = li.characteristic_triplet(li.make_noise_model("Poisson", (1.0,))).levy_measure
    with pytest.raises(li.InvalidParameter, match="'atoms' has no density"):
        poisson.density(1.0)


def test_a_negative_gaussian_coefficient_is_invalid():
    with pytest.raises(li.InvalidParameter, match="gaussian coefficient must be >= 0"):
        li.CharacteristicTriplet(0.0, -1.0, li.LevyMeasure("none"))


def test_the_tilted_triplet_requires_an_interior_message():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.OutOfDomain):
        tilted_triplet(gamma, 1.0)
