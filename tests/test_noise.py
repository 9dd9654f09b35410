"""Exponents, domains, inverses, Esscher transforms."""

import cmath
import math
import re
import struct
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levy_info as li
from conftest import FAMILY_PARAMS, all_models, interior_grid, window
from levy_info import noise
from levy_info.noise import inverse_marginal_clamped


# ---------------------------------------------------------------------------
# model construction / validation
# ---------------------------------------------------------------------------

def test_make_noise_model_accepts_valid_parameters():
    m = li.make_noise_model("Gamma", (2.0, 1.0))
    assert m.family == "Gamma"
    assert m.params == (2.0, 1.0)
    assert m.drift == 0.0


def test_make_noise_model_rejects_negative_poisson_rate():
    with pytest.raises(li.InvalidParameter):
        li.make_noise_model("Poisson", (-1.0,))


def test_make_noise_model_rejects_nig_with_b_outside_a():
    with pytest.raises(li.InvalidParameter):
        li.make_noise_model("NormalInverseGaussian", (1.0, 2.0, 1.0))


def test_make_noise_model_rejects_unknown_family_and_wrong_arity():
    with pytest.raises(li.InvalidParameter):
        li.make_noise_model("Cauchy", ())
    with pytest.raises(li.InvalidParameter):
        li.make_noise_model("Gamma", (2.0,))
    with pytest.raises(li.InvalidParameter):
        li.make_noise_model("NegativeBinomial", (1.0, 1.0))  # q must be < 1
    with pytest.raises(li.InvalidParameter):
        li.make_noise_model("Brownian", (), drift=float("nan"))


# each family's accepted spellings: the name in any case, in snake case with
# underscores or hyphens, and the short names
SPELLINGS = {
    "Brownian": ["Brownian", "brownian", "BROWNIAN", "wiener", "Wiener"],
    "Poisson": ["Poisson", "poisson"],
    "Gamma": ["Gamma", "gamma", "GAMMA"],
    "VarianceGamma": ["VarianceGamma", "variancegamma", "variance_gamma", "variance-gamma", "Variance-Gamma",
                      "vg", "VG"],
    "NegativeBinomial": ["NegativeBinomial", "negativebinomial", "negative_binomial", "negative-binomial",
                         "nb", "NB"],
    "InverseGaussian": ["InverseGaussian", "inversegaussian", "inverse_gaussian", "inverse-gaussian", "ig"],
    "NormalInverseGaussian": ["NormalInverseGaussian", "normalinversegaussian", "normal_inverse_gaussian",
                              "normal-inverse-gaussian", "Normal-Inverse-Gaussian", "nig", "NIG"],
}


@pytest.mark.parametrize("family, spelling", [(f, s) for f, names in SPELLINGS.items() for s in names])
def test_every_accepted_spelling_names_its_family(family, spelling):
    assert li.make_noise_model(spelling, FAMILY_PARAMS[family]).family == family


def test_the_alias_table_holds_each_spelling_once():
    # 16 keys: seven lower-cased names, four more in snake case, five short names
    keys = {s.replace("-", "_").lower() for names in SPELLINGS.values() for s in names}
    assert set(noise._ALIASES) == keys and len(keys) == 16
    with pytest.raises(li.InvalidParameter, match="unknown noise family 'variance gamma'"):
        li.make_noise_model("variance gamma", (2.0,))


def test_variance_gamma_standard_form_pads_defaults():
    m = li.make_noise_model("VarianceGamma", (2.0,))
    assert m.params == (2.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# fiducial exponent
# ---------------------------------------------------------------------------

def test_exponent_vanishes_at_zero(model):
    assert li.fiducial_exponent(model, 0.0) == 0.0


def test_exponent_literals():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    assert li.fiducial_exponent(gamma, 0.5) == pytest.approx(
        0.6931471805599453, abs=1e-15)
    poisson = li.make_noise_model("Poisson", (3.0,))
    assert li.fiducial_exponent(poisson, math.log(2.0)) == pytest.approx(
        3.0, abs=1e-14)
    vg = li.make_noise_model("VarianceGamma", (2.0,))
    assert li.fiducial_exponent(vg, 1.1) == pytest.approx(
        0.7205055305732327, abs=1e-15)
    nb = li.make_noise_model("NegativeBinomial", (1.5, 0.3))
    assert li.fiducial_exponent(nb, 0.8) == pytest.approx(
        1.1173929748022437, abs=1e-14)
    ig = li.make_noise_model("InverseGaussian", (1.0, 2.0))
    assert li.fiducial_exponent(ig, 0.9) == pytest.approx(
        0.5167603025808674, abs=1e-15)
    nig = li.make_noise_model("NormalInverseGaussian", (2.0, 0.5, 1.0))
    assert li.fiducial_exponent(nig, 0.7) == pytest.approx(
        0.3364916731037084, abs=1e-15)


def test_exponent_real_in_real_out(model):
    grid = interior_grid(model, 7)
    for a in grid:
        val = li.fiducial_exponent(model, float(a))
        assert isinstance(val, float)


def test_exponent_complex_argument_checks_real_part():
    gamma = li.make_noise_model("Gamma", (2.0, 1.0))
    val = li.fiducial_exponent(gamma, 0.25 + 0.5j)
    assert isinstance(val, complex)
    with pytest.raises(li.OutOfDomain):
        li.fiducial_exponent(gamma, 1.5)
    with pytest.raises(li.OutOfDomain):
        li.fiducial_exponent(gamma, 1.5 + 2.0j)


@pytest.mark.parametrize("imag", [math.nan, math.inf, -math.inf], ids=str)
def test_non_finite_imaginary_part_is_rejected(imag):
    # Gamma(1, 1) at 0.1 + nan i used to return nan + nan i
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    alpha = complex(0.1, imag)
    with pytest.raises(li.NonFiniteValue, match="Im alpha"):
        li.fiducial_exponent(gamma, alpha)
    with pytest.raises(li.NonFiniteValue, match="Im alpha"):
        li.fiducial_exponent(gamma, np.array([0.5j, alpha]))
    # and where the exponent given X = 0.25 is psi0(alpha + 0.25) - psi0(0.25)
    with pytest.raises(li.NonFiniteValue, match="Im alpha"):
        li.fiducial_exponent(gamma, alpha + 0.25) - li.fiducial_exponent(gamma, 0.25)
    with pytest.raises(li.NonFiniteValue, match="Im alpha"):
        li.fiducial_exponent(gamma, np.array([alpha, 0.5j]) + 0.25) - li.fiducial_exponent(gamma, 0.25)


@pytest.mark.parametrize("family, alpha, what", [
    ("Brownian", 1e308, "psi0"),
    ("Brownian", np.array([1.0, -1e155]), "psi0"),
    ("Brownian", 1e200 + 1e200j, "psi0"),  # alpha^2 is inf - inf there
    ("Poisson", np.array([1.0, 710.0]), "psi0"),
    ("Poisson", 710.0, "a derivative of psi0"),
], ids=repr)
def test_an_exponent_that_overflows_is_non_finite_value(family, alpha, what):
    # A is unbounded, and psi0 was once returned as inf there, with a warning
    model = li.make_noise_model(family, FAMILY_PARAMS[family])
    fn = li.exponent_derivatives if what != "psi0" else li.fiducial_exponent
    at = np.ravel(alpha)[-1]
    with pytest.raises(li.NonFiniteValue, match="^" + re.escape(f"{what} overflows at alpha={at:g}")):
        fn(model, alpha)
    # and a value next to the overflow is finite
    assert np.isfinite(li.fiducial_exponent(model, 700.0))


def bits(values):
    """The float64 bit patterns of a float or an array, so that -0.0, 0.0 and NaNs compare as bits."""
    return np.asarray(values, dtype=float).view(np.int64)


def test_exponent_and_derivatives_take_arrays(model):
    # an array call is the scalar calls stacked, bit for bit for a real
    # argument and to rounding for a complex one (numpy rounds complex
    # products of scalars and of arrays differently, see noise._argument),
    # and it checks every entry against A
    grid = interior_grid(model, 9).reshape(3, 3)
    scalar = lambda fn: np.array([[fn(float(a)) for a in row] for row in grid])
    got = li.fiducial_exponent(model, grid)
    assert got.dtype == float and got.shape == grid.shape
    np.testing.assert_array_equal(bits(got), bits(scalar(lambda a: li.fiducial_exponent(model, a))))
    for k, derivative in enumerate(li.exponent_derivatives(model, grid)):
        assert derivative.shape == grid.shape
        np.testing.assert_array_equal(bits(derivative), bits(scalar(lambda a: li.exponent_derivatives(model, a)[k])))
    got = li.fiducial_exponent(model, grid + 0.5j)
    assert got.dtype == complex and got.shape == grid.shape
    np.testing.assert_allclose(got, scalar(lambda a: li.fiducial_exponent(model, a + 0.5j)),
                               rtol=4 * np.finfo(float).eps, atol=1e-300)
    outside = grid.copy()
    outside[1, 2] = np.nan
    for fn in (li.fiducial_exponent, li.exponent_derivatives):
        with pytest.raises(li.OutOfDomain):
            fn(model, outside)


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILY_PARAMS)),
    tilt=st.sampled_from([None, 0.1, 0.5, 0.93]),
    drift=st.sampled_from([0.0, 0.7, -1.9]),
    where=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=6),
)
def test_a_scalar_is_evaluated_as_the_element_of_an_array(family, tilt, drift, where):
    # psi0 (real), its three derivatives and I0 of a scalar take the same
    # bits as the matching element of the call on an array: numpy raises a
    # scalar and an array to a power through different code, so the records
    # write such powers as products and square roots
    model = li.make_noise_model(family, FAMILY_PARAMS[family], drift)
    if tilt is not None:
        lo, hi = window(li.admissible_set(model))
        model = li.esscher_transform(model, lo + tilt * (hi - lo))
    lo, hi = window(li.admissible_set(model))
    alpha = lo + np.array(where) * (hi - lo)
    columns = [li.fiducial_exponent(model, alpha), *li.exponent_derivatives(model, alpha)]
    rows = [[li.fiducial_exponent(model, a), *li.exponent_derivatives(model, a)] for a in map(float, alpha)]
    np.testing.assert_array_equal(bits(np.transpose(columns)), bits(rows))
    inverse, clamped = inverse_marginal_clamped(model, columns[1])
    scalar = [inverse_marginal_clamped(model, y) for y in map(float, columns[1])]
    np.testing.assert_array_equal(bits(inverse), bits([i0 for i0, _ in scalar]))
    assert clamped.tolist() == [flag for _, flag in scalar]


def test_poisson_derivatives_are_three_arrays():
    # the three Poisson derivatives are equal, but a caller may write into one
    # of them without changing the others
    derivatives = li.exponent_derivatives(li.make_noise_model("Poisson", (2.0,)), np.linspace(-1.0, 1.0, 5))
    np.testing.assert_array_equal(derivatives[1], derivatives[2])
    for i, first in enumerate(derivatives):
        for second in derivatives[i + 1:]:
            assert not np.shares_memory(first, second)


@pytest.mark.parametrize("alpha", [0.25 + 2j, np.complex128(0.25 + 2j), np.array([0.25 + 2j, 0.5])], ids=repr)
def test_real_argument_keeps_its_imaginary_part(alpha):
    # numpy's cast to float drops an imaginary part with only a warning
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(TypeError):
        li.exponent_derivatives(gamma, alpha)


# ---------------------------------------------------------------------------
# derivatives and inversion
# ---------------------------------------------------------------------------

def test_derivative_literals():
    brown = li.make_noise_model("Brownian", ())
    assert li.exponent_derivatives(brown, 2.0) == (2.0, 1.0, 0.0)
    gamma = li.make_noise_model("Gamma", (2.0, 1.0))
    d1, d2, _ = li.exponent_derivatives(gamma, 0.0)
    assert d1 == pytest.approx(2.0, abs=1e-15)
    assert d2 == pytest.approx(2.0, abs=1e-15)


def test_second_derivative_positive_on_interior(model):
    rng = np.random.default_rng(7)
    dom = li.admissible_set(model)
    lo = dom.lo if np.isfinite(dom.lo) else -4.0
    hi = dom.hi if np.isfinite(dom.hi) else 4.0
    pts = rng.uniform(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), size=200)
    for a in pts:
        _, d2, _ = li.exponent_derivatives(model, float(a))
        assert d2 > 0.0


def test_derivatives_match_finite_differences(model):
    # 2nd derivative is differenced from the closed-form 1st derivative to
    # avoid the cancellation a direct second difference of psi0 would suffer
    dom = li.admissible_set(model)
    lo = dom.lo if np.isfinite(dom.lo) else -3.0
    hi = dom.hi if np.isfinite(dom.hi) else 3.0
    pts = np.linspace(lo + 1e-3, hi - 1e-3, 25)
    for a in pts:
        a = float(a)
        # step shrinks with the distance to the boundary, where psi0''' blows up
        h = min(1e-5, 3e-4 * (dom.hi - a), 3e-4 * (a - dom.lo))
        d1, d2, _ = li.exponent_derivatives(model, a)
        fd1 = (li.fiducial_exponent(model, a + h)
               - li.fiducial_exponent(model, a - h)) / (2.0 * h)
        fd2 = (li.exponent_derivatives(model, a + h)[0]
               - li.exponent_derivatives(model, a - h)[0]) / (2.0 * h)
        assert fd1 == pytest.approx(d1, rel=1e-6, abs=1e-8)
        assert fd2 == pytest.approx(d2, rel=1e-6, abs=1e-8)


def test_inverse_marginal_literals():
    brown = li.make_noise_model("Brownian", ())
    assert inverse_marginal_clamped(brown, 3.0) == (pytest.approx(3.0, abs=1e-14), False)
    poisson = li.make_noise_model("Poisson", (1.0,))
    assert inverse_marginal_clamped(poisson, math.e) == (pytest.approx(1.0, abs=1e-12), False)
    gamma = li.make_noise_model("Gamma", (2.0, 1.0))
    assert inverse_marginal_clamped(gamma, 4.0) == (pytest.approx(0.5, abs=1e-12), False)


def test_inverse_marginal_round_trip(model):
    for a in interior_grid(model, 60):
        a = float(a)
        y = li.exponent_derivatives(model, a)[0]
        alpha, clamped = inverse_marginal_clamped(model, y)
        assert not clamped and abs(alpha - a) <= 1e-10


def test_variance_gamma_inverse_takes_the_admissible_root_at_extreme_rates():
    # near an end of A the computed log argument of the admissible root can
    # round to <= 0; the root must still be the one inside A, next to the
    # end that psi0' tends to
    model = li.esscher_transform(li.make_noise_model("VarianceGamma", (2.0,)), 0.875)
    domain = li.admissible_set(model)
    for y in (1e12, 5.569669104380902e15, -5.569669104380902e15, 1e17):
        end = domain.hi if y > 0 else domain.lo
        alpha, clamped = inverse_marginal_clamped(model, y)
        assert not clamped and abs(alpha - end) <= 1e-9, y


@pytest.mark.parametrize("family, lam", [("VarianceGamma", -1.05), ("NormalInverseGaussian", -2.0)])
def test_derivatives_are_finite_next_to_the_ends_of_A(family, lam):
    # at the floats next to an end, b + w (NIG) rounds onto -a and the
    # expanded log argument d (VG) cancels to 0 unless taken as the product
    # of the distances to the ends; the inverse of the rates there, which
    # may round onto the end, stays inside A
    model = li.esscher_transform(li.make_noise_model(family, FAMILY_PARAMS[family]), lam)
    domain = li.admissible_set(model)
    inner = np.array([np.nextafter(domain.lo, math.inf), np.nextafter(domain.hi, -math.inf)])
    derivatives = li.exponent_derivatives(model, inner)
    for order, derivative in enumerate(derivatives, start=1):
        assert np.isfinite(derivative).all(), order
    assert domain.contains(inverse_marginal_clamped(model, derivatives[0])[0]).all()


def test_normal_inverse_gaussian_inverse_of_a_huge_rate_is_next_to_the_end():
    model = li.make_noise_model("NormalInverseGaussian", (2.0, 0.5, 1.0))
    domain = li.admissible_set(model)
    for y, end in ((1e160, domain.hi), (-1e160, domain.lo)):
        alpha, clamped = inverse_marginal_clamped(model, y)
        assert not clamped and domain.contains(alpha) and abs(alpha - end) <= 1e-9, y


@pytest.mark.parametrize("lam", [0.0, 0.875])
def test_variance_gamma_inverse_of_a_huge_rate_is_next_to_the_end(lam):
    # the quadratic's discriminant, unscaled, overflows for |y| >~ 1.3e154
    # and the inverse came out as 0
    model = li.esscher_transform(li.make_noise_model("VarianceGamma", (2.0,)), lam)
    domain = li.admissible_set(model)
    inner = {1.0: np.nextafter(domain.hi, -math.inf), -1.0: np.nextafter(domain.lo, math.inf)}
    for magnitude in (1e155, 1e160, 1e300):
        for sign, end in inner.items():
            y = sign * magnitude
            assert inverse_marginal_clamped(model, y) == (end, False), y
    rates = np.array([1e160, -1e300])
    alpha, clamped = inverse_marginal_clamped(model, rates)
    np.testing.assert_array_equal(alpha, [inner[1.0], inner[-1.0]])
    assert not clamped.any()


def test_inverse_marginal_clamps_unattained_values():
    # at or below the finite lower end of the range, I0 is the lower end of A
    gamma = li.make_noise_model("Gamma", (2.0, 1.0))
    assert inverse_marginal_clamped(gamma, -1.0) == (-math.inf, True)
    poisson = li.make_noise_model("Poisson", (1.0,))
    assert inverse_marginal_clamped(poisson, 0.0) == (-math.inf, True)
    ig = li.make_noise_model("InverseGaussian", (1.0, 2.0))
    assert inverse_marginal_clamped(ig, 0.5) == (0.0, True)


@settings(max_examples=400, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILY_PARAMS)),
    tilt=st.floats(0.05, 0.95),
    where=st.floats(0.005, 0.995),
    gap=st.floats(0.0, 1e3),
    beyond=st.sampled_from([math.inf, -math.inf, math.nan]),
)
def test_inverse_marginal_is_the_closed_form(family, tilt, where, gap, beyond):
    base = li.make_noise_model(family, FAMILY_PARAMS[family])
    lo, hi = window(li.admissible_set(base))
    model = li.esscher_transform(base, lo + tilt * (hi - lo))
    lo, hi = window(li.admissible_set(model))
    a = lo + where * (hi - lo)
    y = li.exponent_derivatives(model, a)[0]
    inverse, clamped = inverse_marginal_clamped(model, y)
    assert not clamped
    assert struct.pack("<d", inverse) == struct.pack("<d", inverse_marginal_clamped(model, np.array([y]))[0][0])
    assert abs(inverse - a) <= 1e-10 * max(1.0, abs(a))  # the C4 gate
    # an unattained rate is clamped: to the lower end of A at or below a
    # finite lower end of the range, to NaN where it is not finite
    bound = li.marginal_range(model).lo
    outside = bound - gap if np.isfinite(bound) else beyond
    want = li.admissible_set(model).lo if np.isfinite(outside) else math.nan
    got = inverse_marginal_clamped(model, outside)
    assert struct.pack("<d", got[0]) == struct.pack("<d", want) and got[1] is True


# ---------------------------------------------------------------------------
# admissible sets
# ---------------------------------------------------------------------------

def test_admissible_set_per_family():
    cases = {
        "Brownian": (-math.inf, math.inf, True, True),
        "Poisson": (-math.inf, math.inf, True, True),
        "Gamma": (-math.inf, 0.5, True, True),          # 1/kappa with kappa=2
        "VarianceGamma": (-2.0, 2.0, True, True),       # +-sqrt(2m), m=2
        "NegativeBinomial": (-math.inf, math.log(2.0), True, True),  # -ln q
        "InverseGaussian": (0.0, 2.0, False, True),     # [0, b^2/2), b=2
        "NormalInverseGaussian": (-2.5, 1.5, True, True),  # (-a-b, a-b)
    }
    params = dict(FAMILY_PARAMS)
    params["Gamma"] = (2.0, 2.0)
    for fam, (lo, hi, lo_open, hi_open) in cases.items():
        dom = li.admissible_set(li.make_noise_model(fam, params[fam]))
        assert (dom.lo, dom.hi, dom.lo_open, dom.hi_open) == (
            lo, hi, lo_open, hi_open), fam


def test_vg_admissible_set_is_symmetric_sqrt_2m():
    vg = li.make_noise_model("VarianceGamma", (2.0,))
    dom = li.admissible_set(vg)
    assert (dom.lo, dom.hi) == (-2.0, 2.0)


def cmath_exponent(model, a):
    """The cmath forms of psi0 for complex alpha that the exponent had before
    each family kept one formula for real and complex input."""
    p = model.params
    fam = model.family
    if fam == "Brownian":
        out = 0.5 * a * a
    elif fam == "Poisson":
        out = p[0] * (cmath.exp(a) - 1.0)
    elif fam == "Gamma":
        out = -p[0] * cmath.log(1.0 - p[1] * a)
    elif fam == "VarianceGamma":
        m, mu, sigma = p
        out = -m * cmath.log(1.0 - mu * a / m - 0.5 * sigma * sigma * a * a / m)
    elif fam == "NegativeBinomial":
        m, q = p
        out = m * (cmath.log(1.0 - q) - cmath.log(1.0 - q * cmath.exp(a)))
    elif fam == "InverseGaussian":
        ai, b = p
        out = ai * (b - cmath.sqrt(b * b - 2.0 * a))
    else:
        av, b, m = p
        out = m * (math.sqrt(av * av - b * b) - cmath.sqrt(av * av - (b + a) * (b + a)))
    return out + model.drift * a


def test_complex_exponent_matches_cmath_forms(model):
    # numpy's complex log1p/expm1 may differ from the cmath forms in the last
    # bits; allow 4 eps of max(1, |psi0|) at imaginary alpha, on the fiducial
    # model and on a drifted, tilted one (the general VarianceGamma form)
    eps = np.finfo(float).eps
    drifted = li.make_noise_model(model.family, FAMILY_PARAMS[model.family], drift=0.4)
    for m in (model, li.esscher_transform(drifted, float(interior_grid(model, 5)[1]))):
        for s in np.linspace(-6.0, 6.0, 49):
            a = complex(0.0, s)
            want = cmath_exponent(m, a)
            got = li.fiducial_exponent(m, a)
            assert isinstance(got, complex)
            assert abs(got - want) <= 4 * eps * max(1.0, abs(want)), (m, a)
            for x in interior_grid(m, 5):
                x = float(x)
                ends = (cmath_exponent(m, a + x), cmath_exponent(m, complex(x)))
                got = li.fiducial_exponent(m, a + x) - li.fiducial_exponent(m, x)
                assert abs(got - (ends[0] - ends[1])) <= 4 * eps * max(1.0, *map(abs, ends)), (m, x, a)


def decimal_exponent(family, params, w):
    """psi0 of an InverseGaussian or NormalInverseGaussian model at real w, as
    written in the module docstring, in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        if family == "InverseGaussian":
            a, b, w = map(Decimal, (*params, w))
            return a * (b - (b * b - 2 * w).sqrt())
        a, b, m, w = map(Decimal, (*params, w))
        return m * ((a * a - b * b).sqrt() - (a * a - (b + w) * (b + w)).sqrt())


@pytest.mark.parametrize("family, params, w", [
    # a difference of square roots cancels here: the first three points were
    # off by 49%, 6.5e-5 and 4.4e-5 relative
    ("InverseGaussian", (1.0, 1e8), 1.0),
    ("InverseGaussian", (413.0, 5.9e-4), 2.2e-19),
    ("NormalInverseGaussian", (1e3, 0.1, 1.0), 1e-6),
    ("InverseGaussian", (1.0, 2.0), 0.5),
    ("InverseGaussian", (1.0, 2.0), 1.9),
    ("InverseGaussian", (0.5, 1.5), 1e-3),
    ("NormalInverseGaussian", (2.0, 0.5, 1.0), -2.0),
    ("NormalInverseGaussian", (2.0, 0.5, 1.0), 1.4),
    ("NormalInverseGaussian", (2.0, -0.5, 3.0), -1.0),
    ("NormalInverseGaussian", (1.0, 0.0, 1.0), 0.9),
])
def test_square_root_exponents_match_50_digit_arithmetic(family, params, w):
    want = decimal_exponent(family, params, w)
    got = li.fiducial_exponent(li.make_noise_model(family, params), w)
    assert abs((Decimal(got) - want) / want) <= Decimal("1e-15")


def decimal_derivatives(family, params, w):
    """The three derivatives of psi0 of an InverseGaussian or
    NormalInverseGaussian model at real w, in 50-digit decimal arithmetic:
    a/r, a/(s r), 3a/(s^2 r) in s = b^2 - 2w, and m s/r, m a^2/(q r),
    3 m a^2 s/(q^2 r) in s = b + w and q = a^2 - s^2, r the square root of
    s or q."""
    with localcontext() as ctx:
        ctx.prec = 50
        if family == "InverseGaussian":
            a, b, w = map(Decimal, (*params, w))
            s = b * b - 2 * w
            r = s.sqrt()
            return a / r, a / (s * r), 3 * a / (s * s * r)
        a, b, m, w = map(Decimal, (*params, w))
        s = b + w
        q = a * a - s * s
        r = q.sqrt()
        return m * s / r, m * a * a / (q * r), 3 * m * a * a * s / (q * q * r)


@pytest.mark.parametrize("family, params, w", [
    # s r, s^2 r, q r or q^2 r overflows: psi0'' and psi0''' read 0 where
    # they are finite
    ("NormalInverseGaussian", (1e103, 0.0, 1.0), 0.0),
    ("NormalInverseGaussian", (1e103, 1e102, 1.0), 0.0),
    ("NormalInverseGaussian", (1e62, 0.0, 1.0), 1e61),
    ("InverseGaussian", (1e300, 1e103), 0.0),
    ("InverseGaussian", (1e10, 1e62), 1.0),
    # a numerator overflows: m a^2 (and m s at w = 1e49) or 3 a
    ("NormalInverseGaussian", (1e50, 0.0, 1e300), 0.0),
    ("NormalInverseGaussian", (1e50, 0.0, 1e300), 1e49),
    ("InverseGaussian", (1e308, 1e10), 0.0),
    # every product is finite
    ("NormalInverseGaussian", (2.0, 0.5, 1.0), 1.4),
    ("InverseGaussian", (1.0, 2.0), 1.9),
])
def test_square_root_derivatives_match_50_digit_arithmetic(family, params, w):
    got = li.exponent_derivatives(li.make_noise_model(family, params), w)
    for value, want in zip(got, decimal_derivatives(family, params, w)):
        if want == 0:
            assert value == 0.0
        else:
            assert abs((Decimal(value) - want) / want) <= Decimal("1e-15")


def test_square_root_derivatives_keep_the_plain_bits_where_the_products_are_finite():
    # the bounded quotients are taken only where a product overflows
    w = np.array([-1.9, 0.0, 1.0, 1.4])
    s, q = 0.5 + w, (1.5 - w) * (w + 2.5)
    r = np.sqrt(q)
    got = li.exponent_derivatives(li.make_noise_model("NormalInverseGaussian", (2.0, 0.5, 3.0)), w)
    np.testing.assert_array_equal(bits(got[1]), bits(3.0 * 2.0 * 2.0 / (q * r)))
    np.testing.assert_array_equal(bits(got[2]), bits(3.0 * 3.0 * 2.0 * 2.0 * s / (q * q * r)))
    w = np.array([0.0, 0.5, 1.9])
    s = 4.0 - 2.0 * w
    r = np.sqrt(s)
    got = li.exponent_derivatives(li.make_noise_model("InverseGaussian", (1.5, 2.0)), w)
    np.testing.assert_array_equal(bits(got[1]), bits(1.5 / (s * r)))
    np.testing.assert_array_equal(bits(got[2]), bits(3.0 * 1.5 / (s * s * r)))


def test_gamma_exponent_and_derivatives_where_kappa_alpha_overflows():
    # kappa alpha = -inf, so -m log1p(-kappa alpha) was -inf and u = kappa /
    # (1 - kappa alpha) was 0; the true values are finite and positive
    model = li.make_noise_model("Gamma", (1.0, 1e200))
    with localcontext() as ctx:
        ctx.prec = 50
        k, a = Decimal("1e200"), Decimal("-1e308")
        psi, u = -(1 - k * a).ln(), k / (1 - k * a)
    got = li.fiducial_exponent(model, -1e308)
    assert abs((Decimal(got) - psi) / psi) <= Decimal("1e-15")
    d1, d2, d3 = li.exponent_derivatives(model, -1e308)
    assert abs((Decimal(d1) - u) / u) <= Decimal("1e-15") and (d2, d3) == (0.0, 0.0)  # u^2 underflows
    # next to it, and wherever kappa alpha is finite, the bits are the plain expressions'
    assert li.exponent_derivatives(model, -1.0) == (1.0, 1.0, 2.0)
    alpha = np.array([-1.0, -1e308, -1e100, -1e-10])
    psi = li.fiducial_exponent(model, alpha)
    plain = np.array([True, False, True, True])
    assert np.isfinite(psi).all()
    np.testing.assert_array_equal(bits(psi[plain]), bits(-np.log1p(-1e200 * alpha[plain])))
    np.testing.assert_array_equal(bits(li.exponent_derivatives(model, alpha)[0][plain]),
                                  bits(1e200 / (1.0 - 1e200 * alpha[plain])))


# ---------------------------------------------------------------------------
# Esscher transform
# ---------------------------------------------------------------------------

def test_esscher_parameter_maps():
    gamma = li.esscher_transform(li.make_noise_model("Gamma", (3.0, 1.0)), 0.5)
    assert gamma.family == "Gamma"
    assert gamma.params == pytest.approx((3.0, 2.0))
    poisson = li.esscher_transform(
        li.make_noise_model("Poisson", (1.0,)), math.log(2.0))
    assert poisson.params == pytest.approx((2.0,))
    ig = li.esscher_transform(
        li.make_noise_model("InverseGaussian", (1.0, 2.0)), 0.9)
    assert ig.params == pytest.approx((1.0, math.sqrt(4.0 - 1.8)))
    nig = li.esscher_transform(
        li.make_noise_model("NormalInverseGaussian", (2.0, 0.5, 1.0)), 0.4)
    assert nig.params == pytest.approx((2.0, 0.9, 1.0))


def test_esscher_identity_at_zero(model):
    assert li.esscher_transform(model, 0.0) == model


def test_exponent_given_the_message_literals():
    # the exponent given X = x is that of the x-tilted model
    brown = li.esscher_transform(li.make_noise_model("Brownian", ()), 0.7)
    assert li.fiducial_exponent(brown, 1.0) == pytest.approx(1.2, abs=1e-15)
    gamma = li.esscher_transform(li.make_noise_model("Gamma", (1.0, 1.0)), 0.5)
    assert li.fiducial_exponent(gamma, 0.25) == pytest.approx(0.6931471805599453, abs=1e-15)


def test_exponent_given_the_message_domain_check():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.OutOfDomain):
        li.fiducial_exponent(li.esscher_transform(gamma, 0.6), 0.5)  # x + alpha beyond 1
    with pytest.raises(li.OutOfDomain):
        li.esscher_transform(gamma, 1.2)  # x itself beyond 1


def _eval_grid(model, halfwidth, n):
    # points where the model's own exponent is defined, near zero
    dom = li.admissible_set(model)
    lo = max(-halfwidth, dom.lo + (1e-6 if dom.lo_open else 0.0))
    hi = min(halfwidth, dom.hi - 1e-6)
    return np.linspace(lo, hi, n)


def test_esscher_exponent_identity(model):
    # exponent of the tilted model equals the conditional exponent at the tilt
    dom = li.admissible_set(model)
    lo = dom.lo if np.isfinite(dom.lo) else -1.0
    hi = dom.hi if np.isfinite(dom.hi) else 1.0
    lam = float(lo + 0.4 * (hi - lo))
    tilted = li.esscher_transform(model, lam)
    for a in _eval_grid(tilted, 0.2, 9):
        a = float(a)
        want = li.fiducial_exponent(model, lam + a) - li.fiducial_exponent(model, lam)
        assert li.fiducial_exponent(tilted, a) == pytest.approx(
            want, abs=1e-12)


def test_esscher_composition(model):
    dom = li.admissible_set(model)
    lo = dom.lo if np.isfinite(dom.lo) else -1.0
    hi = dom.hi if np.isfinite(dom.hi) else 1.0
    lam1 = float(lo + 0.3 * (hi - lo))
    lam2 = float(0.2 * (hi - lo))
    once = li.esscher_transform(li.esscher_transform(model, lam1), lam2)
    both = li.esscher_transform(model, lam1 + lam2)
    for a in _eval_grid(both, 0.1, 7):
        a = float(a)
        assert li.fiducial_exponent(once, a) == pytest.approx(
            li.fiducial_exponent(both, a), abs=1e-12)


def test_esscher_preserves_drift():
    m = li.make_noise_model("Gamma", (1.0, 1.0), drift=0.3)
    tilted = li.esscher_transform(m, 0.25)
    assert tilted.drift == 0.3
    # drift enters the exponent linearly
    assert li.fiducial_exponent(m, 0.5) == pytest.approx(
        -math.log(0.5) + 0.15, abs=1e-14)


def test_esscher_rejects_boundary_tilt():
    gamma = li.make_noise_model("Gamma", (1.0, 1.0))
    with pytest.raises(li.OutOfDomain):
        li.esscher_transform(gamma, 1.0)
