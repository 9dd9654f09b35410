"""Characteristic triplets (p, q, nu) and message tilting.

The Levy-Khintchine representation used throughout is

    psi(alpha) = p alpha + q alpha^2 / 2
                 + int (e^{alpha z} - 1 - alpha z 1{|z|<1}) nu(dz),

with the jump compensation truncated at |z| < 1.  Conditioning an
information process on its message X = x rescales the Levy measure by
e^{x z} and shifts the drift; since every supported family is closed under
exponential tilting, the tilted triplet is simply the triplet of the tilted
model.

``reconstruct_exponent`` numerically re-assembles psi(alpha) from a triplet
(quadrature over the jump measure, truncated at 1e-8 with a second-order
small-jump correction).  It exists to cross-check the closed forms and is a
test aid, not a production code path.  scipy (quadrature, the Bessel K1) is
imported inside the functions that need it, so importing the package does
not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .noise import _FAMILIES, NoiseModel, esscher_transform

__all__ = [
    "LevyMeasure",
    "CharacteristicTriplet",
    "characteristic_triplet",
    "tilted_characteristics",
    "reconstruct_exponent",
]


@dataclass(frozen=True)
class LevyMeasure:
    """Parametric description of a Levy measure.

    ``tag`` is one of "none", "atoms", "nb", "gamma", "vg", "ig", "nig".  Atomic
    measures (Poisson, negative binomial) carry ``atoms`` as a tuple of
    (position, mass) pairs; continuous ones expose their density through
    :meth:`density`.
    """

    tag: str
    params: tuple = ()
    atoms: tuple = ()

    def density(self, z):
        """Density of the measure at ``z`` (continuous tags only)."""
        z = np.asarray(z, dtype=float)
        if self.tag == "gamma":
            m, kappa = self.params
            return np.where(z > 0, m * np.exp(-z / kappa) / np.where(z > 0, z, 1.0), 0.0)
        if self.tag == "vg":
            m, k1, k2 = self.params
            az = np.abs(z)
            scale = np.where(z > 0, k1, k2)
            return np.where(z != 0, m * np.exp(-az / scale) / np.where(z != 0, az, 1.0), 0.0)
        if self.tag == "ig":
            a, b = self.params
            return np.where(
                z > 0,
                a / math.sqrt(2.0 * math.pi)
                * np.where(z > 0, z, 1.0) ** (-1.5)
                * np.exp(-0.5 * b * b * z),
                0.0,
            )
        if self.tag == "nig":
            from scipy import special

            a, b, m = self.params
            az = np.abs(z)
            azs = np.where(z != 0, az, 1.0)
            return np.where(z != 0, m * a / math.pi * np.exp(b * z) * special.k1(a * azs) / azs, 0.0)
        raise InvalidParameter(f"Levy measure tag {self.tag!r} has no density")


@dataclass(frozen=True)
class CharacteristicTriplet:
    """Levy-Khintchine data (drift, gaussian, levy_measure)."""

    drift: float
    gaussian: float
    levy_measure: LevyMeasure

    def __post_init__(self):
        if self.gaussian < 0.0:
            raise InvalidParameter(f"gaussian coefficient must be >= 0, got {self.gaussian}")


def characteristic_triplet(model: NoiseModel) -> CharacteristicTriplet:
    """The Levy-Khintchine triplet of the model's fiducial exponent."""
    comp, gaussian, tag, params, atoms = _FAMILIES[model.family].triplet(*model.params)
    return CharacteristicTriplet(model.drift + comp, gaussian, LevyMeasure(tag, params, atoms))


def tilted_characteristics(model: NoiseModel, x: float) -> CharacteristicTriplet:
    """Triplet of the conditional law given message value ``x``.

    Conditioning rescales the Levy measure by e^{x z} and shifts the drift;
    because every family is closed under tilting this equals the triplet of
    ``esscher_transform(model, x)``.

    Raises
    ------
    OutOfDomain
        If ``x`` is outside the interior of the admissible set (x = 0 is
        always accepted and returns the fiducial triplet).
    """
    return characteristic_triplet(esscher_transform(model, float(x)))


def _jump_integral(measure: LevyMeasure, alpha: float, eps: float = 1e-8) -> float:
    """int (e^{alpha z} - 1 - alpha z 1{|z|<1}) nu(dz), numerically.

    Continuous measures are integrated on (eps, inf) (both sides where
    two-sided), with the omitted (0, eps) part replaced by its second-order
    Taylor value (alpha^2 / 2) int_0^eps z^2 nu(dz).
    """
    if measure.tag == "none":
        return 0.0
    if measure.tag in ("atoms", "nb"):
        total = 0.0
        for z, mass in measure.atoms:
            term = math.expm1(alpha * z)
            if abs(z) < 1.0:
                term -= alpha * z
            total += mass * term
        if measure.tag == "nb":
            # the stored atom list is truncated by unweighted mass; continue
            # the geometric series so the e^{alpha z}-weighted tail is kept
            m, q = measure.params
            ratio = q * math.exp(alpha)
            k = len(measure.atoms) + 1
            while ratio < 1.0:
                term = m * q ** k / k * math.expm1(alpha * k)
                total += term
                if abs(term) <= 1e-17 * (1.0 + abs(total)) or k > 200_000:
                    break
                k += 1
        return total

    from scipy import integrate

    def integrand(z):
        # evaluate e^{alpha z} * density(z) through the sum of exponents --
        # each factor alone can overflow where the product is tame
        d = float(measure.density(z))
        if d == 0.0:
            return 0.0
        expo = alpha * z + math.log(d)
        term = (math.exp(expo) if expo > -745.0 else 0.0) - d
        if abs(z) < 1.0:
            term -= alpha * z * d
        return term

    def small_z2(lo, hi):
        val, _ = integrate.quad(lambda z: z * z * float(measure.density(z)), lo, hi, limit=200)
        return 0.5 * alpha * alpha * val

    total = 0.0
    # positive side
    total += integrate.quad(integrand, eps, 1.0, limit=200)[0]
    total += integrate.quad(integrand, 1.0, np.inf, limit=200)[0]
    total += small_z2(0.0, eps)
    if measure.tag in ("vg", "nig"):
        total += integrate.quad(integrand, -1.0, -eps, limit=200)[0]
        total += integrate.quad(integrand, -np.inf, -1.0, limit=200)[0]
        val, _ = integrate.quad(lambda z: z * z * float(measure.density(z)), -eps, 0.0, limit=200)
        total += 0.5 * alpha * alpha * val
    return total


def reconstruct_exponent(triplet: CharacteristicTriplet, alpha: float) -> float:
    """Evaluate psi(alpha) from the triplet via Levy-Khintchine (real alpha).

    Numerical-quadrature cross-check; accuracy is limited by the jump
    integral (typically ~1e-9 relative for the infinite-activity measures).
    """
    alpha = float(alpha)
    return (
        triplet.drift * alpha
        + 0.5 * triplet.gaussian * alpha * alpha
        + _jump_integral(triplet.levy_measure, alpha)
    )
