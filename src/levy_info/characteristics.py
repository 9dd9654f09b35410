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
]


# Levy measure tag -> density or series of log atom masses, from the family
# records that carry one
_DENSITIES = {rec.measure: rec.density for rec in _FAMILIES.values() if rec.density is not None}
_LOG_MASSES = {rec.measure: rec.log_masses for rec in _FAMILIES.values() if rec.log_masses is not None}


@dataclass(frozen=True)
class LevyMeasure:
    """Parametric description of a Levy measure.

    ``tag`` is one of "none", "atoms", "nb", "gamma", "vg", "ig", "nig", the
    ``measure`` of a family record.  Atomic measures (Poisson, negative
    binomial) carry ``atoms`` as a tuple of (position, mass) pairs; continuous
    ones expose the record's density through :meth:`density`.
    """

    tag: str
    params: tuple = ()
    atoms: tuple = ()

    def density(self, z):
        """Density of the measure at ``z`` (continuous tags only)."""
        density = _DENSITIES.get(self.tag)
        if density is None:
            raise InvalidParameter(f"Levy measure tag {self.tag!r} has no density")
        return density(np.asarray(z, dtype=float), *self.params)


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
    rec = _FAMILIES[model.family]
    comp, gaussian, params, atoms = rec.triplet(*model.params)
    return CharacteristicTriplet(model.drift + comp, gaussian, LevyMeasure(rec.measure, params, atoms))


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
    return characteristic_triplet(esscher_transform(model, x))


def _jump_integral(measure: LevyMeasure, alpha: float, eps: float = 1e-8) -> float:
    """int (e^{alpha z} - 1 - alpha z 1{|z|<1}) nu(dz), numerically.

    Continuous measures are integrated on both half-lines outside (-eps,
    eps), with the omitted part replaced by its second-order Taylor value
    (alpha^2 / 2) int_{-eps}^{eps} z^2 nu(dz).  An atomic measure whose
    record gives its masses as a series continues past its last stored atom
    (the atoms are truncated by unweighted mass), so the e^{alpha z}-weighted
    tail is kept, each term as exp(log mass + alpha k) - mass: either factor
    alone can underflow or overflow where the product is tame.
    """
    if measure.tag not in _DENSITIES:
        total = 0.0
        for z, mass in measure.atoms:
            term = math.expm1(alpha * z)
            if abs(z) < 1.0:
                term -= alpha * z
            total += mass * term
        if measure.tag in _LOG_MASSES:
            log_masses = _LOG_MASSES[measure.tag]
            for k in range(len(measure.atoms) + 1, 200_002):
                log_mass = log_masses(k, *measure.params)
                term = math.exp(log_mass + alpha * k) - math.exp(log_mass)
                total += term
                if abs(term) <= 1e-17 * (1.0 + abs(total)):
                    break
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

    total = 0.0
    # each half-line in three pieces; a one-sided density gives exactly 0 on
    # the negative ones
    for near, far, small in (((eps, 1.0), (1.0, np.inf), (0.0, eps)),
                             ((-1.0, -eps), (-np.inf, -1.0), (-eps, 0.0))):
        total += integrate.quad(integrand, *near, limit=200)[0]
        total += integrate.quad(integrand, *far, limit=200)[0]
        val, _ = integrate.quad(lambda z: z * z * float(measure.density(z)), *small, limit=200)
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
