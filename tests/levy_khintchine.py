"""Levy-Khintchine reconstruction of psi(alpha) from a characteristic triplet.

The tests' cross-check of the closed forms: ``reconstruct_exponent``
re-assembles psi(alpha) by quadrature over the jump measure (truncated at
1e-8 with a second-order small-jump correction), reading each continuous
measure through ``LevyMeasure.density`` and each atomic one through its
atoms and the record's ``log_masses`` series.  scipy's ``integrate.quad`` is
the test-only dependency it adds; the package itself needs numpy alone.
"""

import math

import numpy as np
from scipy import integrate

from levy_info.characteristics import _DENSITIES, CharacteristicTriplet, LevyMeasure
from levy_info.noise import _FAMILIES

# Levy measure tag -> series of log atom masses, from the family records that
# carry one
_LOG_MASSES = {rec.measure: rec.log_masses for rec in _FAMILIES.values() if rec.log_masses is not None}


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
