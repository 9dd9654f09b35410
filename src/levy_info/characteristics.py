"""Characteristic triplets (p, q, nu).

The Levy-Khintchine representation used throughout is

    psi(alpha) = p alpha + q alpha^2 / 2
                 + int (e^{alpha z} - 1 - alpha z 1{|z|<1}) nu(dz),

with the jump compensation truncated at |z| < 1.  Conditioning an
information process on its message X = x rescales the Levy measure by
e^{x z} and shifts the drift; since every supported family is closed under
exponential tilting, the triplet given X = x is that of the tilted model,
``characteristic_triplet(esscher_transform(model, x))``.

Everything here needs numpy alone: the triplets are closed forms except the
NIG drift compensation and the NIG density's Bessel K1, which are trapezoid
rules (``noise._nig_triplet``, ``noise._k1e``).  The tests re-assemble
psi(alpha) from a triplet by quadrature (``tests/levy_khintchine.py``) to
cross-check them.

No sampler, filter or study calls this module, and it stays public all the
same: it is the paper's per-family Levy-Khintchine data, and the quadrature
above checks every closed-form psi0 against it independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .noise import _FAMILIES, NoiseModel

__all__ = [
    "LevyMeasure",
    "CharacteristicTriplet",
    "characteristic_triplet",
]


# Levy measure tag -> density, from the family records that carry one
_DENSITIES = {rec.measure: rec.density for rec in _FAMILIES.values() if rec.density is not None}


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
