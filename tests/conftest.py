"""Shared fixtures: one representative model per noise family."""

import numpy as np
import pytest

import levy_info as li

# Family name -> parameter tuple used throughout the suite.
FAMILY_PARAMS = {
    "Brownian": (),
    "Poisson": (1.0,),
    "Gamma": (2.0, 1.0),
    "VarianceGamma": (2.0,),
    "NegativeBinomial": (1.0, 0.5),
    "InverseGaussian": (1.0, 2.0),
    "NormalInverseGaussian": (2.0, 0.5, 1.0),
}


def all_models():
    return [li.make_noise_model(fam, p) for fam, p in FAMILY_PARAMS.items()]


def window(interval):
    """The interval's ends, with an infinite end replaced by a finite one."""
    lo = interval.lo if np.isfinite(interval.lo) else min(-4.0, interval.hi - 8.0)
    hi = interval.hi if np.isfinite(interval.hi) else max(4.0, interval.lo + 8.0)
    return lo, hi


def interior_grid(model, n):
    """Evenly spaced points covering 99% of the interior of A.

    Infinite endpoints are replaced by a finite window before trimming
    0.5% of the width from each end.
    """
    lo, hi = window(li.admissible_set(model))
    width = hi - lo
    return np.linspace(lo + 0.005 * width, hi - 0.005 * width, n)


@pytest.fixture(params=sorted(FAMILY_PARAMS), ids=str)
def model(request):
    return li.make_noise_model(request.param, FAMILY_PARAMS[request.param])
