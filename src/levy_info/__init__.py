"""Levy information processes: simulation, optimal filtering, verification.

An information process is conditionally Levy given a hidden message X: its
conditional exponent is psi0(alpha + X) - psi0(X) for one of seven noise
families (Brownian, Poisson, Gamma, VarianceGamma, NegativeBinomial,
InverseGaussian, NormalInverseGaussian).  This package provides exact
samplers for such processes, the optimal Bayesian filter recovering X from
observations, the innovations decomposition, and a statistical study harness
that verifies the defining identities by Monte Carlo.
"""

__version__ = "0.1.0"

# each module's __all__ is its public API, and the package's is their union
from . import characteristics, errors, experiments, filtering, innovations, noise, prior, simulate, stats
from .characteristics import *
from .errors import *
from .experiments import *
from .filtering import *
from .innovations import *
from .noise import *
from .prior import *
from .simulate import *
from .stats import *

__all__ = ["__version__"] + [
    name
    for module in (errors, noise, characteristics, prior, simulate, filtering, innovations, stats, experiments)
    for name in module.__all__
]
