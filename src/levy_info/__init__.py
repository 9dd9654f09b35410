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

from .characteristics import (
    CharacteristicTriplet,
    LevyMeasure,
    characteristic_triplet,
    tilted_characteristics,
)
from .errors import (
    DegenerateWeights,
    EmptyPrior,
    GridExceedsHorizon,
    IncompatibleSupport,
    InvalidParameter,
    LevyInfoError,
    NonFiniteValue,
    NonPositiveWeight,
    OffSupport,
    OutOfDomain,
    OutOfRange,
    TooFewSamples,
    UnsupportedRepresentation,
    UsageError,
    ZeroMass,
)
from .experiments import (
    bridge_study,
    convergence_study,
    esscher_consistency_study,
    factorization_study,
    representation_equivalence_study,
)
from .filtering import (
    MessageEstimate,
    Posterior,
    best_estimate,
    conditional_cdf,
    estimate_message,
    gamma_linear_filter,
    posterior_update,
    sequential_update,
)
from .innovations import (
    InnovationsPath,
    compensated_path,
    innovations_ensemble,
    innovations_path,
    martingale_test,
)
from .noise import (
    FAMILIES,
    Interval,
    NoiseModel,
    admissible_set,
    conditional_exponent,
    esscher_transform,
    exponent_derivatives,
    fiducial_exponent,
    inverse_marginal,
    make_noise_model,
    marginal_range,
    sheffer_polynomials,
)
from .prior import (
    Prior,
    check_compatibility,
    prior_expectation,
    prior_from_atoms,
    prior_from_density,
)
from .simulate import (
    REPRESENTATIONS,
    InformationPath,
    TimeGrid,
    increment_draws,
    representation_draws,
    sample_message,
    simulate_alternative_representation,
    simulate_bridge_path,
    simulate_ensemble,
    simulate_information_path,
)
from .stats import (
    CumulantEstimate,
    StudyReport,
    StudyRow,
    jackknife_covariance,
    jackknife_cumulants,
    jackknife_se,
    k_statistics,
    mean_stderr,
    zscore,
)

__all__ = [
    "__version__",
    # errors
    "LevyInfoError",
    "InvalidParameter",
    "OutOfDomain",
    "OutOfRange",
    "EmptyPrior",
    "NonPositiveWeight",
    "ZeroMass",
    "IncompatibleSupport",
    "NonFiniteValue",
    "DegenerateWeights",
    "OffSupport",
    "UnsupportedRepresentation",
    "GridExceedsHorizon",
    "TooFewSamples",
    "UsageError",
    # noise models
    "FAMILIES",
    "NoiseModel",
    "Interval",
    "make_noise_model",
    "admissible_set",
    "fiducial_exponent",
    "exponent_derivatives",
    "marginal_range",
    "inverse_marginal",
    "conditional_exponent",
    "esscher_transform",
    "sheffer_polynomials",
    # characteristics
    "LevyMeasure",
    "CharacteristicTriplet",
    "characteristic_triplet",
    "tilted_characteristics",
    # priors
    "Prior",
    "prior_from_atoms",
    "prior_from_density",
    "check_compatibility",
    "prior_expectation",
    # simulation
    "TimeGrid",
    "InformationPath",
    "REPRESENTATIONS",
    "sample_message",
    "simulate_information_path",
    "simulate_ensemble",
    "increment_draws",
    "simulate_alternative_representation",
    "representation_draws",
    "simulate_bridge_path",
    # filtering
    "Posterior",
    "MessageEstimate",
    "posterior_update",
    "sequential_update",
    "conditional_cdf",
    "best_estimate",
    "gamma_linear_filter",
    "estimate_message",
    # innovations
    "InnovationsPath",
    "innovations_path",
    "innovations_ensemble",
    "compensated_path",
    "martingale_test",
    # statistics
    "StudyRow",
    "StudyReport",
    "CumulantEstimate",
    "zscore",
    "mean_stderr",
    "k_statistics",
    "jackknife_se",
    "jackknife_cumulants",
    "jackknife_covariance",
    # studies
    "convergence_study",
    "factorization_study",
    "esscher_consistency_study",
    "representation_equivalence_study",
    "bridge_study",
]
