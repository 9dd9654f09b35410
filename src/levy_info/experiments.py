"""Pre-packaged statistical studies verifying the core identities.

Each study simulates under a fixed seed, reduces to (quantity, estimate,
reference, stderr, z) rows and returns a :class:`~levy_info.stats.StudyReport`;
a study passes when every row with a reference has |z| inside the threshold
(default 3.5); a NaN z on such a row fails it.  Rows without a meaningful
reference (such as empirical exceedance probabilities) carry NaN reference
and z and are informational only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameter, _count, _positive, _real
from .noise import (
    _FAMILIES,
    NoiseModel,
    _check_domain,
    admissible_set,
    esscher_transform,
    exponent_derivatives,
    fiducial_exponent,
)
from .prior import Prior, check_compatibility, prior_from_atoms
from .simulate import TimeGrid, _bridge_clock, _fold_runs, representation_draws, simulate_ensemble
from .stats import (
    StudyReport,
    StudyRow,
    _mean_stderr,
    jackknife_covariance,
    jackknife_cumulants,
    jackknife_se,
    mean_stderr,
    zscore,
)

__all__ = [
    "convergence_study",
    "factorization_study",
    "esscher_consistency_study",
    "representation_equivalence_study",
    "bridge_study",
]


def _ladder(times) -> np.ndarray:
    times = np.ascontiguousarray(_real(times, "study times"), dtype=float).ravel()
    if times.size == 0 or not np.all(times > 0.0) or not np.all(np.diff(times) > 0.0):
        raise InvalidParameter("study times must be positive and strictly increasing")
    return times


def _values(model: NoiseModel, prior: Prior, grid: TimeGrid, n_paths: int, seed: int, tag: int) -> np.ndarray:
    """``simulate_ensemble(...)[1][:, 1:].T``: the values at grid[1:] as
    rows, written run by run as the ensemble is drawn, with its checks in
    its order and no ensemble matrix."""
    check_compatibility(prior, model)
    values = np.empty((len(grid) - 1, _count(n_paths, "n_paths")))

    def fold(sl, messages, rows):
        values[:, sl] = rows[:, 1:].T

    _fold_runs(model, prior, grid, n_paths, seed, tag, fold)
    return values


def _exceed_thresholds(model: NoiseModel, atoms: np.ndarray, epsilon: float):
    """Per atom, (psi0'(x_i + epsilon), psi0'(x_i - epsilon)), NaN where
    x_i +- epsilon is not in A.  The closed InverseGaussian end x_i - epsilon
    = 0 is in A: I0 clamps the rates at or below psi0'(0) to 0."""
    domain = admissible_set(model)
    sides = []
    for end in (atoms + epsilon, atoms - epsilon):
        side = np.full(atoms.shape, math.nan)
        inside = domain.contains(end)
        side[inside] = exponent_derivatives(model, end[inside])[0]
        sides.append(side)
    return sides


def convergence_study(
    model: NoiseModel,
    prior: Prior,
    times,
    n_paths: int,
    seed: int,
    epsilon: float = 0.5,
    threshold: float = 3.5,
) -> StudyReport:
    """Check the revelation rate E[(xi_t/t - psi0'(X))^2] = E[psi0''(X)]/t.

    One ``mse[t=...]`` row per ladder time compares the Monte Carlo mean
    square against the analytic reference computed from the prior.  The
    accompanying ``exceed[...]`` rows report the empirical
    P(|I0(xi_t/t) - X| >= epsilon), which should shrink along the ladder;
    they carry no analytic reference and are informational.

    Every message is one of the K prior atoms, so per-atom work is done once
    per atom and gathered by each path's atom index: psi0'(x_i) for the mean
    square, and for the exceedance the thresholds psi0'(x_i +- epsilon).
    Because psi0 is strictly convex, I0 = (psi0')^-1 is increasing and
    |I0(r) - x_i| >= epsilon holds exactly when r >= psi0'(x_i + epsilon) or
    r <= psi0'(x_i - epsilon); a side whose end leaves A never fires.  This
    also covers rates at or below a finite end of the range of psi0', which
    the inverse clamps to -inf (Poisson, Gamma, NegativeBinomial) or to 0
    (InverseGaussian).  No path is inverted; in floating point the count can
    differ from inverting each rate only for rates within a few ulps of a
    threshold.
    """
    threshold = _positive(threshold, "study threshold")
    n_paths = _count(n_paths, "n_paths", 1000)
    epsilon = _positive(epsilon, "epsilon")
    times = _ladder(times)
    grid = TimeGrid(np.concatenate(([0.0], times)))
    check_compatibility(prior, model)
    atoms = prior.positions
    d1, d2, _ = exponent_derivatives(model, atoms)
    thresholds = _exceed_thresholds(model, atoms, epsilon)
    sq = np.empty((times.size, n_paths))

    def fold(sl, messages, rows):  # one run: its squares into sq, its exceedance counts
        idx = np.searchsorted(atoms, messages)
        drift_x = d1[idx]
        hi, lo = (side[idx] for side in thresholds)
        counts = []
        for j, t in enumerate(times, start=1):
            rate = np.divide(rows[:, j], t)
            square = np.subtract(rate, drift_x, out=sq[j - 1, sl])
            np.square(square, out=square)
            counts.append(np.count_nonzero((rate >= hi) | (rate <= lo)))
        return counts

    exceed = np.sum(_fold_runs(model, prior, grid, n_paths, seed, 0, fold), axis=0)
    reference_d2 = float(prior.weights @ d2)
    rows = []
    for t, row, count in zip(times, sq, exceed):
        est, se = _mean_stderr(row, row)
        ref = reference_d2 / t
        rows.append(StudyRow(f"mse[t={t:g}]", est, ref, se, zscore(est, ref, se)))
        p = float(count / n_paths)
        se_p = math.sqrt(p * (1.0 - p) / n_paths)
        rows.append(
            StudyRow(f"exceed[t={t:g},eps={epsilon:g}]", p, math.nan, se_p, math.nan)
        )
    return StudyReport("convergence", tuple(rows), threshold)


def _pure_imaginary(value, name: str) -> complex:
    value = complex(value)
    if value.real != 0.0 or not math.isfinite(value.imag):
        raise InvalidParameter(f"{name} must be purely imaginary and finite, got {value}")
    return value


def _imaginary_grid(values, name: str) -> list:
    """A scalar or 1-D sequence of purely imaginary values, each with its own
    row label (values whose labels would coincide are rejected)."""
    if np.ndim(values) > 1:
        raise InvalidParameter(f"{name} must be a scalar or a 1-D sequence, got shape {np.shape(values)}")
    grid = [_pure_imaginary(v, name) for v in np.atleast_1d(values).tolist()]
    if not grid:
        raise InvalidParameter(f"{name} needs at least one value")
    labels = [f"{v.imag:g}i" for v in grid]
    if len(set(labels)) < len(labels):
        raise InvalidParameter(f"{name} values must be distinct, got {', '.join(labels)}")
    return grid


def factorization_study(
    model: NoiseModel,
    prior: Prior,
    alpha,
    beta,
    t: float,
    n_paths: int,
    seed: int,
    threshold: float = 3.5,
) -> StudyReport:
    """Check the change-of-measure factorization of the joint law of (xi_t, X).

    Weighting by exp(-X xi_t + psi0(X) t) removes the message from the
    observation: the self-normalized weighted estimate of
    E[exp(alpha xi_t + beta X)] must equal exp(psi0(alpha) t) times the
    prior characteristic function of X.  ``alpha`` and ``beta`` are each a
    purely imaginary scalar or a 1-D sequence of distinct ones; one ensemble
    serves every (alpha, beta) pair.  A ``weight_mean`` row checks that the
    raw weights average to one, then real and imaginary parts are compared
    separately for each pair, alpha-major.  At alpha = beta = 0 both sides
    are exactly 1.

    The work is split by factor, exp(alpha xi_t + beta X) = exp(alpha xi_t)
    exp(beta X): the weighted path factor is formed once per alpha, and
    exp(beta x_i) once per beta as a K-entry table over the prior atoms,
    gathered by each path's atom index, as is psi0(x_i) in the weights.
    Each pair is then one complex multiply.

    Memory stays at a few n-length arrays whatever the grid sizes: the
    messages and xi_t are written out run by run as the ensemble is drawn,
    with no ensemble matrix, the weights are formed in the message buffer,
    and three buffers, each allocated once, are reused: the complex path
    factor (per alpha), the complex pair samples (per pair) and the real
    residual (per part).  Every expression keeps its ufuncs and their order
    on purpose, the complex multiply included: the same product in real
    arithmetic, or sums regrouped by atom, would round differently and
    change the output bits.
    """
    threshold = _positive(threshold, "study threshold")
    alphas = _imaginary_grid(alpha, "alpha")
    betas = _imaginary_grid(beta, "beta")
    t = _positive(t, "t")
    check_compatibility(prior, model)
    messages, xi_t = np.empty((2, _count(n_paths, "n_paths")))

    def fold(sl, run_messages, rows):
        messages[sl] = run_messages
        xi_t[sl] = rows[:, 1]

    _fold_runs(model, prior, TimeGrid(np.array([0.0, t])), n_paths, seed, 0, fold)
    atoms = prior.positions
    idx = np.searchsorted(atoms, messages)
    # weights = exp(-X xi_t + psi0(X) t), in the message buffer; the term
    # psi0(X) t goes in the buffer the residuals reuse below
    weights = np.negative(messages, out=messages)
    weights *= xi_t
    resid = np.take(fiducial_exponent(model, atoms), idx)
    resid *= t
    weights += resid
    np.exp(weights, out=weights)
    w_mean, w_se = mean_stderr(weights)
    rows = [StudyRow("weight_mean", w_mean, 1.0, w_se, zscore(w_mean, 1.0, w_se))]
    n = weights.size
    b_tables = [(b, np.exp(b * atoms)) for b in betas]
    a_factor = np.empty(n, dtype=complex)
    samples = np.empty(n, dtype=complex)
    for a in alphas:
        # the real operands are cast to complex by assignment, so no ufunc
        # allocates a cast buffer; samples is free until the pair loop
        a_factor[...] = xi_t
        np.multiply(a, a_factor, out=a_factor)
        np.exp(a_factor, out=a_factor)
        samples[...] = weights
        a_factor *= samples
        a_ref = np.exp(fiducial_exponent(model, a) * t)
        for b, table in b_tables:
            np.take(table, idx, out=samples, mode="clip")  # "raise" would buffer out
            np.multiply(a_factor, samples, out=samples)
            reference = a_ref * (prior.weights @ table)
            key = f"alpha={a.imag:g}i,beta={b.imag:g}i"
            for part, take in (("re", np.real), ("im", np.imag)):
                part_samples = take(samples)
                est = float(part_samples.mean() / w_mean)
                # delta-method standard error of the ratio estimator
                np.multiply(est, weights, out=resid)
                np.subtract(part_samples, resid, out=resid)
                resid *= resid
                se = float(np.sqrt(resid.sum() / (n - 1) / n) / w_mean)
                ref = float(take(reference))
                rows.append(StudyRow(f"cf_{part}[{key}]", est, ref, se, zscore(est, ref, se)))
    return StudyReport("factorization", tuple(rows), threshold)


def esscher_consistency_study(
    model: NoiseModel,
    lam: float,
    t: float,
    n_paths: int,
    seed: int,
    threshold: float = 3.5,
) -> StudyReport:
    """Tilted simulation against importance-weighted fiducial simulation.

    Draws xi_t directly from the tilted model and, with common random
    numbers, from the fiducial model weighted by exp(lam xi - psi0(lam) t);
    compares mean and variance, both variances with the divisor n - 1.
    Both sides are a ``simulate_ensemble`` at the message 0, seed and tag 1:
    the common random numbers make the lam = 0 case agree (the variance to
    rounding) and otherwise only overstate the standard error of the
    difference, never understate it.

    Raises
    ------
    OutOfDomain
        Unless ``lam`` is 0 or interior to A (from ``esscher_transform``).
    IncompatibleSupport
        If ``lam`` is within ``prior.MARGIN`` of an open end of A.
    """
    threshold = _positive(threshold, "study threshold")
    tilted = esscher_transform(model, lam)
    lam = float(lam)  # real and in A: esscher_transform checked it
    t = _positive(t, "t")
    grid, origin = TimeGrid(np.array([0.0, t])), prior_from_atoms([(0.0, 1.0)])
    (direct,) = _values(tilted, origin, grid, n_paths, seed, 1)
    (fiducial,) = _values(model, origin, grid, n_paths, seed, 1)
    n = direct.size
    weights = np.exp(lam * fiducial - fiducial_exponent(model, lam) * t)

    rows = []
    mean_d, se_d = mean_stderr(direct)
    weighted = weights * fiducial
    mean_w, se_w = mean_stderr(weighted)
    se = math.hypot(se_d, se_w)
    rows.append(StudyRow("mean", mean_d, mean_w, se, zscore(mean_d, mean_w, se)))

    var_d, se_vd = jackknife_covariance(direct, direct)
    u = weighted * fiducial
    var_w = float(u.mean() - weighted.mean() ** 2) * n / (n - 1)
    m = n - 1
    loo = ((u.sum() - u) / m - ((weighted.sum() - weighted) / m) ** 2) * m / (m - 1)
    se_vw = jackknife_se(loo)
    se_v = math.hypot(se_vd, se_vw)
    rows.append(StudyRow("variance", var_d, var_w, se_v, zscore(var_d, var_w, se_v)))
    return StudyReport("esscher", tuple(rows), threshold)


def representation_equivalence_study(
    model: NoiseModel,
    x: float,
    t: float,
    n_paths: int,
    seed: int,
    threshold: float = 3.5,
) -> StudyReport:
    """Cross-check the alternative constructions on first three cumulants.

    Every construction in the record of the model's family (VarianceGamma
    and NegativeBinomial have them) is sampled at the same fixed message,
    drift and tilt included; per-representation rows compare k-statistics
    against the analytic cumulants psi0^(k)(x) t, and pairwise rows compare the
    representations against each other with combined jackknife errors.
    """
    threshold = _positive(threshold, "study threshold")
    reps = tuple(_FAMILIES[model.family].constructions)
    if len(reps) < 2:
        raise InvalidParameter(f"{model.family} has {len(reps)} constructions; the representation study needs two")
    t = _positive(t, "t")
    x = _check_domain(model, x, "message x")
    analytic = tuple(d * t for d in exponent_derivatives(model, x))
    estimates = {
        rep: jackknife_cumulants(representation_draws(model, rep, x, t, n_paths, seed, tag=i))
        for i, rep in enumerate(reps)
    }
    rows = []
    for rep in reps:
        cum = estimates[rep]
        for order in (1, 2, 3):
            est = cum.cumulants[order - 1]
            se = cum.stderrs[order - 1]
            ref = analytic[order - 1]
            rows.append(StudyRow(f"k{order}[{rep}]", est, ref, se, zscore(est, ref, se)))
    for i, rep_a in enumerate(reps):
        for rep_b in reps[i + 1 :]:
            ca, cb = estimates[rep_a], estimates[rep_b]
            for order in (1, 2, 3):
                est, ref = ca.cumulants[order - 1], cb.cumulants[order - 1]
                se = math.hypot(ca.stderrs[order - 1], cb.stderrs[order - 1])
                rows.append(
                    StudyRow(f"k{order}[{rep_a}|{rep_b}]", est, ref, se, zscore(est, ref, se))
                )
    return StudyReport("representation", tuple(rows), threshold)


def bridge_study(
    model: NoiseModel,
    x: float,
    horizon: float,
    s: float,
    t: float,
    n_paths: int,
    seed: int,
    threshold: float = 3.5,
) -> StudyReport:
    """Check the bridge moments at two times s < t inside the horizon.

    At fixed message x the bridge has conditional mean psi0'(x) u at time u
    and covariance s (T - t)/T psi0''(x); the study compares sample mean,
    variance and cross-covariance with jackknife standard errors.  The
    paths are one ``simulate_ensemble`` at the message x on the bridge
    clock (0, u_s, u_t), keyed by the seed and tag 2, rescaled; an x within
    ``prior.MARGIN`` of an open end of A is IncompatibleSupport there.
    """
    threshold = _positive(threshold, "study threshold")
    horizon, s, t = _positive(horizon, "horizon"), _positive(s, "s"), _positive(t, "t")
    if not s < t < horizon:
        raise InvalidParameter(f"need 0 < s < t < horizon, got s={s}, t={t}, horizon={horizon}")
    x = _check_domain(model, x, "message x")
    d1, d2, _ = exponent_derivatives(model, x)
    u, scale = _bridge_clock(horizon, np.array([0.0, s, t]))
    raw = simulate_ensemble(model, prior_from_atoms([(x, 1.0)]), TimeGrid(u), n_paths, seed, tag=2)[1]
    xi_s, xi_t = scale[1] * raw[:, 1], scale[2] * raw[:, 2]
    del raw
    rows = []
    for label, sample, at in (("s", xi_s, s), ("t", xi_t, t)):
        est, se = mean_stderr(sample)
        ref = d1 * at
        rows.append(StudyRow(f"mean[{label}]", est, ref, se, zscore(est, ref, se)))
        var, se_v = jackknife_covariance(sample, sample)
        ref_v = at * (horizon - at) / horizon * d2
        rows.append(StudyRow(f"var[{label}]", var, ref_v, se_v, zscore(var, ref_v, se_v)))
    cov, se_c = jackknife_covariance(xi_s, xi_t)
    ref_c = s * (horizon - t) / horizon * d2
    rows.append(StudyRow("cov[s,t]", cov, ref_c, se_c, zscore(cov, ref_c, se_c)))
    return StudyReport("bridge", tuple(rows), threshold)
