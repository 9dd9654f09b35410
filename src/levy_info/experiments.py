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

from .errors import GridExceedsHorizon, InvalidParameter, NonFiniteValue, _count, _floats, _positive, _real
from .noise import (
    _FAMILIES,
    NoiseModel,
    _check_domain,
    _exponent,
    admissible_set,
    esscher_transform,
    exponent_derivatives,
    fiducial_exponent,
)
from .prior import Prior, check_compatibility, prior_from_atoms
from .rng import map_ordered
from .simulate import TimeGrid, _fold_runs, representation_draws
from .stats import (
    StudyReport,
    StudyRow,
    _covariance_loo,
    _mean_stderr,
    _paired_row,
    jackknife_covariance,
    jackknife_cumulants,
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


def _values(model: NoiseModel, prior: Prior, grid: TimeGrid, n_paths: int, seed: int, tag: int) -> tuple:
    """``(index, xi[:, 1:].T)`` of ``x, xi = simulate_ensemble(...)``: the
    messages' atom indices (``prior.positions[index]`` is x) and the values
    at grid[1:] as rows, written run by run as the ensemble is drawn, with
    its checks in its order and no ensemble matrix."""
    check_compatibility(prior, model)
    n_paths = _floats(_count(n_paths, "n_paths"), len(grid), "n_paths")
    index, values = np.empty(n_paths, dtype=np.intp), np.empty((len(grid) - 1, n_paths))

    def fold(sl, messages, run_index, rows):
        index[sl] = run_index
        values[:, sl] = rows[:, 1:].T

    _fold_runs(model, prior, grid, n_paths, seed, tag, fold)
    return index, values


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
    sq = np.empty((times.size, _floats(n_paths, len(grid), "n_paths")))

    def fold(sl, messages, idx, rows):  # one run: its squares into sq, its exceedance counts
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


# Paths per slice of the factorization study's elementwise passes: a slice's
# complex buffers stay cache-sized between the steps of a pass, and each slice
# is one index that map_ordered hands to the caller or a helper thread.
_SLICE = 1 << 15


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

    Memory stays at a few n-length arrays whatever the grid sizes: the atom
    indices and xi_t are written out run by run as the ensemble is drawn,
    with no ensemble matrix, and three buffers, each allocated once, are
    reused: the complex path factor (per alpha), the complex pair samples
    (per pair) and the real residual (per part).  Every expression keeps its
    ufuncs and their order on purpose, the complex multiply included: the
    same product in real arithmetic, or sums regrouped by atom, would round
    differently and change the output bits.  The passes that fill the three
    buffers are elementwise, so they run on slices of the paths on up to
    ``worker_count()`` threads with the same bits, while every mean and sum
    stays one call on the whole array.
    """
    threshold = _positive(threshold, "study threshold")
    alphas = _imaginary_grid(alpha, "alpha")
    betas = _imaginary_grid(beta, "beta")
    t = _positive(t, "t")
    idx, (xi_t,) = _values(model, prior, TimeGrid(np.array([0.0, t])), n_paths, seed, 0)
    atoms = prior.positions
    # weights = exp(-X xi_t + psi0(X) t); the term psi0(X) t goes in the
    # buffer the residuals reuse below
    weights = np.take(np.negative(atoms), idx)
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
    slices = [slice(start, start + _SLICE) for start in range(0, n, _SLICE)]
    for a in alphas:

        def path_factor(sl):
            # the real operands are cast to complex by assignment, so no
            # ufunc allocates a cast buffer; samples is free until the pairs
            factor, cast = a_factor[sl], samples[sl]
            factor[...] = xi_t[sl]
            np.multiply(a, factor, out=factor)
            np.exp(factor, out=factor)
            cast[...] = weights[sl]
            factor *= cast

        map_ordered(path_factor, slices)
        a_ref = np.exp(fiducial_exponent(model, a) * t)
        for b, table in b_tables:

            def pair(sl):
                np.take(table, idx[sl], out=samples[sl], mode="clip")  # "raise" would buffer out
                np.multiply(a_factor[sl], samples[sl], out=samples[sl])

            map_ordered(pair, slices)
            reference = a_ref * (prior.weights @ table)
            key = f"alpha={a.imag:g}i,beta={b.imag:g}i"
            for part, take in (("re", np.real), ("im", np.imag)):
                part_samples = take(samples)
                est = float(part_samples.mean() / w_mean)

                def residual(sl):  # of the delta-method standard error of the ratio estimator
                    np.multiply(est, weights[sl], out=resid[sl])
                    np.subtract(part_samples[sl], resid[sl], out=resid[sl])
                    resid[sl] *= resid[sl]

                map_ordered(residual, slices)
                se = float(np.sqrt(resid.sum() / (n - 1) / n) / w_mean)
                ref = float(take(reference))
                rows.append(StudyRow(f"cf_{part}[{key}]", est, ref, se, zscore(est, ref, se)))
    return StudyReport("factorization", tuple(rows), threshold)


def _check_spread(d2: float, law: str) -> None:
    """InvalidParameter where psi0'', the variance per unit time of the law
    a study samples, is below the square root of the smallest normal float:
    the variance rows' jackknife squares deviations of that size, so their
    standard errors underflow to 0, and rounding, not the identity, decides z."""
    if d2 < math.sqrt(np.finfo(float).tiny):  # 2^-511
        raise InvalidParameter(f"psi0'' of {law} is {d2:g}, below the square root of the smallest normal float; "
                               "the study cannot resolve its draws")


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
    Both sides are a ``simulate_ensemble`` at the message 0, seed and tag 1,
    so path i of each side draws the same random numbers, and each row's
    standard error is that of the paired difference: the mean row's from
    the per-path differences direct_i - w_i fiducial_i, the variance row's
    the jackknife of the difference of the two variance estimators, leaving
    out path i of both sides at once.  At lam = 0 both sides are the same
    draws, and the rows agree (the variance to rounding).

    Raises
    ------
    OutOfDomain
        Unless ``lam`` is 0 or interior to A (from ``esscher_transform``).
    IncompatibleSupport
        If ``lam`` is within ``prior.MARGIN`` of an open end of A.
    InvalidParameter
        If psi0'' of the tilted model at 0 is below the square root of the
        smallest normal float (Gamma noise at lam = -1e153, say): the
        jackknife of its draws' variance, and so its standard error,
        underflows to 0.  Or if every weight underflows to 0 (Gamma noise at
        lam = -1e76).
    NonFiniteValue
        If some weight overflows (Brownian noise at lam = 1e308, say).
    """
    threshold = _positive(threshold, "study threshold")
    tilted = esscher_transform(model, lam)
    lam = float(lam)  # real and in A: esscher_transform checked it
    _check_spread(exponent_derivatives(tilted, 0.0)[1], f"the tilted model at lam={lam:g}")
    t = _positive(t, "t")
    grid, origin = TimeGrid(np.array([0.0, t])), prior_from_atoms([(0.0, 1.0)])
    (direct,) = _values(tilted, origin, grid, n_paths, seed, 1)[1]
    (fiducial,) = _values(model, origin, grid, n_paths, seed, 1)[1]
    n = direct.size
    # far out in A (lam = -1e308) lam xi overflows to -inf, and the weight is 0,
    # its rounded value; a weight (or an unchecked psi0(lam)) that overflows is refused
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(lam * fiducial - _exponent(model, np.float64(lam)) * t)
    if not np.isfinite(weights).all():
        raise NonFiniteValue(f"the Esscher weights exp(lam xi - psi0(lam) t) overflow at lam={lam:g}, t={t:g}")
    if not weights.any():
        raise InvalidParameter(f"every Esscher weight exp(lam xi - psi0(lam) t) underflows to 0 at lam={lam:g}, t={t:g}")

    mean_d = mean_stderr(direct)[0]
    weighted = np.multiply(weights, fiducial, out=weights)
    mean_w = mean_stderr(weighted)[0]
    m = n - 1
    loo = np.subtract(direct, weighted)  # d_i, then the leave-one-out means of d
    np.subtract(loo.sum(), loo, out=loo)
    loo /= m
    rows = [_paired_row("mean", mean_d, mean_w, loo)]

    var_d, loo = _covariance_loo(direct, direct)
    u = weighted * fiducial
    var_w = float(u.mean() - weighted.mean() ** 2) * n / (n - 1)
    loo -= ((u.sum() - u) / m - ((weighted.sum() - weighted) / m) ** 2) * m / (m - 1)
    rows.append(_paired_row("variance", var_d, var_w, loo))
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
    bridge is xi_{tT} = ((T - t)/T) xi(u) on the clock u = tT/(T - t): the
    paths are one ``simulate_ensemble`` at the message x on the clock at
    (0, s, t), keyed by the seed and tag 2, rescaled.  A t whose u exceeds
    1e6 T is GridExceedsHorizon; an x within ``prior.MARGIN`` of an open end
    of A is IncompatibleSupport; an x where psi0''(x) is below the square
    root of the smallest normal float (Gamma noise at x = -1e153, say), so
    that the jackknife standard errors underflow, is InvalidParameter.
    """
    threshold = _positive(threshold, "study threshold")
    horizon, s, t = _positive(horizon, "horizon"), _positive(s, "s"), _positive(t, "t")
    if not s < t < horizon:
        raise InvalidParameter(f"need 0 < s < t < horizon, got s={s}, t={t}, horizon={horizon}")
    x = _check_domain(model, x, "message x")
    d1, d2, _ = exponent_derivatives(model, x)
    _check_spread(d2, f"the model at x={x:g}")
    times = np.array([0.0, s, t])
    u = times * horizon / (horizon - times)
    if u[-1] > 1e6 * horizon:
        raise GridExceedsHorizon(f"transformed time {u[-1]:.6g} exceeds the cap {1e6 * horizon:.6g}; "
                                 f"keep t away from the horizon")
    scale = (horizon - times) / horizon
    raw = _values(model, prior_from_atoms([(x, 1.0)]), TimeGrid(u), n_paths, seed, tag=2)[1]
    xi_s, xi_t = scale[1] * raw[0], scale[2] * raw[1]
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
