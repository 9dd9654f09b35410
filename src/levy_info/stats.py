"""Statistical reductions for Monte Carlo verification.

Cumulants are estimated by k-statistics (the unique unbiased estimators)
with leave-one-out jackknife standard errors; the third-cumulant estimator
is heavy-tailed for several families, and the jackknife keeps its standard
error honest without distributional assumptions.  Study results are plain
(quantity, estimate, reference, stderr, z) rows; a study passes when every
row with a reference has |z| within the threshold.

Cubes are written as products (``d2 = d * d``, ``d2 * d``), never ``** 3``:
numpy's ``power`` leaves its SIMD path on signed input and is about 50 times
slower there than two multiplies, and a product gives the same bits whichever
path numpy takes.  Squares may stay ``** 2``, which numpy computes as
``x * x``.  Every power and shared difference is formed once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue, TooFewSamples, _positive

__all__ = [
    "StudyRow",
    "StudyReport",
    "zscore",
    "mean_stderr",
    "CumulantEstimate",
    "jackknife_cumulants",
    "jackknife_covariance",
]


def zscore(estimate: float, reference: float, stderr: float) -> float:
    """(estimate - reference) / stderr, with 0/0 resolved to 0."""
    diff = estimate - reference
    if stderr == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / stderr


@dataclass(frozen=True)
class StudyRow:
    """One comparison: a Monte Carlo estimate against its reference.

    Informational rows (no reference available) carry NaN reference and
    z; they never fail a study.  A row with a reference fails when its z is
    NaN (a NaN estimate or stderr) as well as when |z| is too large.
    """

    quantity: str
    estimate: float
    reference: float
    stderr: float
    z: float

    @property
    def informational(self) -> bool:
        return math.isnan(self.reference)


@dataclass(frozen=True, eq=False)
class StudyReport:
    """A named collection of study rows with a shared |z| threshold (> 0)."""

    name: str
    rows: tuple
    threshold: float = 3.5

    def __post_init__(self):
        _positive(self.threshold, "study threshold")

    @property
    def max_abs_z(self) -> float:
        """Largest |z| over the rows with a reference (a NaN z counts as
        inf); NaN when every row is informational."""
        zs = [math.inf if math.isnan(r.z) else abs(r.z) for r in self.rows if not r.informational]
        return max(zs) if zs else math.nan

    @property
    def passed(self) -> bool:
        return not self.flagged

    @property
    def flagged(self) -> tuple:
        return tuple(r for r in self.rows if not r.informational and not abs(r.z) <= self.threshold)

    def summary(self) -> str:
        """One machine-readable pass/fail line."""
        return (
            f"study={self.name} passed={str(self.passed).lower()} "
            f"rows={len(self.rows)} max_abs_z={self.max_abs_z:.6g} "
            f"threshold={self.threshold:g}"
        )


def _samples(x, least: int) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=float).ravel()
    if x.size < least:
        raise TooFewSamples(f"need at least {least} samples, got {x.size}")
    return x


def mean_stderr(x) -> tuple:
    """Sample mean and its standard error (ddof=1)."""
    return _mean_stderr(_samples(x, 2))


def _mean_stderr(x: np.ndarray, out: np.ndarray | None = None) -> tuple:
    """:func:`mean_stderr` of a 1-D float array, its squared deviations
    formed in ``out`` when given, which may be ``x`` itself.

    The mean is summed once; the steps are those of numpy's ``mean`` and
    ``std(ddof=1)`` (sum, divide; subtract, square, sum, divide, sqrt), so
    the bits are those of ``x.mean()`` and ``x.std(ddof=1) / sqrt(n)``.
    Finite samples whose sum or squared deviations overflow, such as draws
    near the largest float, are NonFiniteValue rather than an inf estimate;
    a sum is finite only when every sample is, so that is checked only
    after an overflow.  numpy's overflow and invalid warnings are off here:
    the error, or the non-finite samples' own inf or nan, is the signal.
    """
    n = x.size
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.add.reduce(x) / n)
        if not math.isfinite(mean) and np.isfinite(x).all():
            raise NonFiniteValue(f"the sum of {n} finite samples overflows")
        dev = np.subtract(x, mean, out=out)
        np.square(dev, out=dev)
        se = float(np.sqrt(np.add.reduce(dev) / (n - 1)) / math.sqrt(n))
    if math.isfinite(mean) and not math.isfinite(se):
        raise NonFiniteValue(f"the squared deviations of {n} finite samples overflow")
    return mean, se


def _centred_k_statistics(shift: float, xc: np.ndarray) -> tuple:
    """(k1, k2, k3) of ``shift + xc``, where ``xc`` is already centred at ``shift``."""
    n = xc.size
    m = xc.mean()
    d = xc - m
    d2 = d * d
    s2 = float(d2.sum())
    s3 = float(np.multiply(d2, d, out=d).sum())
    k1 = shift + m
    k2 = s2 / (n - 1)
    k3 = n * s3 / ((n - 1) * (n - 2))
    return float(k1), float(k2), float(k3)


@dataclass(frozen=True)
class CumulantEstimate:
    """k-statistics with jackknife standard errors."""

    k1: float
    k2: float
    k3: float
    se1: float
    se2: float
    se3: float

    @property
    def cumulants(self) -> tuple:
        return (self.k1, self.k2, self.k3)

    @property
    def stderrs(self) -> tuple:
        return (self.se1, self.se2, self.se3)


def _jackknife_se(loo: np.ndarray) -> float:
    """The jackknife standard error from the leave-one-out estimates ``loo``,
    a 1-D float array that is overwritten with its squared deviations."""
    n = loo.size
    loo -= loo.mean()
    np.square(loo, out=loo)
    return float(math.sqrt((n - 1) / n * loo.sum()))


def jackknife_cumulants(x) -> CumulantEstimate:
    """k1, k2, k3 with leave-one-out jackknife standard errors.

    Leave-one-out values come from downdated power sums (O(n) total); the
    data are centred at the grand mean first so the power sums do not lose
    precision to a large common location.

    Memory stays at four n-length arrays besides ``x``: each leave-one-out
    vector is reduced to its standard error before the next is formed, and
    the centred powers ``xc``, ``xc2`` and ``xc3`` are overwritten by the
    downdated sums and leave-one-out values once they are spent.  Each
    expression keeps its operands and their order on purpose, so the bits
    are those of the plain expressions
    r1 = s1 - xc, mu = r1 / m, c2 = (s2 - xc2) - r1 * mu and
    c3 = ((s3 - xc3) - (3.0 * mu) * r2) + (2.0 * m) * ((mu * mu) * mu).
    """
    x = _samples(x, 4)
    n = x.size
    shift = x.mean()
    xc = x - shift
    k1, k2, k3 = _centred_k_statistics(shift, xc)

    xc2 = xc * xc
    xc3 = xc2 * xc
    s1, s2, s3 = xc.sum(), float(xc2.sum()), float(xc3.sum())
    m = n - 1
    r1 = np.subtract(s1, xc, out=xc)
    mu = r1 / m
    r2 = np.subtract(s2, xc2, out=xc2)
    loo = np.multiply(r1, mu, out=r1)  # loo_k2 = c2 / (m - 1)
    np.subtract(r2, loo, out=loo)
    loo /= m - 1
    se2 = _jackknife_se(loo)
    se1 = _jackknife_se(np.add(shift, mu, out=loo))  # loo_k1
    c3 = np.subtract(s3, xc3, out=xc3)  # loo_k3 = m * c3 / ((m - 1) * (m - 2))
    term = np.multiply(3.0, mu, out=loo)
    term *= r2
    c3 -= term
    np.multiply(mu, mu, out=term)
    term *= mu
    term *= 2.0 * m
    c3 += term
    c3 *= m
    c3 /= (m - 1) * (m - 2)
    return CumulantEstimate(k1, k2, k3, se1, se2, _jackknife_se(c3))


def _paired_row(quantity: str, estimate: float, reference: float, loo: np.ndarray) -> StudyRow:
    """The row comparing two estimators of one quantity computed from the
    same paths, so that their errors are correlated: the standard error is
    the jackknife's for their difference, from ``loo``, the leave-one-out
    values of estimate - reference with path i left out of both sides at
    once (overwritten).  For two means that is the standard error of the
    mean of the per-path differences."""
    se = _jackknife_se(loo)
    return StudyRow(quantity, estimate, reference, se, zscore(estimate, reference, se))


def jackknife_covariance(a, b) -> tuple:
    """Unbiased sample covariance of paired samples with a jackknife SE.

    ``jackknife_covariance(a, a)`` is the sample variance with its SE.
    """
    cov, loo = _covariance_loo(a, b)
    return cov, _jackknife_se(loo)


def _covariance_loo(a, b) -> tuple:
    """The covariance of :func:`jackknife_covariance` and its leave-one-out values."""
    a = _samples(a, 4)
    b = _samples(b, 4)
    if a.size != b.size:
        raise TooFewSamples(f"paired samples differ in length: {a.size} vs {b.size}")
    n = a.size
    ac = a - a.mean()
    bc = b - b.mean()
    abc = ac * bc
    sa, sb, sab = ac.sum(), bc.sum(), float(abc.sum())
    m = n - 1
    loo = (sab - abc - (sa - ac) * (sb - bc) / m) / (m - 1)
    cov = (sab - sa * sb / n) / (n - 1)
    return float(cov), loo
