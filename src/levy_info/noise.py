"""Closed-form Levy exponents for the seven supported noise families.

A noise family is described by its fiducial exponent ``psi0`` with

    E[exp(alpha * xi_t)] = exp(psi0(alpha) * t)

finite for ``Re alpha`` in the admissible set ``A``.  This module provides
the exponent and its first three derivatives in closed form, the inverse of
the marginal exponent ``psi0'``, the admissible set, conditional exponents,
Esscher transforms (exponential tilting), and the first three Sheffer
polynomials, for the families:

    Brownian              psi0(a) = a^2/2                       A = R
    Poisson(m)            psi0(a) = m (e^a - 1)                 A = R
    Gamma(m, kappa)       psi0(a) = -m ln(1 - kappa a)          A = (-inf, 1/kappa)
    VarianceGamma(m)      psi0(a) = -m ln(1 - a^2/(2m))         A = (-sqrt(2m), sqrt(2m))
    NegativeBinomial(m,q) psi0(a) = m ln((1-q)/(1-q e^a))       A = (-inf, -ln q)
    InverseGaussian(a,b)  psi0(w) = a (b - sqrt(b^2 - 2w))      A = [0, b^2/2)
    NormalInverseGaussian(a,b,m)
                          psi0(w) = m (sqrt(a^2-b^2) - sqrt(a^2-(b+w)^2))
                                                                A = (-a-b, a-b)

Esscher tilting keeps each family closed under the transform once two
generalisations are allowed: a Brownian model may carry a drift, and a
variance gamma model is stored as the general drifted triple (m, mu, sigma)
with the standard form corresponding to mu=0, sigma=1.  ``make_noise_model``
only constructs the standard forms; the generalised ones arise internally
from ``esscher_transform``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, OutOfDomain, OutOfRange

__all__ = [
    "FAMILIES",
    "Interval",
    "NoiseModel",
    "make_noise_model",
    "fiducial_exponent",
    "exponent_derivatives",
    "inverse_marginal",
    "admissible_set",
    "conditional_exponent",
    "esscher_transform",
    "sheffer_polynomials",
    "marginal_range",
    "inverse_closed_form",
    "inverse_marginal_clamped",
]

BROWNIAN = "Brownian"
POISSON = "Poisson"
GAMMA = "Gamma"
VG = "VarianceGamma"
NB = "NegativeBinomial"
IG = "InverseGaussian"
NIG = "NormalInverseGaussian"

FAMILIES = (BROWNIAN, POISSON, GAMMA, VG, NB, IG, NIG)

_ALIASES = {
    "brownian": BROWNIAN,
    "wiener": BROWNIAN,
    "poisson": POISSON,
    "gamma": GAMMA,
    "variancegamma": VG,
    "variance_gamma": VG,
    "vg": VG,
    "negativebinomial": NB,
    "negative_binomial": NB,
    "nb": NB,
    "inversegaussian": IG,
    "inverse_gaussian": IG,
    "ig": IG,
    "normalinversegaussian": NIG,
    "normal_inverse_gaussian": NIG,
    "nig": NIG,
}


def canonical_family(name: str) -> str:
    """Map a family name or common alias to its canonical spelling."""
    key = str(name).replace("-", "_").lower()
    try:
        return _ALIASES[key]
    except KeyError:
        raise InvalidParameter(
            f"unknown noise family {name!r}; expected one of {', '.join(FAMILIES)}"
        ) from None


@dataclass(frozen=True)
class Interval:
    """A real interval with individually open or closed endpoints."""

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = True

    def contains(self, x: float) -> bool:
        """Membership test respecting the endpoint conventions."""
        if not np.isfinite(x):
            return False
        above = x > self.lo if self.lo_open else x >= self.lo
        below = x < self.hi if self.hi_open else x <= self.hi
        return bool(above and below)

    def interior_contains(self, x: float) -> bool:
        """Strict membership in the open interval (lo, hi)."""
        return bool(np.isfinite(x) and self.lo < x < self.hi)

    def contains_array(self, x: np.ndarray) -> np.ndarray:
        """Vectorized ``contains``."""
        x = np.asarray(x, dtype=float)
        above = x > self.lo if self.lo_open else x >= self.lo
        below = x < self.hi if self.hi_open else x <= self.hi
        return np.isfinite(x) & above & below


@dataclass(frozen=True)
class NoiseModel:
    """A noise family with validated parameters and an optional drift.

    ``params`` holds the family parameters in canonical order (see module
    docstring); ``drift`` adds a deterministic term ``drift * alpha`` to the
    exponent (tilting a Brownian model, for instance, produces one).
    """

    family: str
    params: tuple
    drift: float = 0.0

    def __repr__(self):  # compact, e.g. NoiseModel(Gamma, m=1, kappa=1)
        names = _PARAM_NAMES[self.family]
        inner = ", ".join(f"{n}={v:g}" for n, v in zip(names, self.params))
        if self.drift != 0.0:
            inner += f", drift={self.drift:g}"
        return f"NoiseModel({self.family}{', ' if inner else ''}{inner})"


_PARAM_NAMES = {
    BROWNIAN: (),
    POISSON: ("m",),
    GAMMA: ("m", "kappa"),
    VG: ("m", "mu", "sigma"),
    NB: ("m", "q"),
    IG: ("a", "b"),
    NIG: ("a", "b", "m"),
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParameter(message)


def make_noise_model(family: str, params=(), drift: float = 0.0) -> NoiseModel:
    """Construct a validated noise model.

    Parameters
    ----------
    family : str
        One of the seven family names (aliases such as "VG" are accepted).
    params : sequence of float
        Family parameters: Brownian takes none; Poisson ``[m]``; Gamma
        ``[m, kappa]``; VarianceGamma ``[m]`` (standard form); NegativeBinomial
        ``[m, q]``; InverseGaussian ``[a, b]``; NormalInverseGaussian
        ``[a, b, m]``.
    drift : float
        Additional deterministic drift (adds ``drift * alpha`` to the exponent).

    Returns
    -------
    NoiseModel

    Raises
    ------
    InvalidParameter
        If the parameter count or any constraint is violated.
    """
    fam = canonical_family(family)
    p = tuple(float(v) for v in params)
    drift = float(drift)
    _require(all(np.isfinite(p)), f"{fam} parameters must be finite, got {p}")
    _require(math.isfinite(drift), f"drift must be finite, got {drift}")

    if fam == BROWNIAN:
        _require(len(p) == 0, f"Brownian takes no parameters, got {len(p)}")
    elif fam == POISSON:
        _require(len(p) == 1, f"Poisson takes [m], got {len(p)} parameters")
        _require(p[0] > 0, f"Poisson rate m must be > 0, got {p[0]}")
    elif fam == GAMMA:
        _require(len(p) == 2, f"Gamma takes [m, kappa], got {len(p)} parameters")
        _require(p[0] > 0, f"Gamma rate m must be > 0, got {p[0]}")
        _require(p[1] > 0, f"Gamma scale kappa must be > 0, got {p[1]}")
    elif fam == VG:
        _require(len(p) == 1, f"VarianceGamma takes [m], got {len(p)} parameters")
        _require(p[0] > 0, f"VarianceGamma rate m must be > 0, got {p[0]}")
        p = (p[0], 0.0, 1.0)
    elif fam == NB:
        _require(len(p) == 2, f"NegativeBinomial takes [m, q], got {len(p)} parameters")
        _require(p[0] > 0, f"NegativeBinomial rate m must be > 0, got {p[0]}")
        _require(0.0 < p[1] < 1.0, f"NegativeBinomial q must lie in (0, 1), got {p[1]}")
    elif fam == IG:
        _require(len(p) == 2, f"InverseGaussian takes [a, b], got {len(p)} parameters")
        _require(p[0] > 0, f"InverseGaussian a must be > 0, got {p[0]}")
        _require(p[1] > 0, f"InverseGaussian b must be > 0, got {p[1]}")
    elif fam == NIG:
        _require(len(p) == 3, f"NormalInverseGaussian takes [a, b, m], got {len(p)} parameters")
        _require(p[0] > 0, f"NormalInverseGaussian a must be > 0, got {p[0]}")
        _require(abs(p[1]) < p[0], f"NormalInverseGaussian requires |b| < a, got b={p[1]}, a={p[0]}")
        _require(p[2] > 0, f"NormalInverseGaussian m must be > 0, got {p[2]}")
    else:  # pragma: no cover
        raise InvalidParameter(f"unhandled family {fam}")
    return NoiseModel(fam, p, drift)


def admissible_set(model: NoiseModel) -> Interval:
    """The admissible set A of the model as an interval.

    Drift does not change A.  The InverseGaussian interval is closed at 0 and
    open at b^2/2; all other families have open intervals.
    """
    fam, p = model.family, model.params
    inf = math.inf
    if fam in (BROWNIAN, POISSON):
        return Interval(-inf, inf)
    if fam == GAMMA:
        return Interval(-inf, 1.0 / p[1])
    if fam == VG:
        m, mu, sigma = p
        root = math.sqrt(mu * mu + 2.0 * m * sigma * sigma)
        return Interval((-mu - root) / sigma**2, (-mu + root) / sigma**2)
    if fam == NB:
        return Interval(-inf, -math.log(p[1]))
    if fam == IG:
        return Interval(0.0, 0.5 * p[1] ** 2, lo_open=False)
    if fam == NIG:
        a, b, _m = p
        return Interval(-a - b, a - b)
    raise InvalidParameter(f"unhandled family {fam}")  # pragma: no cover


def _check_domain(model: NoiseModel, re_alpha: float, what: str = "alpha") -> None:
    if not admissible_set(model).contains(re_alpha):
        iv = admissible_set(model)
        raise OutOfDomain(
            f"{what}={re_alpha:g} outside admissible set "
            f"{'(' if iv.lo_open else '['}{iv.lo:g}, {iv.hi:g}{')' if iv.hi_open else ']'}"
            f" of {model!r}"
        )


# ---------------------------------------------------------------------------
# Exponent and derivatives.  The *_unchecked helpers are vectorized over
# real numpy arrays and perform no domain validation; hot loops in the
# filter and the simulators call these after validating once up front.
# ---------------------------------------------------------------------------


def psi_unchecked(model: NoiseModel, alpha):
    """psi0(alpha) for real scalar/array alpha, no domain check."""
    fam, p = model.family, model.params
    a = np.asarray(alpha, dtype=float)
    if fam == BROWNIAN:
        out = 0.5 * a * a
    elif fam == POISSON:
        out = p[0] * np.expm1(a)
    elif fam == GAMMA:
        out = -p[0] * np.log1p(-p[1] * a)
    elif fam == VG:
        m, mu, sigma = p
        out = -m * np.log1p(-(mu * a + 0.5 * sigma * sigma * a * a) / m)
    elif fam == NB:
        m, q = p
        out = m * (np.log1p(-q) - np.log1p(-q * np.exp(a)))
    elif fam == IG:
        ai, b = p
        out = ai * (b - np.sqrt(b * b - 2.0 * a))
    elif fam == NIG:
        av, b, m = p
        s = b + a
        out = m * (math.sqrt(av * av - b * b) - np.sqrt(av * av - s * s))
    else:  # pragma: no cover
        raise InvalidParameter(f"unhandled family {fam}")
    out = out + model.drift * a
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def _psi_complex(model: NoiseModel, alpha: complex) -> complex:
    """psi0(alpha) for complex alpha, principal branches, no domain check."""
    fam, p = model.family, model.params
    a = complex(alpha)
    if fam == BROWNIAN:
        out = 0.5 * a * a
    elif fam == POISSON:
        out = p[0] * (cmath.exp(a) - 1.0)
    elif fam == GAMMA:
        out = -p[0] * cmath.log(1.0 - p[1] * a)
    elif fam == VG:
        m, mu, sigma = p
        out = -m * cmath.log(1.0 - mu * a / m - 0.5 * sigma * sigma * a * a / m)
    elif fam == NB:
        m, q = p
        out = m * (cmath.log(1.0 - q) - cmath.log(1.0 - q * cmath.exp(a)))
    elif fam == IG:
        ai, b = p
        out = ai * (b - cmath.sqrt(b * b - 2.0 * a))
    elif fam == NIG:
        av, b, m = p
        s = b + a
        out = m * (math.sqrt(av * av - b * b) - cmath.sqrt(av * av - s * s))
    else:  # pragma: no cover
        raise InvalidParameter(f"unhandled family {fam}")
    return out + model.drift * a


def dpsi_unchecked(model: NoiseModel, alpha):
    """First derivative psi0'(alpha), real scalar/array, no domain check."""
    fam, p = model.family, model.params
    a = np.asarray(alpha, dtype=float)
    if fam == BROWNIAN:
        out = a.copy() if a.ndim else float(a)
    elif fam == POISSON:
        out = p[0] * np.exp(a)
    elif fam == GAMMA:
        m, k = p
        out = m * k / (1.0 - k * a)
    elif fam == VG:
        m, mu, sigma = p
        d = 1.0 - (mu * a + 0.5 * sigma * sigma * a * a) / m
        out = (mu + sigma * sigma * a) / d
    elif fam == NB:
        m, q = p
        u = q * np.exp(a)
        out = m * u / (1.0 - u)
    elif fam == IG:
        ai, b = p
        out = ai / np.sqrt(b * b - 2.0 * a)
    elif fam == NIG:
        av, b, m = p
        s = b + a
        out = m * s / np.sqrt(av * av - s * s)
    else:  # pragma: no cover
        raise InvalidParameter(f"unhandled family {fam}")
    out = out + model.drift
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def d2psi_unchecked(model: NoiseModel, alpha):
    """Second derivative psi0''(alpha), real scalar/array, no domain check."""
    fam, p = model.family, model.params
    a = np.asarray(alpha, dtype=float)
    if fam == BROWNIAN:
        out = np.ones_like(a) if a.ndim else 1.0
    elif fam == POISSON:
        out = p[0] * np.exp(a)
    elif fam == GAMMA:
        m, k = p
        out = m * k * k / (1.0 - k * a) ** 2
    elif fam == VG:
        m, mu, sigma = p
        d = 1.0 - (mu * a + 0.5 * sigma * sigma * a * a) / m
        n = mu + sigma * sigma * a
        out = (sigma * sigma * d + n * n / m) / (d * d)
    elif fam == NB:
        m, q = p
        u = q * np.exp(a)
        out = m * u / (1.0 - u) ** 2
    elif fam == IG:
        ai, b = p
        out = ai * (b * b - 2.0 * a) ** (-1.5)
    elif fam == NIG:
        av, b, m = p
        s = b + a
        out = m * av * av * (av * av - s * s) ** (-1.5)
    else:  # pragma: no cover
        raise InvalidParameter(f"unhandled family {fam}")
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def d3psi_unchecked(model: NoiseModel, alpha):
    """Third derivative psi0'''(alpha), real scalar/array, no domain check."""
    fam, p = model.family, model.params
    a = np.asarray(alpha, dtype=float)
    if fam == BROWNIAN:
        out = np.zeros_like(a) if a.ndim else 0.0
    elif fam == POISSON:
        out = p[0] * np.exp(a)
    elif fam == GAMMA:
        m, k = p
        out = 2.0 * m * k**3 / (1.0 - k * a) ** 3
    elif fam == VG:
        m, mu, sigma = p
        d = 1.0 - (mu * a + 0.5 * sigma * sigma * a * a) / m
        n = mu + sigma * sigma * a
        out = n * (3.0 * sigma * sigma * d * m + 2.0 * n * n) / (m * m * d**3)
    elif fam == NB:
        m, q = p
        u = q * np.exp(a)
        out = m * u * (1.0 + u) / (1.0 - u) ** 3
    elif fam == IG:
        ai, b = p
        out = 3.0 * ai * (b * b - 2.0 * a) ** (-2.5)
    elif fam == NIG:
        av, b, m = p
        s = b + a
        out = 3.0 * m * av * av * s * (av * av - s * s) ** (-2.5)
    else:  # pragma: no cover
        raise InvalidParameter(f"unhandled family {fam}")
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def fiducial_exponent(model: NoiseModel, alpha):
    """Evaluate the fiducial exponent psi0 at a real or complex scalar.

    Parameters
    ----------
    model : NoiseModel
    alpha : real or complex scalar
        ``Re alpha`` must lie in the admissible set of the model.

    Returns
    -------
    float or complex
        ``psi0(alpha)``; real input yields real output.

    Raises
    ------
    OutOfDomain
        If ``Re alpha`` is outside the admissible set.
    """
    if isinstance(alpha, complex) or np.iscomplexobj(alpha):
        a = complex(alpha)
        _check_domain(model, a.real, "Re alpha")
        return _psi_complex(model, a)
    a = float(alpha)
    _check_domain(model, a)
    return float(psi_unchecked(model, a))


def exponent_derivatives(model: NoiseModel, alpha: float) -> tuple:
    """First and second derivatives (psi0'(alpha), psi0''(alpha)).

    ``alpha`` must be a real number in the admissible set.

    Raises
    ------
    OutOfDomain
    """
    a = float(alpha)
    _check_domain(model, a)
    return float(dpsi_unchecked(model, a)), float(d2psi_unchecked(model, a))


def marginal_range(model: NoiseModel) -> Interval:
    """The open range of psi0' over the interior of the admissible set."""
    fam = model.family
    inf = math.inf
    if fam in (BROWNIAN, VG, NIG):
        lo, hi = -inf, inf
    elif fam in (POISSON, GAMMA, NB):
        lo, hi = 0.0, inf
    elif fam == IG:
        a, b = model.params
        lo, hi = a / b, inf
    else:  # pragma: no cover
        raise InvalidParameter(f"unhandled family {fam}")
    return Interval(lo + model.drift if np.isfinite(lo) else lo,
                    hi + model.drift if np.isfinite(hi) else hi)


def inverse_closed_form(model: NoiseModel, y):
    """Analytic inverse of psi0' (vectorized; no clamping, no checks).

    The one inverse behind ``inverse_marginal`` (scalar, range-checked) and
    ``inverse_marginal_clamped`` (vectorized, clamped).  Input values must
    lie in the open range of psi0'.
    """
    fam, p = model.family, model.params
    yv = np.asarray(y, dtype=float) - model.drift
    if fam == BROWNIAN:
        out = yv
    elif fam == POISSON:
        out = np.log(yv / p[0])
    elif fam == GAMMA:
        m, k = p
        out = 1.0 / k - m / yv
    elif fam == VG:
        m, mu, sigma = p
        s2 = sigma * sigma
        # quadratic (y s2 / 2m) a^2 + (s2 + y mu / m) a + (mu - y) = 0
        qa = yv * s2 / (2.0 * m)
        qb = s2 + yv * mu / m
        qc = mu - yv
        with np.errstate(invalid="ignore", divide="ignore"):
            disc = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
            qq = -0.5 * (qb + np.where(qb >= 0.0, 1.0, -1.0) * disc)
            r1 = np.where(qa != 0.0, qq / np.where(qa != 0.0, qa, 1.0), np.inf)
            r2 = np.where(qq != 0.0, qc / np.where(qq != 0.0, qq, 1.0), -qc / qb)
            # the admissible root keeps the log argument positive
            d1 = 1.0 - (mu * r1 + 0.5 * s2 * r1 * r1) / m
            pick1 = np.isfinite(r1) & (d1 > 0.0)
        out = np.where(yv == 0.0, -mu / s2, np.where(pick1, r1, r2))
    elif fam == NB:
        m, q = p
        out = np.log(yv) - np.log(q * (m + yv))
    elif fam == IG:
        a, b = p
        out = 0.5 * (b * b - (a / yv) ** 2)
    elif fam == NIG:
        a, b, m = p
        s = a * yv / np.sqrt(m * m + yv * yv)
        out = s - b
    else:  # pragma: no cover
        raise InvalidParameter(f"unhandled family {fam}")
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def inverse_marginal(model: NoiseModel, y: float) -> float:
    """Invert the marginal exponent: return I0(y) with psi0'(I0(y)) = y.

    Every family is inverted in closed form (``inverse_closed_form``).

    Raises
    ------
    OutOfRange
        If ``y`` is not attained by psi0' on the interior of the admissible
        set.
    """
    y = float(y)
    rng = marginal_range(model)
    if not (np.isfinite(y) and rng.lo < y < rng.hi):
        raise OutOfRange(
            f"y={y:g} is not attained by psi0' of {model!r}; range is ({rng.lo:g}, {rng.hi:g})"
        )
    return float(inverse_closed_form(model, y))


def inverse_marginal_clamped(model: NoiseModel, y):
    """Vectorized inverse of psi0' with clamping to the closure of its range.

    Values of ``y`` at or below a finite lower range boundary are clamped to
    that boundary before inversion: the InverseGaussian family maps them to
    alpha = 0 (the closed end of its admissible set), while Poisson, Gamma
    and NegativeBinomial map them to -inf (the inverse diverges as y -> 0+).
    Returns ``(alpha, clamped)`` where ``clamped`` marks adjusted entries.
    """
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    yv = np.atleast_1d(arr).astype(float)
    rng = marginal_range(model)
    alpha = np.empty_like(yv)
    clamped = np.zeros_like(yv, dtype=bool)
    if np.isfinite(rng.lo):
        low = yv <= rng.lo
        clamped |= low
        ok = ~low
        if np.any(ok):
            alpha[ok] = inverse_closed_form(model, yv[ok])
        alpha[low] = 0.0 if model.family == IG else -np.inf
    else:
        alpha[:] = inverse_closed_form(model, yv)
    bad = ~np.isfinite(yv)
    if np.any(bad):
        alpha[bad] = np.nan
        clamped |= bad
    if scalar:
        return float(alpha[0]), bool(clamped[0])
    return alpha, clamped


def conditional_exponent(model: NoiseModel, x: float, alpha):
    """The exponent of the model conditioned on message value ``x``:

        psi0(alpha + x) - psi0(x)

    ``x`` and ``Re alpha + x`` must lie in the admissible set.

    Raises
    ------
    OutOfDomain
    """
    x = float(x)
    _check_domain(model, x, "x")
    if isinstance(alpha, complex) or np.iscomplexobj(alpha):
        a = complex(alpha)
        _check_domain(model, a.real + x, "Re alpha + x")
        return _psi_complex(model, a + x) - _psi_complex(model, complex(x))
    a = float(alpha)
    _check_domain(model, a + x, "alpha + x")
    return float(psi_unchecked(model, a + x) - psi_unchecked(model, x))


def esscher_transform(model: NoiseModel, lam: float) -> NoiseModel:
    """Exponentially tilt the model: the result has exponent

        psi_lam(alpha) = psi0(alpha + lam) - psi0(lam).

    Each family maps to itself: Brownian gains drift ``lam``; Poisson
    ``m -> m e^lam``; Gamma ``kappa -> kappa/(1 - kappa lam)``; VarianceGamma
    ``(mu, sigma)`` are rescaled by the tilt; NegativeBinomial ``q -> q e^lam``;
    InverseGaussian ``b -> sqrt(b^2 - 2 lam)``; NormalInverseGaussian
    ``b -> b + lam``.  ``lam = 0`` returns the model unchanged.

    Raises
    ------
    OutOfDomain
        If ``lam`` is outside the interior of the admissible set.
    """
    lam = float(lam)
    if lam == 0.0:
        return model
    interval = admissible_set(model)
    if not interval.interior_contains(lam):
        raise OutOfDomain(
            f"lambda={lam:g} outside interior ({interval.lo:g}, {interval.hi:g}) of {model!r}"
        )
    fam, p = model.family, model.params
    if fam == BROWNIAN:
        return NoiseModel(fam, (), model.drift + lam)
    if fam == POISSON:
        return NoiseModel(fam, (p[0] * math.exp(lam),), model.drift)
    if fam == GAMMA:
        m, k = p
        return NoiseModel(fam, (m, k / (1.0 - k * lam)), model.drift)
    if fam == VG:
        m, mu, sigma = p
        d = 1.0 - (mu * lam + 0.5 * sigma * sigma * lam * lam) / m
        return NoiseModel(fam, (m, (mu + sigma * sigma * lam) / d, sigma / math.sqrt(d)), model.drift)
    if fam == NB:
        m, q = p
        return NoiseModel(fam, (m, q * math.exp(lam)), model.drift)
    if fam == IG:
        a, b = p
        return NoiseModel(fam, (a, math.sqrt(b * b - 2.0 * lam)), model.drift)
    if fam == NIG:
        a, b, m = p
        return NoiseModel(fam, (a, b + lam, m), model.drift)
    raise InvalidParameter(f"unhandled family {fam}")  # pragma: no cover


def sheffer_polynomials(model: NoiseModel, xi: float, t: float) -> tuple:
    """Evaluate the first three Sheffer martingale polynomials at (xi, t).

    With p1 = psi0'(0), p2 = psi0''(0), p3 = psi0'''(0) and u = xi - p1 t:

        Q1 = u
        Q2 = (u^2 - p2 t) / 2
        Q3 = (u^3 - 3 p2 t u - p3 t) / 6

    Each of Q1(xi_t, t), Q2(xi_t, t), Q3(xi_t, t) is a martingale under the
    fiducial measure.
    """
    t = float(t)
    if t < 0.0:
        raise InvalidParameter(f"time t must be >= 0, got {t}")
    p1 = float(dpsi_unchecked(model, 0.0))
    p2 = float(d2psi_unchecked(model, 0.0))
    p3 = float(d3psi_unchecked(model, 0.0))
    u = float(xi) - p1 * t
    q1 = u
    q2 = 0.5 * (u * u - p2 * t)
    q3 = (u**3 - 3.0 * p2 * t * u - p3 * t) / 6.0
    return q1, q2, q3
