"""Closed-form Levy exponents for the seven supported noise families.

A noise family is described by its fiducial exponent ``psi0`` with

    E[exp(alpha * xi_t)] = exp(psi0(alpha) * t)

finite for ``Re alpha`` in the admissible set ``A``.  This module provides
the exponent and its first three derivatives in closed form, the inverse of
the marginal exponent ``psi0'``, the admissible set and Esscher transforms
(exponential tilting), for the families:

    Brownian              psi0(a) = a^2/2                       A = R
    Poisson(m)            psi0(a) = m (e^a - 1)                 A = R
    Gamma(m, kappa)       psi0(a) = -m ln(1 - kappa a)          A = (-inf, 1/kappa)
    VarianceGamma(m)      psi0(a) = -m ln(1 - a^2/(2m))         A = (-sqrt(2m), sqrt(2m))
    NegativeBinomial(m,q) psi0(a) = m ln((1-q)/(1-q e^a))       A = (-inf, -ln q)
    InverseGaussian(a,b)  psi0(w) = a (b - sqrt(b^2 - 2w))      A = [0, b^2/2)
    NormalInverseGaussian(a,b,m)
                          psi0(w) = m (sqrt(a^2-b^2) - sqrt(a^2-(b+w)^2))
                                                                A = (-a-b, a-b)

The exponent given X = x, psi0(alpha + x) - psi0(x), is the exponent of
``esscher_transform(model, x)``.  The InverseGaussian and
NormalInverseGaussian exponents are evaluated with their difference of
square roots rationalised, so that they do not cancel at small w.

Esscher tilting keeps each family closed under the transform once two
generalisations are allowed: a Brownian model may carry a drift, and a
variance gamma model is stored as the general drifted triple (m, mu, sigma)
with the standard form corresponding to mu=0, sigma=1.  ``make_noise_model``
only constructs the standard forms; the generalised ones arise internally
from ``esscher_transform``.

A family is defined by one record, ``_FAMILIES[name]``, and nowhere else.
Each field is a function of its own arguments followed by the family
parameters in canonical order, or a plain value:

    names, rules   parameter names; (predicate, message) pairs to check them
    fixed          standard-form values of trailing parameters the user does
                   not give (VarianceGamma mu = 0, sigma = 1)
    psi            psi0(a) for real or complex numpy a (principal branches)
    derivatives    (psi0'(a), psi0''(a), psi0'''(a)) for real numpy a
    domain         the admissible set A
    inverse        the closed-form inverse of psi0' on its range, which runs
                   from psi0' at the lower end of A to +inf
    tilt           the Esscher map (lam, drift) -> (params, drift)
    sample         (x, dt, rng, size): exact increments given the message x
    constructions  name -> a sampler like ``sample``: the alternative
                   constructions (VarianceGamma, NegativeBinomial)
    triplet        Levy-Khintchine data: (drift compensation, gaussian
                   coefficient, Levy measure parameters, atoms)
    measure, density   the Levy measure tag and, for a continuous
                   measure, its density (z, *measure parameters)
    log_masses     log of the mass at z = k (k, *measure parameters) of an
                   atomic measure on 1, 2, ...; the triplet's atoms are its head
    support        the values xi_t - drift t takes: "real", "nonnegative" or
                   "lattice" (the nonnegative integers); ``check_observation``
                   tests observations against it

Only ``tilt`` sees the drift: the public functions look the record up and
add ``drift * alpha`` (``drift``, ``drift * dt``) and the shape handling.
The law given X = x is the x-tilted model, so a sampler or construction
written in the record's parameters serves every tilted model, and every
sampler's draws get ``drift * dt`` added after the draw.

A power of a value that may be a numpy scalar is written as products and
``np.sqrt`` (``u * u``, ``q * np.sqrt(q)``), never ``**``: numpy takes ``**``
of a numpy scalar from the C library's ``pow`` and of an array (0-d too) from
its own SIMD loops, which round differently, whereas products and square
roots give a scalar the bits of the matching array element.  Powers of
Python floats (``sigma**2``) may stay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidParameter, NonFiniteValue, OffSupport, OutOfDomain, _real

__all__ = [
    "FAMILIES",
    "Interval",
    "NoiseModel",
    "make_noise_model",
    "fiducial_exponent",
    "exponent_derivatives",
    "admissible_set",
    "esscher_transform",
    "marginal_range",
]

BROWNIAN = "Brownian"
POISSON = "Poisson"
GAMMA = "Gamma"
VG = "VarianceGamma"
NB = "NegativeBinomial"
IG = "InverseGaussian"
NIG = "NormalInverseGaussian"

FAMILIES = (BROWNIAN, POISSON, GAMMA, VG, NB, IG, NIG)

# each name lower-cased and in snake case (variancegamma, variance_gamma),
# and the short names
_ALIASES = {key.lower(): name for name in FAMILIES
            for key in (name, "".join(f"_{c}" if c.isupper() and i else c for i, c in enumerate(name)))}
_ALIASES |= {"wiener": BROWNIAN, "vg": VG, "nb": NB, "ig": IG, "nig": NIG}


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

    def __post_init__(self):
        _real(self.lo, "interval end lo")
        _real(self.hi, "interval end hi")

    def contains(self, x):
        """Membership respecting the endpoint conventions, elementwise: a
        numpy bool, or a bool array for an array ``x``."""
        x = np.asarray(x, dtype=float)
        above = x > self.lo if self.lo_open else x >= self.lo
        below = x < self.hi if self.hi_open else x <= self.hi
        return np.isfinite(x) & above & below


def _named(names: tuple, params: tuple) -> str:
    return ", ".join(f"{n}={v:g}" for n, v in zip(names, params))


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
        inner = _named(_FAMILIES[self.family].names, self.params)
        if self.drift != 0.0:
            inner += f", drift={self.drift:g}"
        return f"NoiseModel({self.family}{', ' if inner else ''}{inner})"


@dataclass(frozen=True)
class _Family:
    """One noise family; the fields are described in the module docstring."""

    psi: Callable
    derivatives: Callable
    domain: Callable
    inverse: Callable
    tilt: Callable
    sample: Callable
    triplet: Callable
    names: tuple = ()
    rules: tuple = ()
    support: str = "real"
    fixed: tuple = ()
    constructions: dict = field(default_factory=dict)
    measure: str = "none"
    density: Callable | None = None
    log_masses: Callable | None = None


def _ig_draws(mean, shape_, rng, size):
    """Inverse Gaussian draws, IG(mean mu, shape lam), vectorized.

    Michael-Schucany-Haas: from the chi-square variate w = mu * N^2 form the
    smaller root x of the defining quadratic (written in a cancellation-free
    form), then select between x and mu^2/x with probability mu/(mu + x).
    """
    mu = np.asarray(mean, dtype=float)
    lam = np.asarray(shape_, dtype=float)
    nu = rng.standard_normal(size)
    w = mu * nu * nu
    t = w + np.sqrt(w * (4.0 * lam + w))
    with np.errstate(invalid="ignore", divide="ignore"):
        x = np.where(t > 0.0, 4.0 * lam * mu * w / np.where(t > 0.0, t, 1.0) / t, mu)
        u = rng.random(size)
        out = np.where(u <= mu / (mu + x), x, mu * mu / x)
    return out


def _gamma_psi(a, m, k):
    """-m log(1 - kappa a); where kappa a overflows (a far below 0, kappa
    large), -m (log kappa + log(1/kappa - a)), which stays finite."""
    ka = k * a
    psi = -m * np.log1p(-ka)
    far = ~np.isfinite(ka)
    return np.where(far, -m * (math.log(k) + np.log(1.0 / k - a)), psi) if far.any() else psi


def _gamma_derivatives(a, m, k):
    """The Gamma derivatives, written in u = kappa / (1 - kappa a) > 0;
    u = 1 / (1/kappa - a) where kappa a overflows."""
    ka = k * a
    u = k / (1.0 - ka)
    far = ~np.isfinite(ka)
    if far.any():
        u = np.where(far, 1.0 / (1.0 / k - a), u)
    return m * u, m * u * u, 2.0 * m * u * u * u


def _vg_d(a, m, mu, sigma):
    """1 - (mu a + sigma^2 a^2 / 2) / m, the VarianceGamma log argument."""
    return 1.0 - (mu * a + 0.5 * sigma * sigma * a * a) / m


def _vg_ends(m, mu, sigma):
    """The ends of A, the roots of d."""
    root = math.sqrt(mu * mu + 2.0 * m * sigma * sigma)
    return (-mu - root) / sigma**2, (-mu + root) / sigma**2


def _vg_derivatives(a, m, mu, sigma):
    """The VarianceGamma derivatives, written in d and n = mu + sigma^2 a.

    d is taken as sigma^2 / 2m times the distances from a to the two ends of
    A: positive at every float inside A, where ``_vg_d`` cancels to 0 next
    to an end.
    """
    lo, hi = _vg_ends(m, mu, sigma)
    d = 0.5 * sigma * sigma / m * (a - lo) * (hi - a)
    n = mu + sigma * sigma * a
    return (n / d, (sigma * sigma * d + n * n / m) / (d * d),
            n * (3.0 * sigma * sigma * d * m + 2.0 * n * n) / (m * m * (d * d * d)))


def _vg_domain(m, mu, sigma):
    return Interval(*_vg_ends(m, mu, sigma))


def _vg_inverse(y, m, mu, sigma):
    s2 = sigma * sigma
    # quadratic (y s2 / 2m) a^2 + (s2 + y mu / m) a + (mu - y) = 0, divided
    # by max(1, |y|) so that no coefficient grows with y and the discriminant
    # cannot overflow; for |y| <= 1 the division is exact
    scale = np.maximum(1.0, np.abs(y))
    y_s = y / scale
    qa = y_s * s2 / (2.0 * m)
    qb = s2 / scale + y_s * mu / m
    qc = mu / scale - y_s
    with np.errstate(invalid="ignore", divide="ignore"):
        disc = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
        qq = -0.5 * (qb + np.where(qb >= 0.0, 1.0, -1.0) * disc)
        r1 = np.where(qa != 0.0, qq / np.where(qa != 0.0, qa, 1.0), np.inf)
        r2 = np.where(qq != 0.0, qc / np.where(qq != 0.0, qq, 1.0), -qc / qb)
        # psi0' = (mu + s2 a) / d with d > 0 on A and d < 0 at the other
        # root, so the admissible root is the one where mu + s2 a has the
        # sign of y; unlike the sign of d itself, this survives rounding
        # near the ends of A
        pick1 = np.isfinite(r1) & ((mu + s2 * r1) * y > 0.0)
    return np.where(y == 0.0, -mu / s2, np.where(pick1, r1, r2))


def _vg_tilt(lam, drift, m, mu, sigma):
    d = _vg_d(lam, m, mu, sigma)
    return (m, (mu + sigma * sigma * lam) / d, sigma / math.sqrt(d)), drift


# Every gamma variate is standard_gamma(shape) times its scale: numpy's
# gamma(shape, scale) is that same product, so one draw method serves every
# sampler and the per-chunk facade (rng._RunStreams) mirrors only it.
def _vg_sample(x, dt, rng, size, m, mu, sigma):
    # the gamma subordinator, then the tilted gaussian on it
    d = _vg_d(x, m, mu, sigma)
    g = rng.standard_gamma(m * dt, size) * (1.0 / m)
    return (mu + sigma * sigma * x) / d * g + sigma / np.sqrt(d) * np.sqrt(g) * rng.standard_normal(size)


def _vg_scaled_subordinator(x, dt, rng, size, m, mu, sigma):
    # the gamma subordinator scaled by 1/d, then the untilted gaussian on it
    g = rng.standard_gamma(m * dt, size) * (1.0 / m) * (1.0 / _vg_d(x, m, mu, sigma))
    return (mu + sigma * sigma * x) * g + sigma * np.sqrt(g) * rng.standard_normal(size)


def _vg_gamma_difference(x, dt, rng, size, m, mu, sigma):
    # psi0 splits at the ends of A into a positive and a negative gamma
    # exponent; tilting by x moves each scale to 1/(distance from x to its end)
    lo, hi = _vg_ends(m, mu, sigma)
    return rng.standard_gamma(m * dt, size) / (hi - x) - rng.standard_gamma(m * dt, size) / (x - lo)


def _vg_triplet(m, mu, sigma):
    root = math.sqrt(mu * mu + 2.0 * m * sigma * sigma)
    k1 = (mu + root) / (2.0 * m)   # scale of the positive gamma component
    k2 = (-mu + root) / (2.0 * m)  # scale of the negative gamma component
    comp = m * (k1 * (1.0 - math.exp(-1.0 / k1)) - k2 * (1.0 - math.exp(-1.0 / k2)))
    return comp, 0.0, (m, k1, k2), ()


def _nb_derivatives(a, m, q):
    """The NegativeBinomial derivatives, written in u = q e^a."""
    u = q * np.exp(a)
    v = 1.0 - u
    return m * u / v, m * u / (v * v), m * u * (1.0 + u) / (v * v * v)


def _nb_sample(x, dt, rng, size, m, q):
    # Poisson counts mixed over a scaled gamma increment
    qx = q * np.exp(x)
    return np.asarray(rng.poisson(rng.standard_gamma(m * dt, size) * (qx / (1.0 - qx))), dtype=float)


def _logarithmic_draws(q: float, rng, size: int) -> np.ndarray:
    """Vectorized logarithmic sampling by inversion on the shared cumsum."""
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    u = rng.random(size)
    ln1mq = math.log1p(-q)
    cums = []
    pmf = -q / ln1mq
    cum = pmf
    u_max = u.max()
    k = 1
    while cum <= u_max:
        cums.append(cum)
        k += 1
        pmf *= q * (k - 1) / k
        cum += pmf
    cums.append(cum)
    return np.searchsorted(np.asarray(cums), u, side="right") + 1


def _nb_compound(x, dt, rng, size, m, q):
    # a Poisson number of logarithmic jumps, at a scalar message x
    qx = q * math.exp(x)
    counts = rng.poisson(-m * math.log1p(-qx) * dt, size)
    flat = np.ravel(counts)
    jumps = _logarithmic_draws(qx, rng, int(flat.sum()))
    owner = np.repeat(np.arange(flat.size), flat)  # the draw each jump belongs to
    return np.bincount(owner, weights=jumps, minlength=flat.size).reshape(np.shape(counts))


_NB_TAIL_MASS = 1e-12  # drop the atom tail once 1 - 1e-12 of nu(R) is kept


def _nb_atoms(m: float, q: float) -> tuple:
    """The record's masses at z = 1, 2, ... until 1 - _NB_TAIL_MASS of the total is kept."""
    total = -m * math.log1p(-q)
    atoms = []
    cum = 0.0
    n = 1
    while cum < (1.0 - _NB_TAIL_MASS) * total:
        mass = math.exp(_FAMILIES[NB].log_masses(n, m, q))
        atoms.append((float(n), mass))
        cum += mass
        n += 1
    return tuple(atoms)


def _ig_derivatives(w, a, b):
    """The InverseGaussian derivatives, written in s = b^2 - 2w and r = sqrt(s)."""
    s = b * b - 2.0 * w
    r = np.sqrt(s)
    sr, ssr = s * r, s * s * r
    d2, d3 = a / sr, 3.0 * a / ssr
    far = ~(np.isfinite(ssr) & np.isfinite(d3))
    if far.any():  # s r, s^2 r or 3 a overflows: divide a by s, s and r in turn, each quotient above the result
        d2, d3 = np.where(np.isfinite(sr), d2, (a / s) / r), np.where(far, 3.0 * ((a / s) / s / r), d3)
    return a / r, d2, d3


def _nig_derivatives(w, a, b, m):
    """The NormalInverseGaussian derivatives, written in s = b + w and
    q = a^2 - s^2, the latter as the product of the distances from w to the
    ends of A: positive at every float inside A, where b + w may round onto
    -a or a next to an end."""
    s, q = b + w, ((a - b) - w) * (w + (a + b))
    r = np.sqrt(q)
    qr, qqr = q * r, q * q * r
    d1, d2, d3 = m * s / r, m * a * a / qr, 3.0 * m * a * a * s / qqr
    far = ~(np.isfinite(qqr) & np.isfinite(d3))
    if far.any():  # q r or q^2 r overflows (there q > 1e123, so a/q, a/r and s/q are all moderate), or m a^2 does
        p = (a / q) * (a / r)
        d2, d3 = np.where(np.isfinite(qr) & np.isfinite(d2), d2, m * p), np.where(far, 3.0 * m * (p * (s / q)), d3)
        d1 = np.where(np.isfinite(d1), d1, m * (s / r))  # m s overflows, and with it 3 m a^2 s, as |s| < a
    return d1, d2, d3


def _nig_sample(x, dt, rng, size, a, b, m):
    # the tilted gaussian on an inverse gaussian subordinator
    bx = b + x
    mdt = m * dt
    f = _ig_draws(mdt / np.sqrt(a * a - bx * bx), mdt * mdt, rng, size)
    return bx * f + np.sqrt(f) * rng.standard_normal(size)


def _nig_triplet(a, b, m):
    # (2ma/pi) int_0^1 sinh(bz) K1(az) dz, K1(az) = int_0^inf e^{-az cosh u} cosh u du,
    # with the order swapped: at c = a cosh u the inner integral is the closed form
    # [b - e^{|b|-c}(c e^{-|b|} sinh b + b e^{-|b|} cosh b)] / ((c - b)(c + b)), which
    # overflows nowhere.  The trapezoid rule in v, step 0.05 (the integrand is even),
    # at u = 2 asinh(sinh(v/2) / lam), lam^2 = max(1, a/25): u = v up to a = 25, and
    # above it as many nodes per inner scale, u ~ sqrt(2/a), as at a = 25
    lam2 = max(1.0, a / 25.0)
    v = 0.05 * np.arange(801 + int(20.0 * math.log(lam2)))
    sh2 = np.sinh(0.5 * v) ** 2 / lam2  # sinh^2(u/2)
    c = a + 2.0 * a * sh2
    du = np.cosh(0.5 * v) / np.sqrt(lam2 * (1.0 + sh2))
    sb, cb = math.copysign(-0.5 * math.expm1(-2.0 * abs(b)), b), 0.5 + 0.5 * math.exp(-2.0 * abs(b))
    f = (1.0 + 2.0 * sh2) * du * (b - np.exp(abs(b) - c) * (c * sb + b * cb)) / ((c - b) * (c + b))
    comp = 2.0 * m * a / math.pi * 0.05 * (f.sum() - 0.5 * (f[0] + f[-1]))
    return float(comp), 0.0, (a, b, m), ()


def _k1e(x):
    """e^x K1(x) = int_0^inf exp(-2x sinh^2(u/2)) cosh u du, x >= 0: the trapezoid
    rule with 128 intervals on [0, arccosh(1 + 40/x)], summed one node at a time
    from the e^{-40} end, so temporaries are the size of x; 1/x + 1 below 1e-8."""
    xs = np.maximum(x, 1e-8)
    h = 2.0 * np.arcsinh(np.sqrt(20.0 / xs)) / 128
    total = np.zeros(np.shape(xs))
    for k in range(128, -1, -1):
        s = np.sinh(0.5 * k * h)
        s2 = 2.0 * s * s  # cosh u - 1
        f = np.exp(-xs * s2) * (1.0 + s2)
        total += 0.5 * f if k in (0, 128) else f
    with np.errstate(divide="ignore"):
        return np.where(x < 1e-8, 1.0 / x + 1.0, h * total)


def _nig_density(z, a, b, m):
    # K1(a|z|) = k1e(a|z|) e^{-a|z|}, finite where e^{bz} overflows (|b| < a)
    azs = np.where(z != 0, np.abs(z), 1.0)
    return np.where(z != 0, m * a / math.pi * np.exp(b * z - a * azs) * _k1e(a * azs) / azs, 0.0)


_FAMILIES = {
    BROWNIAN: _Family(
        psi=lambda a: 0.5 * a * a,
        derivatives=lambda a: (a, np.ones_like(a), np.zeros_like(a)),
        domain=lambda: Interval(-math.inf, math.inf),
        inverse=lambda y: y,
        tilt=lambda lam, drift: ((), drift + lam),
        sample=lambda x, dt, rng, size: x * dt + np.sqrt(dt) * rng.standard_normal(size),
        triplet=lambda: (0.0, 1.0, (), ()),
    ),
    POISSON: _Family(
        names=("m",),
        rules=((lambda m: m > 0, "rate m must be > 0"),),
        psi=lambda a, m: m * np.expm1(a),
        # all three are m e^a, one row each, so that no two share memory
        derivatives=lambda a, m: tuple(np.repeat([m * np.exp(a)], 3, axis=0)),
        domain=lambda m: Interval(-math.inf, math.inf),
        inverse=lambda y, m: np.log(y / m),
        tilt=lambda lam, drift, m: ((m * math.exp(lam),), drift),
        sample=lambda x, dt, rng, size, m: np.asarray(rng.poisson(m * np.exp(x) * dt, size), dtype=float),
        # a single jump atom at 1; no |z|<1 compensation applies
        triplet=lambda m: (0.0, 0.0, (), ((1.0, m),)),
        measure="atoms",
        support="lattice",
    ),
    GAMMA: _Family(
        names=("m", "kappa"),
        rules=((lambda m, k: m > 0, "rate m must be > 0"), (lambda m, k: k > 0, "scale kappa must be > 0")),
        psi=_gamma_psi,
        derivatives=_gamma_derivatives,
        domain=lambda m, k: Interval(-math.inf, 1.0 / k),
        inverse=lambda y, m, k: 1.0 / k - m / y,
        tilt=lambda lam, drift, m, k: ((m, k / (1.0 - k * lam)), drift),
        sample=lambda x, dt, rng, size, m, k: rng.standard_gamma(m * dt, size) * (k / (1.0 - k * x)),
        triplet=lambda m, k: (m * k * (1.0 - math.exp(-1.0 / k)), 0.0, (m, k), ()),
        measure="gamma",
        density=lambda z, m, k: np.where(z > 0, m * np.exp(-z / k) / np.where(z > 0, z, 1.0), 0.0),
        support="nonnegative",
    ),
    VG: _Family(
        names=("m", "mu", "sigma"),
        rules=((lambda m, mu, sigma: m > 0, "rate m must be > 0"),),
        psi=lambda a, m, mu, sigma: -m * np.log1p(-(mu * a + 0.5 * sigma * sigma * a * a) / m),
        derivatives=_vg_derivatives,
        domain=_vg_domain,
        inverse=_vg_inverse,
        tilt=_vg_tilt,
        sample=_vg_sample,
        constructions={"VG_subordinated": _vg_sample, "VG_scaled_subordinator": _vg_scaled_subordinator,
                       "VG_gamma_difference": _vg_gamma_difference},
        triplet=_vg_triplet,
        measure="vg",
        density=lambda z, m, k1, k2: np.where(z != 0, m * np.exp(-np.abs(z) / np.where(z > 0, k1, k2))
                                              / np.where(z != 0, np.abs(z), 1.0), 0.0),
        fixed=(0.0, 1.0),
    ),
    NB: _Family(
        names=("m", "q"),
        rules=((lambda m, q: m > 0, "rate m must be > 0"),
               (lambda m, q: 0.0 < q < 1.0, "q must lie in (0, 1)")),
        psi=lambda a, m, q: m * (np.log1p(-q) - np.log1p(-q * np.exp(a))),
        derivatives=_nb_derivatives,
        domain=lambda m, q: Interval(-math.inf, -math.log(q)),
        inverse=lambda y, m, q: np.log(y) - np.log(q * (m + y)),
        tilt=lambda lam, drift, m, q: ((m, q * math.exp(lam)), drift),
        sample=_nb_sample,
        constructions={"NB_subordinated": _nb_sample, "NB_compound": _nb_compound},
        triplet=lambda m, q: (0.0, 0.0, (m, q), _nb_atoms(m, q)),
        measure="nb",
        log_masses=lambda n, m, q: math.log(m) + n * math.log(q) - math.log(n),
        support="lattice",
    ),
    IG: _Family(
        names=("a", "b"),
        rules=((lambda a, b: a > 0, "a must be > 0"), (lambda a, b: b > 0, "b must be > 0"),
               (lambda a, b: b * b < math.inf, "requires a finite b^2, for the end b^2/2 of A")),
        psi=lambda w, a, b: 2.0 * a * w / (b + np.sqrt(b * b - 2.0 * w)),
        derivatives=_ig_derivatives,
        domain=lambda a, b: Interval(0.0, 0.5 * b**2, lo_open=False),
        inverse=lambda y, a, b: 0.5 * (b * b - (a / y) * (a / y)),
        tilt=lambda lam, drift, a, b: ((a, math.sqrt(b * b - 2.0 * lam)), drift),
        # the Michael-Schucany-Haas inverse gaussian draw with the tilted mean
        sample=lambda x, dt, rng, size, a, b: _ig_draws(a * dt / np.sqrt(b * b - 2.0 * x), a * dt * (a * dt),
                                                        rng, size),
        triplet=lambda a, b: ((a / b) * math.erf(b / math.sqrt(2.0)), 0.0, (a, b), ()),
        measure="ig",
        density=lambda z, a, b: np.where(z > 0, a / math.sqrt(2.0 * math.pi) * np.where(z > 0, z, 1.0) ** (-1.5)
                                         * np.exp(-0.5 * b * b * z), 0.0),
        support="nonnegative",
    ),
    NIG: _Family(
        names=("a", "b", "m"),
        rules=((lambda a, b, m: a > 0, "a must be > 0"), (lambda a, b, m: abs(b) < a, "requires |b| < a"),
               (lambda a, b, m: m > 0, "m must be > 0"),
               (lambda a, b, m: a * a < math.inf, "requires a finite a^2, for psi0's sqrt(a^2 - b^2)")),
        psi=lambda w, a, b, m: m * w * (2.0 * b + w) / (math.sqrt(a * a - b * b)
                                                         + np.sqrt(((a - b) - w) * (w + (a + b)))),
        derivatives=_nig_derivatives,
        domain=lambda a, b, m: Interval(-a - b, a - b),
        inverse=lambda y, a, b, m: a * y / np.hypot(m, y) - b,
        tilt=lambda lam, drift, a, b, m: ((a, b + lam, m), drift),
        sample=_nig_sample,
        triplet=_nig_triplet,
        measure="nig",
        density=_nig_density,
    ),
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParameter(message)


# With a nonzero drift, xi - drift t carries the rounding of the sums that
# built xi; it may miss the support by this much relative to 1 + |xi| +
# |drift t|, observation by observation.  With zero drift the support is
# checked exactly.
SUPPORT_RTOL = 1e-9

# Observations per block of check_observation's support test, so that no
# temporary is larger than a block.
SUPPORT_BLOCK = 4096


def _check_times(t, what: str) -> np.ndarray:
    """``t`` as a float array; InvalidParameter unless every entry is finite and >= 0."""
    if isinstance(t, float) and 0.0 <= t < math.inf:  # one step of an ensemble's loop
        return np.asarray(t)
    t = np.asarray(_real(t, what), dtype=float)
    bad = ~(np.isfinite(t) & (t >= 0.0))
    if bad.any():
        raise InvalidParameter(f"{what} must be finite and >= 0, got {t[bad][0]}")
    return t


def check_observation(model: NoiseModel, xi, t) -> tuple:
    """The one observation check: (xi, t) as float arrays, t broadcast to
    xi, once xi is finite (NonFiniteValue), t is finite and >= 0 and
    broadcasts to xi (InvalidParameter), and every xi - drift t is a value
    the family can produce at time t (OffSupport): >= 0 ("nonnegative"), a
    nonnegative integer ("lattice"), anything ("real"), within
    ``SUPPORT_RTOL`` where the drift is not zero.

    The returned t flattens to one row without a copy, so block loops read
    plain slices of it: t is copied once, C-contiguous, only where its
    layout would make each flattening copy (a grid broadcast over paths, a
    transposed array); a scalar broadcast stays a view.
    """
    xi = np.asarray(_real(xi, "observation xi"), dtype=float)
    if not np.isfinite(xi).all():
        raise NonFiniteValue(f"observation xi must be finite, got {xi[~np.isfinite(xi)][0]}")
    t = _check_times(t, "observation time")
    try:
        t = np.broadcast_to(t, xi.shape)
    except ValueError:
        raise InvalidParameter(f"observation times of shape {t.shape} do not broadcast to xi's {xi.shape}") from None
    t = t.reshape(-1).reshape(xi.shape)
    support = _FAMILIES[model.family].support
    if support == "real":
        return xi, t
    drift = model.drift
    xi_flat, t_flat = xi.reshape(-1), t.reshape(-1)
    for start in range(0, xi.size, SUPPORT_BLOCK):
        x, s = xi_flat[start:start + SUPPORT_BLOCK], t_flat[start:start + SUPPORT_BLOCK]
        y, tol = x, 0.0
        if drift != 0.0:
            y = x - drift * s
            tol = SUPPORT_RTOL * (1.0 + np.abs(x) + abs(drift) * s)
        off = y < -tol
        if support == "lattice":
            off |= np.abs(y - np.rint(y)) > tol
        if off.any():
            i = np.argmax(off)
            raise OffSupport(
                f"observation xi={x[i]:g} at t={s[i]:g} is off the support of {model!r}: "
                f"xi - drift t must be {'a nonnegative integer' if support == 'lattice' else '>= 0'}"
            )
    return xi, t


def check_scalar_observation(model: NoiseModel, xi, t) -> tuple:
    """:func:`check_observation` of one observation: (xi, t) as floats, once
    both are scalars (InvalidParameter, checked first)."""
    if np.ndim(xi) or np.ndim(t):
        raise InvalidParameter(f"one observation takes a scalar xi and t, got shapes {np.shape(xi)} and {np.shape(t)}")
    return tuple(map(float, check_observation(model, xi, t)))


def make_noise_model(family: str, params=(), drift: float = 0.0) -> NoiseModel:
    """Construct a validated noise model.

    Parameters
    ----------
    family : str
        One of the seven family names (aliases such as "VG" are accepted).
    params : sequence of float
        Family parameters in canonical order (module docstring); the
        VarianceGamma standard form takes ``[m]``.
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
    rec = _FAMILIES[fam]
    p = tuple(float(_real(v, f"{fam} parameter")) for v in params)
    drift = float(_real(drift, "drift"))
    _require(all(np.isfinite(p)), f"{fam} parameters must be finite, got {p}")
    _require(math.isfinite(drift), f"drift must be finite, got {drift}")
    given = rec.names[: len(rec.names) - len(rec.fixed)]
    _require(len(p) == len(given), f"{fam} takes [{', '.join(given)}], got {len(p)} parameters")
    p += rec.fixed
    for ok, rule in rec.rules:
        _require(ok(*p), f"{fam} {rule}, got {_named(rec.names, p)}")
    return NoiseModel(fam, p, drift)


def admissible_set(model: NoiseModel) -> Interval:
    """The admissible set A of the model as an interval.

    Drift does not change A.  The InverseGaussian interval is closed at 0 and
    open at b^2/2; all other families have open intervals.
    """
    return _FAMILIES[model.family].domain(*model.params)


def _shaped(out):
    """An array with dimensions as it is; anything else as a Python float or complex."""
    out = np.asarray(out)
    return out if out.ndim else out.item()


def _check_domain(model: NoiseModel, re_alpha, what: str = "alpha"):
    """The one admissibility check: ``re_alpha`` as a float, or a float array
    for an array; OutOfDomain unless every entry is in A.  A complex value is
    a TypeError (``errors._real``)."""
    re_alpha = np.asarray(_real(re_alpha, what), dtype=float)
    iv = admissible_set(model)
    inside = iv.contains(re_alpha)
    if not inside.all():
        raise OutOfDomain(
            f"{what}={re_alpha[~inside][0]:g} outside admissible set "
            f"{'(' if iv.lo_open else '['}{iv.lo:g}, {iv.hi:g}{')' if iv.hi_open else ']'}"
            f" of {model!r}"
        )
    return _shaped(re_alpha)


def _argument(model: NoiseModel, alpha):
    """``alpha`` as a float or complex array, once every Re alpha is in A
    (OutOfDomain) and every Im alpha is finite (NonFiniteValue).  A scalar
    comes back as a numpy scalar: numpy rounds complex products of scalars
    and of arrays differently, and the scalar form is the one whose bits the
    golden digests pin."""
    a = np.asarray(alpha)
    is_complex = np.iscomplexobj(a)
    # checked before the cast, so that a boolean is refused (errors._real)
    _check_domain(model, a.real, "Re alpha" if is_complex else "alpha")
    a = a.astype(complex if is_complex else float, copy=False)
    finite = np.isfinite(a.imag)
    if not finite.all():
        raise NonFiniteValue(f"Im alpha must be finite, got {a.imag[~finite][0]:g}")
    return a[()]


def _exponent(model: NoiseModel, a):
    """psi0(a) with the drift term, on a real or complex numpy array or scalar."""
    return _FAMILIES[model.family].psi(a, *model.params) + model.drift * a


def _finite_at(out, a, what: str):
    """``out``, once it is finite; NonFiniteValue at the first ``a`` where it is not."""
    if not np.isfinite(out).all():
        out, a = np.broadcast_arrays(out, a)
        raise NonFiniteValue(f"{what} overflows at alpha={a[~np.isfinite(out)][0]:g}")
    return out


def fiducial_exponent(model: NoiseModel, alpha):
    """Evaluate the fiducial exponent psi0 at a real or complex scalar or array.

    Parameters
    ----------
    model : NoiseModel
    alpha : real or complex scalar or array
        Every ``Re alpha`` must lie in the admissible set of the model and
        every ``Im alpha`` must be finite.

    Returns
    -------
    float, complex or array
        ``psi0(alpha)``, of the shape of ``alpha``; real input yields real
        output.  Complex input is evaluated by the same formula on
        ``complex128`` (principal branches).

    Raises
    ------
    OutOfDomain
        If some ``Re alpha`` is outside the admissible set.
    NonFiniteValue
        If some ``Im alpha`` is NaN or infinite, or psi0 overflows.
    """
    a = _argument(model, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        return _shaped(_finite_at(_exponent(model, a), a, "psi0"))


def exponent_derivatives(model: NoiseModel, alpha) -> tuple:
    """The first three derivatives (psi0'(alpha), psi0''(alpha), psi0'''(alpha)).

    ``alpha`` is a real scalar or array, every entry in the admissible set;
    each derivative is a float, or an array of the shape of ``alpha``.

    Raises
    ------
    OutOfDomain
    NonFiniteValue
        If a derivative overflows (Poisson noise far out in A).
    """
    a = np.asarray(_check_domain(model, alpha), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        d1, d2, d3 = _FAMILIES[model.family].derivatives(a, *model.params)
        return tuple(_shaped(_finite_at(d, a, "a derivative of psi0")) for d in (d1 + model.drift, d2, d3))


def marginal_range(model: NoiseModel) -> Interval:
    """The open range of psi0' over the interior of the admissible set.

    psi0' increases, so the range runs from psi0' at the lower end of A to
    +inf; at the finite open lower ends of VarianceGamma and
    NormalInverseGaussian psi0' is -inf.
    """
    rec = _FAMILIES[model.family]
    with np.errstate(all="ignore"):  # psi0'' and psi0''' are inf or nan at an end of A
        lo = float(rec.derivatives(np.asarray(rec.domain(*model.params).lo), *model.params)[0])
    return Interval(lo + model.drift if math.isfinite(lo) else lo, math.inf)


def inverse_marginal_clamped(model: NoiseModel, y):
    """Vectorized inverse of psi0' with clamping to the closure of its range.

    Every family is inverted in closed form.  Values of ``y`` that are not
    finite are clamped to NaN, and values at or below a finite lower range
    boundary to that boundary, which psi0' attains at the lower end of A:
    the InverseGaussian family maps them to alpha = 0 (the closed end of its
    admissible set), while Poisson, Gamma and NegativeBinomial map them to
    -inf (the inverse diverges as y -> 0+).  Every other result lies in A:
    where I0 of a rate next to an end of the range rounds onto a finite open
    end of A, it is moved one float inside.
    Returns ``(alpha, clamped)`` where ``clamped`` marks adjusted entries.
    """
    rec = _FAMILIES[model.family]
    arr = np.asarray(_real(y, "y"), dtype=float)
    yv = np.atleast_1d(arr)
    dom = rec.domain(*model.params)
    bad = ~np.isfinite(yv)
    clamped = bad | (yv <= marginal_range(model).lo)
    alpha = np.full(yv.shape, dom.lo)
    alpha[bad] = np.nan
    ok = ~clamped
    if np.any(ok):
        lo = np.nextafter(dom.lo, math.inf) if dom.lo_open and np.isfinite(dom.lo) else dom.lo
        hi = np.nextafter(dom.hi, -math.inf) if dom.hi_open and np.isfinite(dom.hi) else dom.hi
        alpha[ok] = np.clip(rec.inverse(yv[ok] - model.drift, *model.params), lo, hi)
    if arr.ndim == 0:
        return float(alpha[0]), bool(clamped[0])
    return alpha, clamped


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
    lam = float(_check_domain(model, lam, "lambda"))
    if lam == 0.0:
        return model
    params, drift = _FAMILIES[model.family].tilt(lam, model.drift, *model.params)
    return NoiseModel(model.family, params, drift)
