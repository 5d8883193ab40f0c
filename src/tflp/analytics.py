"""Closed-form second order theory and empirical estimators.

Covariances of the two tempered fractional Levy processes, variance
limits, noise autocovariances and spectral densities, plus the sample
estimators (autocovariance, Welch periodogram, semi-long-range
dependence fit, structure function exponent) used to confront
simulations with the formulas.

Central object: with nu = d + 1/2,

  G(t) = |t|^{1+2d} C^2_{d,lam,|t|}
       = 2 Gamma(1+2d)/(2 lam)^{1+2d}
         - (2 Gamma(1+d)/sqrt(pi)) (2 lam)^{-nu} |t|^nu K_nu(lam |t|),

so that Cov[S^I(t), S^I(s)] = EL2/(2 Gamma(1+d)^2) {G(t)+G(s)-G(t-s)}.
G(0) = 0, where the two terms cancel; so that no digits cancel at small
lam |t|, G is taken for every t and nu as one positive integral (DLMF
10.32.10, _big_g): G(t) = (A/Gamma(nu)) int_0^inf e^{-u} u^{nu-1}
(1 - e^{-q/u}) du, with q = (lam t)^2/4 and A the first term above.

The type II covariance has the same shape, with mu = d - 1/2:
Cov[S^II(s), S^II(t)] = EL2 K {H(s) + H(t) - H(|t-s|)},
K = 1/(sqrt(pi) Gamma(d) (2 lam)^mu), and

  H(x) = int_0^x (x-u) u^mu K_mu(lam u) du = x Phi0(x) - Phi1(x),
  Phi1(x) = int_0^x u^{mu+1} K_mu(lam u) du = G(x)/(lam B)   (DLMF 10.29.4),
  Phi0(x) = int_0^x u^mu K_mu(lam u) du
          = lam^{-mu-1} 2^{mu-1} sqrt(pi) Gamma(d) S(lam x) (DLMF 10.43.2),
  S(z) = z [K_mu(z) L_{mu-1}(z) + L_mu(z) K_{mu-1}(z)] -> 1 (DLMF 10.43.19),

with L the modified Struve function and B the coefficient in G.  K H is
analytic in d, so this one form holds on the whole type II domain
d > -1/2, d != 0 (K changes sign with Gamma(d)); at d = 0, where
S^II = L, the type II functions raise ParameterError.

Noise autocovariances.  Both are second differences,
f(h+1) - 2 f(h) + f(h-1) = int_{-1}^{1} (1-|r|) f''(h+r) dr, of a
function whose values there nearly cancel: f = G for type I, with
f''(t) = -B (lam^2 t^nu K_{nu-2}(lam t) - lam t^{nu-1} K_{nu-1}(lam t))
(DLMF 10.29.4), and K H for type II, whose f'' is the kernel
x^mu K_mu(lam x) itself.  Every lag with lam (|h|-1) > 0, whose stencil
support stays clear of the branch point of f'' at 0, takes one
Gauss-Legendre stencil rule, _far_second_difference, with the decay
e^{-lam t} factored out, so no digits cancel and nothing overflows at
large lam; only lags |h| <= 1 difference f itself (_second_difference).
Below lam = 1e-130 the rule's weights, of order lam^2, leave double
range, so there lags |h| > 2 raise ToleranceError.  So does H where S
does not stay finite (K overflows against an underflowing L at small z).

Spectral densities are returned exactly as displayed, normalized to
E[L(1)^2] = 1:

  h1(omega) = (1/2 pi) (1-cos omega)/(lam^2+omega^2)^{d+1}
  h2(omega) = (1/2 pi) (1-cos omega)/(omega^2 (lam^2+omega^2)^d)

The matching inversion is gamma(h) = 2 EL2 int_R e^{i omega h} h(omega)
d omega (the displays carry half the two-sided power; checked against
the closed form at d = 0 where gamma1(0) = 1 - 1/e for lam = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, ToleranceError
from .processes import TemperedParams
from .special import (bessel_k, bessel_k_scaled, gamma_fn, lower_gamma_at_log,
                      struve_l)

__all__ = [
    "SemiLrdFit",
    "ct_squared", "cov_tflp1", "var_limit_tflp1", "cov_tflp2",
    "acvf_tfln1", "acvf_tfln1_asymptotic",
    "acvf_tfln2", "acvf_tfln2_asymptotic_band",
    "spec_density_tfln1", "spec_density_tfln2",
    "empirical_acvf", "periodogram", "fit_semi_lrd",
    "structure_function", "structure_exponent",
]

_SQRT_PI = np.sqrt(np.pi)


@dataclass
class SemiLrdFit:
    """Result of the semi-LRD model fit |gamma(h)| = c * h^delta * e^{-lam h}."""

    lambda_hat: float
    delta_hat: float
    c_hat: float
    fit_range: tuple
    residual_rms: float


@lru_cache(maxsize=1)
def _gauss_legendre8():
    return np.polynomial.legendre.leggauss(8)


@lru_cache(maxsize=None)
def _g_nodes(m: int, panels: int):
    """Nodes y = log u and weights w e^{-u} of the body of _big_g: the last
    `panels` 8-point Gauss-Legendre panels [j, j+1]/(2m) below u = e^{5.5},
    with exact edges, so no node carries the rounding of a far-off start;
    read-only, as the cache hands them to every caller."""
    x, w = _gauss_legendre8()
    j = np.arange(11 * m - panels, 11 * m)[:, None]
    y = ((j + 0.5 * (1.0 + x)) / (2 * m)).ravel()
    weights = np.tile(w / (4 * m), panels) * np.exp(-np.exp(y))
    y.setflags(write=False)
    weights.setflags(write=False)
    return y, weights


def _big_g(d: float, lam: float, t: float) -> float:
    """G(t) = |t|^{1+2d} C^2_{d,lam,|t|}; G(0) = 0, G(inf) = A.

    By DLMF 10.32.10, G(t) = (A/Gamma(nu)) int_0^inf e^{-u} u^{nu-1}
    (1 - e^{-q/u}) du, q = (lam t)^2/4: a positive integrand, so no digits
    cancel.  Below u0 <= q/40 the bracket is 1 to within e^{-40}, so that
    head is lower_gamma(nu, u0); the body is taken in y = log u on the k
    panels of _g_nodes from the edge below log(q/40) to u = e^{5.5}, past
    which e^{-u} u^nu is below rounding for nu up to 86 (where Gamma(1+2d)
    overflows).  The integrand e^{nu y - e^y} narrows like nu^{-1/2}, so
    m = ceil(sqrt(nu/6)) panels per half unit of y keep the rule within
    1e-14.  log q is a sum of logs, so lam t may underflow; but the terms
    underflow where G/A is below 1e-290, so that raises ToleranceError."""
    t = abs(float(t))
    if t == 0.0:
        return 0.0
    nu = d + 0.5
    A = 2.0 * gamma_fn(1.0 + 2.0 * d) / (2.0 * lam) ** (1.0 + 2.0 * d)
    log_q = 2.0 * (math.log(lam) + math.log(t)) - math.log(4.0)
    m = math.ceil(math.sqrt(nu / 6.0))
    k = max(11 * m - math.floor(2 * m * (log_q - math.log(40.0))), 0)
    y, weights = _g_nodes(m, 1 << k.bit_length())  # powers of two: few cached
    y, weights = y[len(y) - 8 * k:], weights[len(y) - 8 * k:]
    minus_body = np.dot(weights, np.exp(nu * y) * np.expm1(-np.exp(log_q - y)))
    ratio = (lower_gamma_at_log(nu, (11 * m - k) / (2 * m)) - minus_body) / gamma_fn(nu)
    if ratio < 1e-290:
        raise ToleranceError(f"G: at lam = {lam:g}, t = {t:g} it is below 1e-290 "
                             "of its plateau, out of double range")
    return A * ratio


def ct_squared(params: TemperedParams, t: float) -> float:
    """Squared scale factor C^2_{d,lam,|t|} of the type I variance; 0 at t=0.
    G is divided by t^{1/2+d} twice, as t^{1+2d} itself may underflow."""
    t = abs(float(t))
    if t == 0.0:
        return 0.0
    root = t ** (0.5 + params.d)
    return _big_g(params.d, params.lam, t) / root / root


def cov_tflp1(params: TemperedParams, s: float, t: float, EL2: float = 1.0) -> float:
    """Cov[S^I(s), S^I(t)] for the type I process driven with E[L(1)^2] = EL2."""
    d, lam = params.d, params.lam
    g = gamma_fn(1.0 + d)
    return EL2 / (2.0 * g * g) * (
        _big_g(d, lam, t) + _big_g(d, lam, s) - _big_g(d, lam, t - s))


def var_limit_tflp1(params: TemperedParams, EL2: float = 1.0) -> float:
    """Large-time variance plateau 2 EL2 Gamma(1+2d)/(Gamma(1+d)^2 (2 lam)^{1+2d})."""
    d, lam = params.d, params.lam
    g = gamma_fn(1.0 + d)
    return 2.0 * EL2 * gamma_fn(1.0 + 2.0 * d) / (g * g * (2.0 * lam) ** (1.0 + 2.0 * d))


def _big_h(d: float, lam: float, x: float) -> float:
    """K H(x): K Phi0(x) = lam^{-2d} S(lam x)/2, K Phi1(x) = G(x)/(Gamma(d)
    Gamma(1+d)).  S is 1 to within 1e-17 from z = 40 + 2 mu on (and L_mu
    would overflow further out), so it is taken as 1 there.  At small z
    (below 1e-208 to 1e-154 for d in (-1/2, 1/2)) a K overflows against an
    underflowing L; where that leaves S not finite, ToleranceError is
    raised."""
    x = abs(float(x))
    if x == 0.0:
        return 0.0
    mu, z = d - 0.5, lam * x
    S = 1.0
    if z < 40.0 + 2.0 * mu:
        S = z * (bessel_k(mu, z) * struve_l(mu - 1.0, z)
                 + struve_l(mu, z) * bessel_k(mu - 1.0, z))
    if not math.isfinite(S):
        raise ToleranceError(f"H: S(z) at z = lam x = {z:g} is out of double range")
    return 0.5 * x * S / lam ** (2.0 * d) \
        - _big_g(d, lam, x) / (gamma_fn(d) * gamma_fn(1.0 + d))


def cov_tflp2(params: TemperedParams, s: float, t: float, EL2: float = 1.0) -> float:
    """Cov[S^II(s), S^II(t)] = EL2 K [H(|s|) + H(|t|) - H(|t-s|)] for all
    real s, t (stationary increments) and d > -1/2, d != 0, with
    H = x Phi0 - Phi1 in closed form (module docstring; DLMF 10.29.4,
    10.43.2)."""
    d, lam = params.d, params.lam
    if d == 0.0:
        raise ParameterError("cov_tflp2: d = 0 is not admitted for type II")
    return EL2 * (_big_h(d, lam, s) + _big_h(d, lam, t) - _big_h(d, lam, t - s))


@lru_cache(maxsize=128)
def _stencil_nodes(lam: float, graded: float, stop: float):
    """Nodes s and weights min(s, 2 lam - s) e^{-s} w of
    _far_second_difference for panels graded towards a branch point at
    s = -graded; read-only, as the cache hands them to every caller."""
    edges = [0.0]
    while edges[-1] < stop:
        a = edges[-1]
        b = min(a + 2.0, a + 0.25 * (graded + a), stop)
        edges.append(lam if a < lam < b else b)
    edges = np.array(edges)
    x, w = _gauss_legendre8()
    half = 0.5 * np.diff(edges)[:, None]
    s = (0.5 * (edges[1:, None] + edges[:-1, None]) + half * x).ravel()
    weights = (half * w).ravel() * np.minimum(s, 2.0 * lam - s) * np.exp(-s)
    s.setflags(write=False)
    weights.setflags(write=False)
    return s, weights


def _far_second_difference(lam: float, h: float, d: float, g) -> float:
    """lam^2 int_{-1}^{1} (1-|r|) F(lam (h+r)) dr for F(z) = e^{-z} g(z) with
    its branch point at z = 0, lam (h-1) > 0: the second difference
    f(h+1) - 2 f(h) + f(h-1) of an f with f''(t) = lam^2 F(lam t).

    In s = lam (1+r), so that z = lam (h-1) + s carries no cancellation
    and no scale of lam: 8-point Gauss-Legendre panels on [0, lam] and
    [lam, stop] (split at the kink of 1-|r|), each at most 2 wide (the decay
    scale) and at most a quarter of its distance z from the branch point
    (graded towards it when lam (h-1) < 8; lags beyond share one cached
    layout).  e^{-lam(h-1)} e^{-s} is factored out, so no exponential
    exceeds 1.  Past stop = 40 + 4 max(d, 0) the integrand, about
    s z^d e^{-s}, is below rounding.  So a lag takes 30 + 2 max(d, 0)
    panels at most, plus about 10 per decade of min(8, 2 lam)/(lam (h-1));
    as lam (h-1) >= lam 2^{-52}, at most 170 panels (searched over lam from
    1e-3 to 1e8; at lam = 0.3, 1024 nodes at h = 1 + 1e-12, 72 at 1.37)."""
    z0 = lam * (h - 1.0)
    stop = min(2.0 * lam, 40.0 + 4.0 * max(d, 0.0))
    s, weights = _stencil_nodes(lam, min(z0, 8.0), stop)
    return math.exp(-z0) * float(np.dot(weights, g(z0 + s)))


# below this tempering rate the noise acvfs take only lags |h| <= 2
_LAM_FLOOR = 1e-130


def _second_difference(lam: float, h: float, d: float, f, c: float, g) -> float:
    """f(|h|+1) - 2 f(|h|) + f(|h|-1) of a noise acvf (module docstring),
    with f'' = c lam^2 e^{-z} g(z), z = lam t: by the stencil rule wherever
    lam (|h|-1) > 0, by differencing f for |h| <= 1 and where lam (|h|-1)
    is as good as 0, below 1e-150, where g, about z^{-2}, nears overflow.

    From lam = _LAM_FLOOR on, every lag |h| > 1 takes the stencil rule, with
    weights of order lam^2 >= 1e-260.  Below it, lags |h| <= 2 stay exact
    (the rule's weights are normal wherever lam (|h|-1) > 1e-150, and
    differencing f loses no more than a digit), but a lag |h| > 2 would
    either difference f, losing about 2 log10 |h| digits, or take weights
    that underflow, so it raises ToleranceError."""
    h = abs(float(h))
    if lam < _LAM_FLOOR and h > 2.0:
        raise ToleranceError(f"acvf: lag {h:g} at lambda = {lam:g}, below the floor "
                             f"{_LAM_FLOOR:g}, is out of double range")
    if lam * (h - 1.0) > 1e-150:
        return c * _far_second_difference(lam, h, d, g)
    return f(h + 1.0) - 2.0 * f(h) + f(h - 1.0)


def acvf_tfln1(params: TemperedParams, h: float, EL2: float = 1.0) -> float:
    """Autocovariance of the unit-lag type I noise: the second difference
    of G / (2 Gamma(1+d)^2)."""
    d, lam = params.d, params.lam
    g = gamma_fn(1.0 + d)
    nu = d + 0.5
    # G = A - B lam^{-nu} z^nu K_nu(z), z = lam t, so G''(t) = -B lam^{2-nu}
    # e^{-z} g2(z) (DLMF 10.29.4), B = 2 Gamma(1+d) (2 lam)^{-nu} / sqrt(pi)
    c = -2.0 * g * 2.0 ** -nu * lam ** (-2.0 * nu) / _SQRT_PI
    g2 = lambda z: z ** (nu - 1.0) * (
        z * bessel_k_scaled(nu - 2.0, z) - bessel_k_scaled(nu - 1.0, z))
    return EL2 / (2.0 * g * g) * _second_difference(
        lam, h, d, lambda t: _big_g(d, lam, t), c, g2)


def acvf_tfln1_asymptotic(params: TemperedParams, h: float, EL2: float = 1.0) -> float:
    """Large-lag form C e^{-lam h} h^d, C = -EL2 lam^2/(Gamma(d+1)(2 lam)^{d+1}).

    The constant is negative: the noise acvf undershoots zero at large
    lags.  Accurate to the displayed order for lam h large and lam small
    (the lam^2 factor is the small-lam form of 2 cosh(lam) - 2); h must
    be positive.
    """
    d, lam = params.d, params.lam
    C = -EL2 * lam ** 2 / (gamma_fn(d + 1.0) * (2.0 * lam) ** (d + 1.0))
    h = np.asarray(h, dtype=float)
    if not np.all(h > 0):
        raise ParameterError("acvf_tfln1_asymptotic: requires lag h > 0")
    out = C * np.exp(-lam * h) * h ** d
    return float(out) if out.ndim == 0 else out


def spec_density_tfln1(params: TemperedParams, omega) -> float:
    """Spectral density display of the type I noise, normalized to EL2 = 1."""
    d, lam = params.d, params.lam
    omega = np.asarray(omega, dtype=float)
    # 1 - cos w = 2 sin^2(w/2), stable for small w
    out = 2.0 * np.sin(0.5 * omega) ** 2 \
        / (2.0 * np.pi * (lam ** 2 + omega ** 2) ** (d + 1.0))
    return float(out) if out.ndim == 0 else out


def spec_density_tfln2(params: TemperedParams, omega) -> float:
    """Spectral density display of the type II noise (Von Karman type),
    normalized to EL2 = 1; the omega = 0 value is the Taylor limit
    1/(4 pi lam^{2d})."""
    d, lam = params.d, params.lam
    omega = np.asarray(omega, dtype=float)
    out = np.empty_like(omega)
    zero = omega == 0.0
    out[zero] = 0.5 / (2.0 * np.pi * lam ** (2.0 * d))
    nz = ~zero
    w = omega[nz]
    # (1 - cos w)/w^2 = (sin(w/2)/(w/2))^2 / 2, stable for small w
    out[nz] = 0.5 * (np.sin(0.5 * w) / (0.5 * w)) ** 2 \
        / (2.0 * np.pi * (lam ** 2 + w ** 2) ** d)
    return float(out) if out.ndim == 0 else out


def _acvf_tfln2_bessel(params: TemperedParams, h: float) -> float:
    d, lam = params.d, params.lam
    mu = d - 0.5
    # (K H)'' = K x^mu K_mu(lam x) = K lam^{-mu} z^mu K_mu(z), z = lam x:
    # c = K lam^{-mu-2}, K = 1/(sqrt(pi) Gamma(d) (2 lam)^mu)
    c = 2.0 ** -mu * lam ** (-1.0 - 2.0 * d) / (_SQRT_PI * gamma_fn(d))
    return _second_difference(lam, h, d, lambda x: _big_h(d, lam, x), c,
                              lambda z: z ** mu * bessel_k_scaled(mu, z))


def _acvf_tfln2_fourier(params: TemperedParams, h: float) -> float:
    """Type II noise acvf by inversion of the spectral display h2 = (1 - cos w) g,
    gamma2(h) = 4 int_0^inf cos(w h) h2(w) dw: quadrature on [0, pi], and on
    [pi, inf) cos(w h) (1 - cos w) as three cosines against g by quad's
    Fourier-integral rule (weight "cos").  No cut-off: exact for all d > -1/2."""
    from scipy import integrate as _integrate
    d, lam, h = params.d, params.lam, abs(float(h))
    h2 = lambda w: spec_density_tfln2(params, w)
    g = lambda w: 1.0 / (2.0 * np.pi * w * w * (lam * lam + w * w) ** d)
    parts = ((1.0, h2, 0.0, np.pi, h), (1.0, g, np.pi, np.inf, h),
             (-0.5, g, np.pi, np.inf, h + 1.0), (-0.5, g, np.pi, np.inf, abs(h - 1.0)))
    return 4.0 * sum(c * _integrate.quad(
        f, a, b, epsabs=1e-13, epsrel=1e-12, limit=200,
        **({"weight": "cos", "wvar": omega} if omega else {}))[0]
        for c, f, a, b, omega in parts)


def acvf_tfln2(params: TemperedParams, h: float, EL2: float = 1.0,
               method: str = "bessel") -> float:
    """Exact autocovariance of the unit-lag type II noise, d > -1/2, d != 0:
    K [H(h+1) - 2 H(h) + H(|h-1|)], H as in cov_tflp2, taken past lag 1 as
    the kernel integral by the stencil rule (module docstring).  method
    'fourier' inverts the spectral display instead, the independent
    reference route."""
    if params.d == 0.0:
        raise ParameterError("acvf_tfln2: d = 0 is not admitted for type II")
    routes = {"bessel": _acvf_tfln2_bessel, "fourier": _acvf_tfln2_fourier}
    if method not in routes:
        raise ValueError("acvf_tfln2: method must be 'bessel' or 'fourier'")
    return EL2 * routes[method](params, h)


@lru_cache(maxsize=64)
def _band_constants(d: float, lam: float):
    # calibrate the sandwich gamma2(h) ~ e^{-lam h} h^{d-1} on moderate lags
    params = TemperedParams(d, lam)
    hs = np.linspace(5.0 / lam, 10.0 / lam, 12)
    ratios = []
    for h in hs:
        g = acvf_tfln2(params, float(h))
        ratios.append(g * np.exp(lam * h) * h ** (1.0 - d))
    lo, hi = float(min(ratios)), float(max(ratios))
    # widen away from 0: both constants are negative for d < 0 (K ~ 1/Gamma(d))
    return lo * (0.98 if lo > 0 else 1.02), hi * (1.02 if hi > 0 else 0.98)


def acvf_tfln2_asymptotic_band(params: TemperedParams, h: float):
    """Two-sided envelope (lower, upper) = (C1, C2) e^{-lam h} h^{d-1}.

    C1, C2 are calibrated once per (d, lam) from exact acvf values on
    lam h in [5, 10]; the contract is the sandwich, not a limit.
    Normalized to EL2 = 1; h must be positive.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(h > 0):
        raise ParameterError("acvf_tfln2_asymptotic_band: requires lag h > 0")
    C1, C2 = _band_constants(params.d, params.lam)
    env = np.exp(-params.lam * h) * h ** (params.d - 1.0)
    lo, hi = C1 * env, C2 * env
    if lo.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


def empirical_acvf(samples, max_lag: int):
    """Biased (1/N) sample autocovariance at lags 0..max_lag, FFT based."""
    x = np.asarray(samples, dtype=float)
    n = len(x)
    if max_lag < 0:
        raise ValueError("empirical_acvf: max_lag must be nonnegative")
    if n <= max_lag:
        raise ValueError("empirical_acvf: need more samples than max_lag")
    x = x - x.mean()
    m = 1 << int(np.ceil(np.log2(2 * n)))
    fx = np.fft.rfft(x, m)
    acov = np.fft.irfft(fx * np.conj(fx), m)[: max_lag + 1] / n
    return acov


def periodogram(samples, segment_length: int):
    """Welch-averaged periodogram (Hann window, 50% overlap).

    Returns (omega, power) at the positive Fourier frequencies
    omega_k = 2 pi k / segment_length, k = 1..L/2, normalized so that
    unit-variance white noise has flat power 1/(2 pi).
    """
    x = np.asarray(samples, dtype=float)
    L = int(segment_length)
    if L < 4:  # a 2-point Hann window is all zeros; L < 2 leaves no segment step
        raise ValueError("periodogram: segment_length must be at least 4")
    if L > len(x):
        raise ValueError("periodogram: segment_length exceeds series length")
    if L & (L - 1):
        raise ValueError("periodogram: segment_length must be a power of two")
    w = np.hanning(L)
    norm = 2.0 * np.pi * np.sum(w ** 2)
    step = L // 2
    n_seg = (len(x) - L) // step + 1
    power = np.zeros(L // 2)
    for i in range(n_seg):
        seg = x[i * step: i * step + L]
        seg = (seg - seg.mean()) * w
        spec = np.abs(np.fft.rfft(seg)[1: L // 2 + 1]) ** 2
        power += spec / norm
    power /= n_seg
    omega = 2.0 * np.pi * np.arange(1, L // 2 + 1) / L
    return omega, power


def fit_semi_lrd(acvf) -> SemiLrdFit:
    """Least squares fit of log|gamma(h)| = log c + delta log h - lam h.

    acvf is an array of rows (h, gamma) with h > 0; zero entries are
    dropped, signs are ignored (|gamma| is fitted).
    """
    arr = np.asarray(acvf, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("fit_semi_lrd: expects rows of (h, gamma)")
    h, g = arr[:, 0], np.abs(arr[:, 1])
    keep = (h > 0) & (g > 0)
    h, g = h[keep], g[keep]
    if len(np.unique(h)) < 3:
        raise ValueError("fit_semi_lrd: need at least 3 distinct positive lags")
    X = np.column_stack([np.ones_like(h), -h, np.log(h)])
    y = np.log(g)
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < 3:
        raise ValueError("fit_semi_lrd: degenerate design matrix")
    resid = y - X @ coef
    return SemiLrdFit(
        lambda_hat=float(coef[1]),
        delta_hat=float(coef[2]),
        c_hat=float(np.exp(coef[0])),
        fit_range=(float(h.min()), float(h.max())),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
    )


def structure_function(paths, dx: float, tau_cells):
    """Second order structure function E|S(t+tau) - S(t)|^2 per lag.

    paths is an (n_paths, n_points) ensemble on a uniform grid of
    spacing dx; averaging runs over both paths and time origins
    (stationary increments).  Returns (taus, moments).
    """
    paths = np.atleast_2d(np.asarray(paths, dtype=float))
    taus, moments = [], []
    for k in tau_cells:
        k = int(k)
        if k < 1 or k >= paths.shape[1]:
            raise ValueError("structure_function: lag outside the grid")
        diffs = paths[:, k:] - paths[:, :-k]
        taus.append(k * dx)
        moments.append(float(np.mean(diffs ** 2)))
    return np.asarray(taus), np.asarray(moments)


def structure_exponent(paths, dx: float, tau_cells):
    """Holder-type scaling estimate from the structure function.

    The second moment of an increment scales as tau^{1+2d}, so the
    log-log slope is 1 + 2d; the returned zeta = slope - 1 estimates 2d,
    twice the Holder exponent of the smooth part.
    """
    taus, moments = structure_function(paths, dx, tau_cells)
    if np.any(moments <= 0):
        raise ValueError("structure_exponent: zero moment in the fit range")
    slope, _ = np.polyfit(np.log(taus), np.log(moments), 1)
    return {"slope": float(slope), "zeta": float(slope - 1.0)}
