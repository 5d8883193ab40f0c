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
G(0) = 0 (the two terms cancel exactly in the limit); for small
lam |t| the difference is evaluated by a series to avoid catastrophic
cancellation: the reflection form of K_nu, or the integer-order series
(DLMF 10.31.1) when nu is an integer, where that form divides by 0.

The type II covariance has the same shape, with mu = d - 1/2:
Cov[S^II(s), S^II(t)] = EL2 K {H(s) + H(t) - H(|t-s|)},
K = 1/(sqrt(pi) Gamma(d) (2 lam)^mu), and

  H(x) = int_0^x (x-u) u^mu K_mu(lam u) du = x Phi0(x) - Phi1(x),
  Phi1(x) = int_0^x u^{mu+1} K_mu(lam u) du = G(x)/(lam B)   (DLMF 10.29.4),
  Phi0(x) = int_0^x u^mu K_mu(lam u) du
          = lam^{-mu-1} 2^{mu-1} sqrt(pi) Gamma(d) S(lam x) (DLMF 10.43.2),
  S(z) = z [K_mu(z) L_{mu-1}(z) + L_mu(z) K_{mu-1}(z)] -> 1 (DLMF 10.43.19),

with L the modified Struve function and B the coefficient in G.

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

from .errors import ParameterError
from .processes import TemperedParams
from .special import bessel_k, bessel_k_scaled, gamma_fn, struve_l

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


def _big_g(d: float, lam: float, t: float) -> float:
    """G(t) = |t|^{1+2d} C^2_{d,lam,|t|}; G(0) = 0, G(inf) = plateau."""
    t = abs(float(t))
    if t == 0.0:
        return 0.0
    nu = d + 0.5
    z = lam * t
    A = 2.0 * gamma_fn(1.0 + 2.0 * d) / (2.0 * lam) ** (1.0 + 2.0 * d)
    B = (2.0 * gamma_fn(1.0 + d) / _SQRT_PI) * (2.0 * lam) ** (-nu)
    if z <= 0.5 and nu == int(nu):
        # z^n K_n(z) by DLMF 10.31.1, q = z^2/4, less its k = 0 term 2^{n-1}
        # (n-1)! = A lam^n / B; harm = psi(k+1) + psi(n+k+1) + 2 euler_gamma
        n, q = int(nu), 0.25 * z * z
        total = sum(2.0 ** (n - 1) * math.factorial(n - k - 1) / math.factorial(k)
                    * (-q) ** k for k in range(1, n))
        term = (-2.0 * q) ** n / math.factorial(n)
        harm = sum(1.0 / j for j in range(1, n + 1))
        for k in range(12):  # q^k / (k! (n+k)!) < 1e-25 beyond, as q <= 1/16
            if k > 0:
                term *= q / (k * (n + k))
                harm += 1.0 / k + 1.0 / (n + k)
            total += term * (0.5 * (harm - math.log(q)) - np.euler_gamma)
        return -B * lam ** (-n) * total
    if z <= 0.5:
        # series of A - B t^nu K_nu(lam t) with the leading singular term
        # cancelled analytically (reflection form of K_nu); no cancellation
        pref = B * np.pi / (2.0 * np.sin(np.pi * nu))
        half = 0.5 * lam
        total = 0.0
        # + sum_{k>=0} (lam/2)^{2k+nu} t^{2k+2nu} / (k! Gamma(k+1+nu))
        # - sum_{k>=1} (lam/2)^{2k-nu} t^{2k}    / (k! Gamma(k+1-nu))
        fact = 1.0
        for k in range(0, 24):
            if k > 0:
                fact *= k
            term = half ** (2 * k + nu) * t ** (2 * k + 2 * nu) \
                / (fact * gamma_fn(k + 1.0 + nu))
            if k >= 1:
                term -= half ** (2 * k - nu) * t ** (2 * k) \
                    / (fact * gamma_fn(k + 1.0 - nu))
            total += term
            if k > 2 and abs(term) < 1e-18 * abs(total):
                break
        return pref * total
    # K_nu underflows only where its term is far below the rounding of A
    return A - B * t ** nu * bessel_k(nu, z)


def ct_squared(params: TemperedParams, t: float) -> float:
    """Squared scale factor C^2_{d,lam,|t|} of the type I variance; 0 at t=0."""
    t = abs(float(t))
    if t == 0.0:
        return 0.0
    return _big_g(params.d, params.lam, t) / t ** (1.0 + 2.0 * params.d)


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
    would overflow further out), so it is taken as 1 there."""
    x = abs(float(x))
    if x == 0.0:
        return 0.0
    mu, z = d - 0.5, lam * x
    S = 1.0
    if z < 40.0 + 2.0 * mu:
        S = z * (bessel_k(mu, z) * struve_l(mu - 1.0, z)
                 + struve_l(mu, z) * bessel_k(mu - 1.0, z))
    return 0.5 * x * S / lam ** (2.0 * d) \
        - _big_g(d, lam, x) / (gamma_fn(d) * gamma_fn(1.0 + d))


def cov_tflp2(params: TemperedParams, s: float, t: float, EL2: float = 1.0) -> float:
    """Cov[S^II(s), S^II(t)] = EL2 K [H(s) + H(t) - H(|t-s|)] for d > 0, with
    H = x Phi0 - Phi1 in closed form (module docstring; DLMF 10.29.4, 10.43.2)."""
    d, lam = params.d, params.lam
    if not d > 0:
        raise ValueError("cov_tflp2: closed form requires d > 0")
    s, t = float(s), float(t)
    if s == 0.0 or t == 0.0:
        return 0.0
    if s < 0 or t < 0:
        raise ValueError("cov_tflp2: requires s, t >= 0")
    return EL2 * (_big_h(d, lam, s) + _big_h(d, lam, t) - _big_h(d, lam, t - s))


def acvf_tfln1(params: TemperedParams, h: float, EL2: float = 1.0) -> float:
    """Autocovariance of the unit-lag type I noise, exact via G differences."""
    d, lam = params.d, params.lam
    g = gamma_fn(1.0 + d)
    h = float(h)
    return EL2 / (2.0 * g * g) * (
        _big_g(d, lam, h + 1.0) - 2.0 * _big_g(d, lam, h) + _big_g(d, lam, h - 1.0))


def acvf_tfln1_asymptotic(params: TemperedParams, h: float, EL2: float = 1.0) -> float:
    """Large-lag form C e^{-lam h} h^d, C = -EL2 lam^2/(Gamma(d+1)(2 lam)^{d+1}).

    The constant is negative: the noise acvf undershoots zero at large
    lags.  Accurate to the displayed order for lam h large and lam small
    (the lam^2 factor is the small-lam form of 2 cosh(lam) - 2).
    """
    d, lam = params.d, params.lam
    C = -EL2 * lam ** 2 / (gamma_fn(d + 1.0) * (2.0 * lam) ** (d + 1.0))
    h = np.asarray(h, dtype=float)
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
    """K [H(h+1) - 2 H(h) + H(|h-1|)], or for lam (h-1) > 3 or h > 21, where
    that loses more than 1e-10 to rounding, the same
    K int_{-1}^{1} (1-|r|) |h+r|^mu K_mu(lam|h+r|) dr by quadrature with
    the exponential decay factored out."""
    d, lam = params.d, params.lam
    h = abs(float(h))
    if h - 1.0 <= min(3.0 / lam, 20.0):
        return _big_h(d, lam, h + 1.0) - 2.0 * _big_h(d, lam, h) \
            + _big_h(d, lam, h - 1.0)
    from scipy import integrate as _integrate
    K = 1.0 / (_SQRT_PI * gamma_fn(d) * (2.0 * lam) ** (d - 0.5))
    nu = d - 0.5
    # integrand = (1-|r|) (h+r)^nu kve(nu, lam(h+r)) e^{-lam(h+r)}
    def scaled(r):
        x = h + r
        return (1.0 - abs(r)) * x ** nu * bessel_k_scaled(nu, lam * x) \
            * np.exp(-lam * r)
    val, _ = _integrate.quad(scaled, -1.0, 1.0, limit=200, epsabs=0.0, epsrel=1e-11)
    return K * np.exp(-lam * h) * val


def _acvf_tfln2_fourier(params: TemperedParams, h: float) -> float:
    """Type II noise acvf by numerical inversion of the spectral display,
    gamma2(h) = 2 int_R e^{i omega h} h2(omega) d omega; valid for all
    d > -1/2 but limited to absolute quadrature accuracy at large lags."""
    from scipy import integrate as _integrate
    h = abs(float(h))
    cutoff = 500.0

    def f(w):
        return 2.0 * float(spec_density_tfln2(params, w))

    if h == 0.0:
        val, _ = _integrate.quad(f, 0.0, cutoff, limit=800)
    else:
        val, _ = _integrate.quad(f, 0.0, cutoff, weight="cos", wvar=h,
                                 limit=800, epsabs=1e-12)
    return 2.0 * val


def acvf_tfln2(params: TemperedParams, h: float, EL2: float = 1.0,
               method: str = "auto") -> float:
    """Exact autocovariance of the unit-lag type II noise.

    method 'bessel' (d > 0 only) takes K [H(h+1) - 2 H(h) + H(|h-1|)], H as
    in cov_tflp2 (DLMF 10.29.4, 10.43.2), or integrates the kernel where that
    difference cancels; 'fourier' inverts the spectral display and covers
    all d > -1/2; 'auto' picks bessel when admissible.  The two routes are
    independent and cross-checked in the test suite.
    """
    if method == "auto":
        method = "bessel" if params.d > 0 else "fourier"
    if method == "bessel":
        return EL2 * _acvf_tfln2_bessel(params, h)
    if method == "fourier":
        return EL2 * _acvf_tfln2_fourier(params, h)
    raise ValueError("acvf_tfln2: method must be 'auto', 'bessel' or 'fourier'")


@lru_cache(maxsize=64)
def _band_constants(d: float, lam: float):
    # calibrate the sandwich gamma2(h) ~ e^{-lam h} h^{d-1} on moderate lags
    params = TemperedParams(d, lam)
    hs = np.linspace(5.0 / lam, 10.0 / lam, 12)
    ratios = []
    for h in hs:
        g = acvf_tfln2(params, float(h))
        ratios.append(g * np.exp(lam * h) * h ** (1.0 - d))
    ratios = np.asarray(ratios)
    return float(ratios.min()) * 0.98, float(ratios.max()) * 1.02


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
