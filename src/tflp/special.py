"""Gamma, incomplete gamma, modified Bessel (second kind) and modified
Struve functions.

lower_gamma(s, x) = int_0^x u^{s-1} e^{-u} du (s > 0) and
upper_gamma(s, x) = int_x^inf u^{s-1} e^{-u} du, with Gamma(0, x) = E_1(x)
and negative s reached by Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s.
Evaluation is delegated to scipy.special, except e^z K_nu(z) for
z >= 2^29, near the bound 2^30 past which scipy's kve returns nan; there
three terms of the large-argument expansion are exact to rounding.  A
slow quadrature form of K_nu is kept in the test suite as an independent
oracle.

cell_moments integrates u^a e^{-lam u} over the cells [p dx, (p+1) dx]
from p = series_start(a) on by a short series in 1/p, in place of a
difference of incomplete gammas at the cell edges, which loses about
log10(1/(lam dx)) digits where the cells are short against the decay.
"""

import math

import numpy as np
from scipy import special as _sp

from .errors import ParameterError

__all__ = ["gamma_fn", "lower_gamma", "lower_gamma_at_log", "upper_gamma",
           "cell_moments", "series_start", "bessel_k", "bessel_k_scaled", "struve_l"]

# Gamma overflows in double precision slightly above this argument.
_GAMMA_OVERFLOW = 171.62


def gamma_fn(x):
    """Gamma function Gamma(x) for real x.

    Raises ParameterError at zero and negative integers and OverflowError
    when the result is not representable in double precision.
    """
    x = float(x)
    if x <= 0.0 and x == np.floor(x):
        raise ParameterError(f"gamma_fn: pole at non-positive integer x={x}")
    if x > _GAMMA_OVERFLOW:
        raise OverflowError(f"gamma_fn: overflow for x={x}")
    return float(_sp.gamma(x))


def lower_gamma(s, x):
    """Lower incomplete gamma, s > 0, x >= 0."""
    return _sp.gamma(s) * _sp.gammainc(s, x)


def lower_gamma_at_log(s, log_x):
    """lower_gamma(s, e^{log_x}) for a scalar s > 0, also where e^{log_x}
    underflows: below log_x = -40 it is x^s/s, the first term of
    x^s e^{-x} M(1, 1+s, x)/s (DLMF 8.5.1), whose factor e^{-x} M is then 1
    to rounding."""
    if log_x < -40.0:
        return math.exp(s * log_x) / s
    return float(lower_gamma(s, math.exp(log_x)))


def upper_gamma(s, x):
    """Upper incomplete gamma for x > 0 and s > -2."""
    x = np.asarray(x, dtype=float)
    if s > 0:
        return _sp.gamma(s) * _sp.gammaincc(s, x)
    if s == 0.0:
        return _sp.exp1(x)
    return (upper_gamma(s + 1.0, x) - x ** s * np.exp(-x)) / s


# terms J of the cell_moments series
_SERIES_TERMS = 16


def _binomials(a, k):
    """C(a, j) = a (a-1) ... (a-j+1) / j! for j = 0..k-1, a real."""
    out = [1.0]
    for j in range(1, k):
        out.append(out[-1] * (a - j + 1) / j)
    return np.array(out)


def _series_bound(a, p):
    """Bound on the relative truncation error of cell_moments at cell p >= 1.

    Cell p is dx u_p^a e^{-lam u_p} int_0^1 v^theta (1 + t)^a e^{-h v} dv,
    t = v/p, h = lam dx.  By Lagrange's remainder the binomial series of
    (1 + t)^a cut after J terms is off by C(a, J) t^J (1 + xi)^{a-J},
    0 < xi < t <= 1/p, while (1 + t)^a >= (1 + 1/p)^{min(a, 0)}; the
    weight v^theta e^{-h v} is positive, so the integral's relative error
    is at most |C(a, J)| p^{-J} (1 + 1/p)^{max(a-J, 0) + max(-a, 0)}.
    """
    J = _SERIES_TERMS
    c = abs(_binomials(a, J + 1)[J])
    return c * p ** -float(J) * (1.0 + 1.0 / p) ** (max(a - J, 0.0) + max(-a, 0.0))


def series_start(a):
    """First cell P >= 2 from which _series_bound(a, p) <= 2^-53 for all
    p >= P (the bound decreases in p).  P is at most 12 for |a| <= 2 (2 for
    the integers 0..15, where the series ends) and grows about like 1.4 |a|
    beyond: 118 at a = 85."""
    c = abs(_binomials(a, _SERIES_TERMS + 1)[_SERIES_TERMS])
    p = max(2, int((c * 2.0 ** 53) ** (1.0 / _SERIES_TERMS)))
    while _series_bound(a, p) > 2.0 ** -53:
        p += 1
    return p


def _unit_moments(h, k):
    """q_j = int_0^1 v^j e^{-h v} dv for j = 0..k-1: j! P(j+1, h) / h^{j+1}
    for h >= 1; below, e^{-h} sum_i h^i / ((j+1) ... (j+i+1)) (DLMF 8.7.1),
    whose positive terms fall below h^i / (i+1)!, to i = 23."""
    j = np.arange(k)
    if h >= 1.0:
        return _sp.factorial(j) * _sp.gammainc(j + 1.0, h) * np.power(1.0 / h, j + 1.0)
    ratios = np.empty((k, 24))
    ratios[:, 0] = 1.0 / (j + 1.0)
    ratios[:, 1:] = h / (j[:, None] + np.arange(2.0, 25.0))
    return math.exp(-h) * np.cumprod(ratios, axis=1).sum(axis=1)


def cell_moments(a, lam, dx, p0, p1, theta=0):
    """int_{p dx}^{(p+1) dx} u^a e^{-lam u} ((u - p dx)/dx)^theta du for the
    cells p = p0..p1-1 (p0 >= 1, theta 0 or 1).

    With u = (p + v) dx and h = lam dx, cell p is dx u_p^a e^{-lam u_p}
    sum_{j<J} C(a, j) q_{j+theta} p^{-j}, q_j = int_0^1 v^j e^{-h v} dv:
    the binomial series of (1 + v/p)^a, J = 16 terms.  One exp, one log
    and J multiply-adds per cell, and no difference of large values: from
    p = series_start(a) on, the truncation is below 2^-53 relative
    (_series_bound), and what remains is the rounding of u^a e^{-lam u}
    and of the sum, a few units of 2^-53 times |a| (1 + |log u|) + lam u
    + J.
    """
    J = _SERIES_TERMS
    c = _binomials(a, J) * _unit_moments(lam * dx, J + theta)[theta:]
    p = np.arange(p0, p1, dtype=float)
    y = 1.0 / p
    s = np.full_like(y, c[-1])
    for cj in c[-2::-1]:      # Horner in place: np.polyval's operations
        s *= y
        s += cj
    u = dx * p
    return dx * np.exp(a * np.log(u) - lam * u) * s


def bessel_k(nu, z):
    """Modified Bessel function of the second kind K_nu(z), z > 0.

    Symmetric in nu (K_{-nu} = K_nu).  Accurate to ~1e-13 relative for
    z in [1e-6, 700] and |nu| <= 50.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("bessel_k: requires z > 0")
    out = _sp.kv(nu, z)
    if out.ndim == 0:
        return float(out)
    return out


def struve_l(nu, z):
    """Modified Struve function L_nu(z), z >= 0 (DLMF 11.2.2)."""
    out = _sp.modstruve(nu, np.asarray(z, dtype=float))
    return float(out) if out.ndim == 0 else out


# scipy's kve returns nan from z = 2^30 on (the argument bound of its AMOS
# routine); from 2^29 on, three terms of the large-argument expansion are
# exact to rounding for |nu| up to about 100
_KVE_ASYMPTOTIC = 2.0 ** 29


def bessel_k_scaled(nu, z):
    """Exponentially scaled Bessel function e^z * K_nu(z), z > 0.

    Avoids underflow of K_nu itself for large z; used by the far-lag rule
    of the noise autocovariances.  For z >= 2^29 it is
    sqrt(pi/2z) sum_k a_k(nu)/z^k to k = 2 (DLMF 10.40.2).
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("bessel_k_scaled: requires z > 0")
    out = _sp.kve(nu, z)
    far = z >= _KVE_ASYMPTOTIC
    if far.any():
        m, q = 4.0 * np.square(nu), 0.125 / z
        series = 1.0 + (m - 1.0) * q * (1.0 + (m - 9.0) * q / 2.0
                                        * (1.0 + (m - 25.0) * q / 3.0))
        out = np.where(far, np.sqrt(0.5 * np.pi / z) * series, out)
    if out.ndim == 0:
        return float(out)
    return out
