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
"""

import math

import numpy as np
from scipy import special as _sp

from .errors import ParameterError

__all__ = ["gamma_fn", "lower_gamma", "lower_gamma_at_log", "upper_gamma",
           "bessel_k", "bessel_k_scaled", "struve_l"]

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
