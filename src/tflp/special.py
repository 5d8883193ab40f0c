"""Gamma function and modified Bessel function of the second kind.

These are the only two special functions the analytic formulas in this
package consume.  Production evaluation is delegated to scipy.special;
a slow quadrature form of K_nu is kept in the test suite as an
independent oracle.
"""

import numpy as np
from scipy import special as _sp

from .errors import ParameterError

__all__ = ["gamma_fn", "bessel_k", "bessel_k_scaled"]

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


def bessel_k_scaled(nu, z):
    """Exponentially scaled Bessel function e^z * K_nu(z), z > 0.

    Avoids underflow of K_nu itself for large z; used by covariance
    formulas at large lambda*|t|.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("bessel_k_scaled: requires z > 0")
    out = _sp.kve(nu, z)
    if out.ndim == 0:
        return float(out)
    return out
