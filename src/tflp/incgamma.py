"""Incomplete gamma helpers shared by the kernel and operator code.

Conventions: lower_gamma(s, x) = int_0^x u^{s-1} e^{-u} du (s > 0),
upper_gamma(s, x) = int_x^inf u^{s-1} e^{-u} du, with Gamma(0, x) = E_1(x)
and negative s reached by the recurrence
Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s.
"""

import numpy as np
from scipy import special as _sp

__all__ = ["lower_gamma", "upper_gamma"]


def lower_gamma(s, x):
    """Lower incomplete gamma, s > 0, x >= 0."""
    return _sp.gamma(s) * _sp.gammainc(s, x)


def upper_gamma(s, x):
    """Upper incomplete gamma for x > 0 and s > -2."""
    x = np.asarray(x, dtype=float)
    if s > 0:
        return _sp.gamma(s) * _sp.gammaincc(s, x)
    if s == 0.0:
        return _sp.exp1(x)
    return (upper_gamma(s + 1.0, x) - x ** s * np.exp(-x)) / s
