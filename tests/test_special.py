"""Gamma and modified Bessel function wrappers."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from tflp.errors import ParameterError
from tflp.special import (bessel_k, bessel_k_scaled, gamma_fn, struve_l,
                          upper_gamma)


def test_gamma_basic_values():
    assert gamma_fn(1.0) == 1.0
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-15
    for n in range(2, 15):
        assert abs(gamma_fn(n) / math.factorial(n - 1) - 1.0) < 1e-13


def test_gamma_recurrence():
    for x in (0.3, 1.7, -0.4, -1.3, 5.5):
        assert abs(gamma_fn(x + 1.0) / (x * gamma_fn(x)) - 1.0) < 1e-12


def test_gamma_poles_and_overflow():
    for n in (0, -1, -2, -7):
        with pytest.raises(ParameterError):
            gamma_fn(float(n))
    with pytest.raises(OverflowError):
        gamma_fn(200.0)


def test_upper_gamma_at_zero_and_minus_one():
    # Gamma(0, x) = E_1(x); Gamma(-1, x) follows from it by the recurrence
    for s in (0.0, -1.0):
        for x in (0.01, 0.5, 3.0):
            ref, _ = quad(lambda u: u ** (s - 1.0) * np.exp(-u), x, np.inf,
                          epsabs=0.0, epsrel=1e-13, limit=200)
            assert abs(upper_gamma(s, x) / ref - 1.0) < 1e-12, (s, x)


def test_bessel_k_integral_representation():
    # K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt
    for nu in (0.0, 0.5, 1.3, 2.7):
        for z in (0.2, 1.0, 5.0):
            ref, _ = quad(lambda t: np.exp(-z * np.cosh(t)) * np.cosh(nu * t),
                          0.0, 30.0, epsabs=1e-15, epsrel=1e-12, limit=200)
            assert abs(bessel_k(nu, z) / ref - 1.0) < 1e-10


def test_bessel_k_half_integer_closed_form():
    # K_{1/2}(z) = sqrt(pi / (2 z)) e^{-z}
    for z in (0.3, 1.0, 4.0, 12.0):
        ref = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
        assert abs(bessel_k(0.5, z) / ref - 1.0) < 1e-13


def test_bessel_k_symmetry_and_recurrence():
    z = 1.7
    for nu in (0.2, 0.9, 1.5):
        assert bessel_k(nu, z) == bessel_k(-nu, z)
        # K_{nu+1} = K_{nu-1} + (2 nu / z) K_nu
        lhs = bessel_k(nu + 1.0, z)
        rhs = bessel_k(nu - 1.0, z) + 2.0 * nu / z * bessel_k(nu, z)
        assert abs(lhs / rhs - 1.0) < 1e-12


def test_bessel_k_scaled_consistency():
    for nu in (0.3, 1.1):
        for z in (0.5, 3.0, 25.0):
            assert abs(bessel_k_scaled(nu, z) * np.exp(-z)
                       / bessel_k(nu, z) - 1.0) < 1e-12
    # the scaled form stays finite far into the exponential tail
    assert np.isfinite(bessel_k_scaled(0.7, 800.0))
    assert bessel_k(0.7, 800.0) == 0.0 or bessel_k(0.7, 800.0) < 1e-300


def test_bessel_k_scaled_at_large_arguments_against_mpmath():
    # scipy's kve returns nan from z = 2^30 on; the asymptotic branch takes
    # over from 2^29, where both forms must agree
    mpmath = pytest.importorskip("mpmath")
    for nu in (0.3, -1.7, 5.5, 40.2):
        zs = np.array([1e8, 2.0 ** 29 * (1 - 1e-12), 2.0 ** 29, 2.0 ** 30,
                       1e10, 1e15, 1e300])
        out = bessel_k_scaled(nu, zs)
        with mpmath.workdps(30):
            ref = [float(mpmath.besselk(nu, z) * mpmath.exp(z)) for z in zs]
        np.testing.assert_allclose(out, ref, rtol=1e-14)
        assert bessel_k_scaled(nu, 1e10) == out[4]


def test_struve_l_against_integral_representation():
    # DLMF 11.5.4: L_nu(z) = 2 (z/2)^nu / (sqrt(pi) Gamma(nu + 1/2))
    #   int_0^{pi/2} sinh(z cos t) sin(t)^{2 nu} dt,  nu > -1/2
    for nu in (-0.45, 0.0, 0.7, 2.3):
        for z in (1e-3, 0.5, 4.0, 30.0):
            q, _ = quad(lambda t: np.sinh(z * np.cos(t)) * np.sin(t) ** (2.0 * nu),
                        0.0, np.pi / 2.0, epsabs=0.0, epsrel=1e-13, limit=200)
            ref = 2.0 * (z / 2.0) ** nu / (math.sqrt(math.pi) * gamma_fn(nu + 0.5)) * q
            assert abs(struve_l(nu, z) / ref - 1.0) < 1e-12, (nu, z)
    np.testing.assert_array_equal(struve_l(0.7, np.array([0.5, 4.0])),
                                  [struve_l(0.7, 0.5), struve_l(0.7, 4.0)])
