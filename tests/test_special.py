"""Gamma, incomplete gamma, modified Bessel and Struve functions."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from tflp.errors import ParameterError
from tflp.special import (_SERIES_TERMS, _series_bound, bessel_k, bessel_k_scaled,
                          cell_moments, gamma_fn, lower_gamma, series_start, struve_l,
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
    # the trapezoid step shrinks like z^{-1/2} from z = 2^29 on as below it,
    # and a point's value does not depend on the others in the call
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


# the exponents the callers pass: kappa - 1, kappa (integral), -kappa - 1,
# -kappa (derivative), and d, d - 1 (path kernel cells)
_CELL_EXPONENTS = sorted({e for k in (0.2, 0.5, 0.8) for e in (k - 1, k, -k - 1, -k)}
                         | {e for d in (-0.49, 0.35, 2.2, 85.0) for e in (d, d - 1)})


@pytest.mark.parametrize("a", _CELL_EXPONENTS, ids=[f"{a:.2f}" for a in _CELL_EXPONENTS])
def test_cell_moments_within_stated_bound_of_mpmath(a):
    # int_cell u^a e^{-u} theta^k du at 25 digits, in u = (p + v) dx, against
    # the truncation bound plus a few units of rounding of u^a e^{-u}; with
    # lam = 1 the cell width dx is h = lam dx
    mpmath = pytest.importorskip("mpmath")
    P = series_start(a)
    assert _series_bound(a, P) <= 2.0 ** -53
    assert P == 2 or _series_bound(a, P - 1) > 2.0 ** -53
    for h in (1e-6, 1e-2, 1.0, 50.0):
        for p in (P, P + 1, 1000, 100000):
            u = p * h
            tol = _series_bound(a, p) + 2.0 ** -51 * (
                abs(a) * (1.0 + abs(math.log(u))) + u + _SERIES_TERMS)
            for theta in (0, 1):
                got = cell_moments(a, 1.0, h, p, p + 1, theta)[0]
                with mpmath.workdps(25):
                    A, X = mpmath.mpf(a), mpmath.mpf(h)
                    ref = X * (p * X) ** A * mpmath.exp(-p * X) * mpmath.quad(
                        lambda v: (1 + v / p) ** A * mpmath.exp(-X * v) * v ** theta,
                        [0, 1], method="gauss-legendre")
                if ref < 1e-290:   # e^{-u} below double range
                    assert got < 1e-280
                    continue
                assert abs(got - ref) <= tol * ref, (h, p, theta)
    # the near cells p < P, differences of incomplete gammas of s = a + 1 + theta
    # at the edges x0 < x1: a few units of 2^-53 times |s ln x1| + x1 + 50,
    # as their own bound, times the stated loss of log10(2 P) digits (up to 4
    # times more near s = 0, which the measured errors, at most 0.15 of this
    # bound, leave room for), and log10(1 + 4 p) more for theta = 1.  h =
    # 2^-16 holds the Marchaud moments at kappa = 0.5, lam = 1, dx = 2^-16 (a
    # = -1.5), whose theta = 1 cells were 3.3e-12 relative off as differences
    # of upper gammas alone
    for h in 2.0 ** np.arange(-16, 2):
        for p in (0, 1, P - 1):
            for theta in (0, 1):
                s = a + 1.0 + theta
                if p == 0 and s <= 0.0:   # not integrable at 0
                    continue
                x1 = (p + 1) * h
                tol = 2.0 ** -52 * (abs(s * math.log(x1)) + x1 + 50.0) * 2 * P * (1 + 4 * p * theta)
                got = cell_moments(a, 1.0, h, p, p + 1, theta)[0]
                with mpmath.workdps(25):
                    A, X = mpmath.mpf(a), mpmath.mpf(h)
                    M = lambda b: mpmath.gammainc(b + 1, p * X, (p + 1) * X)
                    ref = M(A + 1) / X - p * M(A) if theta else M(A)
                if ref < 1e-290:
                    assert got < 1e-280
                    continue
                assert abs(got - ref) <= tol * ref, (h, p, theta)


# the ranges the library calls the native functions over, against 40-digit
# mpmath values computed once per module
_GAMMA_S = (-1.9, -1.5, -1.0, -0.99, -0.7, -0.3, -0.01, 0.0, 0.001, 0.01, 0.3, 0.5, 1.0,
            1.3, 2.5, 7.0, 20.5, 40.5, 86.5)
_GAMMA_X = (1e-8, 1e-3, 0.1, 0.5, 0.99, 1.0, 1.5, 3.0, 10.0, 30.0, 100.0, 300.0, 700.0)
_K_NU = (0.0, 0.3, -0.7, 1.5, 3.7, 12.2, 25.5, -40.9)
_K_Z = (1e-6, 1e-3, 0.1, 1.0, 5.0, 30.0, 700.0, 1e4, 1e8, 1e15, 1e300)
_L_NU = (-1.45, -1.3, -0.95, -0.45, 0.0, 0.7, 2.3, 10.0, 40.0, 84.5)
_L_Z = (1e-6, 1e-3, 0.5, 4.0, 30.0)


@pytest.fixture(scope="module")
def oracle():
    mpmath = pytest.importorskip("mpmath")
    out = {"gamma": [], "k": [], "l": []}
    with mpmath.workdps(40):
        for s in _GAMMA_S:
            near = (s - 1.0, s, s + 0.99, s + 1.0, s + 2.0, 2.0 * s) if s > 2 else ()
            for x in sorted(set(_GAMMA_X + near)):
                upper = mpmath.gammainc(s, x)
                if upper < 1e-300:
                    continue
                # Gamma(s+1, x) and x^s e^-x, whose difference over s is
                # Gamma(s, x) below x = 1 for s < 0
                parts = (mpmath.gammainc(s + 1, x) + x ** s * mpmath.exp(-x)) / abs(s) \
                    if s < 0 else 0
                out["gamma"].append((s, x, float(upper), float(parts / upper),
                                     float(mpmath.gammainc(s, 0, x)) if s > 0 else None,
                                     float(mpmath.gamma(s)) if s > 0 else None))
        for nu in _K_NU:
            for z in _K_Z:
                out["k"].append((nu, z, float(mpmath.besselk(nu, z) * mpmath.exp(z)),
                                 float(mpmath.besselk(nu, z))))
        for nu in _L_NU:
            for z in sorted(set(_L_Z + (0.999 * (40.0 + 2.0 * nu),))):
                first = (mpmath.mpf(z) / 2) ** (nu + 1) / (mpmath.gamma(1.5) * mpmath.gamma(nu + 1.5))
                value = mpmath.struvel(nu, z)
                if 0 < z < 40.0 + 2.0 * nu and abs(value) > 1e-300:
                    # the terms share one sign past the first
                    out["l"].append((nu, z, float(value),
                                     float((abs(value) + 2 * max(-first, 0)) / abs(value))))
    return out


def test_incomplete_gammas_within_stated_bound_of_mpmath(oracle):
    # the series and the continued fraction are good to a few units of 2^-53
    # times the log of x^s e^-x, |s ln x| + x, and 50; where one function is
    # taken as Gamma(s) minus the other, that is scaled by Gamma(s) over it,
    # and below x = 1 for s < -1/2 by the recurrence's (Gamma(s+1, x) + x^s
    # e^-x) / |s Gamma(s, x)|: 2^-51 of the product bounds them all.  For
    # |s| <= 1/2 below x = 1 + max(s, 0), Gamma(s, x) is the sum -Gamma(1+s)
    # g(s) - (x^s - 1)/s + x^s sum_k (-1)^{k+1} x^k / (k! (s+k)), scaled by
    # its terms' sizes over it (E_1, s = 0: -gamma - ln x - sum); Gamma(s)
    # minus the series lost 1.6e-13 at (0.01, 0.99) and 5.4e-13 at (0.001, 0.5)
    for s, x, upper, rec, lower, gamma in oracle["gamma"]:
        base = 2.0 ** -51 * (abs(s * math.log(x)) + x + 50.0)
        if abs(s) <= 0.5 and x < 1.0 + max(s, 0.0):
            head = abs((1.0 - math.gamma(1.0 + s)) / s) if s else 0.5773
            power = abs(math.expm1(s * math.log(x)) / s) if s else abs(math.log(x))
            cond = (head + power + x ** s * math.expm1(x) / (1.0 + s)) / upper
        else:
            cond = gamma / upper if s > 0 and x < s + 1.0 else max(rec, 1.0)
        assert abs(upper_gamma(s, x) / upper - 1.0) <= base * cond, (s, x)
        if s > 0 and lower > 1e-300:
            cond = gamma / lower if x >= s + 1.0 else 1.0
            assert abs(lower_gamma(s, x) / lower - 1.0) <= base * cond, (s, x)
            # P and Q, the regularized pair
            assert abs(lower_gamma(s, x) / gamma + upper_gamma(s, x) / gamma - 1.0) \
                <= 2.0 * base * max(upper, lower) / gamma, (s, x)


def test_bessel_k_within_stated_bound_of_mpmath(oracle):
    # the trapezoid rule is within 2^-55 for the step it takes; what is left
    # is the rounding of its terms' exponents, up to |nu| asinh(|nu|/z) at
    # the integrand's peak, and of their sum: 2^-52 (50 + |nu| asinh(|nu|/z))
    for nu, z, scaled, plain in oracle["k"]:
        tol = 2.0 ** -52 * (50.0 + abs(nu) * math.asinh(abs(nu) / z))
        assert abs(bessel_k_scaled(nu, z) / scaled - 1.0) <= tol, (nu, z)
        if plain > 1e-300:
            assert abs(bessel_k(nu, z) / plain - 1.0) <= tol, (nu, z)
    # two orders in one call, as the library takes them, on the same bound
    zs = np.array(_K_Z[:7])
    for nu in (0.3, 12.2):
        pair = bessel_k_scaled((nu, nu - 1.0), zs)
        for k, order in enumerate((nu, nu - 1.0)):
            tol = 2.0 ** -52 * (50.0 + nu * np.arcsinh(nu / zs))
            np.testing.assert_array_less(np.abs(pair[k] / bessel_k_scaled(order, zs) - 1.0),
                                         2.0 * tol)


def test_struve_l_within_stated_bound_of_mpmath(oracle):
    # below z = 40 + 2 nu the series sums about z/2 + 20 terms, each with a
    # few roundings: 2^-52 (20 + z), times the cancellation of the first term
    # against the rest where it is negative (nu + 3/2 < 0)
    for nu, z, value, cond in oracle["l"]:
        assert abs(struve_l(nu, z) / value - 1.0) <= 2.0 ** -52 * (20.0 + z) * cond, (nu, z)
