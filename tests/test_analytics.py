"""Second order theory: covariances, spectra, asymptotics, estimators."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

import tflp
from tflp.processes import TemperedParams
from tflp.errors import ParameterError, ToleranceError
from tflp.special import gamma_fn
from tflp.analytics import (
    acvf_tfln1, acvf_tfln1_asymptotic, acvf_tfln2, acvf_tfln2_asymptotic_band,
    cov_tflp1, cov_tflp2, ct_squared, empirical_acvf, fit_semi_lrd,
    periodogram, spec_density_tfln1, spec_density_tfln2, structure_exponent,
    structure_function, var_limit_tflp1,
)


def _g1_pair_quadrature(p, a, b):
    """EL2 = 1 oracle int A(x) B(x) dx / Gamma(1+d)^2 for the increment kernels
    A = g1(a1, .) - g1(a0, .) and B = g1(b1, .) - g1(b0, .), where
    g1(t, x) = w(t - x) - w(-x), w(u) = u_+^d e^{-lam u}.  Each piece ends at a
    kink, approached from the left; u is the distance to it, so a w(u) ~ u^d
    that is singular there (d < 0) is exact in u, and goes with the other
    factor's into quad's algebraic weight u^{2d}, leaving a bounded integrand."""
    d, lam = p.d, p.lam
    w = lambda u: u ** d * np.exp(-lam * u) if u > 0.0 else 0.0
    pts = sorted({-60.0 / lam, -1.0 / lam, *a, *b})
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        power = 2.0 * d if d < 0 and hi in (*a, *b) else 0.0

        def f(u):
            if u == 0.0:  # only reached with power < 0: the u^d coefficients
                return ((a[1] == hi) - (a[0] == hi)) * ((b[1] == hi) - (b[0] == hi))
            return ((w(a[1] - hi + u) - w(a[0] - hi + u))
                    * (w(b[1] - hi + u) - w(b[0] - hi + u)) / u ** power)
        weight = {"weight": "alg", "wvar": (power, 0.0)} if power else {}
        total += quad(f, 0.0, hi - lo, epsabs=0.0, epsrel=1e-12, limit=400,
                      **weight)[0]
    return total / gamma_fn(1.0 + d) ** 2


def _acvf1_quadrature(p, h):
    """Oracle: int [g1(h+1,x) - g1(h,x)][g1(1,x) - g1(0,x)] dx / Gamma(1+d)^2."""
    return _g1_pair_quadrature(p, (h, h + 1.0), (0.0, 1.0))


def _cov1_variance_quadrature(p, t):
    """Oracle: Var S^I(t) = int g1(t, x)^2 dx / Gamma(1+d)^2."""
    return _g1_pair_quadrature(p, (0.0, t), (0.0, t))


def _bessel_kernel_quadrature(p, w, a, b, kinks=()):
    """K int_a^b w(r) |r|^mu K_mu(lam |r|) dr, mu = d - 1/2, with
    K = 1/(sqrt(pi) Gamma(d) (2 lam)^mu): the one-dimensional form of the
    TFLP II covariance.  The piecewise linear weight w has its kinks as
    breakpoints; for d < 1/2 the |r|^{2d-1} behaviour at r = 0 goes to
    quad's algebraic weight, so the remaining integrand is bounded."""
    d, lam = p.d, p.lam
    mu = d - 0.5
    K = 1.0 / (np.sqrt(np.pi) * gamma_fn(d) * (2.0 * lam) ** mu)

    def f(r, power):  # integrand divided by |r|^power
        x = abs(r)
        if x == 0.0:  # only reached with power = 2 mu < 0
            return w(r) * gamma_fn(-mu) * 2.0 ** (-mu - 1.0) * lam ** mu
        return w(r) * x ** (mu - power) * kv(mu, lam * x)

    pts = sorted({a, b, 0.0, -1.0 / lam, 1.0 / lam, *kinks})
    pts = [x for x in pts if a <= x <= b]
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        if mu < 0 and 0.0 in (lo, hi):
            alg = (2.0 * mu, 0.0) if lo == 0.0 else (0.0, 2.0 * mu)
            total += quad(f, lo, hi, args=(2.0 * mu,), weight="alg", wvar=alg,
                          epsabs=0.0, epsrel=1e-13, limit=200)[0]
        else:
            total += quad(f, lo, hi, args=(0.0,), epsabs=0.0, epsrel=1e-13,
                          limit=200)[0]
    return K * total


def _cov2_quadrature(p, s, t):
    """Oracle: the overlap weight m(r) = int 1_s(u) 1_t(u + r) du on
    [a_t - b_s, b_t - a_s], of the signed indicators 1_s = sgn(s) 1_[a_s, b_s]
    with [a_s, b_s] spanning 0 and s (1_t likewise)."""
    (a_s, b_s), (a_t, b_t) = sorted((0.0, s)), sorted((0.0, t))
    sign = np.sign(s) * np.sign(t)
    return _bessel_kernel_quadrature(
        p, lambda r: sign * (min(b_s, b_t - r) - max(a_s, a_t - r)),
        a_t - b_s, b_t - a_s, (a_t - a_s, b_t - b_s))


def _acvf2_quadrature(p, h):
    """Oracle: gamma2(h) = K int (1 - |x-h|) |x|^mu K_mu(lam |x|) over [h-1, h+1]."""
    return _bessel_kernel_quadrature(
        p, lambda x: 1.0 - abs(x - h), h - 1.0, h + 1.0, (h,))


def test_variance_scale_consistency():
    # Var S^I(t) = EL2 C^2_t t^{1+2d} / Gamma(1+d)^2
    for d, lam in ((-0.2, 0.7), (0.3, 1.5)):
        p = TemperedParams(d, lam)
        for t in (0.3, 1.0, 4.0):
            lhs = cov_tflp1(p, t, t)
            rhs = ct_squared(p, t) * t ** (1.0 + 2.0 * d) / gamma_fn(1.0 + d) ** 2
            assert abs(lhs / rhs - 1.0) < 1e-12


def _ct_squared_mpmath(d, lam, t):
    """C^2_{d,lam,t} = G(t)/t^{1+2d} from the closed form of G in the module
    docstring, with digits to spare over the ~2 log10(1/(lam t)) that its
    two terms cancel."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + max(0, int(-2.0 * (np.log10(lam) + np.log10(t))))):
        D, L, T = mpmath.mpf(d), mpmath.mpf(lam), mpmath.mpf(t)
        nu = D + 0.5
        A = 2 * mpmath.gamma(1 + 2 * D) / (2 * L) ** (1 + 2 * D)
        B = 2 * mpmath.gamma(1 + D) / mpmath.sqrt(mpmath.pi) * (2 * L) ** -nu
        return float((A - B * T ** nu * mpmath.besselk(nu, L * T)) / T ** (1 + 2 * D))


@pytest.mark.parametrize("d", [-0.499, 0.5 - 1e-7, 0.5 + 1e-7, 1.5 - 1e-6,
                               1.5 + 1e-6, 2.5 + 1e-9, 5.0])
def test_ct_squared_relative_to_mpmath(d):
    # nu = d + 1/2 near an integer, where series forms of K_nu are singular,
    # and lam t from where the two terms of G cancel to where K_nu underflows
    for lam in (0.3, 2.0):
        p = TemperedParams(d, lam)
        for z in 10.0 ** np.arange(-12.0, 3.25, 0.5):
            ref = _ct_squared_mpmath(d, lam, z / lam)
            assert abs(ct_squared(p, z / lam) / ref - 1.0) < 1e-13, (lam, z)


def test_ct_squared_where_lam_t_underflows():
    # log q is a sum of logs, so G holds where lam t is below the smallest
    # double; where G/A would fall below 1e-290 the terms of its integral
    # underflow, and that raises instead of returning what is left of them
    p = TemperedParams(-0.45, 1e-165)
    ref = _ct_squared_mpmath(p.d, p.lam, 1e-165)
    assert abs(ct_squared(p, 1e-165) / ref - 1.0) < 1e-13
    # t^{1+2d} = 1e-360 underflows, though C^2 = G/t^{1+2d} is about 1.9e223
    p = TemperedParams(1.3, 1e-40)
    ref = _ct_squared_mpmath(p.d, p.lam, 1e-100)
    assert abs(ct_squared(p, 1e-100) / ref - 1.0) < 1e-13
    with pytest.raises(ToleranceError):
        cov_tflp1(TemperedParams(0.2, 1e-200), 1e-100, 1e-100)


def test_cov_tflp1_smooth_where_the_integral_panels_shift():
    # the first panel of G's integral moves by a whole panel at lam t = 0.49
    # here; a seam would show up as a spike in the second differences
    p = TemperedParams(0.2, 1.0)
    ts = np.linspace(0.45, 0.55, 21)
    vals = np.array([cov_tflp1(p, t, t) for t in ts])
    d2 = np.abs(np.diff(vals, 2))
    assert d2.max() < 1.5 * np.median(d2)


def test_cov_matrices_positive_semidefinite():
    ts = np.array([0.5, 1.0, 1.5, 2.0])
    for d in (-0.3, 0.2, 0.45):
        p = TemperedParams(d, 1.0)
        M = np.array([[cov_tflp1(p, s, t) for t in ts] for s in ts])
        assert np.min(np.linalg.eigvalsh(M)) >= -1e-10
    for d in (-0.3, 0.2, 0.45):
        p = TemperedParams(d, 1.0)
        M = np.array([[cov_tflp2(p, s, t) for t in ts] for s in ts])
        assert np.min(np.linalg.eigvalsh(M)) >= -1e-10


def test_cov_symmetry():
    p1, p2 = TemperedParams(-0.2, 0.8), TemperedParams(0.3, 0.8)
    for s, t in ((0.4, 1.7), (2.0, 0.9)):
        assert abs(cov_tflp1(p1, s, t) - cov_tflp1(p1, t, s)) < 1e-14
        assert abs(cov_tflp2(p2, s, t) - cov_tflp2(p2, t, s)) < 1e-12


def test_small_tempering_limit_matches_untempered_form():
    # lam -> 0: Var S^I(t) -> EL2 t^{1+2d} Gamma(1-2d) / ((1+2d) Gamma(1+d) Gamma(1-d))
    d = 0.2
    p = TemperedParams(d, 1e-4)
    t = 1.0
    ref = gamma_fn(1.0 - 2.0 * d) / ((1.0 + 2.0 * d) * gamma_fn(1.0 + d) * gamma_fn(1.0 - d))
    assert abs(cov_tflp1(p, t, t) / ref - 1.0) < 0.01


def test_variance_plateau_value():
    p = TemperedParams(0.3, 0.5)
    t = 60.0 / p.lam
    assert abs(cov_tflp1(p, t, t) / var_limit_tflp1(p) - 1.0) < 1e-12


def test_acvf_tfln1_against_kernel_quadrature():
    for d, lam in ((0.2, 0.5), (-0.25, 1.0)):
        p = TemperedParams(d, lam)
        for h in (0.0, 1.0, 3.0):
            ref = _acvf1_quadrature(p, h)
            assert abs(acvf_tfln1(p, h) - ref) < 1e-9 * max(1.0, abs(ref)), (d, h)


@pytest.mark.parametrize("d, tol", [
    (0.5, 1e-12), (1.5, 1e-12), (2.5, 1e-12),
    (0.5 - 1e-3, 1e-11), (0.5 + 1e-3, 1e-11),
    (0.5 - 1e-7, 1e-12), (0.5 + 1e-7, 1e-12),
])
def test_half_integer_d_against_kernel_quadrature(d, tol):
    # nu = d + 1/2 at or near an integer, where series of K_nu change form
    for lam in (0.2, 1.0):
        p = TemperedParams(d, lam)
        for t in (0.1, 0.3, 0.5 / lam, 2.0 / lam):
            ref = _cov1_variance_quadrature(p, t)
            assert abs(cov_tflp1(p, t, t) / ref - 1.0) < tol, (lam, t)
        for h in (0.0, 2.0):
            ref = _acvf1_quadrature(p, h)
            assert abs(acvf_tfln1(p, h) / ref - 1.0) < tol, (lam, h)


def test_cov_tflp2_against_kernel_quadrature():
    # stationary increments: K [H(|s|) + H(|t|) - H(|t - s|)] holds for all
    # real s, t, so negative times are checked too
    zs = (1e-4, 1e-2, 0.5, 3.0, 20.0, 60.0)
    signed = (1e-2, 0.5, 20.0)  # pairs of these also with either sign
    for d in (0.05, 0.2, 0.5, 1.0, 1.5, 2.2):
        for lam in (0.01, 0.3, 3.0):
            p = TemperedParams(d, lam)
            for i, a in enumerate(zs):
                for b in zs[i:]:
                    signs = ((1, 1), (-1, 1), (1, -1), (-1, -1)) \
                        if a in signed and b in signed else ((1, 1),)
                    for sa, sb in signs:
                        s, t = sa * a / lam, sb * b / lam
                        ref = _cov2_quadrature(p, s, t)
                        assert abs(cov_tflp2(p, s, t) / ref - 1.0) < 1e-9, \
                            (d, lam, s, t)
                        assert cov_tflp2(p, t, s) == cov_tflp2(p, s, t)


def test_acvf_tfln2_against_kernel_quadrature_across_route_switch():
    # the closed form for h <= 1, the stencil rule from h = 1.5 on
    for d in (0.05, 0.2, 0.5, 1.0, 2.2):
        for lam in (0.01, 0.3, 1.0, 3.0):
            p = TemperedParams(d, lam)
            for h in (0.0, 0.3, 1.0, 1.5, 20.9, 21.1,
                      1.0 + 2.9 / lam, 1.0 + 3.1 / lam, 1.0 + 10.0 / lam):
                ref = _acvf2_quadrature(p, h)
                assert abs(acvf_tfln2(p, h) / ref - 1.0) < 1e-9, (d, lam, h)


def test_acvf_tfln1_d_zero_lag_zero_closed_form():
    # d = 0, lam = 1: the increment kernel is e^{-(u)} on one unit cell,
    # gamma(0) = int_0^1 (1-e^{-u})^2 du + e^{-2} int_0^inf (1-e^{-1})^2 e^{-2v} dv...
    # cross-check against the quadrature oracle instead of hand algebra
    p = TemperedParams(0.0, 1.0)
    ref = _acvf1_quadrature(p, 0.0)
    assert abs(acvf_tfln1(p, 0.0) - ref) < 1e-12


def test_acvf_tfln1_negative_tail_and_asymptote():
    p = TemperedParams(1.0 / 6.0, 0.1)
    h = 150.0  # lam h = 15
    exact = acvf_tfln1(p, h)
    approx = acvf_tfln1_asymptotic(p, h)
    assert exact < 0.0 and approx < 0.0
    assert abs(approx / exact - 1.0) < 0.1


def _acvf1_mpmath(d, lam, h):
    """gamma1(h) from the G differences of the module docstring in mpmath,
    with digits to spare over the ~lam h / ln 10 that the plateau cancels."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + int(0.5 * lam * (h + 1.0))):
        D, L, H = mpmath.mpf(d), mpmath.mpf(lam), mpmath.mpf(h)
        nu = D + 0.5
        A = 2 * mpmath.gamma(1 + 2 * D) / (2 * L) ** (1 + 2 * D)
        B = 2 * mpmath.gamma(1 + D) / mpmath.sqrt(mpmath.pi) * (2 * L) ** -nu
        G = lambda t: A - B * t ** nu * mpmath.besselk(nu, L * t)
        return float((G(H + 1) - 2 * G(H) + G(H - 1)) / (2 * mpmath.gamma(1 + D) ** 2))


@pytest.mark.parametrize("d", [-0.3, 0.2, 1.3])
def test_acvf_tfln1_far_lags_relative_to_mpmath(d):
    # far lags, where the plateau of G must cancel exactly:
    # cancelled in rounding, d = 0.2, lam = 1 reads 0 from h = 39
    # on; the tolerance is purely relative, with no floor that passes a zero
    for lam in (0.3, 1.0, 10.0):
        p = TemperedParams(d, lam)
        for h in (3.5, 20.0, 50.0, 100.0):
            if lam * h > 600.0:  # gamma1 ~ e^{-lam h} < 1e-260
                continue
            ref = _acvf1_mpmath(d, lam, h)
            assert abs(acvf_tfln1(p, h) / ref - 1.0) < 1e-11, (lam, h)
            assert acvf_tfln1(p, -h) == acvf_tfln1(p, h)


@pytest.mark.parametrize("d, lam, h", [
    # at lam = 0.01 the three f(t) = t^nu K_nu(lam t) of a far lag agree to
    # about lam^2, so differencing them lost 6-7e-10 relative; the stencil
    # rule integrates f'' instead
    (1.3, 0.01, 200.0), (3.0, 0.01, 200.0),
    # the same at moderate lags, where differencing G was 1.4e-11 and
    # 2.2e-12 off
    (-0.45, 0.01, 50.0), (0.2, 0.01, 20.0),
    # at lam (h-1) = 0.6 the branch point of f'' at t = 0 is near the
    # stencil's end on the scale of its panels; panels of width 2/lam that
    # do not grade towards it are up to 3e-7 off
    (-0.3, 1.0, 1.6), (1.3, 1.0, 1.6), (-0.3, 10.0, 1.06), (1.3, 10.0, 1.06),
    # just past lag 1 the grading runs down to within lam (h-1) of it
    (-0.45, 0.3, 1.0 + 1e-12), (1.3, 0.3, 1.0 + 1e-12),
    (-0.45, 0.3, 1.0 + 1e-6), (1.3, 0.3, 1.0 + 1e-6)])
def test_acvf_tfln1_stencil_rule_relative_to_mpmath(d, lam, h):
    p = TemperedParams(d, lam)
    assert abs(acvf_tfln1(p, h) / _acvf1_mpmath(d, lam, h) - 1.0) < 1e-12


def _acvf2_mpmath(d, lam, h):
    """gamma2(h) = K [H(h+1) - 2 H(h) + H(h-1)] from the closed form of the
    module docstring (Bessel K, Struve L) in mpmath, with digits to spare
    over the ~lam h / ln 10 that the second difference cancels."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + int(0.5 * lam * (h + 1.0))):
        D, L = mpmath.mpf(d), mpmath.mpf(lam)
        mu, nu = D - 0.5, D + 0.5
        A = 2 * mpmath.gamma(1 + 2 * D) / (2 * L) ** (1 + 2 * D)
        B = 2 * mpmath.gamma(1 + D) / mpmath.sqrt(mpmath.pi) * (2 * L) ** -nu

        def KH(x):
            z = L * x
            S = z * (mpmath.besselk(mu, z) * mpmath.struvel(mu - 1, z)
                     + mpmath.struvel(mu, z) * mpmath.besselk(mu - 1, z))
            G = A - B * x ** nu * mpmath.besselk(nu, z)
            return x * S / (2 * L ** (2 * D)) - G / (mpmath.gamma(D) * mpmath.gamma(1 + D))
        H = mpmath.mpf(h)
        return float(KH(H + 1) - 2 * KH(H) + KH(H - 1))


@pytest.mark.parametrize("lam", [10.0, 30.0])
@pytest.mark.parametrize("d", [-0.3, 0.2, 1.3])
def test_acvf_tfln2_far_lag_relative_to_mpmath(d, lam):
    # the stencil rule's panels must follow the decay scale 1/lam: one
    # 8-node panel per half of the stencil is 2e-7 off at lam = 10, 9e-3 at
    # lam = 30, where gamma2(2.5) is 1e-10 and 1e-23
    p = TemperedParams(d, lam)
    assert abs(acvf_tfln2(p, 2.5) / _acvf2_mpmath(d, lam, 2.5) - 1.0) < 1e-12


@pytest.mark.parametrize("d, lam, h", [
    # differencing K H here cancels about 4 digits, and was 5.0e-12 off
    (1.3, 0.3, 6.0),
    # just past lag 1 the grading runs down to within lam (h-1) of it
    (-0.45, 0.3, 1.0 + 1e-12), (1.3, 0.3, 1.0 + 1e-12),
    (-0.45, 0.3, 1.0 + 1e-6), (1.3, 0.3, 1.0 + 1e-6)])
def test_acvf_tfln2_stencil_rule_relative_to_mpmath(d, lam, h):
    p = TemperedParams(d, lam)
    assert abs(acvf_tfln2(p, h) / _acvf2_mpmath(d, lam, h) - 1.0) < 1e-12


def test_acvf_where_lam_times_lag_past_one_rounds_to_zero():
    # lam (h-1) is 0 (h = 1.5) or one subnormal step (h = 2): the stencil
    # rule's panels, graded towards a branch point that close, would never
    # advance, so these lags difference G, and agree with the rule at the
    # untempered limit lam = 1e-100
    tiny, small = TemperedParams(-0.45, 5e-324), TemperedParams(-0.45, 1e-100)
    for h in (1.5, 2.0):
        assert abs(acvf_tfln1(tiny, h) / acvf_tfln1(small, h) - 1.0) < 1e-11
    # where lam^{-1-2d} overflows, both raise at once
    for acvf in (acvf_tfln1, acvf_tfln2):
        with pytest.raises(ArithmeticError):
            acvf(TemperedParams(0.2, 5e-324), 1.5)


@pytest.mark.parametrize("acvf", [acvf_tfln1, acvf_tfln2])
def test_acvf_below_the_lambda_floor_raises_past_lag_two(acvf):
    # below lam = 1e-130 a lag h >> 1 either differenced G (or H) and lost
    # every digit (lam = 1e-160, h = 1e10 read -3.957 for type I) or took
    # stencil weights of order lam^2 that underflowed (lam = 1e-200, h = 1e40
    # read 0.0, where the value is 2.786e-25)
    for lam, h in ((1e-160, 1e10), (1e-200, 1e40), (1e-131, 2.5)):
        with pytest.raises(ToleranceError, match="floor"):
            acvf(TemperedParams(0.2, lam), h)
    # lags up to 2 keep the untempered limit
    for h in (0.0, 1.0, 2.0):
        assert abs(acvf(TemperedParams(0.2, 1e-160), h)
                   / acvf(TemperedParams(0.2, 1e-100), h) - 1.0) < 1e-11


def test_acvf_tfln1_asymptotic_rejects_nonpositive_lags():
    p = TemperedParams(-0.3, 1.0)
    for h in (0.0, -1.0, [1.0, 0.0]):
        with pytest.raises(ParameterError):
            acvf_tfln1_asymptotic(p, h)


def test_acvf_tfln2_route_agreement():
    # the spectral route keeps its whole tail, so it is exact for d < 0 too
    for d in (-0.49, -0.3, 0.3):
        p = TemperedParams(d, 0.5)
        for h in (0.0, 1.0, 4.0, 8.0):
            a = acvf_tfln2(p, h, method="bessel")
            b = acvf_tfln2(p, h, method="fourier")
            assert abs(a - b) < 1e-10 * max(1.0, abs(a)), (d, h)
    with pytest.raises(ParameterError):
        acvf_tfln2(TemperedParams(0.0, 0.5), 1.0)


def test_acvf_tfln2_asymptotic_band_sandwich():
    # for d < 0 both constants are negative, and the band still widens
    for d in (0.3, -0.3):
        p = TemperedParams(d, 0.5)
        for h in np.linspace(10.0, 24.0, 8):
            lo, hi = acvf_tfln2_asymptotic_band(p, float(h))
            val = acvf_tfln2(p, float(h))
            assert lo <= val <= hi, (d, h)
            assert 0.1 < hi / lo < 10.0


def _cosine_inversion(g, h, t=1.0):
    """4 int_0^inf cos(w h) (1 - cos(w t)) g(w) dw, the acvf at lag h of the
    increments over t of a process with spectral display (1 - cos w) g(w):
    plain quadrature on [0, a], a = pi / max(1, h, t), where neither cosine
    turns over; beyond a, cos(w h) (1 - cos(w t)) split into three cosines,
    each by quad's cosine-weighted routes on [a, pi] and [pi, inf), so no
    tail is cut."""
    a = np.pi / max(1.0, h, t)
    tol = {"epsabs": 1e-13, "epsrel": 1e-12, "limit": 200}
    head = quad(lambda w: 2.0 * np.cos(w * h) * np.sin(0.5 * w * t) ** 2 * g(w),
                0.0, a, **tol)[0]
    tail = 0.0
    for c, omega in ((1.0, h), (-0.5, h + t), (-0.5, abs(h - t))):
        weight = {"weight": "cos", "wvar": omega} if omega else {}
        for lo, hi in ((a, np.pi), (np.pi, np.inf)):
            tail += c * quad(g, lo, hi, **weight, **tol)[0] if lo < hi else 0.0
    return 4.0 * (head + tail)


def _g2_spectral(p):
    """g of the type II display h2(w) = (1 - cos w) g(w)."""
    return lambda w: 1.0 / (2.0 * np.pi * w ** 2 * (p.lam ** 2 + w ** 2) ** p.d)


def test_spectral_density_inverts_to_acvf():
    # gamma(h) = 4 int_0^inf cos(omega h) h_spec(omega) d omega
    p1, p2 = TemperedParams(0.2, 1.0), TemperedParams(0.3, 1.0)
    cases = (
        (p1, spec_density_tfln1, acvf_tfln1,
         lambda w: 1.0 / (2.0 * np.pi * (p1.lam ** 2 + w ** 2) ** (p1.d + 1.0))),
        (p2, spec_density_tfln2, acvf_tfln2, _g2_spectral(p2)),
    )
    w = np.linspace(1e-3, 50.0, 101)
    for p, spec, acvf, g in cases:
        np.testing.assert_allclose(spec(p, w), 2.0 * np.sin(0.5 * w) ** 2 * g(w),
                                   rtol=1e-12, atol=1e-18)
        for h in (0.0, 2.0):
            assert abs(acvf(p, h) - _cosine_inversion(g, h)) < 1e-8


_SWEEP_LAGS = (0.0, 0.5, 1.0, 2.5, 20.0, 200.0)


@pytest.mark.parametrize("lam", (0.01, 1.0, 10.0))
@pytest.mark.parametrize("d", (-0.49, -0.3, -0.05, 0.2, 0.5, 1.3, 3.0))
def test_analytic_curves_match_oracles_over_the_domain(d, lam):
    # every analytic curve on d > -1/2 against an independent oracle, to 1e-9
    # relative or 1e-10 of the variance: quadrature of g1 for type I, of g2
    # for type II with d > 0, and with d < 0, where |x|^mu K_mu(lam |x|) is
    # not integrable at 0, the spectral inversion with its exact tail
    p = TemperedParams(d, lam)
    if d < 0:
        cov2_ref = lambda t: _cosine_inversion(_g2_spectral(p), 0.0, t)
        acvf2_ref = lambda h: _cosine_inversion(_g2_spectral(p), h)
    else:
        cov2_ref = lambda t: _cov2_quadrature(p, t, t)
        acvf2_ref = lambda h: _acvf2_quadrature(p, h)
    var1, var2 = _acvf1_quadrature(p, 0.0), acvf2_ref(0.0)
    for x in _SWEEP_LAGS:
        checks = [("acvf1", acvf_tfln1(p, x), _acvf1_quadrature(p, x), var1),
                  ("acvf2", acvf_tfln2(p, x), acvf2_ref(x), var2)]
        if x > 0:  # the covariance curves are variances: relative error only
            checks += [("cov1", cov_tflp1(p, x, x), _cov1_variance_quadrature(p, x), 0.0),
                       ("cov2", cov_tflp2(p, x, x), cov2_ref(x), 0.0)]
        for curve, value, ref, scale in checks:
            assert abs(value - ref) <= max(1e-9 * abs(ref), 1e-10 * scale), (curve, x)
    plateau = _cov1_variance_quadrature(p, 60.0 / lam)
    assert abs(var_limit_tflp1(p) / plateau - 1.0) < 1e-9
    # the asymptotic band holds the true acvf where it is calibrated
    for h in (5.0 / lam, 7.3 / lam, 10.0 / lam):
        lo, hi = acvf_tfln2_asymptotic_band(p, h)
        assert lo <= acvf2_ref(h) <= hi, h


def test_spec_density_tfln2_zero_frequency_limit():
    p = TemperedParams(0.25, 0.7)
    at_zero = spec_density_tfln2(p, 0.0)
    assert abs(at_zero - 1.0 / (4.0 * np.pi * p.lam ** (2.0 * p.d))) < 1e-15
    near = spec_density_tfln2(p, 1e-6)
    assert abs(near / at_zero - 1.0) < 1e-9


def test_empirical_acvf_matches_direct_sums():
    rng = np.random.default_rng(4)
    x = rng.normal(size=500)
    est = empirical_acvf(x, 5)
    xc = x - x.mean()
    for k in range(6):
        direct = np.sum(xc[k:] * xc[: len(x) - k]) / len(x)
        assert abs(est[k] - direct) < 1e-10
    with pytest.raises(ValueError):
        empirical_acvf(x, 500)


def test_periodogram_white_noise_level():
    rng = np.random.default_rng(7)
    x = rng.normal(size=2 ** 16)
    om, pw = periodogram(x, 512)
    assert len(om) == 256 and om[0] > 0.0
    assert abs(np.mean(pw) * 2.0 * np.pi - 1.0) < 0.05
    with pytest.raises(ValueError):
        periodogram(x, 500)
    with pytest.raises(ValueError):
        periodogram(x[:100], 512)


def test_fit_semi_lrd_exact_recovery():
    h = np.linspace(3.0, 30.0, 40)
    g = 1.7 * h ** -0.4 * np.exp(-0.25 * h)
    fit = fit_semi_lrd(np.column_stack([h, g]))
    assert abs(fit.lambda_hat - 0.25) < 1e-10
    assert abs(fit.delta_hat + 0.4) < 1e-10
    assert abs(fit.c_hat - 1.7) < 1e-9
    assert fit.residual_rms < 1e-12


def test_fit_semi_lrd_degenerate_inputs():
    with pytest.raises(ValueError):
        fit_semi_lrd(np.ones(5))
    with pytest.raises(ValueError):
        fit_semi_lrd(np.array([[1.0, 1.0], [1.0, 0.5], [2.0, 0.2]]))


def test_structure_function_deterministic_path():
    # S(t) = t has E|dS|^2 = tau^2: slope 2, zeta 1
    g = np.linspace(0.0, 1.0, 101)
    res = structure_exponent(g[None, :], 0.01, [1, 2, 4, 8])
    assert abs(res["slope"] - 2.0) < 1e-10
    assert abs(res["zeta"] - 1.0) < 1e-10
    taus, moments = structure_function(g[None, :], 0.01, [5])
    assert abs(taus[0] - 0.05) < 1e-12 and abs(moments[0] - 0.05 ** 2) < 1e-12
    with pytest.raises(ValueError):
        structure_function(g[None, :], 0.01, [0])
    with pytest.raises(ValueError):
        structure_exponent(np.zeros((2, 50)), 0.01, [1, 2])


def test_import_leaves_scipy_integrate_unloaded(tmp_path):
    # only the quadrature routes need scipy.integrate; they import it
    # on first call, which keeps it off the cold start of every command,
    # and the closed-form TFLP II covariance does not call them.  Every FFT
    # is numpy's, so scipy.fft and scipy.signal stay unloaded as well
    src = os.path.dirname(os.path.dirname(tflp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    heavy = "[m in sys.modules for m in ('scipy.integrate', 'scipy.fft', 'scipy.signal')]"
    code = f"import sys, tflp; print(*{heavy})"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["False"] * 3
    code = ("import sys; from tflp.cli import main; "
            "codes = [main(['analytic', 'cov2', '--d', '0.3', '--lambda', '0.5', "
            "'--out', sys.argv[1] + '/cov2.csv']), "
            "main(['simulate', 'tflp2', '--d', '0.3', '--lambda', '0.5', '--n', '64', "
            f"'--out', sys.argv[1] + '/path.csv'])]; print(*codes, *{heavy})")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120)
    assert out.stdout.split() == ["0", "0"] + ["False"] * 3
