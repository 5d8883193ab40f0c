"""Second order theory: covariances, spectra, asymptotics, estimators."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import tflp
from tflp.processes import TemperedParams, kernel_g1, kernel_g2
from tflp.special import gamma_fn
from tflp.analytics import (
    acvf_tfln1, acvf_tfln1_asymptotic, acvf_tfln2, acvf_tfln2_asymptotic_band,
    cov_tflp1, cov_tflp2, ct_squared, empirical_acvf, fit_semi_lrd,
    periodogram, spec_density_tfln1, spec_density_tfln2, structure_exponent,
    structure_function, var_limit_tflp1,
)


def _acvf1_quadrature(p, h):
    """EL2 = 1 oracle: int [g1(h+1,x) - g1(h,x)][g1(1,x) - g1(0,x)] dx."""
    def f(x):
        a = kernel_g1(p, h + 1.0, x) - kernel_g1(p, h, x)
        b = kernel_g1(p, 1.0, x) - kernel_g1(p, 0.0, x)
        return a * b
    pts = sorted({-60.0 / p.lam, 0.0, 1.0, h, h + 1.0})
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        total += quad(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=400)[0]
    return total / gamma_fn(1.0 + p.d) ** 2


def test_variance_scale_consistency():
    # Var S^I(t) = EL2 C^2_t t^{1+2d} / Gamma(1+d)^2
    for d, lam in ((-0.2, 0.7), (0.3, 1.5)):
        p = TemperedParams(d, lam)
        for t in (0.3, 1.0, 4.0):
            lhs = cov_tflp1(p, t, t)
            rhs = ct_squared(p, t) * t ** (1.0 + 2.0 * d) / gamma_fn(1.0 + d) ** 2
            assert abs(lhs / rhs - 1.0) < 1e-12


def test_cov_tflp1_series_direct_branch_continuity():
    # the small-argument series and the Bessel branch must join smoothly
    p = TemperedParams(0.2, 1.0)
    ts = np.linspace(0.45, 0.55, 21)
    vals = np.array([cov_tflp1(p, t, t) for t in ts])
    # second differences reflect the smooth curvature only; a seam would
    # show up as a spike against the neighbouring values
    d2 = np.abs(np.diff(vals, 2))
    assert d2.max() < 1.5 * np.median(d2)


def test_cov_matrices_positive_semidefinite():
    ts = np.array([0.5, 1.0, 1.5, 2.0])
    for d in (-0.3, 0.2, 0.45):
        p = TemperedParams(d, 1.0)
        M = np.array([[cov_tflp1(p, s, t) for t in ts] for s in ts])
        assert np.min(np.linalg.eigvalsh(M)) >= -1e-10
    for d in (0.2, 0.45):
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


def test_acvf_tfln2_route_agreement():
    p = TemperedParams(0.3, 0.5)
    for h in (0.0, 1.0, 4.0, 8.0):
        a = acvf_tfln2(p, h, method="bessel")
        b = acvf_tfln2(p, h, method="fourier")
        assert abs(a - b) < 5e-5 * max(1.0, abs(a)), h


def test_acvf_tfln2_asymptotic_band_sandwich():
    p = TemperedParams(0.3, 0.5)
    for h in np.linspace(10.0, 24.0, 8):
        lo, hi = acvf_tfln2_asymptotic_band(p, float(h))
        val = acvf_tfln2(p, float(h))
        assert lo <= val <= hi, h
        assert hi / lo < 10.0


def test_spectral_density_inverts_to_acvf():
    # gamma(h) = 4 int_0^inf cos(omega h) h_spec(omega) d omega
    p = TemperedParams(0.2, 1.0)
    for h in (0.0, 2.0):
        ref = 4.0 * quad(lambda w: np.cos(w * h) * spec_density_tfln1(p, w),
                         0.0, np.inf, limit=400)[0]
        assert abs(acvf_tfln1(p, h) - ref) < 1e-6

    p2 = TemperedParams(0.3, 1.0)
    for h in (0.0, 2.0):
        ref = 4.0 * quad(lambda w: np.cos(w * h) * spec_density_tfln2(p2, w),
                         0.0, np.inf, limit=400)[0]
        assert abs(acvf_tfln2(p2, h) - ref) < 1e-6


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


def test_import_leaves_scipy_integrate_unloaded():
    # only the quadrature routes need scipy.integrate; they import it
    # on first call, which keeps it off the cold start of every command
    src = os.path.dirname(os.path.dirname(tflp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, tflp; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
