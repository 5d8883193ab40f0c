"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"[criterion NN] ... PASS" line on success (pytest -s shows them; the
asserts carry the same conditions either way).  Oracles are independent
of the implementation under test: adaptive quadrature of defining
integrals, closed-form identities, and Monte Carlo standard errors
estimated from the drawn samples themselves.
"""

import filecmp
import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from tflp import (
    CompoundPoisson, ElementaryFunction, GaussianJumps,
    GridFunction, SampleGrid, TemperedParams, UniformSymmetric,
    acvf_tfln1, acvf_tfln2, bessel_k, cov_tflp1, cov_tflp2,
    fit_semi_lrd, fourier_multiplier, frac_derivative_minus,
    frac_integral_minus, gamma_fn, integrate_general, kernel_g1, kernel_g2,
    noise_path, periodogram, second_moment, simulate_ensemble,
    simulate_tflp1, simulate_tflp2, spec_density_tfln1, structure_exponent,
    transform_integrand, truncation_width, var_limit_tflp1,
)
from tflp.cli import main as cli_main


def _report(num, label):
    print(f"[criterion {num:02d}] {label}: PASS")


# ---------------------------------------------------------------------------
# 1. special function oracles

def test_criterion_01_bessel_gamma_oracle():
    # K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt, adaptive quadrature
    nus = np.linspace(0.05, 3.0, 10)
    zs = np.array([0.3, 1.0, 3.0, 8.0, 20.0])
    worst = 0.0
    for nu in nus:
        for z in zs:
            ref, _ = quad(lambda t: np.exp(-z * np.cosh(t)) * np.cosh(nu * t),
                          0.0, 30.0, epsabs=1e-16, epsrel=1e-13, limit=200)
            worst = max(worst, abs(bessel_k(nu, z) / ref - 1.0))
    assert worst <= 1e-9

    # factorials and the reflection identity
    for n in range(1, 11):
        assert abs(gamma_fn(n + 1) / float(math.factorial(n)) - 1.0) < 1e-12
    for x in (0.1, 0.37, 0.5, 0.83):
        ref = np.pi / np.sin(np.pi * x)
        assert abs(gamma_fn(x) * gamma_fn(1.0 - x) / ref - 1.0) < 1e-12
    _report(1, f"bessel/gamma oracle, worst rel {worst:.2e}")


# ---------------------------------------------------------------------------
# 2-4. covariance identities and the variance plateau

def _cov1_quadrature(params, s, t):
    """EL2 * int [g1(s,x)/Gamma(1+d)] [g1(t,x)/Gamma(1+d)] dx (EL2 = 1)."""
    lam = params.lam
    lo = -60.0 / lam
    m, M = sorted((s, t))

    def f(x):
        return kernel_g1(params, s, x) * kernel_g1(params, t, x)

    total = 0.0
    # split so the kernel singularities (x = s, x = t when d < 0) sit at
    # segment endpoints, where QUADPACK handles them
    for a, b in ((lo, 0.0), (0.0, m), (m, M)):
        if b > a:
            val, _ = quad(f, a, b, epsabs=1e-13, epsrel=1e-11, limit=400)
            total += val
    return total / gamma_fn(1.0 + params.d) ** 2


def test_criterion_02_cov_tflp1_bilinear_identity():
    ss = np.array([0.6, 1.2, 1.8, 2.4, 3.0])
    worst = 0.0
    for d in (-0.3, 0.2, 0.45):
        for lam in (0.5, 2.0):
            p = TemperedParams(d, lam)
            for s in ss:
                for t in ss:
                    ref = _cov1_quadrature(p, s, t)
                    worst = max(worst, abs(cov_tflp1(p, s, t) / ref - 1.0))
    assert worst <= 1e-6
    _report(2, f"TFLP covariance vs quadrature, worst rel {worst:.2e}")


def test_criterion_03_variance_plateau():
    worst = 0.0
    for d in (-0.3, 0.2, 0.45):
        for lam in (0.3, 1.0):
            p = TemperedParams(d, lam)
            t = 20.0 / lam
            worst = max(worst, abs(cov_tflp1(p, t, t) / var_limit_tflp1(p) - 1.0))
    assert worst <= 1e-5
    _report(3, f"variance plateau at lam*t = 20, worst rel {worst:.2e}")


def test_criterion_04_cov_tflp2_bilinear_identity():
    worst = 0.0
    for d in (0.2, 0.45):
        p = TemperedParams(d, 1.0)
        for s, t in ((0.7, 0.7), (1.0, 2.0), (2.5, 1.5)):
            lo = -60.0
            m, M = sorted((s, t))

            def f(y):
                return kernel_g2(p, s, y) * kernel_g2(p, t, y)

            ref = 0.0
            for a, b in ((lo, 0.0), (0.0, m), (m, M)):
                val, _ = quad(f, a, b, epsabs=1e-13, epsrel=1e-11, limit=400)
                ref += val
            ref /= gamma_fn(1.0 + d) ** 2
            worst = max(worst, abs(cov_tflp2(p, s, t) / ref - 1.0))
    assert worst <= 1e-5
    _report(4, f"TFLP II covariance vs quadrature, worst rel {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. Monte Carlo law check

def test_criterion_05_monte_carlo_variance():
    driver = CompoundPoisson(intensity=1.0, jump_law=UniformSymmetric(a=1.0))
    EL2 = second_moment(driver)
    grid = SampleGrid(0.0, 2.0, 8)  # t = 0.5, 1, 2 on grid
    n_paths = 10_000
    lines = []
    for d, lam in ((1.0 / 6.0, 0.1), (0.3, 0.5)):
        p = TemperedParams(d, lam)
        R = truncation_width(p, 1e-8)
        for kind, cov in (("TFLP1", cov_tflp1), ("TFLP2", cov_tflp2)):
            arr = np.asarray(simulate_ensemble(
                kind, p, grid, driver, seed=41, n_paths=n_paths,
                trunc_width=R, refine=8))
            for t in (0.5, 1.0, 2.0):
                j = int(round(t / grid.dx))
                x = arr[:, j] - arr[:, j].mean()
                v = np.mean(x ** 2)
                se = np.sqrt((np.mean(x ** 4) - v ** 2) / n_paths)
                th = EL2 * cov(p, t, t)
                z = abs(v - th) / se
                lines.append(z)
                assert z <= 3.0, (kind, d, lam, t, v, th, z)
    _report(5, f"ensemble variance within 3 SE, worst z = {max(lines):.2f}")


# ---------------------------------------------------------------------------
# 6. calculus inversion order and multiplier agreement

def test_criterion_06_calculus_inversion_and_multiplier():
    lam = 1.0
    ks = range(4, 10)
    for kappa in (0.2, 0.5, 0.8):
        nominal = min(1.0, 1.0 - kappa)
        errs = []
        gaps = []
        for k in ks:
            dx = 2.0 ** -k
            g = SampleGrid(-25.0, 25.0, int(round(50.0 / dx)))
            f = GridFunction.from_callable(g, lambda x: np.exp(-x ** 2))
            back = frac_derivative_minus(frac_integral_minus(f, kappa, lam),
                                         kappa, lam)
            core = np.abs(g.points) <= 15.0
            errs.append(np.max(np.abs(back.values - f.values)[core]))
            # multiplier vs Marchaud, documented curve dx^(2 - kappa)
            a = frac_derivative_minus(f, kappa, lam)
            b = fourier_multiplier(f, kappa, lam, sign="-")
            gaps.append(np.sqrt(np.sum((a.values - b.values) ** 2) * dx))
            assert gaps[-1] <= dx ** (2.0 - kappa)
        dxs = 2.0 ** -np.arange(4, 10)
        order = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
        # the product-integration scheme converges at least at the nominal
        # rate; the bound ||D(I f) - f|| <= C dx^nominal then holds with
        # C = err(coarsest) / coarsest^nominal
        assert order >= nominal - 0.15, (kappa, order)
        C = errs[0] / dxs[0] ** nominal
        assert all(e <= 1.05 * C * dx ** nominal for e, dx in zip(errs, dxs))
    _report(6, "inversion order and multiplier tolerance curve")


# ---------------------------------------------------------------------------
# 7. stochastic integration isometry

def _mc_variance_ratio(vals, tr, driver):
    pred = second_moment(driver) * tr.norm ** 2
    v = np.mean(vals ** 2)
    se = np.sqrt((np.mean(vals ** 4) - v ** 2) / len(vals))
    return abs(v / pred - 1.0), 3.0 * se / pred


def test_criterion_07_isometry_suites():
    driver = CompoundPoisson(intensity=2.0, jump_law=GaussianJumps(sigma=1.0))
    lam = 1.0
    bump = lambda x: np.exp(-4.0 * (x - 0.8) ** 2)
    bump2 = lambda x: x * np.exp(-2.0 * x ** 2)
    fns = [
        ElementaryFunction.indicator(1.0),
        ElementaryFunction.indicator(-0.8),
        ElementaryFunction((0.0, 0.5, 1.5), (1.0, -0.5)),
        "bump", "bump2",
    ]
    worst = 0.0
    regimes = [("TFLP2", 0.3, "A1"), ("TFLP2", -0.3, "A2"),
               ("TFLP1", -0.3, "A3"), ("TFLP1", 0.3, "A4")]
    for target, d, regime in regimes:
        p = TemperedParams(d, lam)
        R = truncation_width(p, 1e-8)
        for i, f in enumerate(fns):
            if isinstance(f, str):
                # wide enough for the calculus operators' truncation bound
                g = SampleGrid(-2.0 - 2.0 * R, 2.0, int(round((4.0 + 2.0 * R) * 64)))
                f = GridFunction.from_callable(g, bump if f == "bump" else bump2)
            vals, tr = integrate_general(f, p, driver, 90 + i, 10_000, target,
                                         dx=2.0 ** -6)
            assert tr.regime == regime
            dev, band = _mc_variance_ratio(vals, tr, driver)
            worst = max(worst, dev / band)
            assert dev <= band, (regime, i, dev, band)

    # the four kernel identities: transform of 1_{[0,t]} is the process
    # kernel over Gamma(1 + d), checked in max norm on a dx = 2^-8 grid
    t = 1.0
    for target, d, _ in regimes:
        p = TemperedParams(d, lam)
        tr = transform_integrand(ElementaryFunction.indicator(t), p, target,
                                 dx=2.0 ** -8)
        y = tr.transformed.grid.points
        kernel = kernel_g2 if target == "TFLP2" else kernel_g1
        ref = kernel(p, t, y) / gamma_fn(1.0 + d)
        assert np.max(np.abs(tr.transformed.values - ref)) <= 1e-3
    _report(7, f"isometry in all regimes, worst dev/band = {worst:.2f}")


# ---------------------------------------------------------------------------
# 8. semi-LRD asymptotics

def test_criterion_08_semi_lrd_fit():
    for d, lam in ((0.2, 0.3), (-0.2, 0.5)):
        p = TemperedParams(d, lam)
        H = 20.0 / lam
        hs = np.linspace(0.5 * H, H, 60)
        fit = fit_semi_lrd(np.column_stack([hs, [acvf_tfln1(p, h) for h in hs]]))
        assert abs(fit.lambda_hat / lam - 1.0) <= 0.05
        assert abs(fit.delta_hat - d) <= 0.05

    d, lam = 0.4, 0.3
    p = TemperedParams(d, lam)
    H = 20.0 / lam
    hs = np.linspace(0.5 * H, H, 40)
    fit2 = fit_semi_lrd(np.column_stack([hs, [acvf_tfln2(p, h) for h in hs]]))
    assert abs(fit2.delta_hat - (d - 1.0)) <= 0.1
    _report(8, f"semi-LRD fit, TFLN II delta = {fit2.delta_hat:.3f}")


# ---------------------------------------------------------------------------
# 9. spectral shape

def test_criterion_09_spectral_shape():
    driver = CompoundPoisson(intensity=2.0, jump_law=GaussianJumps(sigma=1.0))
    EL2 = second_moment(driver)
    N = 2 ** 18
    grid = SampleGrid(0.0, float(N), N)

    p = TemperedParams(0.2, 0.3)
    path = simulate_tflp1(p, grid, driver,
                          trunc_width=truncation_width(p, 1e-8),
                          seed=5, refine=1)
    om, pw = periodogram(noise_path(path).values, 4096)
    h = EL2 * spec_density_tfln1(p, om)
    mask = (om >= 1e-2) & (om <= 1.0)
    slope = np.polyfit(np.log(h[mask]), np.log(pw[mask]), 1)[0]
    assert abs(slope - 1.0) <= 0.1

    # Von Karman flattening below omega = lam for the second kind noise
    p2 = TemperedParams(0.35, 0.05)
    path2 = simulate_tflp2(p2, grid, driver,
                           trunc_width=truncation_width(p2, 1e-8),
                           seed=6, refine=1)
    om2, pw2 = periodogram(noise_path(path2).values, 4096)
    lo = om2 <= 8 * om2[0]
    mid = (om2 >= 0.2) & (om2 <= 1.0)
    s_lo = np.polyfit(np.log(om2[lo]), np.log(pw2[lo]), 1)[0]
    s_mid = np.polyfit(np.log(om2[mid]), np.log(pw2[mid]), 1)[0]
    ratio = abs(s_lo) / abs(s_mid)
    assert ratio < 0.3
    _report(9, f"spectral slope {slope:.3f}, flattening ratio {ratio:.2f}")


# ---------------------------------------------------------------------------
# 10. Holder scaling and total variation

def _total_variation(values):
    """Discrete total variation sum |x_{k+1} - x_k| of a sampled path."""
    return float(np.sum(np.abs(np.diff(values))))


def _mean_not_below(values, floor, alpha=1e-3):
    """One-sided t-test of E[values] >= floor at false-alarm level alpha:
    fails only when the mean sits below floor by more than the t quantile of
    its standard error, estimated from the spread of the values."""
    values = np.asarray(values, dtype=float)
    n = values.size
    se = values.std(ddof=1) / np.sqrt(n)
    return values.mean() + stats.t.ppf(1.0 - alpha, n - 1) * se >= floor


def test_criterion_10_holder_and_variation():
    cp = CompoundPoisson(intensity=2.0, jump_law=GaussianJumps(sigma=1.0))
    cells = [2, 3, 4, 6, 8, 12]
    for d, lam in ((0.2, 0.5), (0.4, 0.25)):
        p = TemperedParams(d, lam)
        grid = SampleGrid(0.0, 2.0, 1024)
        arr = np.asarray(simulate_ensemble(
            "TFLP1", p, grid, cp, seed=77, n_paths=200,
            trunc_width=truncation_width(p, 1e-6), refine=8))
        zeta = structure_exponent(arr, grid.dx, cells)["zeta"]
        assert abs(zeta - 2.0 * d) <= 0.2, (d, zeta)

    # total variation under 2x refinement of the same realization:
    # sample on the fine grid, subsample every other point for the coarse
    # reading, so both resolutions see the same path
    p = TemperedParams(0.8, 1.0)
    R = truncation_width(p, 1e-8)
    smooth = []
    for stream in range(8):
        v = simulate_tflp1(p, SampleGrid(0.0, 4.0, 512), cp, trunc_width=R,
                           seed=3, refine=8, stream=stream).values
        smooth.append(_total_variation(v) / _total_variation(v[::2]))
    assert all(0.9 <= r <= 1.1 for r in smooth)

    # rough regime: variation keeps growing; the coarse window where
    # neighbouring increments have decorrelated shows the growth clearly.
    # The mean ratio (about 1.31) must not be significantly below 1.3; over
    # 64 streams that allows means down to about 1.265
    p = TemperedParams(0.3, 1.0)
    R = truncation_width(p, 1e-8)
    rough = []
    for stream in range(64):
        v = simulate_tflp1(p, SampleGrid(0.0, 64.0, 128), cp, trunc_width=R,
                           seed=3, refine=8, stream=stream).values
        rough.append(_total_variation(v) / _total_variation(v[::2]))
    assert _mean_not_below(rough, 1.3), (np.mean(rough), np.std(rough))
    # the smooth paths, whose ratio is about 1.00, fail the same check
    assert not _mean_not_below(smooth, 1.3)
    _report(10, f"TV ratios smooth {np.mean(smooth):.3f}, rough {np.mean(rough):.3f}")


# ---------------------------------------------------------------------------
# 11. CLI determinism

def test_criterion_11_cli_rerun_byte_identical(tmp_path):
    cases = [
        ["simulate", "tflp1", "--d", "0.3", "--lambda", "1.0", "--tmax", "2",
         "--n", "64", "--seed", "9", "--driver", "cpois", "--intensity", "1",
         "--jumps", "uniform", "--a", "1.0"],
        ["analytic", "acvf1", "--d", "0.2", "--lambda", "0.5",
         "--range", "1:10:0.5"],
        ["simulate", "tfln2", "--d", "0.35", "--lambda", "0.4", "--tmax", "64",
         "--n", "64", "--seed", "2", "--driver", "gauss", "--sigma", "1.0"],
    ]
    for i, argv in enumerate(cases):
        out1 = tmp_path / f"a{i}.csv"
        saved = tmp_path / f"saved{i}.csv"
        manifest = tmp_path / f"a{i}.csv.manifest.json"
        assert cli_main(argv + ["--out", str(out1)]) == 0
        saved.write_bytes(out1.read_bytes())
        saved_manifest = manifest.read_bytes()
        out1.unlink()
        assert cli_main(["rerun", str(manifest)]) == 0
        assert filecmp.cmp(out1, saved, shallow=False), argv
        assert manifest.read_bytes() == saved_manifest
    _report(11, "CLI rerun outputs byte-identical")
