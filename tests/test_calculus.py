"""Tempered fractional calculus on uniform grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tflp.calculus import (
    _tail_masses, fft_convolver, fourier_multiplier, frac_derivative_minus,
    frac_derivative_plus, frac_integral_minus, frac_integral_plus,
    sobolev_norm,
)
from tflp.errors import ToleranceError
from tflp.grids import GridFunction, SampleGrid
from tflp.special import upper_gamma


def _bump(width=25.0, dx=2.0 ** -6):
    g = SampleGrid(-width, width, int(round(2 * width / dx)))
    return GridFunction.from_callable(g, lambda x: np.exp(-x ** 2))


def test_fft_convolver_matches_scipy_signal_bit_for_bit():
    from scipy.signal import fftconvolve
    rng = np.random.default_rng(3)
    for n, m in ((1, 1), (7, 3), (8, 8), (97, 1000), (1474, 1474), (2049, 31)):
        kernel = rng.standard_normal(m)
        convolve = fft_convolver(kernel, n)
        for _ in range(2):
            x = rng.standard_normal(n)
            np.testing.assert_array_equal(convolve(x), fftconvolve(x, kernel))


def test_tail_masses_equal_two_upper_gamma_calls_bit_for_bit():
    # frac_derivative_minus once took T0 and T1 from two upper_gamma calls,
    # the first recomputing Gamma(1 - kappa, x) inside its recurrence
    for kappa in (0.2, 0.5, 0.8):
        for lam, dx in ((0.3, 2.0 ** -6), (1.0, 50.0 / 2 ** 16), (2.5, 0.1)):
            x = lam * dx * np.arange(1, 4098)
            T0, T1 = _tail_masses(kappa, lam, x)
            np.testing.assert_array_equal(T0, lam ** kappa * upper_gamma(-kappa, x))
            np.testing.assert_array_equal(T1, lam ** (kappa - 1.0)
                                          * upper_gamma(1.0 - kappa, x))


def test_integral_of_exponential_eigenfunction():
    # I^{kappa,lam}_- e^{-mu x} = (lam + mu)^{-kappa} e^{-mu x} holds for
    # the two-sided eigenfunction; on a grid, test on a damped window
    lam, mu, kappa = 1.0, 0.3, 0.6
    g = SampleGrid(-40.0, 40.0, 4096)
    f = GridFunction.from_callable(g, lambda x: np.exp(-mu * x) * np.exp(-(x / 12.0) ** 8))
    out = frac_integral_minus(f, kappa, lam)
    core = np.abs(g.points) <= 4.0
    ref = (lam + mu) ** -kappa * f.values[core]
    assert np.max(np.abs(out.values[core] - ref)) < 2e-4


def test_derivative_of_constant():
    lam, kappa = 0.7, 0.4
    g = SampleGrid(-5.0, 5.0, 256)
    f = GridFunction(g, np.full(257, 3.0))
    out = frac_derivative_minus(f, kappa, lam)
    np.testing.assert_allclose(out.values, 3.0 * lam ** kappa, rtol=1e-12)


def test_derivative_inverts_integral():
    lam = 1.0
    f = _bump()
    for kappa in (0.25, 0.5, 0.75):
        back = frac_derivative_minus(frac_integral_minus(f, kappa, lam), kappa, lam)
        core = np.abs(f.grid.points) <= 15.0
        assert np.max(np.abs(back.values - f.values)[core]) < 5e-3, kappa


def test_integral_inverts_derivative():
    lam, kappa = 1.0, 0.5
    f = _bump()
    back = frac_integral_minus(frac_derivative_minus(f, kappa, lam), kappa, lam)
    core = np.abs(f.grid.points) <= 15.0
    assert np.max(np.abs(back.values - f.values)[core]) < 5e-3


def test_plus_operators_mirror_minus():
    lam, kappa = 1.0, 0.6
    f = _bump()
    g = GridFunction(f.grid, f.values[::-1].copy())
    a = frac_integral_plus(f, kappa, lam)
    b = frac_integral_minus(g, kappa, lam)
    np.testing.assert_allclose(a.values, b.values[::-1], atol=1e-13)
    a = frac_derivative_plus(f, kappa, lam)
    b = frac_derivative_minus(g, kappa, lam)
    np.testing.assert_allclose(a.values, b.values[::-1], atol=1e-13)


def test_multiplier_kappa_one_is_first_order_operator():
    # (lam + i omega) corresponds to lam f - f'
    lam = 1.3
    g = SampleGrid(-20.0, 20.0, 4096)
    x = g.points
    f = GridFunction(g, np.exp(-x ** 2))
    out = fourier_multiplier(f, 1.0, lam, sign="-")
    ref = lam * f.values - (-2.0 * x * np.exp(-x ** 2))
    core = np.abs(x) <= 10.0
    assert np.max(np.abs(out.values - ref)[core]) < 1e-8


def test_multiplier_agrees_with_marchaud():
    lam = 1.0
    f = _bump(dx=2.0 ** -7)
    dx = f.grid.dx
    for kappa in (0.2, 0.5, 0.8):
        a = frac_derivative_minus(f, kappa, lam)
        b = fourier_multiplier(f, kappa, lam, sign="-")
        gap = np.sqrt(np.sum((a.values - b.values) ** 2) * dx)
        assert gap <= dx ** (2.0 - kappa), kappa


def test_sobolev_norm_kappa_zero_is_l2():
    f = _bump()
    assert abs(sobolev_norm(f, 0.0, 1.0) / f.l2_norm() - 1.0) < 1e-6


def test_sobolev_norm_is_multiplier_l2_norm():
    f = _bump()
    for kappa, lam in ((0.3, 0.5), (0.7, 2.0)):
        a = sobolev_norm(f, kappa, lam)
        b = fourier_multiplier(f, kappa, lam, sign="-")
        # same quadrature convention: flat FFT sum, not trapezoid
        b_norm = np.sqrt(np.sum(b.values ** 2) * f.grid.dx)
        assert abs(a / b_norm - 1.0) < 1e-2, (kappa, lam)


def test_sobolev_norm_equivalence_across_tempering():
    # (lam^2 + w^2)^kappa is sandwiched between multiples of (1 + w^2)^kappa
    f = _bump()
    kappa = 0.4
    base = sobolev_norm(f, kappa, 1.0)
    for lam in (0.5, 3.0):
        other = sobolev_norm(f, kappa, lam)
        lo = min(1.0, lam) ** kappa
        hi = max(1.0, lam) ** kappa
        assert lo * base <= other <= hi * base, lam


def test_grid_too_narrow_raises():
    g = SampleGrid(-10.0, 10.0, 256)
    f = GridFunction.from_callable(g, lambda x: np.exp(-x ** 2))
    with pytest.raises(ToleranceError):
        frac_integral_minus(f, 0.5, 0.7)


def test_parameter_validation():
    f = _bump(width=25.0, dx=0.25)
    with pytest.raises(ValueError):
        frac_integral_minus(f, -0.5, 1.0)
    with pytest.raises(ValueError):
        frac_derivative_minus(f, 1.5, 1.0)
    with pytest.raises(ValueError):
        fourier_multiplier(f, 0.5, 1.0, sign="x")
    with pytest.raises(ValueError):
        sobolev_norm(f, -0.1, 1.0)


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_linearity(a, b):
    g = SampleGrid(-25.0, 25.0, 512)
    f1 = GridFunction.from_callable(g, lambda x: np.exp(-x ** 2))
    f2 = GridFunction.from_callable(g, lambda x: np.exp(-(x - 1.0) ** 2))
    comb = GridFunction(g, a * f1.values + b * f2.values)
    lhs = frac_integral_minus(comb, 0.5, 1.0).values
    rhs = (a * frac_integral_minus(f1, 0.5, 1.0).values
           + b * frac_integral_minus(f2, 0.5, 1.0).values)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
