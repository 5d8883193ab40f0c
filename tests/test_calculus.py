"""Tempered fractional calculus on uniform grids."""

import numpy as np
import pytest
from numpy.fft import irfft, rfft
from hypothesis import given, settings
from hypothesis import strategies as st

from tflp.calculus import (
    _correlate, _marchaud_moments, _marchaud_plan, _spectrum, fourier_multiplier,
    frac_derivative_minus, frac_derivative_plus, frac_integral_minus,
    frac_integral_plus, sobolev_norm,
)
from tflp.errors import ToleranceError
from tflp.grids import GridFunction, SampleGrid, next_fast_len
from tflp.integration import _classify, transform_integrand
from tflp.processes import TemperedParams
from tflp.special import cell_moments, gamma_fn, upper_gamma


def _bump(width=25.0, dx=2.0 ** -6):
    g = SampleGrid(-width, width, int(round(2 * width / dx)))
    return GridFunction.from_callable(g, lambda x: np.exp(-x ** 2))


def test_correlate_matches_scipy_signal_bit_for_bit():
    from scipy.signal import fftconvolve
    rng = np.random.default_rng(3)
    for n, m in ((1, 1), (7, 3), (8, 8), (97, 1000), (1474, 1474), (2049, 31)):
        weights, values = rng.standard_normal(n), rng.standard_normal(m)
        np.testing.assert_array_equal(_correlate(_spectrum(weights, m), values, m - 1),
                                      fftconvolve(weights, values[::-1])[:m][::-1])


# The operators as they were before the derivative's plan was cached: weights
# rebuilt per call, rfft(weights) * rfft(values) in that order, no copies.
# Every operator must still return these bits, cold or from the plan.

def _reference_correlate(weights, values, n):
    nfft = next_fast_len(len(weights) + len(values) - 1)
    conv = irfft(rfft(weights, nfft) * rfft(values[::-1], nfft), nfft)
    return conv[: n + 1][::-1]


def _reference_integral(f, kappa, lam):
    n, dx = f.grid.n_cells, f.grid.dx
    M0 = cell_moments(kappa - 1.0, lam, dx, 0, n + 1)
    B = cell_moments(kappa - 1.0, lam, dx, 0, n + 1, theta=1)
    w = M0 - B
    w[1:] += B[:-1]
    return _reference_correlate(w / gamma_fn(kappa), f.values, n)


def _reference_derivative(f, kappa, lam):
    n, dx, vals = f.grid.n_cells, f.grid.dx, f.values
    c = kappa / gamma_fn(1.0 - kappa)
    N0, B, T0 = _marchaud_moments(kappa, lam, dx, n)
    A = N0 - B
    N1_0 = cell_moments(-kappa, lam, dx, 0, 1)[0]
    v = np.zeros(n + 1)
    v[1] = N1_0 / dx + A[0]
    v[2:] = B[:-1] + A[1:]
    diag = N1_0 / dx + T0[0]
    conv = _reference_correlate(v, vals, n)
    tail = vals[-1] * (T0[:n][::-1] - A[::-1])
    out = np.empty(n + 1)
    out[:n] = lam ** kappa * vals[:n] + c * (vals[:n] * diag - conv[:n] - tail)
    out[n] = lam ** kappa * vals[n]
    return out


def _reference_multiplier(f, kappa, lam, sign):
    n = f.grid.n_cells + 1
    omega = 2.0 * np.pi * np.fft.rfftfreq(2 * n, d=f.grid.dx)
    mult = (lam + (-1.0 if sign == "-" else 1.0) * 1j * omega) ** kappa
    return irfft(rfft(f.values, 2 * n) * mult, 2 * n)[:n]


def _reference_operators(f, kappa, lam):
    g = GridFunction(f.grid, f.values[::-1].copy())
    return {frac_integral_minus: _reference_integral(f, kappa, lam),
            frac_integral_plus: _reference_integral(g, kappa, lam)[::-1],
            frac_derivative_minus: _reference_derivative(f, kappa, lam),
            frac_derivative_plus: _reference_derivative(g, kappa, lam)[::-1]}


def _owns_its_values(out):
    base = out.values.base
    return base is None or base.size <= out.values.size


@pytest.mark.parametrize("n", [1, 4, 97, 2 ** 16 - 1])
def test_operators_keep_their_bits_cold_and_from_the_plan(n):
    grid = SampleGrid(-50.0, 50.0, n)
    f = GridFunction.from_callable(grid, lambda x: np.exp(-(x - 0.3) ** 2) + 0.1 * np.sin(x))
    for kappa in (0.2, 0.5, 0.8):
        for lam in (0.3, 1.0, 2.5):
            ref = _reference_operators(f, kappa, lam)
            _marchaud_plan.cache_clear()
            for _ in ("cold", "warm"):
                for op, want in ref.items():
                    out = op(f, kappa, lam)
                    np.testing.assert_array_equal(out.values, want)
                    assert _owns_its_values(out), op.__name__
                for sign in "-+":
                    out = fourier_multiplier(f, kappa, lam, sign)
                    np.testing.assert_array_equal(
                        out.values, _reference_multiplier(f, kappa, lam, sign))
                    assert _owns_its_values(out)
            assert _marchaud_plan.cache_info().misses == 1


@pytest.mark.parametrize("n", [1, 4, 97, 2 ** 16 - 1])
def test_grid_transforms_keep_their_bits(n):
    grid = SampleGrid(-50.0, 50.0, n)
    f = GridFunction.from_callable(grid, lambda x: np.exp(-(x - 0.3) ** 2))
    ops = {"I": _reference_integral, "D": _reference_derivative}
    for target, d in (("TFLP2", 0.3), ("TFLP2", -0.3), ("TFLP1", -0.3), ("TFLP1", 0.3)):
        for lam in (0.3, 1.0, 2.5):
            p = TemperedParams(d, lam)
            _, terms = _classify(p, target)
            want = sum(k * ops[op](f, order, lam) for k, op, order in terms)
            _marchaud_plan.cache_clear()
            for _ in ("cold", "warm"):
                np.testing.assert_array_equal(
                    transform_integrand(f, p, target).transformed.values, want)


def test_plan_is_read_only_and_served_to_the_second_derivative():
    f = _bump(dx=2.0 ** -5)
    kappa, lam = 0.5, 1.0
    _marchaud_plan.cache_clear()
    frac_derivative_minus(frac_integral_minus(f, kappa, lam), kappa, lam)
    frac_derivative_minus(f, kappa, lam)
    info = _marchaud_plan.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    (W, nfft), diag, rest = _marchaud_plan(kappa, lam, f.grid.dx, f.grid.n_cells)
    assert nfft == next_fast_len(2 * f.grid.n_cells + 1) and np.isfinite(diag)
    for arr in (W, rest):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_tail_masses_telescope_against_cell_moments():
    # T0, the tail masses int_{p dx}^inf u^{-kappa-1} e^{-lam u} du at the
    # edges, are suffix sums of the cell moments N0 from the last edge's
    # upper gamma, so they telescope against N0 to rounding and meet the
    # upper gamma again at the first edge
    for kappa in (0.2, 0.5, 0.8):
        for lam, dx, n in ((0.3, 2.0 ** -6, 4097), (1.0, 50.0 / 2 ** 16, 2 ** 16),
                           (2.5, 0.1, 4), (2.5, 0.1, 500)):
            N0, B, T0 = _marchaud_moments(kappa, lam, dx, n)
            assert len(N0) == len(B) == n and len(T0) == n + 1
            x = lam * dx * np.array([1.0, n + 1.0])
            first, last = lam ** kappa * upper_gamma(-kappa, x)
            assert T0[-1] == last
            assert abs(T0[0] / first - 1.0) < 1e-14
            assert np.all(np.abs(T0[:-1] - T0[1:] - N0) <= 2.0 ** -50 * T0[:-1])
            assert np.all((0.0 < B) & (B < N0))


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
