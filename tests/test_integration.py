"""Stochastic integration: transforms, isometry, elementary approximation."""

import numpy as np
import pytest

from tflp.calculus import frac_derivative_minus, frac_integral_minus
from tflp.driver import CompoundPoisson, GaussianJumps, sample_increments, second_moment
from tflp.errors import ToleranceError
from tflp.grids import GridFunction, SampleGrid
from tflp.integration import (
    ElementaryFunction, _deriv_indicator, _int_indicator,
    approximate_by_elementary, inner_product, integrate_elementary,
    integrate_general, transform_integrand,
)
from tflp.processes import (
    TemperedParams, kernel_g1, kernel_g2, simulate_tflp2, truncation_width,
)
from tflp.special import gamma_fn

CP = CompoundPoisson(intensity=2.0, jump_law=GaussianJumps(sigma=1.0))


def test_elementary_function_validation_and_eval():
    f = ElementaryFunction((0.0, 1.0, 2.0), (2.0, -1.0))
    np.testing.assert_array_equal(f(np.array([-0.5, 0.5, 1.5, 2.5])),
                                  [0.0, 2.0, -1.0, 0.0])
    with pytest.raises(ValueError):
        ElementaryFunction((0.0, 1.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        ElementaryFunction((1.0, 0.5), (1.0,))
    with pytest.raises(ValueError):
        ElementaryFunction.indicator(0.0)


def test_indicator_sign_convention():
    # 1_{[0,t]} with t < 0 means -1_{[t,0]}
    f = ElementaryFunction.indicator(-1.5)
    assert f(np.array([-1.0]))[0] == -1.0
    assert f(np.array([0.5]))[0] == 0.0


def test_regime_classification_and_rejections():
    assert transform_integrand(ElementaryFunction.indicator(1.0),
                               TemperedParams(0.3, 1.0), "TFLP2").regime == "A1"
    assert transform_integrand(ElementaryFunction.indicator(1.0),
                               TemperedParams(-0.3, 1.0), "TFLP2").regime == "A2"
    assert transform_integrand(ElementaryFunction.indicator(1.0),
                               TemperedParams(-0.3, 1.0), "TFLP1").regime == "A3"
    assert transform_integrand(ElementaryFunction.indicator(1.0),
                               TemperedParams(0.3, 1.0), "TFLP1").regime == "A4"
    with pytest.raises(ValueError):
        transform_integrand(ElementaryFunction.indicator(1.0),
                            TemperedParams(0.8, 1.0), "TFLP1")
    with pytest.raises(ValueError):
        transform_integrand(ElementaryFunction.indicator(1.0),
                            TemperedParams(0.3, 1.0), "XX")


def test_indicator_transform_reproduces_kernels():
    t = 1.0
    for target, d, kernel in (("TFLP2", 0.3, kernel_g2),
                              ("TFLP2", -0.3, kernel_g2),
                              ("TFLP1", -0.3, kernel_g1),
                              ("TFLP1", 0.3, kernel_g1)):
        p = TemperedParams(d, 1.0)
        tr = transform_integrand(ElementaryFunction.indicator(t), p, target,
                                 dx=2.0 ** -8)
        y = tr.transformed.grid.points
        ref = kernel(p, t, y) / gamma_fn(1.0 + d)
        assert np.max(np.abs(tr.transformed.values - ref)) < 1e-3, (target, d)


def test_transform_terms_bit_identical_to_reference():
    # each regime's formula written out per route, with the subtraction
    # order of the displays; the term table must reproduce it bit for bit
    lam = 1.3
    grid = SampleGrid(-20.0, 2.0, 2 ** 10)
    y = grid.points
    step = ElementaryFunction((-0.5, 0.3, 1.1, 1.75), (1.0, -2.5, 0.75))
    gauss = GridFunction.from_callable(grid, lambda x: np.exp(-(x - 0.5) ** 2))
    I, D = frac_integral_minus, frac_derivative_minus
    for target, d, regime in (("TFLP2", 0.3, "A1"), ("TFLP2", -0.3, "A2"),
                              ("TFLP1", -0.3, "A3"), ("TFLP1", 0.3, "A4")):
        if regime == "A1":
            piece = lambda a, b: _int_indicator(d, lam, a, b, y)
            ref_grid = I(gauss, d, lam).values
        elif regime == "A2":
            piece = lambda a, b: _deriv_indicator(-d, lam, a, b, y)
            ref_grid = D(gauss, -d, lam).values
        elif regime == "A3":
            piece = lambda a, b: (_deriv_indicator(-d, lam, a, b, y)
                                  - lam * _int_indicator(d + 1.0, lam, a, b, y))
            ref_grid = (D(gauss, -d, lam).values
                        - lam * I(gauss, d + 1.0, lam).values)
        else:
            piece = lambda a, b: (_int_indicator(d, lam, a, b, y)
                                  - lam * _int_indicator(d + 1.0, lam, a, b, y))
            ref_grid = (I(gauss, d, lam).values
                        - lam * I(gauss, d + 1.0, lam).values)
        ref_step = np.zeros_like(y)
        for a, b, c in zip(step.breakpoints, step.breakpoints[1:], step.coefficients):
            ref_step += c * piece(a, b)
        p = TemperedParams(d, lam)
        for f, ref in ((step, ref_step), (gauss, ref_grid)):
            tr = transform_integrand(f, p, target, grid=grid)
            assert tr.regime == regime
            assert tr.transformed.grid == grid
            np.testing.assert_array_equal(tr.transformed.values, ref)
            assert tr.norm == float(np.sqrt(np.sum(ref[:-1] ** 2) * grid.dx))


def test_closed_form_matches_grid_operator_route():
    # the per-piece incomplete-gamma transform and the grid calculus
    # operators are independent code paths; they must agree
    p = TemperedParams(0.3, 1.0)
    f = ElementaryFunction((0.0, 0.7, 1.4), (1.0, -2.0))
    gaps = []
    for k in (7, 9):
        dx = 2.0 ** -k
        g = SampleGrid(-30.0, 1.4, int(round(31.4 / dx)))
        tr_closed = transform_integrand(f, p, "TFLP1", grid=g)
        f_grid = GridFunction(g, f(g.points))
        tr_grid = transform_integrand(f_grid, p, "TFLP1")
        gap = np.sqrt(np.sum((tr_closed.transformed.values
                              - tr_grid.transformed.values) ** 2) * g.dx)
        # the grid route smears the jumps over one cell, an O(dx^{d+1/2})
        # L2 perturbation; away from that both routes agree
        assert gap < 5.0 * dx ** (p.d + 0.5), k
        gaps.append(gap)
    assert gaps[1] < 0.5 * gaps[0]


def test_polarization_identity():
    p = TemperedParams(0.3, 1.0)
    g = SampleGrid(-30.0, 2.0, 2048)
    f1 = transform_integrand(ElementaryFunction.indicator(1.0), p, "TFLP2", grid=g)
    f2 = transform_integrand(ElementaryFunction((0.0, 0.5, 2.0), (1.0, 0.5)),
                             p, "TFLP2", grid=g)
    both = transform_integrand(
        ElementaryFunction((0.0, 0.5, 1.0, 2.0), (2.0, 1.5, 0.5)), p,
        "TFLP2", grid=g)  # f1 + f2 as a single step function
    lhs = both.norm ** 2
    rhs = f1.norm ** 2 + f2.norm ** 2 + 2.0 * inner_product(f1, f2)
    assert abs(lhs - rhs) < 1e-10
    with pytest.raises(ValueError):
        inner_product(f1, transform_integrand(
            ElementaryFunction.indicator(1.0), p, "TFLP2", dx=2.0 ** -5))


def test_inner_product_matches_covariance():
    # EL2 <transform 1_{[0,s]}, transform 1_{[0,t]}> = Cov[S2(s), S2(t)]
    from tflp.analytics import cov_tflp2
    p = TemperedParams(0.3, 1.0)
    s, t = 0.8, 1.7
    g = SampleGrid(-40.0, 2.0, 2 ** 13)
    trs = transform_integrand(ElementaryFunction.indicator(s), p, "TFLP2", grid=g)
    trt = transform_integrand(ElementaryFunction.indicator(t), p, "TFLP2", grid=g)
    assert abs(inner_product(trs, trt) / cov_tflp2(p, s, t) - 1.0) < 1e-3


def test_integrate_elementary_telescopes():
    p = TemperedParams(0.3, 1.0)
    grid = SampleGrid(0.0, 2.0, 64)
    path = simulate_tflp2(p, grid, CP, seed=8)
    f = ElementaryFunction((0.0, 0.5, 2.0), (2.0, -1.0))
    val = integrate_elementary(f, path)
    S = lambda t: path.values[int(round(t / grid.dx))]
    ref = 2.0 * (S(0.5) - S(0.0)) - 1.0 * (S(2.0) - S(0.5))
    assert abs(val - ref) < 1e-12
    with pytest.raises(ValueError):
        integrate_elementary(ElementaryFunction((0.0, 0.51), (1.0,)), path)


def test_integrate_general_isometry_small_sample():
    p = TemperedParams(-0.3, 1.0)
    f = ElementaryFunction.indicator(1.0)
    vals = []
    for i in range(800):
        v, tr = integrate_general(f, p, CP, seed=55, target="TFLP2",
                                  dx=2.0 ** -5, stream=i)
        vals.append(v)
    vals = np.asarray(vals)
    pred = second_moment(CP) * tr.norm ** 2
    se = np.sqrt((np.mean(vals ** 4) - np.mean(vals ** 2) ** 2) / len(vals))
    assert abs(np.mean(vals ** 2) - pred) < 4.0 * se


def test_integrate_general_is_deterministic_per_stream():
    p = TemperedParams(0.3, 1.0)
    f = ElementaryFunction.indicator(1.0)
    v1, _ = integrate_general(f, p, CP, seed=4, dx=2.0 ** -5, stream=2)
    v2, _ = integrate_general(f, p, CP, seed=4, dx=2.0 ** -5, stream=2)
    v3, _ = integrate_general(f, p, CP, seed=4, dx=2.0 ** -5, stream=3)
    assert v1 == v2 and v1 != v3


def test_approximate_by_elementary_converges():
    p = TemperedParams(0.3, 1.0)
    R = truncation_width(p, 1e-8)
    g = SampleGrid(-2.0 * R, 2.0, 2 ** 11)
    f = GridFunction.from_callable(g, lambda x: np.exp(-4.0 * (x - 0.8) ** 2))
    fn = approximate_by_elementary(f, p, tol=1e-2)
    tr_f = transform_integrand(f, p)
    tr_n = transform_integrand(fn, p, grid=g)
    gap = np.sqrt(np.sum((tr_f.transformed.values
                          - tr_n.transformed.values) ** 2) * g.dx)
    assert gap < 1e-2
    with pytest.raises(ToleranceError):
        approximate_by_elementary(f, p, tol=1e-12, max_levels=3)
