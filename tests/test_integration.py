"""Stochastic integration: transforms, isometry, elementary approximation."""

import numpy as np
import pytest

from tflp import integration, special
from tflp.calculus import frac_derivative_minus, frac_integral_minus
from tflp.driver import CompoundPoisson, GaussianJumps, sample_increments, second_moment
from tflp.errors import ToleranceError
from tflp.grids import GridFunction, SampleGrid
from tflp.integration import (
    ElementaryFunction, approximate_by_elementary, inner_product,
    integrate_elementary, integrate_general, transform_integrand,
)
from tflp.processes import (
    TemperedParams, kernel_g1, kernel_g2, simulate_tflp2, truncation_width,
)
from tflp.special import gamma_fn, lower_gamma, upper_gamma, upper_gamma_on_grid

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


def _step_and_jumps():
    """A grid, a step on it and the step's jumps (t_j, J_j): the step is
    sum_j J_j 1{y < t_j}, J_j = a_{j-1} - a_j (a_{-1} = a_n = 0)."""
    grid = SampleGrid(-20.0, 2.0, 2 ** 10)
    step = ElementaryFunction((-0.5, 0.3, 1.1, 1.75), (1.0, -2.5, 0.75))
    a = (0.0, *step.coefficients, 0.0)
    return grid, step, [(t, a[j] - a[j + 1]) for j, t in enumerate(step.breakpoints)]


def test_transform_terms_bit_identical_to_reference():
    # each regime's formula written out per route, with the subtraction
    # order of the displays; the term table must reproduce it bit for bit.
    # The upper incomplete gammas of lam (t - y) at the points y < t, which
    # sit at t - y = (i + theta) dx, come from upper_gamma_on_grid, as in the
    # transform; the next test checks them against lower_gamma and
    # upper_gamma
    lam = 1.3
    grid, step, jumps = _step_and_jumps()
    y = grid.points
    gauss = GridFunction.from_callable(grid, lambda x: np.exp(-(x - 0.5) ** 2))
    I, D = frac_integral_minus, frac_derivative_minus

    def tail(s):
        # sum_{t_j > y} J_j G(s, lam (t_j - y))
        out = np.zeros_like(y)
        for t, J in jumps:
            k = np.searchsorted(y, t)
            out[:k] += J * upper_gamma_on_grid(s, lam, grid.dx, (t - y[k - 1]) / grid.dx, k)[::-1]
        return out

    def I_step(kappa):
        # I 1{y < t} = lam^-kappa gamma_lower(kappa, lam (t - y)_+) / Gamma(kappa),
        # so I f = lam^-kappa f - lam^-kappa / Gamma(kappa) tail(kappa)
        return lam ** -kappa * step(y) - lam ** -kappa / gamma_fn(kappa) * tail(kappa)

    def D_step(kappa):
        # lam^kappa f + (kappa/Gamma(1-kappa)) lam^kappa
        #   * sum_{t_j > y} J_j G(-kappa, lam (t_j - y))
        return (lam ** kappa * step(y)
                + kappa / gamma_fn(1.0 - kappa) * lam ** kappa * tail(-kappa))

    for target, d, regime in (("TFLP2", 0.3, "A1"), ("TFLP2", -0.3, "A2"),
                              ("TFLP1", -0.3, "A3"), ("TFLP1", 0.3, "A4")):
        if regime == "A1":
            ref_step = I_step(d)
            ref_grid = I(gauss, d, lam).values
        elif regime == "A2":
            ref_step = D_step(-d)
            ref_grid = D(gauss, -d, lam).values
        elif regime == "A3":
            ref_step = D_step(-d) - lam * I_step(d + 1.0)
            ref_grid = (D(gauss, -d, lam).values
                        - lam * I(gauss, d + 1.0, lam).values)
        else:
            ref_step = I_step(d) - lam * I_step(d + 1.0)
            ref_grid = (I(gauss, d, lam).values
                        - lam * I(gauss, d + 1.0, lam).values)
        p = TemperedParams(d, lam)
        for f, ref in ((step, ref_step), (gauss, ref_grid)):
            tr = transform_integrand(f, p, target, grid=grid)
            assert tr.regime == regime
            assert tr.transformed.grid == grid
            np.testing.assert_array_equal(tr.transformed.values, ref)
            assert tr.norm == float(np.sqrt(np.sum(ref[:-1] ** 2) * grid.dx))


@pytest.mark.parametrize("lam, n", [(1.3, 2 ** 10), (0.1, 2 ** 13)])
def test_step_transform_matches_pointwise_incomplete_gammas(lam, n):
    # the transform takes each jump's upper incomplete gammas from direct
    # values at anchors plus sums of cell moments over blocks of up to 1024 cells;
    # against lower_gamma and upper_gamma at every 8th point it is off by at
    # most the rounding of such a sum, 1024 units of 2^-53 of max |F|
    _, step, jumps = _step_and_jumps()
    grid = SampleGrid(-60.0, 2.0, n)
    y = grid.points[::8]

    def transform(op, kappa):
        # each jump's cell moments start at series_start: no near cell is taken
        calls = special._near_cells.cache_info()
        out = integration._step_transform(step, op, kappa, lam, grid)[::8]
        assert special._near_cells.cache_info() == calls
        return out

    for kappa in (0.05, 0.3, 0.7, 1.3):
        ref = sum(J * lower_gamma(kappa, lam * np.maximum(t - y, 0.0))
                  for t, J in jumps) / (gamma_fn(kappa) * lam ** kappa)
        got = transform("I", kappa)
        assert np.max(np.abs(got - ref)) <= 1024 * 2.0 ** -53 * np.max(np.abs(ref)), kappa
        if kappa < 1.0:
            tail = np.zeros_like(y)
            for t, J in jumps:
                ahead = y < t
                tail[ahead] += J * upper_gamma(-kappa, lam * (t - y[ahead]))
            ref = lam ** kappa * step(y) + kappa / gamma_fn(1.0 - kappa) * lam ** kappa * tail
            got = transform("D", kappa)
            assert np.max(np.abs(got - ref)) <= 1024 * 2.0 ** -53 * np.max(np.abs(ref)), kappa


def test_closed_form_matches_grid_operator_route():
    # the jump-by-jump incomplete-gamma transform and the grid calculus
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
    vals, tr = integrate_general(f, p, CP, seed=55, n_draws=800, target="TFLP2",
                                 dx=2.0 ** -5)
    pred = second_moment(CP) * tr.norm ** 2
    se = np.sqrt((np.mean(vals ** 4) - np.mean(vals ** 2) ** 2) / len(vals))
    assert abs(np.mean(vals ** 2) - pred) < 4.0 * se


def test_integrate_general_is_deterministic_per_stream():
    p = TemperedParams(0.3, 1.0)
    f = ElementaryFunction.indicator(1.0)
    draws, _ = integrate_general(f, p, CP, seed=4, n_draws=4, dx=2.0 ** -5)
    assert draws[2] != draws[3]


@pytest.mark.parametrize("on_grid", [False, True], ids=["step", "grid"])
def test_integrate_general_draw_i_is_stream_i_of_the_transform(on_grid):
    # draw i is sum F dL on stream i with np.sum, bit for bit, so that the
    # bytes of `verify isometry` do not depend on a BLAS dot product
    p = TemperedParams(0.3, 1.0)
    f = ElementaryFunction((0.0, 0.5, 1.5), (1.0, -0.5))
    if on_grid:
        g = SampleGrid(-2.0 - 2.0 * truncation_width(p, 1e-8), 2.0, 2 ** 10)
        f = GridFunction.from_callable(g, f)
    draws, tr = integrate_general(f, p, CP, seed=9, n_draws=5, dx=2.0 ** -6)
    F = tr.transformed.values[:-1]
    for i in range(5):
        dL = sample_increments(CP, tr.transformed.grid, 9, stream=i)
        assert draws[i] == np.sum(F * dL)


def test_approximate_by_elementary_converges(monkeypatch):
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
    # an 8-cell grid is refined 3 times, to a piece per cell, below the
    # level cap; a cap of 3 stops the 2048-cell grid at the same point
    f8 = GridFunction.from_callable(SampleGrid(-32.0, 0.0, 8),
                                    lambda x: np.exp(-x ** 2))
    with pytest.raises(ToleranceError, match=r"in 3 refinements \(8 pieces\)$"):
        approximate_by_elementary(f8, p, tol=1e-12)
    monkeypatch.setattr(integration, "_MAX_LEVELS", 3)
    with pytest.raises(ToleranceError, match=r"in 3 refinements \(8 pieces\)$"):
        approximate_by_elementary(f, p, tol=1e-12)
