"""Process kernels and path simulation."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import fftconvolve

from tflp import processes
from tflp.driver import (CompoundPoisson, TwoPoint, UniformSymmetric,
                         sample_increments, second_moment)
from tflp.errors import ToleranceError
from tflp.grids import SampleGrid
from tflp.incgamma import lower_gamma, upper_gamma
from tflp.processes import (
    TemperedParams, _cell_averages, _w, _w_antideriv, kernel_g1, kernel_g2,
    noise_path, simulate_ensemble, simulate_smooth_regime, simulate_tflp1,
    simulate_tflp2, total_variation, truncation_width,
)
from tflp.special import gamma_fn

CP = CompoundPoisson(intensity=2.0, jump_law=UniformSymmetric(a=1.0))


def kernel_g2_dual(params, t, y):
    """Oracle: the type II kernel in its other displayed form
    d int_0^t (s-y)_+^{d-1} e^{-lam (s-y)_+} ds.

    Integrating d u^{d-1} e^{-lam u} = (w + lam W)' gives
    G2(t-y) - G2(-y) again; here the form is evaluated from the
    incomplete gamma of order d directly so it shares no code with
    kernel_g2.
    """
    d, lam = params.d, params.lam
    if d == 0.0:
        raise ValueError("kernel_g2_dual: d = 0 is not admitted for the type II kernel")
    y = np.asarray(y, dtype=float)
    # int_a^b d u^{d-1} e^{-lam u} du over u = s - y, s in (0, t), u > 0
    lo = lam * np.maximum(-y, 0.0)
    hi = lam * np.maximum(float(t) - y, 0.0)
    if d > 0:
        return d * lam ** (-d) * (lower_gamma(d, hi) - lower_gamma(d, lo))
    # gamma_lower(d, .) differences via the upper function, which extends
    # to negative non-integer order; for d < 0 the form is an improper
    # integral and requires y < 0 or y > t (lo, hi > 0)
    if np.any((lo <= 0) | (hi <= 0)):
        raise ValueError("kernel_g2_dual: d < 0 requires y outside [0, t]")
    return d * lam ** (-d) * (upper_gamma(d, lo) - upper_gamma(d, hi))


def test_params_domain():
    TemperedParams(-0.49, 0.1)
    with pytest.raises(ValueError):
        TemperedParams(-0.5, 1.0)
    with pytest.raises(ValueError):
        TemperedParams(0.3, 0.0)


def test_kernel_g1_piecewise_values():
    p = TemperedParams(0.4, 1.0)
    t = 2.0
    # inside (0, t): only the first tempered power term
    x = 1.5
    assert abs(kernel_g1(p, t, x) - np.exp(-(t - x)) * (t - x) ** 0.4) < 1e-15
    # x > t: kernel vanishes
    assert kernel_g1(p, t, 3.0) == 0.0
    # x < 0: difference of the two terms
    x = -1.0
    ref = np.exp(-(t - x)) * (t - x) ** 0.4 - np.exp(-1.0) * 1.0 ** 0.4
    assert abs(kernel_g1(p, t, x) - ref) < 1e-15


def test_kernel_g1_zero_power_convention():
    # d = 0 uses 0^0 = 0, so the kernel is an indicator-like difference
    p = TemperedParams(0.0, 0.5)
    assert kernel_g1(p, 1.0, 1.0) == 0.0
    assert abs(kernel_g1(p, 1.0, 0.5) - np.exp(-0.25)) < 1e-15


def test_kernel_g2_matches_quadrature_definition():
    # g2(t, y) = g1(t, y) + lam int_0^t w(s - y) ds
    p = TemperedParams(0.3, 0.8)
    t = 1.5
    for y in (-2.0, -0.3, 0.4, 1.2):
        tail, _ = quad(lambda s: np.maximum(s - y, 0.0) ** p.d
                       * np.exp(-p.lam * np.maximum(s - y, 0.0)),
                       max(y, 0.0), t, epsabs=1e-14)
        ref = kernel_g1(p, t, y) + p.lam * tail
        assert abs(kernel_g2(p, t, y) - ref) < 1e-12, y


def test_kernel_g2_dual_form_agreement():
    t = 1.5
    for d in (0.3, 0.8):
        p = TemperedParams(d, 0.8)
        y = np.array([-3.0, -0.5, 0.2, 1.0])
        np.testing.assert_allclose(kernel_g2_dual(p, t, y),
                                   kernel_g2(p, t, y), rtol=1e-8)
    p = TemperedParams(-0.3, 0.8)
    y = np.array([-3.0, -0.5])
    np.testing.assert_allclose(kernel_g2_dual(p, t, y),
                               kernel_g2(p, t, y), rtol=1e-8)


def test_kernel_g2_rejects_d_zero_and_inside_dual():
    p = TemperedParams(0.0, 1.0)
    with pytest.raises(ValueError):
        kernel_g2(p, 1.0, 0.5)
    p = TemperedParams(-0.2, 1.0)
    with pytest.raises(ValueError):
        kernel_g2_dual(p, 1.0, 0.5)


def test_truncation_width_solves_bound():
    for d, lam in ((-0.3, 0.5), (0.4, 0.1), (0.9, 2.0)):
        p = TemperedParams(d, lam)
        for tol in (1e-6, 1e-10):
            R = truncation_width(p, tol)
            assert np.exp(-lam * R) * R ** max(d, 0.0) <= tol * (1 + 1e-9)


def test_paths_start_at_zero_and_are_deterministic():
    p = TemperedParams(0.2, 1.0)
    g = SampleGrid(0.0, 2.0, 32)
    for sim in (simulate_tflp1, simulate_tflp2):
        a = sim(p, g, CP, seed=5)
        b = sim(p, g, CP, seed=5)
        c = sim(p, g, CP, seed=5, stream=1)
        assert a.values[0] == 0.0
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)


def test_zero_intensity_driver_gives_zero_path():
    p = TemperedParams(0.2, 1.0)
    g = SampleGrid(0.0, 2.0, 16)
    quiet = CompoundPoisson(intensity=0.0, jump_law=TwoPoint(c=1.0))
    path = simulate_tflp1(p, g, quiet, seed=1)
    np.testing.assert_array_equal(path.values, 0.0)


def test_stationary_increment_variance():
    # Var(S(t + h) - S(t)) depends on h only; check the MC increments at
    # three origins against each other within sampling error
    p = TemperedParams(0.25, 0.5)
    g = SampleGrid(0.0, 3.0, 12)
    arr = simulate_ensemble("TFLP1", p, g, CP, seed=13, n_paths=2000)
    h = 4  # one time unit
    vs = [arr[:, j + h] - arr[:, j] for j in (0, 4, 8)]
    vars_ = [np.var(v) for v in vs]
    se = max(np.std(v ** 2) / np.sqrt(len(v)) for v in vs)
    assert max(vars_) - min(vars_) < 6.0 * se


def test_smooth_regime_matches_direct_simulation():
    g = SampleGrid(0.0, 2.0, 64)
    p = TemperedParams(0.8, 1.0)
    for kind, sim in (("TFLP1", simulate_tflp1), ("TFLP2", simulate_tflp2)):
        direct = sim(p, g, CP, seed=21, refine=16)
        smooth = simulate_smooth_regime(p, g, CP, seed=21, kind=kind, refine=16)
        scale = max(1.0, np.max(np.abs(direct.values)))
        assert np.max(np.abs(direct.values - smooth.values)) / scale < 5e-3


def test_smooth_regime_requires_smooth_d():
    g = SampleGrid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        simulate_smooth_regime(TemperedParams(0.3, 1.0), g, CP, seed=0)


def test_ensemble_rows_are_single_paths():
    p = TemperedParams(0.2, 1.0)
    g = SampleGrid(0.0, 1.0, 8)
    arr = simulate_ensemble("TFLP2", p, g, CP, seed=9, n_paths=3)
    for i in range(3):
        path = simulate_tflp2(p, g, CP, seed=9, stream=i)
        np.testing.assert_array_equal(arr[i], path.values)


def test_noise_path_reads_unit_lag_differences():
    p = TemperedParams(0.2, 1.0)
    g = SampleGrid(0.0, 16.0, 64)
    path = simulate_tflp1(p, g, CP, seed=2)
    noise = noise_path(path, unit_lag=1.0)
    assert noise.kind == "TFLN1"
    np.testing.assert_array_equal(noise.values,
                                  np.diff(path.values[::4]))
    with pytest.raises(ValueError):
        noise_path(path, unit_lag=0.3)


def test_total_variation():
    assert total_variation(np.array([0.0, 1.0, -1.0, 0.5])) == 4.5


def _reference_path(kind, p, g, driver, seed, stream, refine, smooth=False):
    """One path by the original per-path recipe: fresh increments and
    kernel cell averages, scipy.signal.fftconvolve, then the lag read."""
    dt = g.dx / refine
    n_hist = int(np.ceil(truncation_width(p) / dt))
    n = n_hist + g.n_cells * refine
    dL = sample_increments(driver, SampleGrid(-n_hist * dt, g.x_max, n), seed,
                           stream=stream)
    lags = refine * np.arange(g.n_cells + 1)
    if smooth:
        edges = dt * np.arange(n + 1)
        anti = _w(edges, p.d, p.lam)
        if kind == "TFLP2":
            anti = anti + p.lam * _w_antideriv(edges, p.d, p.lam)
        Z = fftconvolve(dL, np.diff(anti) / dt)[:n][n_hist - 1:]
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (Z[1:] + Z[:-1]) * dt)))
        values = cum[lags] / gamma_fn(1.0 + p.d)
    else:
        conv = fftconvolve(dL, _cell_averages(kind, p.d, p.lam, dt, n))[:n]
        values = (conv[n_hist - 1 + lags] - conv[n_hist - 1]) / gamma_fn(1.0 + p.d)
    values[0] = 0.0
    return values


@pytest.mark.parametrize("d, lam", [(0.7, 0.5), (1.3, 2.0)])
def test_simulators_are_bit_identical_to_reference_recipe(d, lam):
    p = TemperedParams(d, lam)
    g = SampleGrid(0.0, 2.0, 16)
    for kind, sim in (("TFLP1", simulate_tflp1), ("TFLP2", simulate_tflp2)):
        refs = [_reference_path(kind, p, g, CP, 4, i, 4) for i in range(3)]
        np.testing.assert_array_equal(sim(p, g, CP, seed=4, refine=4,
                                          stream=2).values, refs[2])
        np.testing.assert_array_equal(
            simulate_ensemble(kind, p, g, CP, seed=4, n_paths=3, refine=4),
            np.array(refs))
        smooth = simulate_smooth_regime(p, g, CP, seed=4, kind=kind, refine=4,
                                        stream=1)
        np.testing.assert_array_equal(
            smooth.values, _reference_path(kind, p, g, CP, 4, 1, 4, smooth=True))


def test_cell_budget_raises_before_allocating(monkeypatch):
    # about 1.5e3 history cells against a budget of 100
    monkeypatch.setattr(processes, "_MAX_CELLS", 100)
    p = TemperedParams(0.3, 1.0)
    g = SampleGrid(0.0, 1.0, 8)
    with pytest.raises(ToleranceError, match="budget"):
        simulate_tflp1(p, g, CP)
    with pytest.raises(ToleranceError, match="budget"):
        simulate_ensemble("TFLP2", p, g, CP, seed=0, n_paths=2)
    with pytest.raises(ToleranceError, match="budget"):
        simulate_smooth_regime(TemperedParams(0.8, 1.0), g, CP)
