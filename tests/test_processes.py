"""Process kernels and path simulation."""

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft
from scipy.integrate import quad
from scipy.signal import fftconvolve

from tflp import errors, processes
from tflp.driver import (CompoundPoisson, TwoPoint, UniformSymmetric,
                         sample_increments, second_moment)
from tflp.errors import ToleranceError
from tflp.grids import SampleGrid
from tflp.processes import (
    TemperedParams, _cell_averages, _w, kernel_g1, kernel_g2,
    noise_path, simulate_ensemble, simulate_smooth_regime, simulate_tflp1,
    simulate_tflp2, truncation_width,
)
from tflp.special import gamma_fn, lower_gamma, upper_gamma

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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            TemperedParams(bad, 1.0)
        with pytest.raises(ValueError):
            TemperedParams(0.3, bad)


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


def test_ensemble_rows_are_single_paths(monkeypatch):
    # a kernel longer than the cells, and one cut to a tenth of the window
    for p, g in ((TemperedParams(0.2, 1.0), SampleGrid(0.0, 1.0, 8)),
                 (TemperedParams(-0.3, 2.0), SampleGrid(0.0, 200.0, 200))):
        # direct sums, then the FFT route forced by an FFT cost of 0
        for cost in (np.inf, 0.0):
            monkeypatch.setattr(processes, "_FFT_MACS", cost)
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


def total_variation(values):
    """Discrete total variation sum |x_{k+1} - x_k| of a sampled path, the
    measure criterion 10 compares across grid refinements."""
    return float(np.sum(np.abs(np.diff(np.asarray(values, dtype=float)))))


def test_total_variation():
    assert total_variation(np.array([0.0, 1.0, -1.0, 0.5])) == 4.5


def _full_cells(kind, p, dt, n, smooth=False):
    """(c, r) of the cell averages over all n cells, uncut."""
    return _cell_averages(kind, p.d, p.lam, dt, 0, n, smooth)


def _reference_path(kind, p, g, driver, seed, stream, refine, smooth=False,
                    route="direct", trunc_width=0.0):
    """One path by a written-out recipe: fresh increments, the kernel
    weights c + r over all n cells (cell averages, or edge means with
    smooth), r cut after its last lag above 2^-53 of its peak, then the
    convolution with r at the read lags, plus c times the cumulative window
    increments, by route: "direct" sums over dense K-wide rows of the
    increments (np.einsum), "fft" by overlap-save, one rfft per block of
    about 4 K points, or "full", the scipy.signal.fftconvolve of length
    2n - 1 with the uncut c + r."""
    dt = g.dx / refine
    n_hist = int(np.ceil((trunc_width or truncation_width(p)) / dt))
    n_fine = g.n_cells * refine
    n = n_hist + n_fine
    dL = sample_increments(driver, SampleGrid(-n_hist * dt, g.x_max, n), seed,
                           stream=stream)
    c, r = _full_cells(kind, p, dt, n, smooth)
    if route == "full":
        conv = fftconvolve(dL, c + r)[n_hist - 1 + np.arange(0, n_fine + 1, refine)]
    else:
        K = np.flatnonzero(np.abs(r) >= 2.0 ** -53 * np.max(np.abs(r)))[-1] + 1
        r = r[:K]
        # the increments from index n_hist - K on, zeros before index 0
        x = np.concatenate((np.zeros(max(K - n_hist, 0)), dL[max(n_hist - K, 0):]))
        if route == "direct":
            rows = np.array([x[i:i + K] for i in range(0, n_fine + 1, refine)])
            conv = np.einsum("ij,j->i", rows, r[::-1].copy())
        else:
            nfft = next_fast_len(K + min(n_fine, 3 * K), real=True)
            hop = nfft - K + 1
            x = np.concatenate((x, np.zeros(nfft)))
            spectrum = rfft(r, nfft)
            blocks = [irfft(rfft(x[b:b + nfft]) * spectrum, nfft)[K - 1:]
                      for b in range(0, n_fine + 1, hop)]
            conv = np.concatenate(blocks)[:n_fine + 1:refine]
    if route == "full":
        values = (conv - conv[0]) / gamma_fn(1.0 + p.d)
    else:
        values = conv - conv[0]
        if c:
            values[1:] += c * np.cumsum(dL[n_hist:])[refine - 1::refine]
        values /= gamma_fn(1.0 + p.d)
    values[0] = 0.0
    return values


_RECIPE_CASES = [
    (0.7, 0.5, SampleGrid(0.0, 2.0, 16), 0.0),    # the kernel outlasts the cells
    (1.3, 2.0, SampleGrid(0.0, 2.0, 16), 0.0),
    (0.7, 2.0, SampleGrid(0.0, 2.0, 16), 40.0),   # cut, one FFT block
    (-0.3, 2.0, SampleGrid(0.0, 64.0, 64), 0.0),  # cut, two FFT blocks
]


@pytest.mark.parametrize("d, lam, g, trunc", _RECIPE_CASES,
                         ids=[f"{d}-{lam}" for d, lam, _, _ in _RECIPE_CASES])
def test_simulators_are_bit_identical_to_reference_recipe(d, lam, g, trunc, monkeypatch):
    # an infinite FFT cost forces direct sums, a cost of 0 the FFT
    p = TemperedParams(d, lam)
    for cost, route in ((np.inf, "direct"), (0.0, "fft")):
        monkeypatch.setattr(processes, "_FFT_MACS", cost)
        for kind, sim in (("TFLP1", simulate_tflp1), ("TFLP2", simulate_tflp2)):
            refs = [_reference_path(kind, p, g, CP, 4, i, 4, route=route, trunc_width=trunc)
                    for i in range(3)]
            np.testing.assert_array_equal(sim(p, g, CP, trunc_width=trunc, seed=4,
                                              refine=4, stream=2).values, refs[2])
            np.testing.assert_array_equal(
                simulate_ensemble(kind, p, g, CP, seed=4, n_paths=3,
                                  trunc_width=trunc, refine=4),
                np.array(refs))
            full = _reference_path(kind, p, g, CP, 4, 2, 4, route="full", trunc_width=trunc)
            # the full 2n - 1 convolution differs by rounding only
            assert np.max(np.abs(refs[2] - full)) <= 1e-13 * np.max(np.abs(full))
            if d <= 0.5:
                continue
            smooth = simulate_smooth_regime(p, g, CP, trunc_width=trunc, seed=4,
                                            kind=kind, refine=4, stream=1)
            ref = _reference_path(kind, p, g, CP, 4, 1, 4, smooth=True,
                                  route=route,
                                  trunc_width=trunc)
            np.testing.assert_array_equal(smooth.values, ref)
            full = _reference_path(kind, p, g, CP, 4, 1, 4, smooth=True, route="full",
                                   trunc_width=trunc)
            assert np.max(np.abs(smooth.values - full)) <= 1e-13 * np.max(np.abs(full))


def _inner_cells(kind, p, dt, n):
    """Cell averages of the smooth regime's inner kernel G' over n cells:
    differences of G at the cell edges over dt, G = w for type I and
    w + lam W - c for type II, that from -d lam^{-d} Gamma(d, lam u) where
    lam u >= 1/2."""
    d, lam = p.d, p.lam
    u = dt * np.arange(n + 1)
    if kind == "TFLP1":
        G = _w(u, d, lam)
    else:
        near = _w(u, d, lam) + lam ** -d * (lower_gamma(d + 1.0, lam * u) - gamma_fn(1.0 + d))
        G = np.where(lam * u < 0.5, near, -d * lam ** -d * upper_gamma(d, lam * u))
    return np.diff(G) / dt


def _convolve_oracle(kind, p, g, driver, seed, refine, smooth=False, trunc_width=0.0):
    """S on g from the full np.convolve of the increments with the uncut
    cell averages c + r; with smooth, from the smooth regime's defining
    route: the inner process Z of the cell averages of G', integrated by
    the trapezoid rule on the fine grid."""
    dt = g.dx / refine
    n_hist = int(np.ceil((trunc_width or truncation_width(p)) / dt))
    n = n_hist + g.n_cells * refine
    dL = sample_increments(driver, SampleGrid(-n_hist * dt, g.x_max, n), seed)
    lags = refine * np.arange(g.n_cells + 1)
    if smooth:
        Z = np.convolve(dL, _inner_cells(kind, p, dt, n))[n_hist - 1:n]
        values = np.concatenate(([0.0], np.cumsum(0.5 * (Z[1:] + Z[:-1]) * dt)))[lags]
    else:
        c, r = _full_cells(kind, p, dt, n)
        conv = np.convolve(dL, c + r)
        values = conv[n_hist - 1 + lags] - conv[n_hist - 1]
    return values / gamma_fn(1.0 + p.d)


# fft: overlap-save blocks per path, False (0) for direct sums
_ORACLE_CASES = [
    # kind, d, lam, n_cells, refine, smooth, fft, tmax, trunc_width
    # the kernel outlasts the cells (K = n)
    ("TFLP1", 1 / 6, 0.1, 8, 8, False, False, 2.0, 0.0),  # criterion-05 setting
    ("TFLP2", 0.3, 0.5, 8, 8, False, False, 2.0, 0.0),
    ("TFLP1", -0.3, 1.0, 16, 4, False, False, 2.0, 0.0),
    ("TFLP1", 0.3, 1.0, 512, 4, False, True, 2.0, 0.0),   # many read lags: FFT
    ("TFLP2", -0.3, 2.0, 512, 2, False, True, 2.0, 0.0),  # is cheaper
    ("TFLP1", 0.8, 0.5, 16, 4, True, False, 2.0, 0.0),    # the smooth regime, against
    ("TFLP2", 1.3, 1.0, 64, 2, True, True, 2.0, 0.0),     # the trapezoid rule over its
    ("TFLP1", 0.8, 2.0, 4, 1, True, False, 2.0, 0.0),     # inner process
    # long windows, at least 8 K cells, over a kernel cut at K < n
    ("TFLP1", 0.3, 2.0, 800, 1, False, 4, 200.0, 0.0),
    ("TFLP1", -0.3, 2.0, 200, 4, False, 0, 200.0, 0.0),
    ("TFLP2", 0.3, 2.0, 200, 4, False, 0, 200.0, 60.0),
    ("TFLP2", 0.3, 2.0, 800, 1, False, 4, 200.0, 60.0),
    ("TFLP2", -0.3, 2.0, 800, 1, False, 5, 200.0, 0.0),
    ("TFLP1", 0.8, 2.0, 200, 4, True, 0, 200.0, 0.0),
    ("TFLP2", 1.3, 2.0, 400, 2, True, 4, 200.0, 0.0),
]


@pytest.mark.parametrize("kind, d, lam, n_cells, refine, smooth, fft, tmax, trunc",
                         _ORACLE_CASES,
                         ids=["-".join(map(str, case[:7])) for case in _ORACLE_CASES])
def test_both_routes_match_full_convolution_oracle(kind, d, lam, n_cells, refine, smooth,
                                                   fft, tmax, trunc, monkeypatch):
    shapes = []
    monkeypatch.setattr(processes, "rfft", lambda x, *a, **k:
                        shapes.append(np.shape(x)) or rfft(x, *a, **k))
    p = TemperedParams(d, lam)
    g = SampleGrid(0.0, tmax, n_cells)
    oracle = _convolve_oracle(kind, p, g, CP, 12, refine, smooth, trunc)
    if smooth:
        got = simulate_smooth_regime(p, g, CP, trunc, seed=12, kind=kind, refine=refine)
    else:
        got = (simulate_tflp1 if kind == "TFLP1" else simulate_tflp2)(
            p, g, CP, trunc, seed=12, refine=refine)
    assert np.max(np.abs(got.values - oracle)) <= 1e-13 * np.max(np.abs(oracle))
    dt = g.dx / refine
    n = int(np.ceil((trunc or truncation_width(p)) / dt)) + n_cells * refine
    c, r = _full_cells(kind, p, dt, n, smooth)
    K = np.flatnonzero(np.abs(r) >= 2.0 ** -53 * np.max(np.abs(r)))[-1] + 1
    assert (K < n) == (tmax > 2.0)
    if K < n:
        assert n_cells * refine >= 8 * K
    # one kernel spectrum, then one transform of all blocks of the path
    assert shapes == ([(K,), (fft, shapes[1][1])] if fft else [])


def test_cell_budget_raises_before_allocating(monkeypatch):
    # about 1.5e3 history cells against a budget of 100
    monkeypatch.setattr(errors, "MAX_CELLS", 100)
    p = TemperedParams(0.3, 1.0)
    g = SampleGrid(0.0, 1.0, 8)
    with pytest.raises(ToleranceError, match="budget"):
        simulate_tflp1(p, g, CP)
    with pytest.raises(ToleranceError, match="budget"):
        simulate_ensemble("TFLP2", p, g, CP, seed=0, n_paths=2)
    with pytest.raises(ToleranceError, match="budget"):
        simulate_smooth_regime(TemperedParams(0.8, 1.0), g, CP)


_FAR_LAGS = [0, 1, 2, 3, 5, 8, 9, 10, 11, 13, 16, 20, 25, 28, 32, 40, 50, 64, 100,
             200, 500, 1000, 5000, 20000, 100000]


# kind, d, lam, dx, smooth, rtol, bound on |error| over the peak of |r|
_FAR_CASES = [
    ("TFLP2", 0.35, 0.05, 1.0, False, 1e-14, 5e-15),  # the long_path TFLN2 setting
    ("TFLP2", -0.3, 0.05, 1.0, False, 4e-14, 5e-15),
    ("TFLP2", 0.8, 0.5, 0.125, False, 4e-14, 5e-15),
    ("TFLP1", 0.35, 0.05, 1.0, False, None, 5e-15),
    ("TFLP1", -0.3, 0.5, 0.125, False, None, 5e-15),
    ("TFLP1", 0.8, 0.5, 0.125, True, None, 5e-15),
    ("TFLP2", 1.3, 0.05, 1.0, True, None, 5e-15),
    ("TFLP1", 0.2, 0.3, 2.0 ** -10, False, None, 5e-15),
    ("TFLP2", 1.3, 0.05, 2.0 ** -9, False, None, 5e-15),
    ("TFLP2", 0.01, 0.05, 1.0, False, None, 1e-14),
    ("TFLP2", -0.01, 0.05, 1.0, False, None, 1e-14),
]


@pytest.mark.parametrize("kind, d, lam, dx, smooth, rtol, peak", _FAR_CASES,
                         ids=["-".join(map(str, case[:6])) for case in _FAR_CASES])
def test_cell_averages_match_mpmath_at_far_lags(kind, d, lam, dx, smooth, rtol, peak):
    # quadrature of the defining integrands at 30 digits, or with smooth
    # their edge values.  Type II tends to its constant c, which the far lags
    # once reached only through a difference of values that grow with the
    # lag: relative errors of 3e-13 at lag 5000 and 3e-12 at lag 1e5 in the
    # first setting.  Every r stays within 5e-15 of its peak.  Differences
    # of incomplete gammas at the cell edges, good to about 5e-15, lose a
    # factor 1 / (lam dx): the last two settings were 1.4e-11 and 4.3e-12 of
    # the peak off when every cell past lam u = 1/2 took them; the series
    # of cell_moments leaves them only the cells below series_start.  Near
    # d = 0, Gamma(d, x) as Gamma(d) minus the lower gamma, or by the
    # recurrence from Gamma(d+1, x), cancels: d = 0.01 was 1.4e-13 of the
    # peak off, d = -0.01 7.5e-14
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        D, L, X = mpmath.mpf(d), mpmath.mpf(lam), mpmath.mpf(dx)

        def g(u):
            w = u ** D * mpmath.exp(-L * u)
            return w + L ** -D * mpmath.gammainc(D + 1, 0, L * u) if kind == "TFLP2" else w
        if smooth:
            ref = np.array([float((g(k * X) + g((k + 1) * X)) / 2) for k in _FAR_LAGS])
        else:
            ref = np.array([float(mpmath.quad(g, [k * X, (k + 1) * X]) / X)
                            for k in _FAR_LAGS])
    c, r = _cell_averages(kind, d, lam, dx, 0, _FAR_LAGS[-1] + 1, smooth)
    got = c + r[_FAR_LAGS]
    assert np.max(np.abs(got - ref)) <= peak * np.max(np.abs(ref - c))
    if rtol:
        np.testing.assert_allclose(got, ref, rtol=rtol, atol=0)


@pytest.mark.parametrize("kind, smooth", [("TFLP1", False), ("TFLP2", False),
                                          ("TFLP1", True), ("TFLP2", True)])
def test_kernel_cut_keeps_every_lag_above_rounding(kind, smooth):
    # the cut equals the last lag of the uncut averages at or above 2^-53 of
    # their peak, over peaks far above and below 1
    for d, lam, dt in ((0.2, 0.3, 0.25), (-0.3, 2.0, 0.05), (0.8, 0.05, 1.0),
                       (2.2, 0.02, 0.5), (1.3, 3.0, 0.01)):
        if (kind == "TFLP2" and d == 0.0) or (smooth and d <= 0.5):
            continue
        p = TemperedParams(d, lam)
        n = int(80 / (lam * dt))
        c, r = processes._kernel_cells(kind, p, dt, n, smooth)
        c_full, full = _full_cells(kind, p, dt, n, smooth)
        K = np.flatnonzero(np.abs(full) >= 2.0 ** -53 * np.max(np.abs(full)))[-1] + 1
        assert c == c_full and K < n
        np.testing.assert_array_equal(r, full[:K])


def test_smooth_regime_matches_30_digit_trapezoid_oracle():
    # the trapezoid rule over the inner process Z, summed at 30 digits from
    # the same increments: sum_j dL[j] (kappa[m - j] - kappa[m0 - j]) with
    # kappa[k] = (G(k dt) + G((k+1) dt)) / 2.  Nothing is cut here, so the
    # far-lag constant c = lam^{-d} Gamma(1+d), about 1.8e3, enters every
    # weight; folded into r rather than added through the cumulative
    # increments it puts 2.5e-13 of max |S| into this path, against 1.3e-14
    mpmath = pytest.importorskip("mpmath")
    d, lam, refine = 2.2, 0.05, 2
    p = TemperedParams(d, lam)
    g = SampleGrid(0.0, 10.0, 16)
    dt = g.dx / refine
    n_hist = int(np.ceil(truncation_width(p) / dt))
    n = n_hist + g.n_cells * refine
    assert len(processes._kernel_cells("TFLP2", p, dt, n, smooth=True)[1]) == n
    dL = sample_increments(CP, SampleGrid(-n_hist * dt, g.x_max, n), 12)
    jumps = [(j, mpmath.mpf(float(dL[j]))) for j in np.flatnonzero(dL)]
    with mpmath.workdps(30):
        D, L, X = mpmath.mpf(d), mpmath.mpf(lam), mpmath.mpf(dt)
        G = {}

        def kappa(k):
            for i in (k, k + 1):
                if i not in G:
                    G[i] = ((i * X) ** D * mpmath.exp(-L * i * X)
                            + L ** -D * mpmath.gammainc(D + 1, 0, L * i * X))
            return (G[k] + G[k + 1]) / 2

        def conv(m):
            return mpmath.fsum(x * kappa(m - j) for j, x in jumps if j <= m)
        m0 = n_hist - 1
        base = conv(m0)
        ref = np.array([float((conv(m0 + refine * k) - base) / mpmath.gamma(1 + D))
                        for k in range(g.n_cells + 1)])
    got = simulate_smooth_regime(p, g, CP, seed=12, kind="TFLP2", refine=refine).values
    assert np.max(np.abs(got - ref)) <= 4e-14 * np.max(np.abs(ref))
