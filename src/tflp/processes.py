"""Kernels and path simulation for tempered fractional Levy processes.

Two process types are covered, both driven by a mean-zero, finite
variance Levy process L without Gaussian part:

  type I  : S(t) = (1/Gamma(1+d)) int g1(t, x) dL(x),
            g1(t, x) = e^{-lam (t-x)_+} (t-x)_+^d - e^{-lam (-x)_+} (-x)_+^d
  type II : S(t) = (1/Gamma(1+d)) int g2(t, x) dL(x),
            g2(t, x) = g1(t, x) + lam int_0^t e^{-lam (s-x)_+} (s-x)_+^d ds

with d > -1/2 and lam > 0 (0^0 = 0 everywhere).  d = 0 is permitted for
type I (a Levy driven OU process) but rejected for type II.

Paths are generated by Riemann-Stieltjes sums: Levy increments on a
fine grid are convolved with exact cell averages of the kernel window,
so the (t-x)^d curvature or singularity at x = t is integrated in
closed form rather than sampled.  The kernel lives on (-infinity, t];
the domain is truncated on the left where the exponential taper makes
the neglected mass provably small; more than errors.MAX_CELLS fine
cells, or values of an ensemble, raise ToleranceError before any
allocation.

The smooth regime (d > 1/2) is the same sum with another quadrature of
the kernel window: the means of its values at the two cell edges, which
is the trapezoid rule over the inner process Z of simulate_smooth_regime.

The kernel weights are written g_bar[k] = c + r[k].  The constant c is
the kernel's far-lag limit: lam^{-d} Gamma(1+d) for type II, 0 for type
I.  The tempering makes r decay exponentially, so it is convolved only
up to the first lag K beyond which |r| stays below 2^-53 of its peak
(K = n when nothing is cut), and c always enters a path as
c (L(t) - L(0)), a cumulative sum of the window increments.

With n_hist history and n_fine window cells (n = n_hist + n_fine), a
path reads the convolution only at every refine-th index from n_hist - 1
on.  Those lags are computed by one of two routes, chosen per call by
cost:
  * direct sums of K-wide windows of the increments against the reversed
    r (np.einsum, no BLAS), when (lags read + 1) * K is below _FFT_MACS *
    blocks * size log2(size): short windows or short kernels;
  * otherwise an overlap-save FFT over blocks of next_fast_len(size)
    points, size = K + min(n_fine, 3 K): one block, the whole window at
    once, when n_fine <= 3 K, else blocks of about 4 K points.
Either way the reversed r or its spectrum is built once per call and
reused for every path; every path's sums run the same operations, so
ensemble row i equals the single path of stream i bit for bit.

Closed forms used throughout: with w(u) = u_+^d e^{-lam u} and
W(u) = int_0^{u_+} w = lam^{-d-1} gamma_lower(d+1, lam u_+),
g1(t, x) = w(t-x) - w(-x) and g2(t, x) = G2(t-x) - G2(-x) where
G2 = w + lam W.

For -1/2 < d < 0 the continuum paths are a.s. unbounded; the grid
values returned here converge distributionally at fixed grid points as
the refinement grows, not pathwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .driver import LevyDriverSpec, check_seed, sample_increments
from .errors import check_budget
from .grids import SampleGrid, SamplePath, next_fast_len
from .special import cell_moments, gamma_fn, lower_gamma, upper_gamma_on_grid

__all__ = [
    "TemperedParams",
    "kernel_g1", "kernel_g2",
    "simulate_tflp1", "simulate_tflp2", "simulate_smooth_regime",
    "simulate_ensemble", "noise_path",
    "truncation_width",
]

# one FFT pair of a path costs about this many einsum multiply-adds per
# nfft log2(nfft) (numpy.fft against np.einsum, numpy 2.4, 2-core x86 host:
# 1.9-2.9 ns against 0.6-0.9 ns)
_FFT_MACS = 3.0


@dataclass(frozen=True)
class TemperedParams:
    """Memory parameter d and tempering rate lam (units 1/time)."""

    d: float
    lam: float

    def __post_init__(self):
        if not -0.5 < self.d < np.inf:
            raise ValueError("TemperedParams: requires a finite d > -1/2")
        if not 0.0 < self.lam < np.inf:
            raise ValueError("TemperedParams: requires a finite lambda > 0")


def _w(u, d, lam):
    """w(u) = u_+^d e^{-lam u} with the 0^0 = 0 convention."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = u[pos] ** d * np.exp(-lam * u[pos])
    return out


def kernel_g1(params: TemperedParams, t, x):
    """Type I moving average kernel g1(t, x), before the 1/Gamma(1+d) factor."""
    x = np.asarray(x, dtype=float)
    out = _w(float(t) - x, params.d, params.lam) - _w(-x, params.d, params.lam)
    return float(out) if out.ndim == 0 else out


def kernel_g2(params: TemperedParams, t, y):
    """Type II moving average kernel g2(t, y), before the 1/Gamma(1+d) factor.

    Evaluated in the closed form g2 = G2(t-y) - G2(-y),
    G2(u) = u_+^d e^{-lam u} + lam^{-d} gamma_lower(d+1, lam u_+), which
    integrates the definition's lam int_0^t w(s-y) ds term exactly.
    """
    d, lam = params.d, params.lam
    if d == 0.0:
        raise ValueError("kernel_g2: d = 0 is not admitted for the type II kernel")
    y = np.asarray(y, dtype=float)

    def G2(u):
        return _w(u, d, lam) + lam ** -d * lower_gamma(d + 1.0, lam * np.maximum(u, 0.0))

    out = G2(float(t) - y) - G2(-y)
    return float(out) if out.ndim == 0 else out


def truncation_width(params: TemperedParams, tol: float = 1e-10) -> float:
    """Left truncation width R solving e^{-lam R} R^{max(d,0)} <= tol."""
    d, lam = params.d, params.lam
    p = max(d, 0.0)
    R = max(-np.log(tol) / lam, 1.0)
    for _ in range(64):
        R_new = (-np.log(tol) + p * np.log(max(R, 1.0))) / lam
        if abs(R_new - R) < 1e-12 * max(R, 1.0):
            R = R_new
            break
        R = R_new
    return float(max(R, 1.0))


def _cell_averages(kind, d, lam, dx, start, stop, smooth=False):
    """Kernel weights of the cells [p dx, (p+1) dx], p = start..stop-1, as
    (c, r): the window's far-lag limit c and r = weights - c.  The window G
    is w for type I (c = 0) and w + lam W for type II (c = lam^{-d}
    Gamma(1+d)).  The weights are the cell averages of G, or with smooth the
    means (G(p dx) + G((p+1) dx)) / 2 of its edge values.

    Type I cells are special.cell_moments(d) / dx.  Type II has G - c = -d
    lam^{-d} Gamma(d, lam u) (special.upper_gamma_on_grid at the edges), so
    by int_x^{x+h} Gamma(d, t) dt = int_x^{x+h} (v - x) v^{d-1} e^{-v} dv +
    h Gamma(d, x + h) a cell is -d times cell_moments(d - 1, theta=1) plus
    lam^{-d} Gamma(d, .) at its right edge: two positive terms."""
    c = 0.0 if kind == "TFLP1" else lam ** -d * gamma_fn(1.0 + d)
    if smooth:
        G = (_w(dx * np.arange(start, stop + 1), d, lam) if kind == "TFLP1" else
             -d * lam ** -d * upper_gamma_on_grid(d, lam, dx, start, stop - start + 1))
        return c, 0.5 * (G[1:] + G[:-1])
    if kind == "TFLP1":
        return c, cell_moments(d, lam, dx, start, stop) / dx
    return c, -d * (cell_moments(d - 1.0, lam, dx, start, stop, theta=1)
                    + lam ** -d * upper_gamma_on_grid(d, lam, dx, start + 1, stop - start))


def _kernel_cells(kind, params, dt, n, smooth=False):
    """(c, r[:K]) of _cell_averages over the first n cells, cut at the first
    lag K beyond which |r| stays below 2^-53 of its peak.  Past the
    truncation width R(tol), |r(u)| <= u^max(d,0) e^{-lam u} <= tol (type
    II: |d| lam^{-d} Gamma(d, lam u) is below w(u) there).  So the cells up
    to R(2^-53 peak) hold every lag above the threshold, and the peak lies
    well inside R(2^-53), where the first pass stops."""
    d, lam = params.d, params.lam

    def reach(peak):
        return min(n, int(np.ceil(truncation_width(params, 2.0 ** -53 * peak) / dt)))

    c, r = _cell_averages(kind, d, lam, dt, 0, reach(1.0), smooth)
    peak = np.max(np.abs(r))
    stop = reach(peak)
    if stop > len(r):
        r = np.concatenate((r, _cell_averages(kind, d, lam, dt, len(r), stop, smooth)[1]))
    K = np.flatnonzero(np.abs(r) >= 2.0 ** -53 * peak)[-1] + 1
    return c, r[:K]


def _prepare(kind, params, grid, trunc_width, refine):
    if kind not in ("TFLP1", "TFLP2"):
        raise ValueError("simulate: kind must be TFLP1 or TFLP2")
    if kind == "TFLP2" and params.d == 0.0:
        raise ValueError("simulate_tflp2: d = 0 is not admitted for type II")
    if grid.x_min != 0.0:
        raise ValueError("simulate: observation grid must start at t = 0")
    if refine < 1:
        raise ValueError("simulate: refine must be >= 1")
    if trunc_width < 0:
        raise ValueError("simulate: trunc_width must be >= 0 (0 picks it from the tempering)")
    R = trunc_width if trunc_width > 0 else truncation_width(params)
    dt = grid.dx / refine
    n_hist = int(np.ceil(R / dt))
    n_fine = grid.n_cells * refine
    check_budget(n_hist + n_fine, f"simulate: fine cells for truncation width "
                                  f"{R:.4g} and cell width {dt:.4g}")
    fine = SampleGrid(-n_hist * dt, grid.x_max, n_hist + n_fine)
    return R, dt, n_hist, n_fine, fine


def _lag_reader(r, n, n_hist, step):
    """dL -> conv[m] = sum_k r[k] dL[m-k] (dL of length n, k < K = len(r))
    at the indices the simulator reads, m = n_hist - 1, n_hist - 1 + step,
    ..., n - 1.  Only dL[n_hist - K:] enters.  Direct sums over its K-wide
    windows when they cost less than the overlap-save FFT; otherwise blocks
    of nfft points that step by nfft - K + 1, each giving the lags from its
    K-th point on."""
    K, n_fine = len(r), n - n_hist
    size = K + min(n_fine, 3 * K)
    nfft = next_fast_len(size)
    hop = nfft - K + 1
    blocks = -(-(n_fine + 1) // hop)
    direct = (n_fine // step + 2) * K < _FFT_MACS * blocks * size * np.log2(size)
    # each path's dL[n_hist - K:] is copied into one buffer (behind zeros
    # when K > n_hist, ahead of zeros that fill the last block), whose
    # windows are views taken once
    lead = max(K - n_hist, 0)
    buf = np.zeros(K + n_fine if direct else (blocks - 1) * hop + nfft)
    windows = np.lib.stride_tricks.sliding_window_view(
        buf, K if direct else nfft)[::step if direct else hop]

    def load(x):
        buf[lead:K + n_fine] = x[n_hist - K + lead:]
        return windows

    if direct:
        rev = r[::-1].copy()
        # einsum's own loop, not BLAS: the sums do not depend on thread counts
        return lambda x: np.einsum("ij,j->i", load(x), rev)
    spectrum = rfft(r, nfft)
    return lambda x: irfft(rfft(load(x), axis=-1) * spectrum, nfft,
                           axis=-1)[:, K - 1:].reshape(-1)[:n_fine + 1:step]


def _simulate_streams(kind, params, grid, driver, trunc_width, seed, refine,
                      streams, smooth=False):
    """Paths of the given RNG streams, one row each, from one kernel
    spectrum; returns the (len(streams), n_points) array and the
    truncation width.  smooth selects the edge-mean kernel weights.  The
    seed and the size of that array are checked before any work."""
    check_seed(seed)
    check_budget(len(streams) * (grid.n_cells + 1), "simulate: path values")
    R, dt, n_hist, n_fine, fine = _prepare(kind, params, grid, trunc_width, refine)
    n = n_hist + n_fine
    # r is a temporary: only its spectrum or reversed copy stays
    c, r = _kernel_cells(kind, params, dt, n, smooth)
    read = _lag_reader(r, n, n_hist, refine)
    out = np.empty((len(streams), grid.n_cells + 1))
    for row, stream in zip(out, streams):
        dL = sample_increments(driver, fine, seed, stream=stream)
        # conv[m] + c sum_{j<=m} dL[j] ~ int G(edge_{m+1} - x) dL(x); the
        # kernel is G(t-x) - G(-x), so S(t) is a difference of two lags
        # plus c (L(t) - L(0))
        conv = read(dL)
        row[:] = conv - conv[0]
        if c:
            row[1:] += c * np.cumsum(dL[n_hist:])[refine - 1::refine]
    out /= gamma_fn(1.0 + params.d)
    out[:, 0] = 0.0
    return out, R


def _path(kind, params, grid, driver, trunc_width, seed, refine, stream, smooth=False):
    values, R = _simulate_streams(kind, params, grid, driver, trunc_width, seed,
                                  refine, [stream], smooth)
    meta = {"kind": kind, "d": params.d, "lam": params.lam, "seed": seed,
            "stream": stream, "refine": refine, "trunc_width": R,
            "driver": repr(driver)}
    if smooth:
        meta["representation"] = "smooth_regime"
    return SamplePath(grid, values[0], kind, meta)


def simulate_tflp1(params: TemperedParams, obs_grid: SampleGrid,
                   driver: LevyDriverSpec, trunc_width: float = 0.0,
                   seed: int = 0, refine: int = 8, stream: int = 0) -> SamplePath:
    """Simulate a type I path on the observation grid (obs_grid.x_min must be 0).

    trunc_width = 0 auto-selects the left truncation from the tempering
    rate; path generation is a pure function of (params, grid, driver,
    seed, stream).
    """
    return _path("TFLP1", params, obs_grid, driver, trunc_width, seed, refine, stream)


def simulate_tflp2(params: TemperedParams, obs_grid: SampleGrid,
                   driver: LevyDriverSpec, trunc_width: float = 0.0,
                   seed: int = 0, refine: int = 8, stream: int = 0) -> SamplePath:
    """Simulate a type II path; d must be nonzero.  See simulate_tflp1."""
    return _path("TFLP2", params, obs_grid, driver, trunc_width, seed, refine, stream)


def simulate_smooth_regime(params: TemperedParams, obs_grid: SampleGrid,
                           driver: LevyDriverSpec, trunc_width: float = 0.0,
                           seed: int = 0, kind: str = "TFLP1",
                           refine: int = 8, stream: int = 0) -> SamplePath:
    """Simulate via the absolutely continuous representation, d > 1/2.

    For d > 1/2 both processes are time integrals of a stationary inner
    moving average Z: S(t) = (1/Gamma(1+d)) int_0^t Z(s) ds with inner
    kernel G', G = w for type I and w + lam W for type II.  The trapezoid
    rule for this integral on the fine grid, over the exact cell averages
    of G', telescopes to the direct simulators' convolution with the means
    (G(k dt) + G((k+1) dt)) / 2 of the window's edge values in place of its
    cell averages; with the same seed it agrees pathwise with the direct
    simulators up to O(dt).
    """
    if not params.d > 0.5:
        raise ValueError("simulate_smooth_regime: requires d > 1/2")
    return _path(kind, params, obs_grid, driver, trunc_width, seed, refine, stream,
                 smooth=True)


def simulate_ensemble(kind: str, params: TemperedParams, obs_grid: SampleGrid,
                      driver: LevyDriverSpec, seed: int, n_paths: int,
                      trunc_width: float = 0.0, refine: int = 8) -> np.ndarray:
    """Simulate n_paths independent paths; returns (n_paths, n_points).

    Path i uses RNG stream i of the given seed, so ensembles are
    reproducible, extendable without overlap, and order independent;
    row i equals the single path of stream i bit for bit.
    """
    return _simulate_streams(kind, params, obs_grid, driver, trunc_width, seed,
                             refine, range(n_paths))[0]


def _unit_lag_noise(grid, values, unit_lag):
    """Noise X(t_n) = S(t_n + unit_lag) - S(t_n) along the last axis of
    path values on grid; returns the grid of the t_n and the noise."""
    ratio = unit_lag / grid.dx
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > 1e-9 * max(1.0, ratio):
        raise ValueError("noise: unit_lag must be a multiple of the grid step")
    noise = np.diff(values[..., ::k], axis=-1)
    n = noise.shape[-1]
    if n < 2:
        raise ValueError("noise: need at least two lags on the grid")
    return SampleGrid(grid.x_min, grid.x_min + (n - 1) * unit_lag, n - 1), noise


def noise_path(path: SamplePath, unit_lag: float = 1.0) -> SamplePath:
    """Noise X(n) = S(n + unit_lag) - S(n) read off a simulated path.

    unit_lag must be an integer multiple of the path's grid spacing.
    """
    grid, noise = _unit_lag_noise(path.grid, path.values, unit_lag)
    kind = {"TFLP1": "TFLN1", "TFLP2": "TFLN2"}[path.kind]
    return SamplePath(grid, noise, kind,
                      dict(path.meta, derived="noise", unit_lag=unit_lag))

