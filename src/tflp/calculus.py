"""Tempered fractional integrals, derivatives, Fourier multipliers and
the tempered Sobolev norm, acting on functions sampled on uniform grids.

The integral I^{kappa,lambda}_- convolves f with the one-sided kernel
u_+^{kappa-1} e^{-lambda u} / Gamma(kappa); the derivative
D^{kappa,lambda}_- (0 < kappa < 1) is evaluated in Marchaud form
lambda^kappa f(y) + (kappa/Gamma(1-kappa)) int_0^inf (f(y) - f(y+u))
u^{-kappa-1} e^{-lambda u} du.  Both are discretized by product
integration: within every cell the power-law factor is integrated
exactly against a linear interpolant of f, which keeps accuracy at the
integrable kernel singularity.  The kernel's cell moments, int k and
int theta k over [p dx, (p+1) dx] with theta = u/dx - p, come from
special.cell_moments, a series in 1/p with nothing to cancel, from the
cell series_start on (at most 12 cells for kappa < 3); the cells
before are differences of incomplete gammas at their edges.  The
Marchaud tail masses int_{p dx}^inf are suffix sums of the cell moments.
Differencing incomplete gammas at every edge instead would lose about
log10(1/(lam dx)) digits.

Conventions (documented contracts):
  * the integral operators treat f as zero outside its grid;
  * the Marchaud derivative extends f by its right edge value, so that
    D of a constant is exactly lambda^kappa * const;
  * the Fourier multiplier (lambda +- i omega)^kappa uses the principal
    branch; with lambda > 0 the argument stays in (-pi/2, pi/2).  The
    '-' sign corresponds to D_- (kappa = 1 gives lambda f - f').

Tolerance curve: for a smooth integrand of unit scale, compactly
supported well inside the grid, the Marchaud product-integration
derivative and the Fourier multiplier agree in the grid L2 norm within
dx^(2 - kappa); the product-integration error is second order away from
the kernel singularity and order 2 - kappa at it, while the multiplier
is spectrally accurate, so the gap tracks the Marchaud error.
"""

import numpy as np
from numpy.fft import irfft, rfft
from scipy import special as _sp

from .errors import ToleranceError
from .grids import GridFunction, next_fast_len
from .special import cell_moments, lower_gamma, series_start, upper_gamma

__all__ = [
    "frac_integral_minus", "frac_integral_plus",
    "frac_derivative_minus", "frac_derivative_plus",
    "fourier_multiplier", "sobolev_norm",
]


_TOL = 1e-6  # largest kernel mass e^{-lambda w/2} lost past the grid edge


def _check_width(f, lam):
    width = f.grid.x_max - f.grid.x_min
    if np.exp(-lam * 0.5 * width) > _TOL:
        raise ToleranceError(
            f"grid half-width {0.5 * width:.3g} too small for lambda={lam}: "
            f"exp(-lambda*w/2)={np.exp(-lam * 0.5 * width):.3g} > tol={_TOL}")


def _reversed(f):
    return GridFunction(f.grid, f.values[::-1].copy())


def _correlate(weights, values, n):
    """out_j = sum_p weights[p] * values[j+p], j = 0..n, read off the linear
    convolution of weights with the reversed values by numpy.fft.  The FFT
    length (the 5-smooth next_fast_len) and product order are those of
    scipy.signal.fftconvolve(weights, values[::-1]), whose pocketfft gives
    the same bits."""
    nfft = next_fast_len(len(weights) + len(values) - 1)
    conv = irfft(rfft(weights, nfft) * rfft(values[::-1], nfft), nfft)
    return conv[: n + 1][::-1]


def frac_integral_minus(f: GridFunction, kappa: float, lam: float) -> GridFunction:
    """Negative tempered fractional integral I^{kappa,lambda}_- f on f's grid."""
    if kappa <= 0 or lam <= 0:
        raise ValueError("frac_integral_minus: requires kappa > 0 and lambda > 0")
    _check_width(f, lam)
    n = f.grid.n_cells
    dx = f.grid.dx
    # cells [p dx, (p+1) dx], p = 0..n, k = u^{kappa-1} e^{-lam u}/Gamma(kappa):
    # M0 = int k(u) du and B = int theta k(u) du, theta = u/dx - p
    P = min(series_start(kappa - 1.0), n + 1)
    edges = lam * dx * np.arange(P + 1)
    M0 = lam ** -kappa * np.diff(_sp.gammainc(kappa, edges))
    M1 = lam ** -kappa * (kappa / lam) * np.diff(_sp.gammainc(kappa + 1.0, edges))
    B = (M1 - dx * np.arange(P) * M0) / dx
    scale = 1.0 / _sp.gamma(kappa)
    M0 = np.concatenate((M0, scale * cell_moments(kappa - 1.0, lam, dx, P, n + 1)))
    B = np.concatenate((B, scale * cell_moments(kappa - 1.0, lam, dx, P, n + 1, theta=1)))
    # hat-function weights: node p collects the theta part of cell p-1 and
    # the (1-theta) part of cell p
    w = M0 - B
    w[1:] += B[:-1]
    out = _correlate(w, f.values, n)
    return GridFunction(f.grid, out)


def frac_integral_plus(f: GridFunction, kappa: float, lam: float) -> GridFunction:
    """Positive tempered fractional integral; mirror of the negative one."""
    g = frac_integral_minus(_reversed(f), kappa, lam)
    return GridFunction(f.grid, g.values[::-1].copy())


def _marchaud_moments(kappa, lam, dx, n):
    """Moments of u^{-kappa-1} e^{-lam u} over the cells p = 1..n, N0 = int
    and B = int theta, theta = u/dx - p, and the tail masses T0 = int_{p dx}^inf
    at the edges p = 1..n+1.  Cells from series_start(-kappa-1) on take
    cell_moments; the ones before, differences of lam^kappa Gamma(-kappa, x)
    and lam^(kappa-1) Gamma(1-kappa, x) at their edges.  T0 is the suffix sums
    of N0 from the last edge's lam^kappa Gamma(-kappa, x)."""
    P = min(series_start(-kappa - 1.0), n + 1)
    x = lam * dx * np.append(np.arange(1, P + 1), n + 1)     # edges 1..P and n+1
    T0 = lam ** kappa * upper_gamma(-kappa, x)
    N0 = -np.diff(T0[:-1])
    N1 = -lam ** (kappa - 1.0) * np.diff(upper_gamma(1.0 - kappa, x[:-1]))
    B = (N1 - dx * np.arange(1, P) * N0) / dx
    N0 = np.concatenate((N0, cell_moments(-kappa - 1.0, lam, dx, P, n + 1)))
    B = np.concatenate((B, cell_moments(-kappa - 1.0, lam, dx, P, n + 1, theta=1)))
    return N0, B, np.cumsum(np.append(T0[-1], N0[::-1]))[::-1]


def frac_derivative_minus(f: GridFunction, kappa: float, lam: float) -> GridFunction:
    """Negative tempered fractional derivative (Marchaud form), 0 < kappa < 1."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("frac_derivative_minus: requires kappa in (0, 1)")
    if lam <= 0:
        raise ValueError("frac_derivative_minus: requires lambda > 0")
    n = f.grid.n_cells
    dx = f.grid.dx
    vals = f.values
    c = kappa / _sp.gamma(1.0 - kappa)
    # N0, B: cells p = 1..n; T0: edges p = 1..n+1
    N0, B, T0 = _marchaud_moments(kappa, lam, dx, n)
    A = N0 - B
    # first cell: f(y) - f(y+u) ~ -slope*u, int_0^dx u^{-kappa} e^{-lam u} du
    N1_0 = lam ** (kappa - 1.0) * lower_gamma(1.0 - kappa, lam * dx)
    v = np.zeros(n + 1)
    v[1] = N1_0 / dx + A[0]
    v[2:] = B[:-1] + A[1:]
    diag = N1_0 / dx + T0[0]
    conv = _correlate(v, vals, n)
    # constant extension beyond the last node: cells past n - j carry f_n,
    # minus the cell-(n-j) left-node mass A already applied through v
    tail = vals[-1] * (T0[:n][::-1] - A[::-1])                  # j = 0..n-1
    out = np.empty(n + 1)
    out[:n] = lam ** kappa * vals[:n] + c * (vals[:n] * diag - conv[:n] - tail)
    out[n] = lam ** kappa * vals[n]
    return GridFunction(f.grid, out)


def frac_derivative_plus(f: GridFunction, kappa: float, lam: float) -> GridFunction:
    """Positive tempered fractional derivative; mirror of the negative one."""
    g = frac_derivative_minus(_reversed(f), kappa, lam)
    return GridFunction(f.grid, g.values[::-1].copy())


def _padded_fft(f: GridFunction):
    """rfft of f zero-padded to m = 2n points, with its angular frequencies
    omega >= 0 (the other half of the spectrum is the conjugate mirror)."""
    n = f.grid.n_cells + 1
    m = 2 * n
    omega = 2.0 * np.pi * np.fft.rfftfreq(m, d=f.grid.dx)
    return rfft(f.values, m), omega, n, m


def fourier_multiplier(f: GridFunction, kappa: float, lam: float,
                       sign: str = "-") -> GridFunction:
    """Apply the multiplier (lambda +- i omega)^kappa in the Fourier domain.

    sign '-' matches D^{kappa,lambda}_- for 0 < kappa < 1; any kappa > 0
    is accepted (the multiplier definition covers orders where no
    pointwise formula is available).  The grid is zero-padded x2 to
    suppress circular wrap-around.
    """
    if kappa <= 0 or lam <= 0:
        raise ValueError("fourier_multiplier: requires kappa > 0 and lambda > 0")
    if sign not in ("-", "+"):
        raise ValueError("fourier_multiplier: sign must be '-' or '+'")
    fhat, omega, n, m = _padded_fft(f)
    s = -1.0 if sign == "-" else 1.0
    mult = (lam + s * 1j * omega) ** kappa
    out = irfft(fhat * mult, m)[:n]
    return GridFunction(f.grid, out)


def sobolev_norm(f: GridFunction, kappa: float, lam: float) -> float:
    """Tempered Sobolev norm (int (lam^2+omega^2)^kappa |fhat|^2 dw / 2pi)^(1/2).

    Normalized so that kappa -> 0 recovers the plain L2 norm; by
    Parseval it equals the L2 norm of fourier_multiplier(f, kappa, lam).
    """
    if kappa < 0 or lam <= 0:
        raise ValueError("sobolev_norm: requires kappa >= 0 and lambda > 0")
    fhat, omega, _, m = _padded_fft(f)
    power = (lam ** 2 + omega ** 2) ** kappa * np.abs(fhat) ** 2
    # fhat_cont = dx * fft; d omega = 2 pi / (m dx); the bins 0 < omega <
    # pi/dx stand for their negative mirrors too, so they count twice
    val = (2.0 * np.sum(power) - power[0] - power[-1]) * f.grid.dx / m
    return float(np.sqrt(val))
