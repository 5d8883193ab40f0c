"""Tempered fractional integrals, derivatives, Fourier multipliers and
the tempered Sobolev norm, acting on functions sampled on uniform grids.

The integral I^{kappa,lambda}_- convolves f with the one-sided kernel
u_+^{kappa-1} e^{-lambda u} / Gamma(kappa); the derivative
D^{kappa,lambda}_- (0 < kappa < 1) is evaluated in Marchaud form
lambda^kappa f(y) + (kappa/Gamma(1-kappa)) int_0^inf (f(y) - f(y+u))
u^{-kappa-1} e^{-lambda u} du.  Both are discretized by product
integration: within every cell the power-law factor is integrated
exactly against a linear interpolant of f, which keeps accuracy at the
integrable kernel singularity.

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
from scipy import special as _sp
from scipy.fft import irfft, next_fast_len, rfft

from .errors import ToleranceError
from .grids import GridFunction
from .special import lower_gamma, upper_gamma

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
    convolution of weights with the reversed values; the FFT length and
    product order are those of scipy.signal.fftconvolve(weights,
    values[::-1]), and the two agree bit for bit."""
    nfft = next_fast_len(len(weights) + len(values) - 1, real=True)
    conv = irfft(rfft(weights, nfft) * rfft(values[::-1], nfft), nfft)
    return conv[: n + 1][::-1]


def frac_integral_minus(f: GridFunction, kappa: float, lam: float) -> GridFunction:
    """Negative tempered fractional integral I^{kappa,lambda}_- f on f's grid."""
    if kappa <= 0 or lam <= 0:
        raise ValueError("frac_integral_minus: requires kappa > 0 and lambda > 0")
    _check_width(f, lam)
    n = f.grid.n_cells
    dx = f.grid.dx
    # kernel moments over cells [p dx, (p+1) dx]:
    #   M0 = int k(u) du,  M1 = int u k(u) du,  k = u^{kappa-1} e^{-lam u}/Gamma(kappa)
    edges = lam * dx * np.arange(n + 2)
    P0 = _sp.gammainc(kappa, edges)
    P1 = _sp.gammainc(kappa + 1.0, edges)
    M0 = lam ** -kappa * np.diff(P0)                   # cells p = 0..n
    M1 = lam ** -kappa * (kappa / lam) * np.diff(P1)
    up = dx * np.arange(n + 2)
    # hat-function weights: node p collects theta-part of cell p-1 and
    # (1-theta)-part of cell p
    left = (up[1:] * M0 - M1) / dx                     # (1-theta) part of cell p
    right = (M1 - up[:-1] * M0) / dx                   # theta part of cell p
    w = np.zeros(n + 1)
    w[0] = left[0]
    w[1:] = right[:-1]
    w[1:] += left[1:n + 1]
    out = _correlate(w, f.values, n)
    return GridFunction(f.grid, out)


def frac_integral_plus(f: GridFunction, kappa: float, lam: float) -> GridFunction:
    """Positive tempered fractional integral; mirror of the negative one."""
    g = frac_integral_minus(_reversed(f), kappa, lam)
    return GridFunction(f.grid, g.values[::-1].copy())


def _tail_masses(kappa, lam, x):
    """lam^kappa Gamma(-kappa, x) and lam^(kappa-1) Gamma(1-kappa, x) from one
    Gamma(1-kappa, x): the first by the recurrence, in the operations of
    upper_gamma(-kappa, x), so both equal upper_gamma's values bit for bit."""
    G = upper_gamma(1.0 - kappa, x)
    return lam ** kappa * ((G - x ** -kappa * np.exp(-x)) / -kappa), lam ** (kappa - 1.0) * G


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
    edges = lam * dx * np.arange(n + 2)
    # tail masses T_p = int_{p dx}^inf u^{-kappa-1} e^{-lam u} du and the
    # u-weighted analog; cell moments follow by differencing
    T0, T1 = _tail_masses(kappa, lam, edges[1:])                # p = 1..n+1
    N0 = -np.diff(T0)                                           # cells p = 1..n
    N1 = -np.diff(T1)
    up = dx * np.arange(1, n + 1)
    B = (N1 - up * N0) / dx                                     # theta moment, cells 1..n
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
    n = f.grid.n_cells + 1
    m = 2 * n
    vals = np.zeros(m)
    vals[:n] = f.values
    omega = 2.0 * np.pi * np.fft.fftfreq(m, d=f.grid.dx)
    return np.fft.fft(vals), omega, n


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
    fhat, omega, n = _padded_fft(f)
    s = -1.0 if sign == "-" else 1.0
    mult = (lam + s * 1j * omega) ** kappa
    out = np.fft.ifft(fhat * mult).real[:n]
    return GridFunction(f.grid, out)


def sobolev_norm(f: GridFunction, kappa: float, lam: float) -> float:
    """Tempered Sobolev norm (int (lam^2+omega^2)^kappa |fhat|^2 dw / 2pi)^(1/2).

    Normalized so that kappa -> 0 recovers the plain L2 norm; by
    Parseval it equals the L2 norm of fourier_multiplier(f, kappa, lam).
    """
    if kappa < 0 or lam <= 0:
        raise ValueError("sobolev_norm: requires kappa >= 0 and lambda > 0")
    fhat, omega, n = _padded_fft(f)
    m = fhat.size
    weight = (lam ** 2 + omega ** 2) ** kappa
    # fhat_cont = dx * fft; d omega = 2 pi / (m dx)
    val = np.sum(weight * np.abs(fhat) ** 2) * f.grid.dx / m
    return float(np.sqrt(val))
