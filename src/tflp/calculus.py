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
int theta k over [p dx, (p+1) dx] with theta = u/dx - p, all come from
special.cell_moments, whose docstring states their rule and the digits
it loses.  The Marchaud tail masses int_{p dx}^inf are suffix sums of
the cell moments from one upper incomplete gamma at the last edge.

Both operators are one FFT correlation of f with node weights.  None of
the derivative's weights depends on f, so they live in a read-only plan,
cached per (kappa, lambda, dx, n) for the last 4 of them: the rfft of the
node weights, the diagonal mass and the constant-extension masses, about
24 (n + 1) bytes, 1.5 MB on 2^16 points.  A repeated derivative, such as
D f after D(I f) on one grid, then costs one rfft, one product and one
irfft.  The integral, mostly applied once, builds its weights per call.
Every output owns its memory, not a view of the FFT buffer.

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

from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

from .errors import ToleranceError
from .grids import GridFunction, next_fast_len
from .special import cell_moments, gamma_fn, upper_gamma

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


def _spectrum(weights, m):
    """(rfft of weights, nfft) at the length nfft of their linear convolution
    with m values: the 5-smooth next_fast_len, as scipy.signal.fftconvolve
    takes it."""
    nfft = next_fast_len(len(weights) + m - 1)
    return rfft(weights, nfft), nfft


def _correlate(spectrum, values, n):
    """out_j = sum_p weights[p] * values[j+p], j = 0..n, from the weights'
    _spectrum, read off their linear convolution with the reversed values.
    The product keeps the weights as first operand, as
    scipy.signal.fftconvolve(weights, values[::-1]) does, whose pocketfft
    then gives the same bits; the output owns its n + 1 floats."""
    W, nfft = spectrum
    X = rfft(values[::-1], nfft)
    np.multiply(W, X, out=X)
    return irfft(X, nfft)[n::-1].copy()


def frac_integral_minus(f: GridFunction, kappa: float, lam: float) -> GridFunction:
    """Negative tempered fractional integral I^{kappa,lambda}_- f on f's grid."""
    if kappa <= 0 or lam <= 0:
        raise ValueError("frac_integral_minus: requires kappa > 0 and lambda > 0")
    _check_width(f, lam)
    n = f.grid.n_cells
    dx = f.grid.dx
    # cells [p dx, (p+1) dx], p = 0..n, k = u^{kappa-1} e^{-lam u}/Gamma(kappa):
    # M0 = int k(u) du and B = int theta k(u) du, theta = u/dx - p, before
    # 1/Gamma(kappa), as they raise where the kernel leaves double range first
    M0 = cell_moments(kappa - 1.0, lam, dx, 0, n + 1)
    B = cell_moments(kappa - 1.0, lam, dx, 0, n + 1, theta=1)
    # hat-function weights: node p collects the theta part of cell p-1 and
    # the (1-theta) part of cell p
    w = M0 - B
    w[1:] += B[:-1]
    w /= gamma_fn(kappa)
    del M0, B   # freed before the FFT buffers, which set the peak memory
    out = _correlate(_spectrum(w, n + 1), f.values, n)
    return GridFunction(f.grid, out)


def frac_integral_plus(f: GridFunction, kappa: float, lam: float) -> GridFunction:
    """Positive tempered fractional integral; mirror of the negative one."""
    g = frac_integral_minus(_reversed(f), kappa, lam)
    return GridFunction(f.grid, g.values[::-1].copy())


def _marchaud_moments(kappa, lam, dx, n):
    """Moments of u^{-kappa-1} e^{-lam u} over the cells p = 1..n, N0 = int
    and B = int theta, theta = u/dx - p, and the tail masses T0 = int_{p dx}^inf
    at the edges p = 1..n+1: the suffix sums of N0 from the last edge's
    lam^kappa Gamma(-kappa, lam (n+1) dx)."""
    N0 = cell_moments(-kappa - 1.0, lam, dx, 1, n + 1)
    B = cell_moments(-kappa - 1.0, lam, dx, 1, n + 1, theta=1)
    last = lam ** kappa * upper_gamma(-kappa, lam * dx * (n + 1.0))
    return N0, B, np.cumsum(np.append(last, N0[::-1]))[::-1]


@lru_cache(maxsize=4)
def _marchaud_plan(kappa, lam, dx, n):
    """The f-free part of D^{kappa,lam}_- on n cells of width dx: the
    _spectrum of the node weights v, the diagonal mass diag and the
    constant-extension masses rest (j = 0..n-1).  About 24 (n + 1) bytes;
    read-only, as the cache hands them to every caller."""
    # N0, B: cells p = 1..n; T0: edges p = 1..n+1
    N0, B, T0 = _marchaud_moments(kappa, lam, dx, n)
    A = N0 - B
    # first cell: f(y) - f(y+u) ~ -slope*u, int_0^dx u^{-kappa} e^{-lam u} du
    N1_0 = cell_moments(-kappa, lam, dx, 0, 1)[0]
    v = np.zeros(n + 1)
    v[1] = N1_0 / dx + A[0]
    v[2:] = B[:-1] + A[1:]
    spectrum = _spectrum(v, n + 1)
    # constant extension beyond the last node: cells past n - j carry f_n,
    # minus the cell-(n-j) left-node mass A already applied through v
    rest = T0[:n][::-1] - A[::-1]
    spectrum[0].setflags(write=False)
    rest.setflags(write=False)
    return spectrum, N1_0 / dx + T0[0], rest


def frac_derivative_minus(f: GridFunction, kappa: float, lam: float) -> GridFunction:
    """Negative tempered fractional derivative (Marchaud form), 0 < kappa < 1."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("frac_derivative_minus: requires kappa in (0, 1)")
    if lam <= 0:
        raise ValueError("frac_derivative_minus: requires lambda > 0")
    n = f.grid.n_cells
    vals = f.values
    c = kappa / gamma_fn(1.0 - kappa)
    spectrum, diag, rest = _marchaud_plan(float(kappa), float(lam), f.grid.dx, n)
    conv = _correlate(spectrum, vals, n)
    out = np.empty(n + 1)
    out[:n] = lam ** kappa * vals[:n] + c * (vals[:n] * diag - conv[:n] - vals[-1] * rest)
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
    np.multiply(fhat, (lam + s * 1j * omega) ** kappa, out=fhat)
    return GridFunction(f.grid, irfft(fhat, m)[:n].copy())


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
