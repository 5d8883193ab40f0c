"""Gamma, incomplete gamma, modified Bessel (second kind) and modified
Struve functions, natively in math and numpy, so that importing them
costs no more than numpy.  The incomplete gammas take a series or a
continued fraction point by point (_incomplete), and the upper one on a
long uniform grid sums of cell moments (upper_gamma_on_grid).  e^z K_nu(z)
is the trapezoid rule on DLMF 10.32.9, which converges exponentially
(Trefethen & Weideman, SIAM Review 56(3), 2014), and L_nu(z) its power
series (DLMF 11.2.2).  A slow quadrature form of K_nu is kept in the test
suite as an independent oracle.

Every kernel cell of the path simulator and of the calculus operators comes
from cell_moments, whose docstring states its rule and the digits it loses.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import ParameterError, ToleranceError

__all__ = ["gamma_fn", "lower_gamma", "lower_gamma_at_log", "upper_gamma",
           "upper_gamma_on_grid", "cell_moments", "bessel_k", "bessel_k_scaled",
           "struve_l"]

# Gamma overflows in double precision slightly above this argument.
_GAMMA_OVERFLOW = 171.62
_EPS = 2.0 ** -53
# e^x overflows above this x
_LOG_MAX = 709.78


def gamma_fn(x):
    """Gamma function Gamma(x) for real x.

    Raises ParameterError at zero and negative integers and OverflowError
    when the result is not representable in double precision.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise ParameterError(f"gamma_fn: pole at non-positive integer x={x}")
    if x > _GAMMA_OVERFLOW:
        raise OverflowError(f"gamma_fn: overflow for x={x}")
    return math.gamma(x)


# g(s) = (1/Gamma(1+s) - 1)/s = sum_k c_{k+2} s^k, the c_k of 1/Gamma(z) = sum_k
# c_k z^k (DLMF 5.7.1), highest first: 20 terms reach 2^-53 for |s| <= 1/2
_RGAMMA = (-3.696805618642206e-12, 7.782263439905071e-12, 1.0434267116911005e-10,
           -1.18127457048702e-09, 5.002007644469223e-09, 6.116095104481416e-09,
           -2.056338416977607e-07, 1.133027231981696e-06, -1.2504934821426706e-06,
           -2.013485478078824e-05, 0.0001280502823881162, -0.00021524167411495098,
           -0.0011651675918590652, 0.0072189432466631, -0.009621971527876973,
           -0.04219773455554433, 0.16653861138229148, -0.04200263503409524,
           -0.6558780715202539, 0.5772156649015329)


def _incomplete(s, x, upper):
    """Lower (s > 0) or upper incomplete gamma at one x >= 0: the series x^s
    e^{-x} sum_k x^k / (s (s+1) ... (s+k)) (DLMF 8.7.1) below x = s + 1 and
    the even part of Legendre's continued fraction (DLMF 8.9.2) by modified
    Lentz above it (above x = 1 for s <= 0), each the other's complement in
    Gamma(s).  The upper one for |s| <= 1/2 below x = 1 + max(s, 0) is
    -Gamma(1+s) g(s) - (x^s - 1)/s + x^s sum_{k>=1} (-1)^{k+1} x^k / (k! (s+k)),
    which does not cancel near s = 0 (E_1's series at s = 0, DLMF 6.6.2), and
    for s < -1/2 below x = 1 Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s."""
    if x == 0.0:
        return math.gamma(s) if upper else 0.0
    if upper and abs(s) <= 0.5 and x < 1.0 + max(s, 0.0):
        g, log_x = 0.0, math.log(x)
        for c in _RGAMMA:
            g = g * s + c
        head = -math.gamma(1.0 + s) * g - (math.expm1(s * log_x) / s if s else log_x)
        term, total, k = 1.0, 0.0, 0.0
        while k == 0.0 or abs(term) > _EPS * abs(total):
            k += 1.0
            term *= -x / k
            total -= term / (s + k)
        return head + math.exp(s * log_x) * total
    if s < 0.0 and x < 1.0:
        return (_incomplete(s + 1.0, x, True) - math.exp(s * math.log(x) - x)) / s
    scale = math.exp(s * math.log(x) - x)
    if x < s + 1.0:
        term = total = 1.0 / s
        k = s
        while term > _EPS * total:
            k += 1.0
            term *= x / k
            total += term
        return math.gamma(s) - scale * total if upper else scale * total
    b = x + 1.0 - s     # b_i = b_0 + 2i, a_i = i (s - i)
    c, d, i = 1e300, 1.0 / b, 0
    frac = d
    while i == 0 or abs(c * d - 1.0) > _EPS:
        i += 1
        b += 2.0
        d = 1.0 / (i * (s - i) * d + b)
        c = b + i * (s - i) / c
        frac *= c * d
    return scale * frac if upper else math.gamma(s) - scale * frac


def _pointwise(f, x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return f(float(x))
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


def lower_gamma(s, x):
    """Lower incomplete gamma, s > 0, x >= 0."""
    return _pointwise(lambda v: _incomplete(s, v, False), x)


def lower_gamma_at_log(s, log_x):
    """lower_gamma(s, e^{log_x}) for a scalar s > 0, also where e^{log_x}
    underflows: below log_x = -40 it is x^s/s, the first term of
    x^s e^{-x} M(1, 1+s, x)/s (DLMF 8.5.1), whose factor e^{-x} M is then 1
    to rounding."""
    if log_x < -40.0:
        return math.exp(s * log_x) / s
    return _incomplete(s, math.exp(log_x), False)


def upper_gamma(s, x):
    """Upper incomplete gamma for x > 0 and s > -2."""
    return _pointwise(lambda v: _incomplete(s, v, True), x)


# terms J of the cell_moments series
_SERIES_TERMS = 16


def _binomials(a, k):
    """C(a, j) = a (a-1) ... (a-j+1) / j! for j = 0..k-1, a real."""
    out = [1.0]
    for j in range(1, k):
        out.append(out[-1] * (a - j + 1) / j)
    return np.array(out)


def _series_bound(a, p):
    """Bound on the relative truncation error of cell_moments at cell p >= 1.

    Cell p is dx u_p^a e^{-lam u_p} int_0^1 v^theta (1 + t)^a e^{-h v} dv,
    t = v/p, h = lam dx.  By Lagrange's remainder the binomial series of
    (1 + t)^a cut after J terms is off by C(a, J) t^J (1 + xi)^{a-J},
    0 < xi < t <= 1/p, while (1 + t)^a >= (1 + 1/p)^{min(a, 0)}; the
    weight v^theta e^{-h v} is positive, so the integral's relative error
    is at most |C(a, J)| p^{-J} (1 + 1/p)^{max(a-J, 0) + max(-a, 0)}.
    """
    J = _SERIES_TERMS
    c = abs(_binomials(a, J + 1)[J])
    return c * p ** -float(J) * (1.0 + 1.0 / p) ** (max(a - J, 0.0) + max(-a, 0.0))


@lru_cache(maxsize=128)
def series_start(a):
    """First cell P >= 2 from which _series_bound(a, p) <= 2^-53 for all
    p >= P (the bound decreases in p).  P is at most 12 for |a| <= 2 (2 for
    the integers 0..15, where the series ends) and grows about like 1.4 |a|
    beyond: 118 at a = 85."""
    c = abs(_binomials(a, _SERIES_TERMS + 1)[_SERIES_TERMS])
    p = max(2, int((c * 2.0 ** 53) ** (1.0 / _SERIES_TERMS)))
    while _series_bound(a, p) > 2.0 ** -53:
        p += 1
    return p


def _unit_moments(h, k):
    """q_j = int_0^1 v^j e^{-h v} dv for j = 0..k-1: lower_gamma(j+1, h) /
    h^{j+1} for h >= 1; below, e^{-h} sum_i h^i / ((j+1) ... (j+i+1)) (DLMF
    8.7.1), whose positive terms fall below h^i / (i+1)!, to i = 23."""
    j = np.arange(k)
    if h >= 1.0:
        return np.array([_incomplete(i + 1.0, h, False) for i in range(k)]) \
            * np.power(1.0 / h, j + 1.0)
    ratios = np.empty((k, 24))
    ratios[:, 0] = 1.0 / (j + 1.0)
    ratios[:, 1:] = h / (j[:, None] + np.arange(2.0, 25.0))
    return math.exp(-h) * np.cumprod(ratios, axis=1).sum(axis=1)


@lru_cache(maxsize=256)
def _near_cells(b, lam, dx, p0, p1, shift):
    """int_{q dx}^{(q+1) dx} u^b e^{-lam u} du, q = p + shift, p = p0..p1-1, by the
    near-cell rule of cell_moments; read-only, as the cache hands it to all callers."""
    s, h = b + 1.0, lam * dx
    x = (lam * (dx * (np.arange(p0, p1 + 1) + float(shift)))).tolist()
    lo = [_incomplete(s, v, False) if s > 0.0 else math.inf for v in x]
    # cells below s - 1/3, under the median of the Gamma(s) law, take the growing
    # form without Gamma(s, .), whose Gamma(s) overflows past s = 171.6
    up = [_incomplete(s, v, True) if v > 0.0 and v + h > s - 1.0 / 3.0 else math.inf
          for v in x]
    out = lam ** -s * np.array([lo[i + 1] - lo[i] if lo[i + 1] < up[i] else up[i] - up[i + 1]
                                for i in range(p1 - p0)])
    out.setflags(write=False)
    return out


def cell_moments(a, lam, dx, p0, p1, theta=0, shift=0.0):
    """int_{q dx}^{(q+1) dx} u^a e^{-lam u} ((u - q dx)/dx)^theta du for the
    cells q = p + shift, p = p0..p1-1 (p0 + shift >= 0, theta 0 or 1, and a +
    1 + theta > 0 if q = 0 is among them).

    From p = P = series_start(a) on, with u = (q + v) dx and h = lam dx,
    cell q is dx u_q^a e^{-lam u_q} sum_{j<J} C(a, j) q_{j+theta} q^{-j},
    q_j = int_0^1 v^j e^{-h v} dv: the binomial series of (1 + v/q)^a, J =
    16 terms, truncated below 2^-53 relative (_series_bound), with nothing
    to cancel: a few units of 2^-53 times |a| (1 + |log u|) + lam u + J.
    Where u^a e^{-lam u} leaves double range, ToleranceError is raised.

    The near cells p < P (at most 12 for |a| <= 2): M(b) = int_cell u^b
    e^{-lam u} du is lam^{-b-1} times a difference of incomplete gammas of
    s = b + 1 at the cell's edges x0 < x1 of lam u, which loses the digits
    of its larger term over the cell.  So it is the growing gamma_lower(s,
    x1) - gamma_lower(s, x0) where gamma_lower(s, x1) < Gamma(s, x0), else
    the decaying Gamma(s, x0) - Gamma(s, x1); that ratio stays below 2 P
    (searched over s from -0.8 to 86, lam dx from 2^-16 to 2) but near s =
    0, where the decaying form holds a log (8 P at lam dx = 2^-16).  theta
    = 1 is M(a+1)/dx - q M(a), which loses log10(1 + 4 q) digits more.  (At
    every cell such differences would lose about log10(1/(lam dx)) digits.)
    """
    J = _SERIES_TERMS
    P = min(max(series_start(a), p0), p1)
    c = _binomials(a, J) * _unit_moments(lam * dx, J + theta)[theta:]
    p = np.arange(P, p1) + float(shift)
    y = 1.0 / p
    s = np.full_like(y, c[-1])
    for cj in c[-2::-1]:      # Horner in place: np.polyval's operations
        s *= y
        s += cj
    u = dx * p
    log_w = a * np.log(u) - lam * u
    if log_w.size and log_w.max() > _LOG_MAX:
        at = u[np.argmax(log_w)]
        raise ToleranceError(f"cell moments: u^{a:g} e^(-{lam:g} u) at u = {at:g} "
                             "overflows double range")
    s *= dx * np.exp(log_w)
    if P == p0:
        return s
    near = _near_cells(a + theta, lam, dx, p0, P, shift) / dx ** theta
    if theta:   # M(a) from the first cell q > 0 on
        q = np.arange(p0 + (p0 + shift == 0), P) + float(shift)
        near[len(near) - len(q):] -= q * _near_cells(a, lam, dx, P - len(q), P, shift)
    return np.concatenate((near, s))


# edges per block of upper_gamma_on_grid
_BLOCK = 1024


def upper_gamma_on_grid(s, lam, dx, offset, n):
    """upper_gamma(s, lam u_q) at u_q = (q + theta) dx > 0, q = q0..q0+n-1,
    offset = q0 + theta, 0 <= theta < 1: direct below P = series_start(s-1);
    from P on, the direct value at the next multiple of B = 1024 plus lam^s
    cell_moments(s - 1) of the cells up to it.  Positive terms, and a value
    depends on its q alone, whatever the range asked for."""
    q0 = math.floor(offset)
    theta = offset - q0
    P = min(max(series_start(s - 1.0), q0), q0 + n)
    direct = upper_gamma(s, lam * dx * (np.arange(q0, P) + theta))
    if P == q0 + n:
        return direct
    B = _BLOCK
    b0, b1 = P // B, (q0 + n - 1) // B + 1          # blocks b0..b1-1 hold edges P..
    cells = np.zeros((b1 - b0) * B)
    cells[P - b0 * B:] = lam ** s * cell_moments(s - 1.0, lam, dx, P, b1 * B, shift=theta)
    sums = np.cumsum(cells.reshape(-1, B)[:, ::-1], axis=1)[:, ::-1]
    anchors = upper_gamma(s, lam * dx * (B * np.arange(b0 + 1, b1 + 1) + theta))
    return np.concatenate((direct, (anchors[:, None] + sums).ravel()[P - b0 * B:q0 + n - b0 * B]))


@lru_cache(maxsize=128)
def _k_nodes(orders, h, n):
    """v t_k, cosh t_k - 1 and per order the weights h cosh(nu t_k) e^{-v t_k}
    (halved at t = 0) at t_k = k h, k < n, v = max(orders); read-only, as
    the cache hands them to every caller."""
    t = h * np.arange(n)
    v = max(orders)
    nu = np.array(orders)[:, None]
    w = 0.5 * h * (np.exp((nu - v) * t) + np.exp(-(nu + v) * t))
    w[:, 0] *= 0.5
    out = v * t, 2.0 * np.sinh(0.5 * t) ** 2, w[:, None, :]
    for a in out:
        a.setflags(write=False)
    return out


def _k_step(v, z):
    """0.7/sqrt(8.2 + 1.5 v + max(z, 16)) rounded down to a power of sqrt(2),
    so that the points of a call mostly share it."""
    return 2.0 ** (math.floor(2.0 * math.log2(0.7 / math.sqrt(8.2 + 1.5 * v + max(z, 16.0))))
                   / 2.0)


def _k_rows(orders, z, scaled):
    """e^z K_nu(z), or K_nu(z), one row per order (|nu|, largest v), at the
    points z > 0 (1-D): the trapezoid rule on int_0^inf e^{v t - z (cosh t -
    1)} [cosh(nu t) e^{-v t}] dt.  With the step of _k_step its error, about
    the integral along Im t = a times e^{-2 pi a/h}, is below 2^-55 relative
    (searched over v up to 86 and z from 1e-6 to 1e4; the step falls like
    z^{-1/2} beyond).  Each point sums its nodes from t = 0 until its terms
    underflow to 0, where z (cosh t - 1) >= 746 + v t, in numpy's pairwise
    order over a multiple of 8 nodes up to 128, or a power of two beyond:
    the zeros past its last term leave the bits alone, so a value does not
    depend on the other points in the call.  Points of different steps, or
    so spread that the smallest z takes over 128 nodes, are split.  Where
    the integrand's peak, below e^{v asinh(v/z)}, passes e^700, the point's
    terms are scaled by its inverse, so nothing overflows before the result.
    Where the reach T of the smallest z leaves double range (746/z or v/z
    does, below z of about 2e-306), ToleranceError is raised."""
    v = max(orders)
    z_lo, z_hi = (float(z[0]),) * 2 if len(z) == 1 else (float(z.min()), float(z.max()))
    if not z_lo > 0.0:
        raise ValueError("bessel_k: requires z > 0")
    h = _k_step(v, z_hi)
    T = math.asinh(v / z_lo) + 1.0
    for _ in range(4):
        T = 2.0 * math.asinh(math.sqrt((746.0 + v * T) / (2.0 * z_lo)))
    if T == math.inf:
        raise ToleranceError(f"bessel_k: the trapezoid step count at z = {z_lo:g} "
                             "is out of double range")
    n = math.ceil(T / h) + 1
    n = -(-n // 8) * 8 if n <= 128 else 1 << (n - 1).bit_length()
    if _k_step(v, z_lo) != h or (n > 128 and z_hi > 2.0 * z_lo):
        low = z < (0.7 / h) ** 2 / 2.0 - 8.2 - 1.5 * v    # coarser steps
        if low.all() or not low.any():
            low = z <= math.sqrt(z_lo * z_hi)
        out = np.empty((len(orders), len(z)))
        out[:, low] = _k_rows(orders, z[low], scaled)
        out[:, ~low] = _k_rows(orders, z[~low], scaled)
        return out
    vt, q, w = _k_nodes(orders, h, n)
    exponent = vt - np.multiply.outer(z, q)
    shift = 0.0
    if v * math.asinh(v / z_lo) > 700.0:
        shift = v * np.arcsinh(v / z)
        shift[shift <= 700.0] = 0.0
        exponent -= shift[:, None]
    elif scaled:
        return (w * np.exp(exponent)).sum(axis=-1)
    total = (w * np.exp(exponent)).sum(axis=-1)
    # the scale in two halves, so that it overflows only where the result does
    with np.errstate(over="ignore"):
        half = np.exp(0.5 * (shift if scaled else shift - z))
        return total * half * half


def _bessel_k(nu, z, scaled):
    z = np.asarray(z, dtype=float)
    single = np.ndim(nu) == 0
    orders = (abs(float(nu)),) if single else tuple(abs(float(x)) for x in nu)
    out = _k_rows(orders, z.ravel(), scaled)
    if z.ndim == 0:
        return float(out[0, 0]) if single else out[:, 0]
    out = out.reshape((len(orders),) + z.shape)
    return out[0] if single else out


def bessel_k(nu, z):
    """Modified Bessel function of the second kind K_nu(z), z > 0, for an
    order nu or a sequence of orders (one row each).  Symmetric in nu
    (K_{-nu} = K_nu); accurate to ~1e-14 relative for z in [1e-6, 700] and
    |nu| <= 41."""
    return _bessel_k(nu, z, False)


def bessel_k_scaled(nu, z):
    """e^z K_nu(z), z > 0, as bessel_k, without the underflow of K_nu itself
    at large z; the far-lag rule of the noise autocovariances uses it."""
    return _bessel_k(nu, z, True)


def struve_l(nu, z):
    """Modified Struve function L_nu(z), z >= 0, nu + 3/2 not a pole of
    Gamma, by its series (z/2)^{nu+1} sum_k (z/2)^{2k} / (Gamma(k + 3/2)
    Gamma(k + nu + 3/2)) (DLMF 11.2.2), whose terms share one sign past the
    first; the library takes it below z = 40 + 2 nu."""
    c = 1.0 / (0.5 * math.sqrt(math.pi) * math.gamma(nu + 1.5))

    def one(x):
        term = total = c
        k = 0.5
        while k < 1.0 or abs(term) > _EPS * abs(total):
            k += 1.0
            term *= 0.25 * x * x / (k * (k + nu))
            total += term
        return (0.5 * x) ** (nu + 1.0) * total
    return _pointwise(one, z)
