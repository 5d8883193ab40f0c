"""Wiener-type stochastic integration against tempered fractional Levy
processes.

The integral of f against the type II process is realized as an
ordinary integral of a transformed integrand against the driving Levy
noise: int f dS = int F dL, with F depending on the sign of d,

  A1 (type II, d > 0)        : F = I^{d,lam}_- f
  A2 (type II, -1/2 < d < 0) : F = D^{-d,lam}_- f
  A3 (type I,  -1/2 < d < 0) : F = D^{-d,lam}_- f - lam I^{d+1,lam}_- f
  A4 (type I,  0 < d < 1/2)  : F = I^{d,lam}_- f - lam I^{d+1,lam}_- f

The type I combinations are fixed by the kernel identities: applying
them to 1_{[0,t]} reproduces g1(t, .)/Gamma(1+d) exactly, mirroring
I^{d,lam}_- 1_{[0,t]} = g2(t, .)/Gamma(1+d) for the type II process.
(The isometry then reads Var[int f dS] = E[L(1)^2] ||F||^2 in L2.)

This display is the term table returned by _classify, which both
routes sum: elementary (step) integrands jump by jump in closed form,
one incomplete gamma per breakpoint and term, general grid functions
with the tempered calculus operators.  Norms and inner products use
the same left-point Riemann quadrature as the Monte Carlo realization,
so the predicted variance matches the law of the simulated sums exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import frac_derivative_minus, frac_integral_minus
from .driver import LevyDriverSpec, check_seed, sample_increments, second_moment
from .errors import ToleranceError
from .grids import GridFunction, SampleGrid, SamplePath
from .processes import TemperedParams, truncation_width
from .special import gamma_fn, upper_gamma_on_grid

__all__ = [
    "ElementaryFunction", "IntegrandTransform",
    "transform_integrand", "inner_product",
    "integrate_elementary", "integrate_general",
    "approximate_by_elementary",
]


@dataclass(frozen=True)
class ElementaryFunction:
    """Step function sum_i a_i 1_[t_i, t_{i+1}) with t_1 < ... < t_{n+1}."""

    breakpoints: tuple
    coefficients: tuple

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        cf = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coefficients", cf)
        if len(bp) != len(cf) + 1 or len(cf) < 1:
            raise ValueError("ElementaryFunction: n+1 breakpoints for n coefficients")
        if not all(a < b for a, b in zip(bp, bp[1:])):
            raise ValueError("ElementaryFunction: breakpoints must increase strictly")

    @classmethod
    def indicator(cls, t: float) -> "ElementaryFunction":
        """1_{[0,t]}; for t < 0 the convention 1_{[0,t]} = -1_{[t,0]} applies."""
        if t > 0:
            return cls((0.0, t), (1.0,))
        if t < 0:
            return cls((t, 0.0), (-1.0,))
        raise ValueError("indicator: t must be nonzero")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for a, b, c in zip(self.breakpoints, self.breakpoints[1:], self.coefficients):
            out += c * ((x >= a) & (x < b))
        return out


@dataclass
class IntegrandTransform:
    """Transformed integrand F with its regime tag and discrete L2 norm.

    norm uses left-point cell quadrature, matching the Riemann sum that
    realizes the integral, so EL2 * norm**2 is the exact variance of the
    discretized stochastic integral.
    """

    regime: str
    transformed: GridFunction
    norm: float


def _classify(params: TemperedParams, target: str):
    """Regime tag and the terms (coefficient, operator, order) whose sum
    is F: operator "I" is I^{order,lam}_- and "D" is D^{order,lam}_-."""
    d, lam = params.d, params.lam
    if target == "TFLP2":
        if d > 0:
            return "A1", ((1.0, "I", d),)
        if -0.5 < d < 0:
            return "A2", ((1.0, "D", -d),)
        raise ValueError("transform_integrand: type II requires d > 0 or -1/2 < d < 0")
    if target == "TFLP1":
        if -0.5 < d < 0:
            return "A3", ((1.0, "D", -d), (-lam, "I", d + 1.0))
        if 0 < d < 0.5:
            return "A4", ((1.0, "I", d), (-lam, "I", d + 1.0))
        raise ValueError("transform_integrand: type I requires 0 < |d| < 1/2")
    raise ValueError("transform_integrand: target must be TFLP1 or TFLP2")


def _discrete_norm(values, dx):
    return float(np.sqrt(np.sum(values[:-1] ** 2) * dx))


def _step_transform(f: ElementaryFunction, op, kappa, lam, grid: SampleGrid):
    """I^{kappa,lam}_- f or D^{kappa,lam}_- f on the grid points y, jump by
    jump: f = sum_j J_j 1{y < t_j} with J_j = a_{j-1} - a_j (a_{-1} = a_n = 0),
    and, with G the upper incomplete gamma,

      I f(y) = lam^-kappa f(y) - lam^-kappa / Gamma(kappa)
               sum_{t_j > y} J_j G(kappa, lam (t_j - y))
      D f(y) = lam^kappa f(y) + (kappa/Gamma(1-kappa)) lam^kappa
               sum_{t_j > y} J_j G(-kappa, lam (t_j - y))

    (I 1{y < t} = lam^-kappa gamma_lower(kappa, lam (t-y)_+) / Gamma(kappa);
    the Marchaud form of the D operator).  The points y < t sit at t - y =
    (i + theta) dx, i = 0, 1, ..., so each jump's G are
    special.upper_gamma_on_grid.  The f(y) term is one term: per jump it
    would cancel only in rounding below the first breakpoint, swamping the
    small tail."""
    y, dx = grid.points, grid.dx
    a = (0.0, *f.coefficients, 0.0)
    s, c0, c1 = ((kappa, lam ** -kappa, -lam ** -kappa / gamma_fn(kappa)) if op == "I" else
                 (-kappa, lam ** kappa, kappa / gamma_fn(1.0 - kappa) * lam ** kappa))
    tail = np.zeros_like(y)
    for t, J in zip(f.breakpoints, np.subtract(a[:-1], a[1:])):
        k = np.searchsorted(y, t)  # y[:k] < t, the points the jump reaches
        if k:
            tail[:k] += J * upper_gamma_on_grid(s, lam, dx, (t - y[k - 1]) / dx, k)[::-1]
    return c0 * f(y) + c1 * tail


def _default_grid(f: ElementaryFunction, params: TemperedParams,
                  dx: float) -> SampleGrid:
    R = truncation_width(params, 1e-10)
    lo = f.breakpoints[0] - R
    hi = f.breakpoints[-1]
    n = int(np.ceil((hi - lo) / dx))
    return SampleGrid(hi - n * dx, hi, n)


def transform_integrand(f, params: TemperedParams, target: str = "TFLP2",
                        grid: SampleGrid | None = None,
                        dx: float = 2.0 ** -8) -> IntegrandTransform:
    """Map an integrand to the function F with int f dS = int F dL.

    f is an ElementaryFunction (transformed in closed form per jump) or
    a GridFunction (transformed with the grid calculus operators on its
    own grid).  For elementary f, grid defaults to [min break - R, max
    break] at spacing dx, with R the tempering truncation width.
    """
    regime, terms = _classify(params, target)
    lam = params.lam
    if isinstance(f, ElementaryFunction):
        if grid is None:
            grid = _default_grid(f, params, dx)
        F = sum(k * _step_transform(f, op, order, lam, grid)
                for k, op, order in terms)
    elif isinstance(f, GridFunction):
        grid = f.grid
        ops = {"I": frac_integral_minus, "D": frac_derivative_minus}
        F = sum(k * ops[op](f, order, lam).values for k, op, order in terms)
    else:
        raise TypeError("transform_integrand: f must be ElementaryFunction or GridFunction")
    return IntegrandTransform(regime, GridFunction(grid, F), _discrete_norm(F, grid.dx))


def inner_product(f: IntegrandTransform, g: IntegrandTransform) -> float:
    """L2 inner product of two transforms (same regime and grid)."""
    if f.regime != g.regime:
        raise ValueError("inner_product: regime mismatch")
    if f.transformed.grid != g.transformed.grid:
        raise ValueError("inner_product: grid mismatch")
    dx = f.transformed.grid.dx
    return float(np.sum(f.transformed.values[:-1] * g.transformed.values[:-1]) * dx)


def integrate_elementary(f: ElementaryFunction, path: SamplePath) -> float:
    """Riemann-Stieltjes sum sum_i a_i (S(t_{i+1}) - S(t_i)) along a path."""
    t = path.grid.points
    dx = path.grid.dx
    vals = []
    for b in f.breakpoints:
        k = (b - path.grid.x_min) / dx
        j = int(round(k))
        if not 0 <= j <= path.grid.n_cells or abs(k - j) > 1e-9 * max(1.0, abs(k)):
            raise ValueError(f"integrate_elementary: breakpoint {b} off the path grid")
        vals.append(path.values[j])
    return float(sum(a * (vals[i + 1] - vals[i])
                     for i, a in enumerate(f.coefficients)))


def integrate_general(f, params: TemperedParams, driver: LevyDriverSpec,
                      seed: int, n_draws: int, target: str = "TFLP2",
                      grid: SampleGrid | None = None, dx: float = 2.0 ** -8):
    """n_draws Monte Carlo draws of int f dS, each realized as sum F(x_k) dL_k
    with f transformed once; draw i takes its increments from RNG stream i.

    Returns (draws, transform); the transform's EL2 * norm**2 is the
    exact variance of each draw, which is the testable isometry.  The seed
    is checked before f is transformed.
    """
    check_seed(seed)
    tr = transform_integrand(f, params, target, grid=grid, dx=dx)
    g, F = tr.transformed.grid, tr.transformed.values[:-1]
    # np.sum, not F @ dL: a BLAS dot product may sum in another order
    draws = np.array([np.sum(F * sample_increments(driver, g, seed, stream=i))
                      for i in range(n_draws)])
    return draws, tr


_MAX_LEVELS = 12  # dyadic refinements of approximate_by_elementary


def approximate_by_elementary(f: GridFunction, params: TemperedParams,
                              target: str = "TFLP2",
                              tol: float = 1e-3) -> ElementaryFunction:
    """Step approximation of f with transform-space distance below tol.

    Dyadically refines a partition of f's grid, averaging f per piece,
    until ||transform(f) - transform(f_n)|| < tol; raises ToleranceError
    when _MAX_LEVELS = 12 refinements, or one piece per grid cell if that
    comes first, do not reach tol.
    """
    grid = f.grid
    tr_f = transform_integrand(f, params, target)
    levels = min(_MAX_LEVELS, int(grid.n_cells).bit_length() - 1)
    for level in range(levels + 1):
        idx = np.linspace(0, grid.n_cells, 2 ** level + 1).astype(int)
        fn = ElementaryFunction(grid.points[idx], tuple(
            float(np.mean(f.values[a:b])) for a, b in zip(idx, idx[1:])))
        tr_n = transform_integrand(fn, params, target, grid=grid)
        diff = tr_f.transformed.values - tr_n.transformed.values
        if _discrete_norm(diff, grid.dx) < tol:
            return fn
    raise ToleranceError(f"approximate_by_elementary: tol {tol} not reached "
                         f"in {levels} refinements ({2 ** levels} pieces)")
