"""Two-sided driving Levy noise: specification, moments and samplers.

The driver L is a centered, finite-second-moment Levy process with no
Brownian component (the Gaussian variant is flagged as living outside
that condition; it exists only for cross-checks against the Gaussian
theory).  Only increments over grid cells are ever consumed, so the
samplers produce i.i.d. increment arrays directly.

Compound Poisson sampling is by count and scatter: one total jump count
N ~ Poisson(rate n) over the n cells, N cells drawn uniformly, then N jump
sizes, summed per cell.  Given N the cell counts are multinomial, so each
cell's count is Poisson(rate), independently of the others: the law of a
Poisson process binned into cells, at the cost of N draws rather than n.

Tempered stable sampling: for alpha < 1 an increment is the difference
of two tempered stable subordinator increments, each drawn exactly by
acceptance-rejection from a positive stable proposal of scale sigma,
accepted with probability exp(-lambda X).  One such step over dt accepts
with probability exp(-(lambda sigma)^alpha), sigma^alpha =
scale dt Gamma(1-alpha)/alpha, which is hopeless once (lambda
sigma)^alpha is large.  So each cell increment is the sum of m =
max(1, ceil((lambda sigma)^alpha)) i.i.d. increments over dt/m (still
exact: the subordinator is a Levy process), with scale sigma m^(-1/alpha)
and acceptance exp(-(lambda sigma)^alpha / m) >= 1/e; a cell costs at
most e m proposals per subordinator (Hofert, ACM TOMACS 22, 2011).

The proposals are Zolotarev's X = sigma (A(U)/E)^b, b = (1-alpha)/alpha,
A(u) = sin(alpha u)^{alpha/(1-alpha)} sin((1-alpha)u) / sin(u)^{1/(1-alpha)}
increasing on (0, pi), kept where a uniform V < exp(-lambda X).  On the
k-th of 64 buckets of U, lambda X >= C_k E^{-b}, C_k = lambda sigma
A(k pi/64)^b, so where -log V <= C_k E^{-b} the exact test fails too; only
the other proposals (43 % at alpha = 0.7, lambda = dt = 1, where 42.6 % are
kept) take its three sines.  The comparison is in logs, C_k shrunk by
1e-9/alpha and 1e-13 allowed on -log V, margins far above the rounding of
X and of the logs.  So as the draws, their order and the exact test are
those of plain rejection, every increment keeps its bits.

For alpha >= 1 the tilting ratio is unbounded and exact rejection is not
available; increments are generated by compound-Poisson sampling of the
jumps above an adaptive cutoff plus a Gaussian correction matching the
small-jump variance (Asmussen-Rosinski).  The second moment of the
approximation is exact by construction.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, check_budget
from .grids import SampleGrid
from .special import gamma_fn, lower_gamma, upper_gamma as _upper_gamma

__all__ = [
    "JumpLaw", "UniformSymmetric", "GaussianJumps", "TwoPoint",
    "LevyDriverSpec", "CompoundPoisson", "TemperedStable", "GaussianValidation",
    "second_moment", "char_exponent", "sample_increments", "spec_from_config",
]

# the draw budget counts each tempered-stable sub-step as at least this many
# draws, which bounds the time of the sub-step loop on short grids
_MIN_STEP_DRAWS = 4096


# ---------------------------------------------------------------------------
# jump laws for the compound Poisson driver

@dataclass(frozen=True)
class JumpLaw:
    """Base of the jump laws.  A law J provides second_moment(), E[J^2];
    char_fn(theta), E[exp(i theta J)] (real by symmetry); and sample(rng, n),
    n i.i.d. sizes."""


@dataclass(frozen=True)
class UniformSymmetric(JumpLaw):
    a: float

    def __post_init__(self):
        if not 0.0 < self.a < np.inf:
            raise ValueError("UniformSymmetric: requires a finite a > 0")

    def second_moment(self):
        return self.a ** 2 / 3.0

    def char_fn(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.where(theta == 0.0, 1.0,
                        np.sin(self.a * theta) / np.where(theta == 0.0, 1.0, self.a * theta))

    def sample(self, rng, n):
        return rng.uniform(-self.a, self.a, size=n)


@dataclass(frozen=True)
class GaussianJumps(JumpLaw):
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.sigma < np.inf:
            raise ValueError("GaussianJumps: requires a finite sigma > 0")

    def second_moment(self):
        return self.sigma ** 2

    def char_fn(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.exp(-0.5 * (self.sigma * theta) ** 2)

    def sample(self, rng, n):
        return rng.normal(0.0, self.sigma, size=n)


@dataclass(frozen=True)
class TwoPoint(JumpLaw):
    """Jumps of size +-c with equal probability."""

    c: float

    def __post_init__(self):
        if not 0.0 < self.c < np.inf:
            raise ValueError("TwoPoint: requires a finite c > 0")

    def second_moment(self):
        return self.c ** 2

    def char_fn(self, theta):
        return np.cos(self.c * np.asarray(theta, dtype=float))

    def sample(self, rng, n):
        return self.c * (2.0 * rng.integers(0, 2, size=n) - 1.0)


# ---------------------------------------------------------------------------
# driver variants

@dataclass(frozen=True)
class LevyDriverSpec:
    outside_condition_L = False


@dataclass(frozen=True)
class CompoundPoisson(LevyDriverSpec):
    intensity: float
    jump_law: JumpLaw

    def __post_init__(self):
        if not 0.0 <= self.intensity < np.inf:
            raise ValueError("CompoundPoisson: requires a finite intensity >= 0")


@dataclass(frozen=True)
class TemperedStable(LevyDriverSpec):
    """Symmetric tempered stable: Levy density scale*exp(-lambda_noise*|x|)/|x|^(1+alpha)."""

    alpha: float
    lambda_noise: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("TemperedStable: requires 0 < alpha < 2")
        if not 0.0 < self.lambda_noise < np.inf:
            raise ValueError("TemperedStable: requires a finite lambda_noise > 0")
        if not 0.0 < self.scale < np.inf:
            raise ValueError("TemperedStable: requires a finite scale > 0")


@dataclass(frozen=True)
class GaussianValidation(LevyDriverSpec):
    """Brownian driver, outside Condition L; cross-check against TFBM formulas only."""

    sigma: float
    outside_condition_L = True

    def __post_init__(self):
        if not 0.0 < self.sigma < np.inf:
            raise ValueError("GaussianValidation: requires a finite sigma > 0")


# ---------------------------------------------------------------------------
# moments and characteristic exponent

def second_moment(spec) -> float:
    """E[L(1)^2] = int x^2 nu(dx), in closed form per variant."""
    if isinstance(spec, CompoundPoisson):
        return spec.intensity * spec.jump_law.second_moment()
    if isinstance(spec, TemperedStable):
        # 2 * scale * int_0^inf x^(1-alpha) e^(-lam x) dx
        return 2.0 * spec.scale * gamma_fn(2.0 - spec.alpha) * spec.lambda_noise ** (spec.alpha - 2.0)
    if isinstance(spec, GaussianValidation):
        return spec.sigma ** 2
    raise TypeError(f"unknown driver spec {spec!r}")


def char_exponent(spec, theta):
    """Characteristic exponent psi(theta) = int (e^{i theta x} - 1 - i theta x) nu(dx).

    All supported variants are symmetric, so psi is real (returned as complex).
    """
    theta = np.asarray(theta, dtype=float)
    if isinstance(spec, CompoundPoisson):
        psi = spec.intensity * (spec.jump_law.char_fn(theta) - 1.0)
    elif isinstance(spec, TemperedStable):
        a, lam, c = spec.alpha, spec.lambda_noise, spec.scale
        if a == 1.0:
            # alpha -> 1 limit of the general form below
            psi = 2.0 * c * (0.5 * lam * np.log1p((theta / lam) ** 2)
                             - theta * np.arctan(theta / lam))
        else:
            z = (lam + 1j * theta) ** a
            psi = c * gamma_fn(-a) * (2.0 * z.real - 2.0 * lam ** a)
    elif isinstance(spec, GaussianValidation):
        psi = -0.5 * (spec.sigma * theta) ** 2
    else:
        raise TypeError(f"unknown driver spec {spec!r}")
    return psi.astype(complex) if np.ndim(psi) else complex(psi)


# ---------------------------------------------------------------------------
# samplers

_local = threading.local()


def _rng_for(seed, stream=0):
    """Counter-based generator; draws are a pure function of (seed, stream).

    Each thread keeps one Philox generator and the state Philox(key=...)
    starts from (counter 0, empty buffer, no spare 32-bit half); a call writes
    key (seed << 32) + stream into that dict and sets it, copying every
    field.  A new Philox would cost a discarded OS-entropy SeedSequence.  The
    generator is the thread's, so it is valid until the thread's next call.
    """
    state = getattr(_local, "state", None)
    if state is None:
        _local.rng = np.random.Generator(np.random.Philox(key=0))
        state = _local.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64), "key": np.zeros(2, np.uint64)},
            "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    state["state"]["key"][0] = (np.uint64(seed) << np.uint64(32)) + np.uint64(stream)
    _local.rng.bit_generator.state = state
    return _local.rng


def check_seed(seed):
    """Raise ParameterError unless 0 <= seed < 2^32, the seeds _rng_for keys
    apart."""
    if not 0 <= seed < 1 << 32:
        raise ParameterError(f"seed must lie in [0, 2^32), got {seed}")


def _compound_poisson(rng, rate, n, jumps):
    """Sums over n cells of Poisson(rate) many jumps each, by count and
    scatter: one total N ~ Poisson(rate n), N cells drawn uniformly, then
    jumps(N) sizes in that order, binned into their cells."""
    check_budget(rate * n, "sample_increments: expected jumps")
    total = rng.poisson(rate * n)
    cells = rng.integers(0, n, total)
    return np.bincount(cells, jumps(total), minlength=n)


# buckets of U in (0, pi) of the squeeze of _tilted_subordinator
_BUCKETS = 64


@lru_cache(maxsize=64)
def _squeeze_logs(alpha):
    """log A(k pi/K)^b less 1e-9/alpha, k = 0..K-1 (A(0+)^b = alpha (1-alpha)^b),
    and k = K-1 again for U that rounds up to K; read-only, as cached."""
    b = (1.0 - alpha) / alpha
    u = np.arange(1, _BUCKETS) * (np.pi / _BUCKETS)
    log_ab = (np.log(np.sin(alpha * u)) + b * np.log(np.sin((1.0 - alpha) * u))
              - np.log(np.sin(u)) / alpha)
    out = np.concatenate(([math.log(alpha) + b * math.log1p(-alpha)], log_ab, log_ab[-1:]))
    out -= 1e-9 / alpha
    out.setflags(write=False)
    return out


def _tilted_subordinator(rng, alpha, lam, c, dt, n):
    """Tempered stable subordinator increments over dt, Levy density c x^{-1-alpha} e^{-lam x},
    each the sum of m sub-increments accepted with probability at least 1/e:
    Zolotarev proposals X = sigma (A(U)/E)^b, squeezed as the module docstring says."""
    sigma_alpha = c * dt * gamma_fn(1.0 - alpha) / alpha
    m = max(1, math.ceil(lam ** alpha * sigma_alpha))
    check_budget(m * max(n, _MIN_STEP_DRAWS), "sample_increments: sub-step draws")
    sigma = (sigma_alpha / m) ** (1.0 / alpha)
    b = (1.0 - alpha) / alpha
    log_c = (math.log(lam) + math.log(sigma) if sigma else -math.inf) + _squeeze_logs(alpha)
    out = np.zeros(n)
    sub = np.empty(n)
    for _ in range(m):
        todo = np.arange(n)
        while k := todo.size:
            u, e, v = rng.uniform(0.0, np.pi, k), rng.standard_exponential(k), rng.random(k)
            # live where log(1e-13 - log V) + b log E > log C_k, k the bucket of U
            w = np.log(1e-13 - np.log(v)) + b * np.log(e)
            live = (w > log_c[(u * (_BUCKETS / np.pi)).astype(np.intp)]).nonzero()[0]
            u, e = u[live], e[live]
            x = sigma * (np.sin(alpha * u) * (np.sin((1.0 - alpha) * u) / e) ** b
                         * np.sin(u) ** (-1.0 / alpha))
            acc = (v[live] < np.exp(-lam * x)).nonzero()[0]
            done = live[acc]
            sub[todo[done]] = x[acc]
            keep = np.ones(k, bool)
            keep[done] = False
            todo = todo[keep.nonzero()[0]]
        out += sub
    return out


def _truncated_jump_sizes(rng, alpha, lam, eps, n):
    """Jump sizes with density prop. to x^{-1-alpha} e^{-lam x} on (eps, inf):
    each round draws a Pareto proposal x for every missing size, then one
    uniform each, keeping x with probability e^{-lam (x - eps)}."""
    out = np.empty(n)
    todo = np.arange(n)
    while k := todo.size:
        cand = eps * rng.random(k) ** (-1.0 / alpha)
        acc = rng.random(k) < np.exp(-lam * (cand - eps))
        out[todo[acc]] = cand[acc]
        todo = todo[~acc]
    return out


def _tempered_stable_increments(spec, dt, n, rng):
    a, lam, c = spec.alpha, spec.lambda_noise, spec.scale
    if a < 1.0:
        pos = _tilted_subordinator(rng, a, lam, c, dt, n)
        neg = _tilted_subordinator(rng, a, lam, c, dt, n)
        return pos - neg  # means cancel exactly by symmetry of the construction
    # alpha >= 1: compound Poisson above cutoff + Gaussian small-jump correction;
    # the untempered cutoff leaves about ten jumps per cell above it
    eps = (2.0 * c * dt / (a * 10.0)) ** (1.0 / a)
    eps = min(eps, 1.0 / lam)
    # rate of jumps with |x| > eps: 2c int_eps^inf x^{-1-a} e^{-lam x} dx
    big_rate = 2.0 * c * lam ** a * float(_upper_gamma(-a, lam * eps))
    out = _compound_poisson(rng, big_rate * dt, n, lambda k: (
        _truncated_jump_sizes(rng, a, lam, eps, k) * (2.0 * rng.integers(0, 2, size=k) - 1.0)))
    # variance of jumps below the cutoff (both sides)
    small_var = 2.0 * c * lam ** (a - 2.0) * lower_gamma(2.0 - a, lam * eps)
    out += rng.normal(0.0, np.sqrt(small_var * dt), size=n)
    return out


def sample_increments(spec, grid: SampleGrid, seed: int, stream: int = 0) -> np.ndarray:
    """I.i.d. increments dL_k = L(x_{k+1}) - L(x_k) over the grid cells.

    Deterministic for fixed (spec, grid, seed, stream); distinct streams
    give independent paths for ensemble generation.  The seed lies in
    [0, 2^32): the generator's key is (seed << 32) + stream, so a wider seed
    would alias another one.
    """
    check_seed(seed)
    rng = _rng_for(seed, stream)
    dt, n = grid.dx, grid.n_cells
    if isinstance(spec, CompoundPoisson):
        return _compound_poisson(rng, spec.intensity * dt, n,
                                 lambda k: spec.jump_law.sample(rng, k))
    if isinstance(spec, TemperedStable):
        return _tempered_stable_increments(spec, dt, n, rng)
    if isinstance(spec, GaussianValidation):
        return rng.normal(0.0, spec.sigma * np.sqrt(dt), size=n)
    raise TypeError(f"no sampler for driver spec {spec!r}")


# ---------------------------------------------------------------------------
# flat key=value serialization (CLI config)

# the driver keys of a flat config with their defaults, in CLI flag order
DRIVER_DEFAULTS = {"driver": "cpois", "jumps": "uniform", "intensity": 1.0, "a": 1.0,
                   "jump_sigma": 1.0, "c": 1.0, "alpha": 0.7, "lambda_noise": 0.01,
                   "scale": 1.0, "sigma": 1.0}


# --jumps -> (jump law, the config key of its parameter)
_JUMP_LAWS = {"uniform": (UniformSymmetric, "a"), "gauss": (GaussianJumps, "jump_sigma"),
              "twopoint": (TwoPoint, "c")}


def spec_from_config(cfg: dict):
    """Driver spec from a flat config's driver keys; missing ones take DRIVER_DEFAULTS."""
    cfg = {**DRIVER_DEFAULTS, **cfg}
    kind = cfg["driver"]
    if kind == "cpois":
        if cfg["jumps"] not in _JUMP_LAWS:
            raise ValueError(f"unknown jump law {cfg['jumps']!r}")
        make, key = _JUMP_LAWS[cfg["jumps"]]
        law = make(float(cfg[key]))
        return CompoundPoisson(float(cfg["intensity"]), law)
    if kind == "tstable":
        return TemperedStable(float(cfg["alpha"]), float(cfg["lambda_noise"]),
                              float(cfg["scale"]))
    if kind == "gauss":
        return GaussianValidation(float(cfg["sigma"]))
    raise ValueError(f"unknown driver kind {kind!r}")
