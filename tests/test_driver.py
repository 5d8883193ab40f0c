"""Driving noise: moments, characteristic exponents, samplers, config."""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

import tflp
from tflp import driver, errors
from tflp.driver import (
    CompoundPoisson, GaussianJumps, GaussianValidation, TemperedStable,
    TwoPoint, UniformSymmetric, _BUCKETS, _compound_poisson, _rng_for, _squeeze_logs,
    _tilted_subordinator,
    char_exponent, sample_increments, second_moment, spec_from_config,
)
from tflp.errors import ToleranceError
from tflp.grids import SampleGrid
from tflp.special import upper_gamma


def test_jump_law_second_moments():
    assert abs(UniformSymmetric(a=2.0).second_moment() - 4.0 / 3.0) < 1e-15
    assert GaussianJumps(sigma=1.5).second_moment() == 1.5 ** 2
    assert TwoPoint(c=0.7).second_moment() == 0.7 ** 2


def test_jump_law_parameter_validation():
    with pytest.raises(ValueError):
        UniformSymmetric(a=0.0)
    with pytest.raises(ValueError):
        GaussianJumps(sigma=-1.0)
    with pytest.raises(ValueError):
        CompoundPoisson(intensity=-1.0, jump_law=TwoPoint(c=1.0))
    with pytest.raises(ValueError):
        TemperedStable(alpha=2.0, lambda_noise=1.0)
    # nan fails no comparison of the form x <= 0, so each bound is written
    # to fail it, and inf is rejected too
    for bad in (np.nan, np.inf, -np.inf):
        for make in (lambda x: UniformSymmetric(a=x), lambda x: GaussianJumps(sigma=x),
                     lambda x: TwoPoint(c=x),
                     lambda x: CompoundPoisson(intensity=x, jump_law=TwoPoint(c=1.0)),
                     lambda x: TemperedStable(alpha=x, lambda_noise=1.0),
                     lambda x: TemperedStable(alpha=1.0, lambda_noise=x),
                     lambda x: TemperedStable(alpha=1.0, lambda_noise=1.0, scale=x),
                     lambda x: GaussianValidation(sigma=x)):
            with pytest.raises(ValueError):
                make(bad)


def test_second_moment_matches_char_exponent_curvature():
    # psi''(0) = -E L(1)^2 for a centered driver
    theta = 1e-4
    specs = [
        CompoundPoisson(intensity=2.0, jump_law=UniformSymmetric(a=1.0)),
        CompoundPoisson(intensity=0.5, jump_law=GaussianJumps(sigma=2.0)),
        TemperedStable(alpha=0.7, lambda_noise=1.2, scale=0.8),
        TemperedStable(alpha=1.0, lambda_noise=1.2, scale=0.8),
        GaussianValidation(sigma=1.3),
    ]
    for spec in specs:
        psi = char_exponent(spec, np.array([-theta, 0.0, theta]))
        curv = (psi[0] - 2.0 * psi[1] + psi[2]).real / theta ** 2
        assert abs(-curv / second_moment(spec) - 1.0) < 1e-6, spec


def test_sampled_increment_moments():
    grid = SampleGrid(0.0, 200.0, 100_000)
    specs = [
        CompoundPoisson(intensity=3.0, jump_law=UniformSymmetric(a=1.0)),
        TemperedStable(alpha=0.6, lambda_noise=1.0, scale=1.0),
        TemperedStable(alpha=1.0, lambda_noise=1.0, scale=0.5),
        TemperedStable(alpha=1.4, lambda_noise=1.0, scale=0.5),
        GaussianValidation(sigma=0.8),
    ]
    for spec in specs:
        dL = sample_increments(spec, grid, seed=123)
        var_th = second_moment(spec) * grid.dx
        se = np.std(dL ** 2) / np.sqrt(len(dL))
        assert abs(dL.mean()) < 4.0 * np.sqrt(var_th / len(dL)), spec
        assert abs(dL.var() - var_th) < 4.0 * se, spec


@pytest.mark.parametrize("lam, m", [(1.0, 5), (10.0, 22)])
def test_split_cell_increments_match_closed_forms(lam, m):
    # over dt = 1 a cell is the sum of m = ceil((lam sigma)^alpha) sub-increments
    a, c, dt, n = 0.7, 1.0, 1.0, 100_000
    assert int(np.ceil(lam ** a * c * dt * sp.gamma(1.0 - a) / a)) == m

    def z(values, expected):
        return (values.mean() - expected) / (values.std() / np.sqrt(n))

    # subordinator cumulants kappa_k = c dt Gamma(k - alpha) lam^(alpha - k)
    s = _tilted_subordinator(_rng_for(21), a, lam, c, dt, n)
    mean = c * dt * sp.gamma(1.0 - a) * lam ** (a - 1.0)
    var = c * dt * sp.gamma(2.0 - a) * lam ** (a - 2.0)
    assert abs(z(s, mean)) < 4.0
    assert abs(z((s - s.mean()) ** 2, var)) < 4.0
    spec = TemperedStable(a, lam, c)
    x = sample_increments(spec, SampleGrid(0.0, n * dt, n), seed=22)
    for theta in (0.3, 1.0, 3.0):
        cf = np.exp(dt * char_exponent(spec, theta).real)
        assert abs(z(np.cos(theta * x), cf)) < 4.0, theta
    # fourth cumulant E x^4 - 3 (E x^2)^2 of the centered increment; its
    # standard error from the influence function x^4 - 6 E[x^2] x^2
    m2 = np.mean(x ** 2)
    k4 = 2.0 * c * dt * sp.gamma(4.0 - a) * lam ** (a - 4.0)
    assert abs(z(x ** 4 - 6.0 * m2 * x ** 2, k4 - 3.0 * m2 ** 2)) < 4.0


def test_heavily_tempered_sampling_returns():
    # one rejection step per cell needed about 2e9 proposals per increment here
    src = os.path.dirname(os.path.dirname(tflp.__file__))
    code = ("from tflp.driver import TemperedStable, sample_increments; "
            "from tflp.grids import SampleGrid; "
            "print(sample_increments(TemperedStable(0.7, 10.0), "
            "SampleGrid(0.0, 64.0, 64), 3).size)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "64"


def test_rejection_routes_keep_their_draw_order():
    # the recipes as written before the rejection loop was shared and before
    # the squeeze: the alpha >= 1 route (with its jumps counted and
    # scattered), and alpha < 1 as m sub-steps of Zolotarev proposals, each
    # computed in full and kept where a uniform is below exp(-lam X)
    def rejection(rng, n, propose, accept_prob):
        out = np.empty(n)
        todo = np.arange(n)
        while todo.size:
            cand = propose(todo.size)
            acc = rng.random(todo.size) < accept_prob(cand)
            out[todo[acc]] = cand[acc]
            todo = todo[~acc]
        return out

    def positive_stable(rng, alpha, n):
        u = rng.uniform(0.0, np.pi, size=n)
        e = rng.standard_exponential(size=n)
        return (np.sin(alpha * u)
                * (np.sin((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha)
                * np.sin(u) ** (-1.0 / alpha))

    def subordinator(rng, a, lam, c, dt, n, m):
        sigma_alpha = c * dt * math.gamma(1.0 - a) / a
        assert max(1, math.ceil(lam ** a * sigma_alpha)) == m
        sigma = (sigma_alpha / m) ** (1.0 / a)
        out = np.zeros(n)
        for _ in range(m):
            out += rejection(rng, n, lambda k: sigma * positive_stable(rng, a, k),
                             lambda x: np.exp(-lam * x))
        return out

    fine, unit = SampleGrid(0.0, 20.0, 2000), SampleGrid(0.0, 2000.0, 2000)
    # (alpha, lam, c, grid, m for alpha < 1): one step per cell, split cells
    # (dt = 1), and alpha near both ends of (0, 1), where the squeeze's
    # powers of A leave double range unless taken in logs
    for a, lam, c, grid, m in ((0.7, 1.3, 0.8, fine, 1), (0.7, 1.0, 1.0, unit, 5),
                               (0.7, 10.0, 1.0, unit, 22), (0.01, 1.3, 0.8, fine, 1),
                               (0.999, 1.3, 0.8, fine, 11), (1.0, 1.3, 0.8, fine, None),
                               (1.4, 1.3, 0.8, fine, None)):
        dt, n = grid.dx, grid.n_cells
        rng = _rng_for(5, 2)
        with np.errstate(over="ignore", invalid="ignore"):  # Zolotarev's form at a = 0.01
            if a < 1.0:
                expected = (subordinator(rng, a, lam, c, dt, n, m)
                            - subordinator(rng, a, lam, c, dt, n, m))
            else:
                eps = min((2.0 * c * dt / (a * 10.0)) ** (1.0 / a), 1.0 / lam)
                rate = 2.0 * c * lam ** a * float(upper_gamma(-a, lam * eps))
                # count and scatter: the total count, the cells, then the sizes
                total = rng.poisson(rate * dt * n)
                cells = rng.integers(0, n, total)
                sizes = rejection(rng, total, lambda k: eps * rng.random(k) ** (-1.0 / a),
                                  lambda x: np.exp(-lam * (x - eps)))
                signs = 2.0 * rng.integers(0, 2, size=total) - 1.0
                expected = np.zeros(n)
                np.add.at(expected, cells, signs * sizes)
                small_var = 2.0 * c * lam ** (a - 2.0) * float(
                    sp.gamma(2.0 - a) * sp.gammainc(2.0 - a, lam * eps))
                expected += rng.normal(0.0, np.sqrt(small_var * dt), size=n)
            got = sample_increments(TemperedStable(a, lam, c), grid, seed=5, stream=2)
        np.testing.assert_array_equal(got, expected, err_msg=f"alpha = {a}, lam = {lam}")


def test_squeeze_table_stays_below_its_buckets():
    # log C_k/(lam sigma) = log A(k pi/K)^b less the margin must not exceed
    # log A(u)^b anywhere on bucket k, A taken at 30 digits
    mpmath = pytest.importorskip("mpmath")
    K = _BUCKETS
    for a in (1e-3, 0.01, 0.3, 0.7, 0.99, 0.999, 0.9999):
        table = _squeeze_logs(a)
        assert table.shape == (K + 1,) and not table.flags.writeable
        with mpmath.workdps(30):
            alpha = mpmath.mpf(a)
            b = (1 - alpha) / alpha

            def log_ab(u):
                log_sin = lambda x: mpmath.log(mpmath.sin(x))
                return log_sin(alpha * u) + b * log_sin((1 - alpha) * u) - log_sin(u) / alpha

            for k in range(K):
                lo = mpmath.pi * k / K
                # dense points of the bucket, its left edge (or u -> 0+) included
                points = [lo + mpmath.pi / K * (j + (k == 0) * mpmath.mpf(10) ** -12) / 8
                          for j in range(9)]
                low = min(log_ab(u) for u in points)
                assert table[k] <= low, (a, k, table[k], float(low))
                if k == K - 1:
                    assert table[K] <= low


def test_compound_poisson_law():
    # checks that hold whatever the draw order: each cell's jump count is
    # Poisson(rate) (chi-square, level 1e-3), and the increments' empirical
    # characteristic function is exp(dt psi) (4 SE, level 6e-5 per theta)
    n = 200_000
    for rate in (1.0 / 32.0, 2.5):
        counts = _compound_poisson(_rng_for(31), rate, n, np.ones).astype(int)
        top = int(stats.poisson.isf(50.0 / n, rate))  # last bin holds >= 50 expected
        observed = np.bincount(np.minimum(counts, top), minlength=top + 1)
        expected = n * np.append(stats.poisson.pmf(np.arange(top), rate),
                                 stats.poisson.sf(top - 1, rate))
        chi2 = np.sum((observed - expected) ** 2 / expected)
        assert chi2 < stats.chi2.isf(1e-3, top), (rate, observed, expected)
    for spec, dt in ((CompoundPoisson(1.0, UniformSymmetric(1.0)), 1.0 / 32.0),
                     (CompoundPoisson(2.0, GaussianJumps(1.0)), 0.5),
                     (CompoundPoisson(0.7, TwoPoint(1.3)), 2.0)):
        x = sample_increments(spec, SampleGrid(0.0, n * dt, n), seed=32)
        for theta in (0.5, 2.0, 8.0):
            c = np.cos(theta * x)
            cf = np.exp(dt * char_exponent(spec, theta).real)
            assert abs(c.mean() - cf) < 4.0 * c.std() / np.sqrt(n), (spec, theta)


# every sampler of the module, each route of the tempered-stable one
_ALL_SAMPLERS = [
    CompoundPoisson(1.5, UniformSymmetric(1.0)), CompoundPoisson(1.5, GaussianJumps(0.5)),
    CompoundPoisson(1.5, TwoPoint(0.3)), TemperedStable(0.7, 1.3), TemperedStable(0.7, 10.0),
    TemperedStable(1.0, 1.3), TemperedStable(1.4, 1.3), GaussianValidation(0.9)]


def test_rekeyed_generator_draws_as_a_fresh_one(monkeypatch):
    def stir(seed, stream):
        # leave the thread's generator mid-buffer with a spare 32-bit half
        rng = _rng_for(seed, stream)
        rng.random(3, dtype=np.float32)
        rng.standard_normal(1)
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4

    grid = SampleGrid(0.0, 20.0, 999)
    got = []
    for i, spec in enumerate(_ALL_SAMPLERS):
        stir(5, 2)
        stir(i, 9)
        got.append(sample_increments(spec, grid, seed=5, stream=2))
    monkeypatch.setattr(driver, "_rng_for", lambda seed, stream=0: np.random.Generator(
        np.random.Philox(key=(np.uint64(seed) << np.uint64(32)) + np.uint64(stream))))
    for spec, x in zip(_ALL_SAMPLERS, got):
        np.testing.assert_array_equal(x, sample_increments(spec, grid, seed=5, stream=2))


@pytest.mark.parametrize("seed", [-1, 2 ** 32, 2 ** 32 + 5, 2 ** 64])
def test_seed_outside_32_bits_is_a_parameter_error(seed):
    # Philox is keyed (seed << 32) + stream in uint64: a seed of 2^32 or more
    # would alias the seed below it mod 2^32, a negative one overflow the key
    from tflp.integration import ElementaryFunction, integrate_general
    from tflp.processes import TemperedParams, simulate_ensemble, simulate_tflp1
    spec, grid, p = CompoundPoisson(1.0, UniformSymmetric(1.0)), SampleGrid(0.0, 1.0, 8), \
        TemperedParams(0.2, 1.0)
    calls = [lambda: sample_increments(spec, grid, seed),
             lambda: simulate_tflp1(p, grid, spec, seed=seed),
             lambda: simulate_ensemble("TFLP2", p, grid, spec, seed, 3),
             lambda: integrate_general(ElementaryFunction.indicator(1.0), p, spec, seed, 2,
                                       dx=2.0 ** -4)]
    for call in calls:
        with pytest.raises(errors.ParameterError, match="seed"):
            call()


@pytest.mark.parametrize("seed, stream", [(0, 0), (5, 2), (2 ** 32 - 1, 0), (2 ** 32 - 1, 9)])
def test_seeds_inside_32_bits_draw_from_their_key(seed, stream):
    fresh = np.random.Generator(np.random.Philox(key=(seed << 32) + stream))
    np.testing.assert_array_equal(_rng_for(seed, stream).random(8), fresh.random(8))


def test_threads_sampling_at_once_get_their_single_thread_arrays():
    grid = SampleGrid(0.0, 20.0, 999)
    jobs = [(spec, seed) for seed in range(3) for spec in _ALL_SAMPLERS]
    want = [sample_increments(spec, grid, seed) for spec, seed in jobs]
    n_threads = 4  # more than the cores of a small host
    barrier = threading.Barrier(n_threads)
    results = {}

    def work(t):
        barrier.wait(timeout=30)
        results[t] = [sample_increments(spec, grid, seed) for spec, seed in jobs[t:] + jobs[:t]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(results) == list(range(n_threads))
    for t, arrays in results.items():
        for x, y in zip(arrays, want[t:] + want[:t]):
            np.testing.assert_array_equal(x, y)


def test_draw_budget_raises_before_drawing(monkeypatch):
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"drew ({name}) before the budget check")

    monkeypatch.setattr(driver, "_rng_for", lambda seed, stream=0: NoDraws())
    monkeypatch.setattr(errors, "MAX_CELLS", 100)
    grid = SampleGrid(0.0, 64.0, 64)
    for spec, what in (
            (CompoundPoisson(2.0, UniformSymmetric(1.0)), "expected jumps"),  # 128
            (TemperedStable(0.7, 1.0), "sub-step draws"),       # m = 5, m n = 320
            (TemperedStable(1.4, 1.0), "expected jumps")):      # about 10 per cell
        with pytest.raises(ToleranceError, match=f"{what} .* exceed the budget of 100"):
            sample_increments(spec, grid, seed=1)
    # the unpatched budget still stops an unbounded jump count
    monkeypatch.setattr(errors, "MAX_CELLS", 2 ** 24)
    with pytest.raises(ToleranceError, match="budget"):
        sample_increments(CompoundPoisson(1e15, UniformSymmetric(1.0)), grid, seed=1)


def test_determinism_and_stream_independence():
    grid = SampleGrid(0.0, 10.0, 1000)
    spec = CompoundPoisson(intensity=2.0, jump_law=GaussianJumps(sigma=1.0))
    a = sample_increments(spec, grid, seed=7, stream=0)
    b = sample_increments(spec, grid, seed=7, stream=0)
    c = sample_increments(spec, grid, seed=7, stream=1)
    d = sample_increments(spec, grid, seed=8, stream=0)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_config_roundtrip():
    cases = [
        ({"driver": "cpois", "intensity": 2.5, "jumps": "uniform", "a": 0.3},
         CompoundPoisson(intensity=2.5, jump_law=UniformSymmetric(a=0.3))),
        ({"driver": "cpois", "intensity": 1.0, "jumps": "gauss", "jump_sigma": 2.0},
         CompoundPoisson(intensity=1.0, jump_law=GaussianJumps(sigma=2.0))),
        ({"driver": "cpois", "intensity": 1.0, "jumps": "twopoint", "c": 0.4},
         CompoundPoisson(intensity=1.0, jump_law=TwoPoint(c=0.4))),
        ({"driver": "tstable", "alpha": 0.7, "lambda_noise": 2.0, "scale": 1.5},
         TemperedStable(alpha=0.7, lambda_noise=2.0, scale=1.5)),
        ({"driver": "gauss", "sigma": 0.9}, GaussianValidation(sigma=0.9)),
    ]
    for cfg, spec in cases:
        assert spec_from_config(cfg) == spec


def test_gaussian_driver_flagged_outside_condition():
    assert GaussianValidation(sigma=1.0).outside_condition_L
    assert not CompoundPoisson(intensity=1.0,
                               jump_law=TwoPoint(c=1.0)).outside_condition_L
