"""Driving noise: moments, characteristic exponents, samplers, config."""

import numpy as np
import pytest

from tflp.driver import (
    CompoundPoisson, GaussianJumps, GaussianValidation, TemperedStable,
    TwoPoint, UniformSymmetric, char_exponent, sample_increments,
    second_moment, spec_from_config,
)
from tflp.grids import SampleGrid


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
