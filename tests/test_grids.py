"""Grid, grid function and sample path containers."""

import numpy as np
import pytest

from tflp.grids import GridFunction, SampleGrid, SamplePath


def test_grid_geometry():
    g = SampleGrid(-1.0, 3.0, 8)
    assert g.dx == 0.5
    np.testing.assert_allclose(g.points, -1.0 + 0.5 * np.arange(9))
    assert len(g.points) == g.n_cells + 1


def test_grid_validation():
    with pytest.raises(ValueError):
        SampleGrid(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        SampleGrid(0.0, 1.0, 0)


def test_grid_function_shape_and_finiteness():
    g = SampleGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction(g, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))


def test_l2_norm_of_gaussian():
    # || exp(-x^2) ||_2 = (pi/2)^(1/4)
    g = SampleGrid(-12.0, 12.0, 4096)
    f = GridFunction.from_callable(g, lambda x: np.exp(-x ** 2))
    assert abs(f.l2_norm() - (np.pi / 2.0) ** 0.25) < 1e-8


def test_sample_path_zero_start_enforced():
    g = SampleGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        SamplePath(g, np.ones(5), kind="TFLP1")
    # noise paths are stationary, no such constraint
    SamplePath(g, np.ones(5), kind="TFLN1")

