"""Uniform grids, sampled functions and realized process paths.

SampleGrid is the shared discretization support: a uniform grid of
n_cells cells on [x_min, x_max], with n_cells + 1 grid points.
GridFunction carries a real function sampled at the grid points and
SamplePath a realized process path, with its generating metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SampleGrid", "GridFunction", "SamplePath"]


@dataclass(frozen=True)
class SampleGrid:
    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("SampleGrid: requires x_min < x_max")
        if self.n_cells < 1:
            raise ValueError("SampleGrid: requires n_cells >= 1")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def points(self) -> np.ndarray:
        """Grid points x_k = x_min + k*dx, k = 0..n_cells."""
        return self.x_min + self.dx * np.arange(self.n_cells + 1)


@dataclass
class GridFunction:
    grid: SampleGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells + 1,):
            raise ValueError(
                "GridFunction: values must have one entry per grid point "
                f"(expected {self.grid.n_cells + 1}, got {self.values.shape})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridFunction: values must be finite")

    @classmethod
    def from_callable(cls, grid: SampleGrid, fn) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.points), dtype=float))

    def l2_norm(self) -> float:
        """Trapezoidal L2(R) norm of the sampled function."""
        return float(np.sqrt(np.trapezoid(self.values ** 2, dx=self.grid.dx)))


@dataclass
class SamplePath:
    """Process or noise path on an observation grid.

    kind is one of TFLP1, TFLP2, TFLN1, TFLN2.  meta echoes the
    generating configuration (params, driver, seed, truncation).
    """

    grid: SampleGrid
    values: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells + 1,):
            raise ValueError("SamplePath: one value per grid point required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("SamplePath: values must be finite")
        if self.kind in ("TFLP1", "TFLP2") and self.grid.x_min == 0.0:
            if self.values[0] != 0.0:
                raise ValueError("SamplePath: process paths start at S(0) = 0")
