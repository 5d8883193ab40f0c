"""Sample paths across a tempering family.

Simulates type I and type II paths driven by the same compound Poisson
noise for a nest of tempering rates lambda at fixed memory parameter d.
All paths share the seed, so the figures show the effect of tempering
alone: small lambda paths wander like their untempered counterparts,
large lambda paths mean-revert on shorter and shorter scales.

Writes demos/out/paths_<kind>.csv (one column per lambda) and prints a
small dispersion table.  Plotting is left to the reader; the CSVs load
directly with numpy.loadtxt(..., skiprows=2, delimiter=",").
"""

import os

import numpy as np

from tflp import (
    CompoundPoisson, SampleGrid, TemperedParams, UniformSymmetric,
    second_moment, simulate_tflp1, simulate_tflp2, truncation_width,
    var_limit_tflp1,
)
from tflp.cli import write_csv

OUT = os.path.join(os.path.dirname(__file__), "out")

d = 0.3
lams = [0.05, 0.2, 1.0, 5.0]
grid = SampleGrid(0.0, 50.0, 2000)
driver = CompoundPoisson(intensity=2.0, jump_law=UniformSymmetric(a=1.0))


def main():
    os.makedirs(OUT, exist_ok=True)
    for kind, sim in (("tflp1", simulate_tflp1), ("tflp2", simulate_tflp2)):
        cols = [grid.points]
        names, units = ["t"], ["time"]
        print(f"\n{kind}, d = {d}, shared driver noise")
        if kind == "tflp1":
            # only the type I variance saturates; type II keeps growing
            print(f"{'lambda':>8} {'std at t=50':>12} {'plateau std':>12}")
        else:
            print(f"{'lambda':>8} {'std at t=50':>12}")
        for lam in lams:
            p = TemperedParams(d, lam)
            path = sim(p, grid, driver, trunc_width=truncation_width(p, 1e-8),
                       seed=12)
            cols.append(path.values)
            names.append(f"lam{lam:g}")
            units.append("value")
            line = f"{lam:8.2f} {np.std(path.values):12.4f}"
            if kind == "tflp1":
                line += f" {np.sqrt(var_limit_tflp1(p, second_moment(driver))):12.4f}"
            print(line)
        out = os.path.join(OUT, f"paths_{kind}.csv")
        write_csv(out, names, units, np.column_stack(cols))
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
