"""Wiener-type integration and the isometry property.

For each admissible (process, sign of d) regime the integrand is mapped
to its transform F with int f dS = int F dL, and the predicted variance
EL2 ||F||^2 is compared against a Monte Carlo sample of the realized
integral.  The final section approximates a smooth integrand by step
functions and watches the transform-space distance shrink, which is the
sense in which the integral of a general function is a limit of
elementary ones.
"""

import numpy as np

from tflp import (
    CompoundPoisson, ElementaryFunction, GaussianJumps, GridFunction,
    SampleGrid, TemperedParams, approximate_by_elementary, integrate_general,
    second_moment, transform_integrand, truncation_width,
)

driver = CompoundPoisson(intensity=2.0, jump_law=GaussianJumps(sigma=1.0))
EL2 = second_moment(driver)


def isometry_table(n_draws=4000):
    f = ElementaryFunction((0.0, 0.5, 1.5), (1.0, -0.5))
    print("Var of int f dS vs EL2 ||F||^2, step integrand, "
          f"{n_draws} draws")
    print(f"{'regime':>7} {'target':>7} {'d':>6} {'predicted':>10} "
          f"{'MC':>10} {'ratio':>6}")
    for target, d in (("TFLP2", 0.3), ("TFLP2", -0.3),
                      ("TFLP1", -0.3), ("TFLP1", 0.3)):
        vals, tr = integrate_general(f, TemperedParams(d, 1.0), driver, 17,
                                     n_draws, target, dx=2.0 ** -6)
        pred = EL2 * tr.norm ** 2
        mc = np.mean(vals ** 2)
        print(f"{tr.regime:>7} {target:>7} {d:6.2f} {pred:10.4f} "
              f"{mc:10.4f} {mc / pred:6.3f}")


def elementary_approximation():
    p = TemperedParams(0.3, 1.0)
    R = truncation_width(p, 1e-8)
    g = SampleGrid(-2.0 * R, 2.0, 2 ** 11)
    f = GridFunction.from_callable(g, lambda x: np.exp(-4.0 * (x - 0.8) ** 2))
    tr_f = transform_integrand(f, p)
    print("\nstep approximation of a Gaussian integrand "
          "(distance in transform space)")
    print(f"{'tol':>8} {'pieces':>7} {'achieved':>10}")
    for tol in (0.1, 0.03, 0.01):
        fn = approximate_by_elementary(f, p, tol=tol)
        tr_n = transform_integrand(fn, p, grid=g)
        dist = np.sqrt(np.sum((tr_f.transformed.values
                               - tr_n.transformed.values) ** 2) * g.dx)
        print(f"{tol:8.3f} {len(fn.coefficients):7d} {dist:10.4f}")


if __name__ == "__main__":
    isometry_table()
    elementary_approximation()
