"""Tempered fractional Levy processes: simulation, second order theory,
tempered fractional calculus and Wiener-type stochastic integration."""

from .analytics import (
    SemiLrdFit, acvf_tfln1, acvf_tfln1_asymptotic, acvf_tfln2,
    acvf_tfln2_asymptotic_band, cov_tflp1, cov_tflp2, ct_squared,
    empirical_acvf, fit_semi_lrd, periodogram, spec_density_tfln1,
    spec_density_tfln2, structure_exponent, structure_function,
    var_limit_tflp1,
)
from .calculus import (
    fourier_multiplier, frac_derivative_minus, frac_derivative_plus,
    frac_integral_minus, frac_integral_plus, sobolev_norm,
)
from .driver import (
    CompoundPoisson, GaussianJumps, GaussianValidation, LevyDriverSpec,
    TemperedStable, TwoPoint, UniformSymmetric, char_exponent,
    sample_increments, second_moment, spec_from_config,
)
from .errors import ParameterError, ToleranceError
from .grids import GridFunction, SampleGrid, SamplePath
from .integration import (
    ElementaryFunction, IntegrandTransform, approximate_by_elementary,
    inner_product, integrate_elementary, integrate_general,
    transform_integrand,
)
from .processes import (
    TemperedParams, kernel_g1, kernel_g2, noise_path,
    simulate_ensemble, simulate_smooth_regime, simulate_tflp1,
    simulate_tflp2, total_variation, truncation_width,
)
from .special import bessel_k, bessel_k_scaled, gamma_fn

__version__ = "0.1.0"
