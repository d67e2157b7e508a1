"""Brownian winding functionals on the three octonionic model spaces.

Simulation of the radial skew-product decompositions, Stratonovich line
integration of the winding one-form, closed-form characteristic functions,
and a Monte Carlo harness that confronts the two.
"""

from .errors import (
    ConfigError,
    DomainError,
    OctowindError,
    QuadratureError,
    SimulationError,
)
from .octonion import (
    Octonion,
    conj,
    imag,
    inv,
    mul,
    norm,
    norm_sq,
    polar,
    winding_form,
)
from .geometry import (
    ModelSpace,
    clock_rate,
    coord_norm,
    coord_radius,
    radial_drift,
)
from .engine import (
    DEFAULT_SEED,
    EULER_MARUYAMA,
    STRATONOVICH_HEUN,
    CoordinatePath,
    RadialPath,
    SimConfig,
    log_time_grid,
    make_rng,
    simulate_coordinate,
    simulate_flat_exact_batch,
    simulate_radial,
)
from .specfun import (
    bessel_i,
    flat_laplace,
    flat_limit_charfn,
    flat_tilt,
    hartman_watson_ratio,
    hyperbolic_tilt,
    oh1_limit_charfn,
    oh1_limit_charfn_expanded,
    oh1_moment_cascade,
    oh1_moment_cascade_scaled,
    op1_limit_charfn,
    order_from_lambda,
)
from .stats import (
    GaussTestReport,
    McEstimate,
    gaussian_test,
    mc_charfn,
    stationary_density_check,
    stationary_mean_clock_rate,
)
from . import mc

__version__ = "0.1.0"
