"""Random-walk wall growth, Brownian local times, and the curve they trace.

The package simulates a walker stacking unit blocks along the integer
line, rescales the walk and its occupation counts to their Brownian
limits, constructs the plane-filling curve (position, wall height at
position), and statistically verifies the construction against exact
closed-form laws.
"""

from .curve import (
    CoverageReport,
    CurveTrace,
    Window,
    build_trace,
    coverage_check,
    fill_order_check,
    scale_trace,
    wall_area,
)
from .oracle import (
    joint_density,
    marginal_height,
    marginal_level,
    mean_height,
    reflection_tail,
    sample_exact,
    sample_identity_pair,
)
from .scaling import (
    ScaledPath,
    band_local_time,
    default_band_width,
    local_time_profile,
)
from .stats import (
    EXPERIMENTS,
    ExperimentConfig,
    TestReport,
    chi2_gof_2d,
    ks_two_sample,
    run_experiment,
)
from .walk import (
    OccupationField,
    discrete_brick_trace,
    simulate_walk,
    stream,
)

__version__ = "0.1.0"

__all__ = [
    "CoverageReport",
    "CurveTrace",
    "EXPERIMENTS",
    "ExperimentConfig",
    "OccupationField",
    "ScaledPath",
    "TestReport",
    "Window",
    "band_local_time",
    "build_trace",
    "chi2_gof_2d",
    "coverage_check",
    "default_band_width",
    "discrete_brick_trace",
    "fill_order_check",
    "joint_density",
    "ks_two_sample",
    "local_time_profile",
    "marginal_height",
    "marginal_level",
    "mean_height",
    "reflection_tail",
    "run_experiment",
    "sample_exact",
    "sample_identity_pair",
    "scale_trace",
    "simulate_walk",
    "stream",
    "wall_area",
    "__version__",
]
