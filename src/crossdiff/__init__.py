"""Spectral solver and verification lab for diffusion-dominant
cross-diffusion systems on the periodic torus."""

__version__ = "0.1.0"

from .fields import (
    GridSpec,
    SpeciesVector,
    make_grid,
    random_band_limited,
    spectral_divergence,
    spectral_gradient,
)
from .trajectory import FluxTrajectory, TimeGrid, Trajectory, trajectory_difference
from .semigroup import (
    KernelEstimateReport,
    duhamel_solve,
    heat_flow_trajectory,
    heat_propagate,
    kernel_gradient_lp,
    kernel_scaling_report,
)
from .carleson import (
    CylinderLadder,
    CylinderSpec,
    DecayProbe,
    NormReport,
    decay_probe,
    default_exponent,
    enumerate_cylinders,
    gradient_flux,
    maximal_regularity_ratio,
    xp_norm,
    xp_seminorm,
    yp_norm,
)
from .model import (
    LipschitzReport,
    ReducedModel,
    flux_trajectory,
    reduce_coefficients,
)
from .solver import (
    ContractionReport,
    DivergedError,
    imex_solve,
    picard_solve,
)
from .harness import (
    Check,
    ExperimentConfig,
    InitialDataSpec,
    SuiteContext,
    VerificationReport,
    energy_identity_probe,
    generate_initial_data,
    perturb_initial_data,
    run_suite,
    verify_mass_conservation,
    verify_nonnegativity,
    verify_partition,
)
