"""Dyadic frequency analysis and variable-viscosity flow experiments on the periodic plane."""

__version__ = "0.1.0"

from . import (
    cli,
    dyadic,
    elliptic,
    evolution,
    inequality_lab,
    lagrangian,
    norms,
    paraproduct,
    random_fields,
    spectral,
)
from .cli import ExperimentConfig, load_snapshot, save_snapshot
from .dyadic import DyadicLadder, build_ladder
from .elliptic import coefficient_floor, residual, solve_pressure
from .evolution import (
    IntegrationConfig,
    StateSnapshot,
    ViscosityLaw,
    momentum_step,
    ns_integrate,
    transport_step,
)
from .lagrangian import FlowMap, check_div_identity, delta_estimates, integrate_flow
from .norms import BesovSpec, TimeNormSpec, besov_norm, chemin_lerner
from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    derivative,
    divergence,
    gradient,
    gradient_part,
    heat_propagate,
    leray_project,
    make_grid,
    multiply,
)

__all__ = [
    "__version__",
    "cli",
    "dyadic",
    "elliptic",
    "evolution",
    "inequality_lab",
    "lagrangian",
    "norms",
    "paraproduct",
    "random_fields",
    "spectral",
    "ExperimentConfig",
    "load_snapshot",
    "save_snapshot",
    "DyadicLadder",
    "build_ladder",
    "coefficient_floor",
    "residual",
    "solve_pressure",
    "IntegrationConfig",
    "StateSnapshot",
    "ViscosityLaw",
    "momentum_step",
    "ns_integrate",
    "transport_step",
    "FlowMap",
    "check_div_identity",
    "delta_estimates",
    "integrate_flow",
    "BesovSpec",
    "TimeNormSpec",
    "besov_norm",
    "chemin_lerner",
    "Grid",
    "SpectralField",
    "VectorField",
    "make_grid",
    "multiply",
    "derivative",
    "gradient",
    "divergence",
    "leray_project",
    "gradient_part",
    "heat_propagate",
]
