"""Dyadic frequency analysis and variable-viscosity flow experiments on the periodic plane."""

__version__ = "0.1.0"

from . import (
    cli,
    dyadic,
    elliptic,
    evolution,
    inequality_lab,
    interpolation,
    lagrangian,
    norms,
    paraproduct,
    random_fields,
    spectral,
)

__all__ = [
    "__version__",
    "cli",
    "dyadic",
    "elliptic",
    "evolution",
    "inequality_lab",
    "interpolation",
    "lagrangian",
    "norms",
    "paraproduct",
    "random_fields",
    "spectral",
]
