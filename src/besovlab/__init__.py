"""Dyadic frequency analysis and variable-viscosity flow experiments on the periodic plane."""

__version__ = "0.1.0"

from . import (
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


def __getattr__(name):
    # cli loads on first use, so ``python -m besovlab.cli`` runs it once, as ``__main__``
    if name == "cli":
        import importlib

        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
