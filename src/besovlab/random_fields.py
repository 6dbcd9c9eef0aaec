"""Seeded random fields with prescribed spectral localization.

Coefficients are drawn per integer wavevector in a canonical order that
depends only on the torus size and the requested band, never on the grid
resolution.  Refining the grid therefore reproduces the identical function,
which is what makes refinement-stability experiments meaningful: the measured
ratios compare discretizations of one fixed field, not two different draws.
"""

from __future__ import annotations

import math

import numpy as np

from .dyadic import ANNULUS_INNER, ANNULUS_OUTER
from .spectral import Grid, SpectralField, VectorField, derivative

__all__ = [
    "trial_seed",
    "band_wavevectors",
    "random_band_field",
    "random_annulus_field",
    "random_ball_field",
    "random_divergence_free",
]


def trial_seed(base_seed: int, *stream: int) -> np.random.SeedSequence:
    """Deterministic per-trial seed material derived from a base seed."""
    return np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(stream))


def band_wavevectors(L: float, k_low: float, k_high: float) -> list[tuple[int, int]]:
    """Half-lattice integer wavevectors with physical magnitude in [k_low, k_high].

    Only one representative of each conjugate pair (m, -m) is listed, in a
    fixed lexicographic order; the zero vector is never included.
    """
    if not (0.0 <= k_low <= k_high):
        raise ValueError(f"need 0 <= k_low <= k_high, got [{k_low}, {k_high}]")
    unit = 2.0 * math.pi / L
    mmax = int(math.floor(k_high / unit))
    points = []
    for m1 in range(0, mmax + 1):
        for m2 in range(-mmax, mmax + 1):
            if m1 == 0 and m2 <= 0:
                continue
            if k_low <= math.hypot(m1, m2) * unit <= k_high:
                points.append((m1, m2))
    return points


def random_band_field(
    grid: Grid,
    k_low: float,
    k_high: float,
    seed,
    *,
    slope: float = 0.0,
    amplitude: float = 1.0,
    mean: float = 0.0,
) -> SpectralField:
    """Real Gaussian field supported on the given spectral band.

    Per-mode standard deviation is amplitude * |k|^slope.  The same (L, band,
    seed) triple yields the same function on every grid that resolves it.
    """
    points = band_wavevectors(grid.L, k_low, k_high)
    if not points:
        raise ValueError(f"band [{k_low}, {k_high}] contains no lattice wavevectors")
    n, m = grid.n, np.array(points)
    beyond = np.flatnonzero(np.max(np.abs(m), axis=1) > n // 2 - 1)
    if beyond.size:
        raise ValueError(
            f"band reaches wavevector {points[beyond[0]]} beyond the grid's"
            f" unaliased range |m| <= {n // 2 - 1} (n={n})"
        )
    draws = np.random.default_rng(seed).standard_normal(2 * len(points))
    unit = 2.0 * math.pi / grid.L
    # Scalar |k|^slope per mode: NumPy's vector pow can differ in the last bit.
    std = np.array([amplitude * (math.hypot(m1, m2) * unit) ** slope for m1, m2 in points])
    c = std * (draws[0::2] + 1j * draws[1::2]) / math.sqrt(2.0)
    modes = np.zeros((n, n), dtype=np.complex128)
    modes[m[:, 0] % n, m[:, 1] % n] = c * n**2
    modes[-m[:, 0] % n, -m[:, 1] % n] = np.conj(c) * n**2
    modes[0, 0] = mean * n**2
    return SpectralField(grid, modes[:, : n // 2 + 1])


def random_annulus_field(grid: Grid, j: int, seed) -> SpectralField:
    """Random field spectrally supported in the octave-j annulus 2^j * [3/4, 8/3]."""
    return random_band_field(grid, ANNULUS_INNER * 2.0**j, ANNULUS_OUTER * 2.0**j, seed)


def random_ball_field(grid: Grid, j: int, seed, *, mean: float = 0.0) -> SpectralField:
    """Random field spectrally supported in the ball of radius 2^j."""
    return random_band_field(grid, 0.0, 2.0**j, seed, mean=mean)


def random_divergence_free(
    grid: Grid,
    k_low: float,
    k_high: float,
    seed,
    *,
    slope: float = 0.0,
    amplitude: float = 1.0,
) -> VectorField:
    """Random solenoidal velocity built as the perpendicular gradient of a stream field.

    The two divergence terms cancel multiplier-by-multiplier, so the result is
    divergence free to rounding on any grid.
    """
    psi = random_band_field(grid, k_low, k_high, seed, slope=slope, amplitude=amplitude)
    return VectorField(-1.0 * derivative(psi, (0, 1)), derivative(psi, (1, 0)))
