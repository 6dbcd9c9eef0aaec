import math
from collections import Counter

import numpy as np
import pytest

from besovlab.spectral import Grid, SpectralField, VectorField, leray_project, make_grid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def smooth_random_field(grid: Grid, rng, k0: float = 6.0, mean_zero: bool = True, amplitude: float = 1.0) -> SpectralField:
    """Random real field with Gaussian-damped spectrum; handy generic test input."""
    raw = rng.standard_normal((grid.n, grid.n))
    modes = np.fft.rfft2(raw) * np.exp(-((grid.k_magnitude * grid.L / (2 * np.pi)) / k0) ** 2)
    if mean_zero:
        modes[0, 0] = 0.0
    f = SpectralField(grid, modes)
    scale = f.linf()
    return f * (amplitude / scale) if scale > 0 else f


def single_mode(grid: Grid, mx: int, my: int) -> SpectralField:
    """Exact real mode cos((mx x + my y) 2 pi / L), set in half-spectrum coefficient space (|my| < n/2).

    Its two exponentials e^(+-ik.x) carry 1/2 each; the half spectrum stores
    whichever of +-k has ky >= 0 (both when my = 0).
    """
    n = grid.n
    modes = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    for kx, ky in ((mx, my), (-mx, -my)):
        if ky >= 0:
            modes[kx % n, ky] += 0.5 * n**2
    return SpectralField(grid, modes)


def single_mode_lp_norm(grid: Grid, mx: int, my: int, p: float) -> float:
    """Closed form of the node-quadrature L^p norm of ``single_mode(grid, mx, my)``.

    The node phases (mx i + my k) 2 pi / n take the P = n / gcd(mx, my, n)
    values 2 pi r / P equally often, so the norm is L^(2/p) times the p-th
    root of the mean of |cos(2 pi r / P)|^p over r < P; the sup is 1 (the
    node at the origin).  As P grows that mean tends to the continuum
    Gamma((p+1)/2) / (sqrt(pi) Gamma(p/2+1)), which it equals (1/2) at p = 2
    for every P >= 3.
    """
    if math.isinf(p):
        return 1.0
    P = grid.n // math.gcd(mx, my, grid.n)
    mean = np.mean(np.abs(np.cos(2.0 * np.pi * np.arange(P) / P)) ** p)
    return float(grid.L ** (2.0 / p) * mean ** (1.0 / p))


def smooth_random_divfree(grid: Grid, rng, k0: float = 6.0, amplitude: float = 1.0) -> VectorField:
    V = VectorField(
        smooth_random_field(grid, rng, k0=k0),
        smooth_random_field(grid, rng, k0=k0),
    )
    V = leray_project(V)
    scale = V.linf()
    return V * (amplitude / scale) if scale > 0 else V


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts, by name, of the numpy.fft transforms called while the test runs."""
    calls = Counter()
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2"):
        def counted(*args, _transform=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def grid64():
    return make_grid(64)


@pytest.fixture
def grid32():
    return make_grid(32)
