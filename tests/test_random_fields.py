"""Determinism, localization, and grid-independence of the seeded ensembles."""

import math

import numpy as np
import pytest

from besovlab.random_fields import (
    band_wavevectors,
    random_annulus_field,
    random_ball_field,
    random_band_field,
    random_divergence_free,
    trial_seed,
)
from besovlab.spectral import derivative, make_grid, refine


def test_band_wavevectors_half_lattice():
    pts = band_wavevectors(2 * np.pi, 1.0, 3.0)
    assert (0, 0) not in pts
    for m1, m2 in pts:
        assert (-m1, -m2) not in pts
        assert 1.0 <= np.hypot(m1, m2) <= 3.0
    assert pts == sorted(pts)


def test_band_wavevectors_bad_band():
    with pytest.raises(ValueError):
        band_wavevectors(2 * np.pi, 5.0, 3.0)


def test_empty_band_rejected():
    grid = make_grid(32)
    with pytest.raises(ValueError):
        random_band_field(grid, 0.1, 0.9, 7)


def test_band_beyond_grid_rejected():
    grid = make_grid(16)
    with pytest.raises(ValueError):
        random_band_field(grid, 1.0, 12.0, 7)


def test_determinism_and_seed_sensitivity():
    grid = make_grid(32)
    a = random_band_field(grid, 2.0, 8.0, 123)
    b = random_band_field(grid, 2.0, 8.0, 123)
    c = random_band_field(grid, 2.0, 8.0, 124)
    assert np.array_equal(a.modes, b.modes)
    assert not np.allclose(a.modes, c.modes)


def test_trial_seed_streams_differ():
    grid = make_grid(32)
    a = random_band_field(grid, 2.0, 8.0, trial_seed(9, 0))
    b = random_band_field(grid, 2.0, 8.0, trial_seed(9, 1))
    assert not np.allclose(a.modes, b.modes)


def test_grid_independence_exact():
    coarse = make_grid(32)
    fine = make_grid(64)
    a32 = random_band_field(coarse, 1.0, 10.0, 42, slope=-1.0)
    a64 = random_band_field(fine, 1.0, 10.0, 42, slope=-1.0)
    assert np.max(np.abs(refine(a32, 2).modes - a64.modes)) < 1e-9 * np.max(np.abs(a64.modes))


def loop_band_field(grid, k_low, k_high, seed, *, slope=0.0, amplitude=1.0, mean=0.0):
    """Reference: the half spectrum random_band_field gives, one wavevector at a time."""
    points = band_wavevectors(grid.L, k_low, k_high)
    draws = np.random.default_rng(seed).standard_normal(2 * len(points))
    unit = 2.0 * math.pi / grid.L
    n = grid.n
    modes = np.zeros((n, n), dtype=np.complex128)
    for i, (m1, m2) in enumerate(points):
        kmag = math.hypot(m1, m2) * unit
        c = amplitude * kmag**slope * (draws[2 * i] + 1j * draws[2 * i + 1]) / math.sqrt(2.0)
        modes[m1 % n, m2 % n] += c * n**2
        modes[(-m1) % n, (-m2) % n] += np.conj(c) * n**2
    modes[0, 0] = mean * n**2
    return modes[:, : n // 2 + 1]


# (slope, amplitude, mean): every form the package draws, and slope 1.3, where
# NumPy's vector pow differs from the scalar one in the last bit.
DRAW_FORMS = [
    (0.0, 1.0, 0.0),
    (-0.5, 1.0, 0.0),
    (0.0, 1.0, 0.4),
    (0.0, 1.0, -0.2),
    (0.0, 1.0, 0.3),
    (0.0, 1.0, 0.2),
    (0.0, 0.05, 0.0),
    (0.0, 0.005, 0.0),
    (1.3, 1.0, 0.0),
]


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("slope, amplitude, mean", DRAW_FORMS)
def test_matches_the_loop_reference_bitwise(n, slope, amplitude, mean):
    grid = make_grid(n)
    seed = trial_seed(17, n)
    form = dict(slope=slope, amplitude=amplitude, mean=mean)
    f = random_band_field(grid, 1.0, n / 4.0, seed, **form)
    assert np.array_equal(f.modes, loop_band_field(grid, 1.0, n / 4.0, seed, **form))


@pytest.mark.parametrize("slope, amplitude, mean", DRAW_FORMS)
def test_same_seed_same_function_on_refinement(slope, amplitude, mean):
    form = dict(slope=slope, amplitude=amplitude, mean=mean)
    a64 = random_band_field(make_grid(64), 1.0, 14.0, trial_seed(18), **form)
    a128 = random_band_field(make_grid(128), 1.0, 14.0, trial_seed(18), **form)
    assert np.array_equal(refine(a64, 2).modes, a128.modes)


def test_field_is_real_with_requested_mean():
    grid = make_grid(32)
    f = random_band_field(grid, 1.0, 6.0, 5, mean=0.7)
    assert np.max(np.abs(f.values.imag)) == 0.0
    assert abs(complex(f.mean) - 0.7) < 1e-13


def test_annulus_localization():
    grid = make_grid(64)
    j = 3
    f = random_annulus_field(grid, j, 11)
    kmag = grid.k_magnitude
    live = np.abs(f.modes) > 0
    assert np.all(kmag[live] >= 0.75 * 2**j - 1e-12)
    assert np.all(kmag[live] <= (8.0 / 3.0) * 2**j + 1e-12)
    assert live.any()


def test_ball_localization():
    grid = make_grid(64)
    f = random_ball_field(grid, 3, 11, mean=0.2)
    kmag = grid.k_magnitude
    live = np.abs(f.modes) > 0
    assert np.all(kmag[live] <= 2**3 + 1e-12)


def test_divergence_free_to_rounding():
    grid = make_grid(64)
    u = random_divergence_free(grid, 2.0, 12.0, 17, slope=-0.5)
    div = derivative(u.u1, (1, 0)) + derivative(u.u2, (0, 1))
    scale = max(np.max(np.abs(u.u1.modes)), np.max(np.abs(u.u2.modes)))
    assert np.max(np.abs(div.modes)) < 1e-12 * scale


def test_slope_shapes_spectrum():
    grid = make_grid(64)
    flat = random_band_field(grid, 2.0, 20.0, 3, slope=0.0)
    red = random_band_field(grid, 2.0, 20.0, 3, slope=-2.0)
    kmag = np.where(grid.k_magnitude > 0, grid.k_magnitude, 1.0)
    ratio = np.abs(red.modes) * kmag**2 / np.where(np.abs(flat.modes) > 0, np.abs(flat.modes), 1.0)
    live = np.abs(flat.modes) > 0
    assert np.allclose(ratio[live], 1.0, rtol=1e-12)
