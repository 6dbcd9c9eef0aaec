"""Cutoff profiles and dyadic ladder checks, with enumeration oracles."""

import numpy as np
import pytest

from besovlab.dyadic import (
    ANNULUS_INNER,
    ANNULUS_OUTER,
    BALL_RADIUS,
    build_ladder,
    chi,
    phi,
)
from besovlab.spectral import SpectralField, make_grid, multiply
from conftest import single_mode, smooth_random_field


def lattice_live_octaves(n, L):
    """Oracle: octaves whose open annulus contains a nonzero lattice wavenumber."""
    g = make_grid(n, L)
    radii = np.unique(g.k_magnitude)
    radii = radii[radii > 0]
    live = []
    for j in range(-10, 20):
        lo, hi = ANNULUS_INNER * 2.0**j, ANNULUS_OUTER * 2.0**j
        if np.any((radii > lo) & (radii < hi)):
            live.append(j)
    return live


class TestCutoffs:
    def test_point_values(self):
        assert phi(np.array(1.4)) == pytest.approx(1.0, abs=1e-12)
        assert phi(np.array(0.7)) == 0.0
        assert chi(np.array(1.0)) + phi(np.array(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_supports(self):
        r = np.linspace(0.0, 4.0, 2001)
        phi_r = phi(r)
        chi_r = chi(r)
        assert np.all(phi_r[(r < ANNULUS_INNER) | (r > ANNULUS_OUTER)] == 0.0)
        assert np.all(chi_r[r > BALL_RADIUS] == 0.0)
        assert np.all(np.abs(chi_r[r <= ANNULUS_INNER] - 1.0) < 1e-12)
        assert np.all((phi_r >= 0) & (phi_r <= 1 + 1e-12))
        assert np.all((chi_r >= -1e-12) & (chi_r <= 1 + 1e-12))

    def test_phi_is_one_on_overlap_free_zone(self):
        r = np.linspace(4.0 / 3.0 + 1e-9, 1.5 - 1e-9, 500)
        assert np.max(np.abs(phi(r) - 1.0)) < 1e-12

    def test_dyadic_partition_of_unity(self):
        r = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 10_000))
        total = np.zeros_like(r)
        for j in range(-25, 26):
            total += phi(r / 2.0**j)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_chi_completes_partition(self):
        r = np.exp(np.linspace(np.log(1e-3), np.log(1e2), 10_000))
        total = chi(r)
        for j in range(0, 25):
            total += phi(r / 2.0**j)
        assert np.max(np.abs(total - 1.0)) < 1e-12
        assert chi(np.array(0.0)) == 1.0


class TestLadder:
    def test_frozen_range_n256(self):
        ladder = build_ladder(make_grid(256))
        assert (ladder.j_min, ladder.j_max) == (-1, 7)

    def test_enumeration_oracle(self):
        for n, L in [(8, 2 * np.pi), (32, 2 * np.pi), (64, 1.0), (128, 10.0), (256, 2 * np.pi)]:
            ladder = build_ladder(make_grid(n, L))
            live = lattice_live_octaves(n, L)
            assert (ladder.j_min, ladder.j_max) == (live[0], live[-1]), (n, L)

    def test_minimum_grid_has_three_blocks(self):
        ladder = build_ladder(make_grid(8))
        assert len(ladder.js) >= 3

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            build_ladder(make_grid(4))

    def test_one_read_only_ladder_per_grid(self):
        ladder = build_ladder(make_grid(64))
        assert build_ladder(make_grid(64)) is ladder
        assert build_ladder(make_grid(64, 1.0)) is not ladder
        for mask in (ladder.phi_mask(ladder.j_min), ladder.phi_mask(ladder.j_max + 3), ladder.chi_mask(2)):
            with pytest.raises(ValueError):
                mask[0, 0] = 0.0

    def test_reconstruction(self, rng):
        grid = make_grid(64)
        ladder = build_ladder(grid)
        for mean_zero in (True, False):
            f = smooth_random_field(grid, rng, mean_zero=mean_zero)
            r = ladder.reconstruct(f)
            assert np.max(np.abs(r.modes - f.modes)) < 1e-12 * np.max(np.abs(f.modes))

    def test_block_range_enforced(self, rng):
        grid = make_grid(64)
        ladder = build_ladder(grid)
        f = smooth_random_field(grid, rng)
        with pytest.raises(ValueError):
            ladder.block(f, ladder.j_max + 1)
        with pytest.raises(ValueError):
            ladder.block(f, ladder.j_min - 1)

    def test_single_mode_block(self):
        # |k| = sqrt(2)*2^j sits in the phi==1 zone (4/3, 3/2) of octave j
        grid = make_grid(64)
        ladder = build_ladder(grid)
        j = 3
        k = 2**j
        u = single_mode(grid, k, k)
        got = ladder.block(u, j)
        assert np.max(np.abs(got.modes - u.modes)) < 1e-12 * grid.n**2
        for jp in ladder.js:
            if abs(jp - j) >= 2:
                assert np.max(np.abs(ladder.block(u, jp).modes)) == 0.0

    def test_constant_field_lives_in_low_block(self):
        grid = make_grid(64)
        ladder = build_ladder(grid)
        c = SpectralField.from_physical(grid, np.full((64, 64), 3.0))
        for j in ladder.js:
            assert np.max(np.abs(ladder.block(c, j).modes)) == 0.0
        retained = ladder.inhomogeneous_block(c, -1)
        assert np.max(np.abs(retained.modes - c.modes)) < 1e-14 * grid.n**2
        with pytest.raises(ValueError):
            ladder.inhomogeneous_block(c, -2)

    def test_low_pass_examples(self, rng):
        grid = make_grid(64)
        ladder = build_ladder(grid)
        f = smooth_random_field(grid, rng, mean_zero=False)
        top = ladder.low_pass(f, ladder.j_max + 2)
        assert np.max(np.abs(top.modes - f.modes)) < 1e-12 * np.max(np.abs(f.modes))
        # single mode beyond the chi support
        u = single_mode(grid, 12, 0)
        assert np.max(np.abs(ladder.low_pass(u, 3).modes)) == 0.0  # 12 > 2^3 * 4/3
        # telescoping: S_j + sum of higher blocks = identity
        for j in (ladder.j_min, 1, ladder.j_max):
            acc = ladder.low_pass(f, j)
            for jp in range(j, ladder.j_max + 1):
                acc = acc + ladder.block(f, jp)
            assert np.max(np.abs(acc.modes - f.modes)) < 1e-12 * np.max(np.abs(f.modes))

    def test_almost_orthogonality(self, rng):
        grid = make_grid(64)
        ladder = build_ladder(grid)
        f = smooth_random_field(grid, rng, k0=20.0)
        for j in ladder.js:
            bj = ladder.block(f, j)
            for k in ladder.js:
                if abs(k - j) >= 2:
                    assert np.max(np.abs(ladder.block(bj, k).modes)) == 0.0

    def test_block_paraproduct_support_separation(self, rng):
        # a block of (low-pass u times block v) vanishes when octaves differ by >= 5
        grid = make_grid(64)
        ladder = build_ladder(grid)
        u = smooth_random_field(grid, rng, k0=20.0)
        v = smooth_random_field(grid, rng, k0=20.0)
        scale = grid.n**2
        for j in ladder.js:
            term = multiply(ladder.low_pass(u, j - 1), ladder.block(v, j))
            for k in ladder.js:
                if abs(k - j) >= 5:
                    assert np.max(np.abs(ladder.block(term, k).modes)) < 1e-14 * scale, (j, k)

    def test_blocks_uniformly_lp_bounded(self, rng):
        grid = make_grid(64)
        ladder = build_ladder(grid)
        area = grid.cell_area

        def lp(vals, p):
            if p == np.inf:
                return float(np.max(np.abs(vals)))
            return float((np.sum(np.abs(vals) ** p) * area) ** (1.0 / p))

        worst = 0.0
        for _ in range(5):
            f = smooth_random_field(grid, rng, k0=16.0)
            for j in ladder.js:
                bj = ladder.block(f, j)
                for p in (1, 2, np.inf):
                    denom = lp(f.values, p)
                    worst = max(worst, lp(bj.values, p) / denom)
        assert worst <= 1.2
