"""Bony splitting identities, support properties, and commutator behavior."""

import numpy as np
import pytest

from besovlab.dyadic import build_ladder, phi
from besovlab.norms import lp_norm
from besovlab.paraproduct import (
    commutator_block,
    para_T,
    para_T_conj,
    remainder_R,
    transport_commutator,
)
from besovlab.spectral import (
    SpectralField,
    VectorField,
    advect,
    derivative,
    make_grid,
    multiply,
)
from conftest import single_mode, smooth_random_field


@pytest.fixture(scope="module")
def ladder():
    return build_ladder(make_grid(64))


def rough_random_field(grid, rng, slope=-1.0, with_mean=True):
    """Random field with a power-law spectrum, rough enough to stress the splitting."""
    phases = np.exp(2j * np.pi * rng.random((grid.n, grid.n)))
    k1 = 2.0 * np.pi / grid.L * grid.mode_index
    kmag = np.hypot(k1[:, None], k1[None, :])  # the full n x n lattice
    amp = np.where(kmag > 0, (1.0 + kmag) ** slope, 0.0)
    modes = amp * phases * grid.n**2 / grid.n
    f = SpectralField.from_physical(grid, np.fft.ifft2(modes).real)  # hermitize
    if with_mean:
        f = f + SpectralField.from_physical(grid, np.full((grid.n, grid.n), rng.uniform(-1, 1)))
    return f


def max_mode(f):
    return float(np.max(np.abs(f.modes)))


class TestBonyIdentities:
    def test_two_term_telescope(self, ladder, rng):
        grid = ladder.grid
        for _ in range(5):
            u = rough_random_field(grid, rng)
            v = rough_random_field(grid, rng)
            lhs = para_T(u, v) + para_T_conj(u, v)
            uv = multiply(u, v)
            assert max_mode(lhs - uv) < 1e-12 * max_mode(uv)

    def test_three_term_bony(self, ladder, rng):
        grid = ladder.grid
        for _ in range(5):
            u = rough_random_field(grid, rng, slope=-0.5)
            v = rough_random_field(grid, rng, slope=-1.5)
            lhs = para_T(u, v) + para_T(v, u) + remainder_R(u, v)
            uv = multiply(u, v)
            assert max_mode(lhs - uv) < 1e-12 * max_mode(uv)

    def test_constant_first_factor(self, ladder, rng):
        grid = ladder.grid
        v = smooth_random_field(grid, rng, mean_zero=True)
        c = SpectralField.from_physical(grid, np.full((grid.n, grid.n), 2.0))
        got = para_T(c, v)
        assert max_mode(got - 2.0 * v) < 1e-12 * max_mode(v)

    def test_constant_first_factor_drops_mean(self, ladder, rng):
        grid = ladder.grid
        v = smooth_random_field(grid, rng, mean_zero=False)
        c = SpectralField.from_physical(grid, np.full((grid.n, grid.n), -1.5))
        got = para_T(c, v)
        centered = v + SpectralField.from_physical(
            grid, np.full((grid.n, grid.n), -complex(v.mean).real)
        )
        assert max_mode(got - (-1.5) * centered) < 1e-12 * max_mode(v)

    def test_zero_second_factor(self, ladder, rng):
        u = smooth_random_field(ladder.grid, rng)
        assert max_mode(para_T(u, SpectralField.zero(ladder.grid))) == 0.0

    def test_grid_mismatch(self, ladder, rng):
        u = smooth_random_field(ladder.grid, rng)
        w = smooth_random_field(make_grid(32), rng)
        with pytest.raises(ValueError):
            para_T(u, w)

    def test_remainder_symmetric(self, ladder, rng):
        u = rough_random_field(ladder.grid, rng)
        v = rough_random_field(ladder.grid, rng)
        a = remainder_R(u, v)
        b = remainder_R(v, u)
        assert max_mode(a - b) < 1e-13 * max(max_mode(a), 1.0)

    def test_remainder_of_separated_spectra(self, ladder):
        u = single_mode(ladder.grid, 1, 1)  # octave 0
        v = single_mode(ladder.grid, 16, 16)  # octave 4
        assert max_mode(remainder_R(u, v)) < 1e-13 * ladder.grid.n**2


@pytest.mark.parametrize("piece", [para_T, para_T_conj, remainder_R])
def test_each_paraproduct_folds_once(piece, ladder, rng, fft_calls):
    u, v = rough_random_field(ladder.grid, rng), rough_random_field(ladder.grid, rng)
    fft_calls.clear()
    piece(u, v)
    assert fft_calls["rfft"] == 1


class TestSupportProperty:
    def test_low_high_term_lives_in_annulus(self, ladder, rng):
        grid = ladder.grid
        u = rough_random_field(grid, rng)
        v = rough_random_field(grid, rng)
        kmag = grid.k_magnitude
        for j in ladder.js:
            term = multiply(ladder.low_pass(u, j - 1), ladder.block(v, j))
            # Parseval on the half spectrum: interior columns stand for two modes
            spectrum = np.abs(term.modes) ** 2 * grid.parseval_weights
            energy = np.sum(spectrum)
            if energy == 0.0:
                continue
            outside = (kmag < 2.0**j / 12.0) | (kmag > 2.0**j * 10.0 / 3.0)
            leak = np.sum(spectrum[outside])
            assert leak <= 1e-12 * energy, j


class TestBlockCommutator:
    def test_constant_a(self, ladder, rng):
        grid = ladder.grid
        a = SpectralField.from_physical(grid, np.full((grid.n, grid.n), 1.7))
        f = VectorField(smooth_random_field(grid, rng), smooth_random_field(grid, rng))
        comm = commutator_block(a, f, 2)
        scale = max(max_mode(f.u1), max_mode(f.u2))
        assert max(max_mode(comm.u1), max_mode(comm.u2)) < 1e-13 * scale

    def test_zero_f(self, ladder, rng):
        a = smooth_random_field(ladder.grid, rng)
        comm = commutator_block(a, SpectralField.zero(ladder.grid), 2)
        assert max_mode(comm) == 0.0

    def test_first_order_gain(self, ladder, rng):
        # ||[block_j, a] f||_p <= C 2^{-j} ||grad a||_inf ||f near j||_p
        grid = ladder.grid
        a = smooth_random_field(grid, rng, k0=4.0)
        ga = np.sqrt(
            np.abs(derivative(a, (1, 0)).values) ** 2 + np.abs(derivative(a, (0, 1)).values) ** 2
        )
        grad_inf = float(ga.max())
        f = smooth_random_field(grid, rng, k0=18.0)
        worst = 0.0
        for j in range(1, ladder.j_max + 1):
            comm = commutator_block(a, f, j)
            near = SpectralField.zero(grid)
            for jp in range(max(ladder.j_min, j - 4), min(ladder.j_max, j + 4) + 1):
                near = near + ladder.block(f, jp)
            near = near + ladder.low_pass(f, j - 4)
            denom = 2.0**-j * grad_inf * lp_norm(near, 2)
            if denom > 0:
                worst = max(worst, lp_norm(comm, 2) / denom)
        assert 0.0 < worst <= 8.0


class TestTransportCommutator:
    def test_constant_velocity(self, ladder, rng):
        grid = ladder.grid
        u = VectorField.from_physical(grid, np.full((grid.n, grid.n), 0.8), np.full((grid.n, grid.n), -0.3))
        a = smooth_random_field(grid, rng)
        comm = transport_commutator(u, a, 2)
        scale = max_mode(advect(u, a)) + 1.0
        assert max_mode(comm) < 1e-12 * scale

    def test_single_mode_oracle(self, ladder):
        # u = (cos 7y, 0), a = cos 2x: the advection -2 sin 2x cos 7y =
        # -sin(2x + 7y) - sin(2x - 7y) has modes at (+-2, +-7), the block of a
        # at octave 2 vanishes (phi(0.5)=0), so the commutator is exactly
        # -block_2(u . grad a) with hand-computable coefficients: -phi i/2 at
        # (2, 7) and +phi i/2 at (-2, 7) in the half spectrum, their
        # conjugates at (-2, -7) and (2, -7) implied.
        grid = ladder.grid
        n2 = grid.n**2
        j = 2
        u = VectorField(single_mode(grid, 0, 7), SpectralField.zero(grid))
        a = single_mode(grid, 2, 0)
        comm = transport_commutator(u, a, j)
        r = np.hypot(2.0, 7.0) / 2.0**j
        expected = np.zeros((grid.n, grid.n // 2 + 1), dtype=np.complex128)
        expected[2, 7] = -phi(np.array(r)) * 0.5j * n2
        expected[(-2) % grid.n, 7] = phi(np.array(r)) * 0.5j * n2
        assert np.max(np.abs(comm.modes - expected)) < 1e-12 * n2

    def test_bilinear_in_u(self, ladder, rng):
        from conftest import smooth_random_divfree

        grid = ladder.grid
        u = smooth_random_divfree(grid, rng)
        a = smooth_random_field(grid, rng)
        c1 = transport_commutator(u, a, 3)
        c2 = transport_commutator(2.0 * u, a, 3)
        assert max_mode(c2 - 2.0 * c1) < 1e-14 * max(max_mode(c1), 1.0)

    def test_rejects_compressible_velocity(self, ladder, rng):
        grid = ladder.grid
        u = VectorField(smooth_random_field(grid, rng), smooth_random_field(grid, rng))
        a = smooth_random_field(grid, rng)
        with pytest.raises(ValueError):
            transport_commutator(u, a, 2)
