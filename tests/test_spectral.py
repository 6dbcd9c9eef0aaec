"""Core transform/operator checks against closed forms and algebraic identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab.spectral import (
    SpectralField,
    VectorField,
    derivative,
    divergence,
    gradient,
    gradient_part,
    heat_propagate,
    inverse_laplacian,
    leray_project,
    make_grid,
    multiply,
    potential_from_gradient,
    real_samples,
    refine,
    require_solenoidal,
    reused_factor,
)
from besovlab.spectral import _product_samples
from conftest import smooth_random_field


def l2_quadrature(f):
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.cell_area))


def full_width_real_product(fm, gm, grid):
    """Reference product kernel that transforms the whole padded half spectrum.

    Full-width irfft2/rfft2 on the M x (M//2+1) half spectrum, of which only
    the first n/2+1 columns are nonzero going in or read coming out.
    """
    n, M, h = grid.n, grid.product_size, grid.n // 2
    flip = grid.flip_index

    def samples(c):
        half = (0.5 * (M / n) ** 2) * (c[:, : h + 1] + np.conj(c[np.ix_(flip, flip[: h + 1])]))
        half[h] *= 0.5
        half[:, h] *= 0.5
        padded = np.zeros((M, M // 2 + 1), dtype=np.complex128)
        padded[: h + 1, : h + 1] = half[: h + 1]
        padded[M - h :, : h + 1] = half[h:]
        return np.fft.irfft2(padded, s=(M, M))

    q = np.fft.rfft2(samples(fm) * samples(gm))
    half = np.concatenate((q[:h, : h + 1], q[M - h :, : h + 1]))
    half[h] += q[h, : h + 1]
    half[:, h] += np.conj(half[flip, h])
    out = np.empty((n, n), dtype=np.complex128)
    out[:, : h + 1] = half
    out[:, h + 1 :] = np.conj(half[np.ix_(flip, flip[h + 1 :])])
    out *= (n / M) ** 2
    return out


def full_width_multiply(f, g):
    """`multiply` on the reference kernel: a complex factor is Re f + i Re(-i f)."""

    def parts(x):
        return [(1.0, x.modes)] if x.real else [(1.0, x.modes), (1j, -1j * x.modes)]

    return sum(cf * cg * full_width_real_product(fm, gm, f.grid) for cf, fm in parts(f) for cg, gm in parts(g))


class TestGrid:
    def test_make_grid_validation(self):
        for bad in (0, 4, 6, 12, 100, -8):
            with pytest.raises(ValueError):
                make_grid(bad)
        with pytest.raises(ValueError):
            make_grid(16, -1.0)
        g = make_grid(8, 1.0)
        assert g.h == pytest.approx(0.125)

    def test_operator_tables_are_read_only(self, grid64):
        tables = (grid64.flip_index, *grid64.derivative_symbols, *grid64.projector_tables)
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0

    def test_wavenumbers_are_integer_multiples(self):
        g = make_grid(16, L=4.0)
        assert g.kx[1, 0] == pytest.approx(2 * np.pi / 4.0)
        assert g.kx[8, 0] == pytest.approx(-8 * 2 * np.pi / 4.0)
        assert g.ky[0, 3] == pytest.approx(3 * 2 * np.pi / 4.0)

    def test_round_trip(self, grid64, rng):
        v = rng.standard_normal((64, 64))
        f = SpectralField.from_physical(grid64, v)
        assert np.max(np.abs(f.values - v)) < 1e-12 * np.max(np.abs(v))

    def test_parseval(self, grid64, rng):
        f = smooth_random_field(grid64, rng)
        spectral = grid64.L / grid64.n**2 * float(np.linalg.norm(f.modes))
        assert l2_quadrature(f) == pytest.approx(spectral, rel=1e-12)


class TestDerivative:
    def test_closed_form(self, grid64):
        x, y = grid64.coords
        f = SpectralField.from_physical(grid64, np.sin(3 * x) * np.cos(2 * y))
        fx = derivative(f, (1, 0)).values
        fy = derivative(f, (0, 1)).values
        assert np.max(np.abs(fx - 3 * np.cos(3 * x) * np.cos(2 * y))) < 1e-12
        assert np.max(np.abs(fy + 2 * np.sin(3 * x) * np.sin(2 * y))) < 1e-12
        lap = derivative(f, (2, 0)) + derivative(f, (0, 2))
        assert np.max(np.abs(lap.values + 13 * f.values)) < 1e-11

    def test_mixed_partial(self, grid64):
        x, y = grid64.coords
        f = SpectralField.from_physical(grid64, np.sin(x) * np.sin(y))
        fxy = derivative(f, (1, 1)).values
        assert np.max(np.abs(fxy - np.cos(x) * np.cos(y))) < 1e-13

    def test_odd_order_keeps_real_fields_real(self, grid64, rng):
        # field with full Nyquist content
        f = SpectralField.from_physical(grid64, rng.standard_normal((64, 64)))
        g = derivative(f, (3, 0))
        assert g.real
        # reconstructing through complex ifft should carry ~no imaginary part
        assert np.max(np.abs(np.fft.ifft2(g.modes).imag)) < 1e-9 * max(1.0, g.linf())

    def test_rejects_negative_order(self, grid64):
        f = SpectralField.zero(grid64)
        with pytest.raises(ValueError):
            derivative(f, (-1, 0))


class TestProducts:
    def test_trig_identity(self, grid64):
        x, _ = grid64.coords
        s = SpectralField.from_physical(grid64, np.sin(x))
        p = multiply(s, s)
        assert np.max(np.abs(p.values - (1 - np.cos(2 * x)) / 2)) < 1e-14

    def test_single_mode_product(self):
        g = make_grid(16)
        x, _ = g.coords
        f = SpectralField.from_physical(g, np.exp(3j * x))
        h = SpectralField.from_physical(g, np.exp(2j * x))
        p = multiply(f, h)
        assert np.max(np.abs(p.values - np.exp(5j * x))) < 1e-13

    def test_no_aliasing(self):
        # 7+5=12 exceeds the n=16 band; a naive product would wrap it to -4
        g = make_grid(16)
        x, _ = g.coords
        f = SpectralField.from_physical(g, np.exp(7j * x))
        h = SpectralField.from_physical(g, np.exp(5j * x))
        p = multiply(f, h)
        assert np.max(np.abs(p.modes)) < 1e-12 * g.n**2

    def test_product_with_constant(self, grid64, rng):
        f = smooth_random_field(grid64, rng)
        c = SpectralField.from_physical(grid64, np.full((64, 64), 2.5))
        p = multiply(c, f)
        assert np.max(np.abs(p.modes - 2.5 * f.modes)) < 1e-12 * np.max(np.abs(f.modes))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([8, 16, 32]),
        factor=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_refine_keeps_node_values_with_nyquist_content(self, n, factor, seed):
        # white noise carries content on the Nyquist lines
        g = make_grid(n)
        f = SpectralField.from_physical(g, np.random.default_rng(seed).standard_normal((n, n)))
        fine = refine(f, factor)
        assert fine.grid.n == factor * n
        assert np.max(np.abs(fine.values[::factor, ::factor] - f.values)) < 1e-12 * f.linf()
        # the Nyquist split keeps the samples between the coarse nodes real
        assert np.max(np.abs(np.fft.ifft2(fine.modes).imag)) < 1e-12 * f.linf()

    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    @pytest.mark.parametrize("n", [8, 32])
    def test_real_samples_match_refined_values(self, n, factor):
        g = make_grid(n)
        rng = np.random.default_rng(n + factor)
        # white noise carries Nyquist content; the complex field is not Hermitian
        real = SpectralField.from_physical(g, rng.standard_normal((n, n)))
        cplx = SpectralField.from_physical(g, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for f in (real, cplx):
            want = refine(f, factor).values.real
            got = real_samples(f, factor * n)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        with pytest.raises(ValueError, match="at least"):
            real_samples(real, n - 1)

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_product_samples_are_the_product_grid_formula(self, n):
        g = make_grid(n)
        M, h, flip = g.product_size, n // 2, g.flip_index
        rng = np.random.default_rng(n)
        f = SpectralField.from_physical(g, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        # the product grid's samples written out for that one size
        c = f.modes
        half = (0.5 * (M / n) ** 2) * (c[:, : h + 1] + np.conj(c[np.ix_(flip, flip[: h + 1])]))
        half[h] *= 0.5
        half[:, h] *= 0.5
        padded = np.zeros((M, h + 1), dtype=np.complex128)
        padded[: h + 1] = half[: h + 1]
        padded[M - h :] = half[h:]
        assert np.array_equal(_product_samples(f), np.fft.irfft2(padded, s=(M, M)))

    @pytest.mark.parametrize("n, size", [(8, 15), (16, 25), (64, 100), (128, 200)])
    def test_product_grid_is_smallest_5_smooth_above_three_halves(self, n, size):
        assert make_grid(n).product_size == size

    @pytest.mark.parametrize("n", [8, 16, 64, 128])
    def test_real_and_complex_paths_agree(self, n, rng):
        # white noise carries content on the Nyquist lines
        g = make_grid(n)
        f = SpectralField.from_physical(g, rng.standard_normal((n, n)))
        h = SpectralField.from_physical(g, rng.standard_normal((n, n)))
        real_path = multiply(f, h)
        complex_path = multiply(f.with_modes(f.modes, real=False), h.with_modes(h.modes, real=False))
        assert real_path.real and not complex_path.real
        scale = np.max(np.abs(complex_path.modes))
        assert np.max(np.abs(real_path.modes - complex_path.modes)) < 1e-13 * scale
        reused = multiply(reused_factor(f), h)
        assert np.max(np.abs(reused.modes - real_path.modes)) < 1e-13 * scale

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
    def test_kernel_is_bitwise_equal_to_full_width_transforms(self, n, rng):
        g = make_grid(n)
        shape = (n, n)
        f = SpectralField.from_physical(g, rng.standard_normal(shape))
        h = SpectralField.from_physical(g, rng.standard_normal(shape))
        # real-flagged but not Hermitian: the kernel multiplies its real part
        skew = SpectralField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        cf, ch = f.with_modes(f.modes, real=False), skew.with_modes(skew.modes, real=False)
        for x, y in ((f, h), (reused_factor(f), h), (h, reused_factor(f)), (skew, h), (cf, h), (cf, ch)):
            got = multiply(x, y)
            assert got.real == (x.real and y.real)
            assert np.array_equal(got.modes, full_width_multiply(x, y))

    def test_real_flag_multiplies_by_the_real_part(self, rng):
        g = make_grid(16)
        shape = (16, 16)
        f = SpectralField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        h = SpectralField.from_physical(g, rng.standard_normal(shape))
        f_real_part = SpectralField.from_physical(g, f.values)
        expected = multiply(f_real_part, h).modes
        assert np.max(np.abs(multiply(f, h).modes - expected)) < 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [8, 16, 64, 128])
    def test_corner_nyquist_square_is_a_constant(self, n):
        # cos(n/2 x) cos(n/2 y) squared is 1/4 plus modes at |k| = n, which
        # must be dropped, not folded onto the retained Nyquist lines
        g = make_grid(n)
        x, y = g.coords
        f = SpectralField.from_physical(g, np.cos(n / 2 * x) * np.cos(n / 2 * y))
        modes = multiply(f, f).modes / n**2
        assert abs(modes[0, 0] - 0.25) < 1e-15
        modes[0, 0] = 0.0
        assert np.max(np.abs(modes)) < 1e-15


class TestProjectors:
    def test_p_plus_q_is_identity(self, grid64, rng):
        V = VectorField(smooth_random_field(grid64, rng), smooth_random_field(grid64, rng))
        P = leray_project(V)
        Q = gradient_part(V)
        for w, v in zip((P + Q).components, V.components):
            assert np.max(np.abs(w.modes - v.modes)) < 1e-13 * max(1.0, np.max(np.abs(v.modes)))

    def test_idempotent_and_annihilating(self, grid64, rng):
        V = VectorField(smooth_random_field(grid64, rng), smooth_random_field(grid64, rng))
        P = leray_project(V)
        PP = leray_project(P)
        scale = max(np.max(np.abs(c.modes)) for c in V.components)
        for w, v in zip(PP.components, P.components):
            assert np.max(np.abs(w.modes - v.modes)) < 1e-13 * scale
        QP = gradient_part(P)
        for w in QP.components:
            assert np.max(np.abs(w.modes)) < 1e-13 * scale

    def test_projection_is_divergence_free(self, grid64, rng):
        V = VectorField(smooth_random_field(grid64, rng), smooth_random_field(grid64, rng))
        P = leray_project(V)
        div = divergence(P)
        assert l2_quadrature(div) < 1e-10 * max(1.0, l2_quadrature(V.u1))

    def test_gradient_fields_are_fixed_by_q(self, grid64, rng):
        f = smooth_random_field(grid64, rng)
        G = gradient(f)
        QG = gradient_part(G)
        for w, v in zip(QG.components, G.components):
            assert np.max(np.abs(w.modes - v.modes)) < 1e-12 * max(1.0, np.max(np.abs(v.modes)))

    def test_nan_velocity_is_not_solenoidal(self):
        grid = make_grid(8)
        vals = np.zeros((8, 8))
        vals[2, 6] = np.nan
        with pytest.raises(ValueError, match="solenoidal"):
            require_solenoidal(VectorField.from_physical(grid, vals, np.zeros((8, 8))))

    def test_mean_mode_kept_by_leray(self, grid64):
        V = VectorField.from_physical(grid64, np.full((64, 64), 1.5), np.full((64, 64), -0.5))
        P = leray_project(V)
        assert P.u1.mean == pytest.approx(1.5)
        assert P.u2.mean == pytest.approx(-0.5)
        Q = gradient_part(V)
        assert abs(Q.u1.mean) == 0.0

    def test_projection_consistent_on_half_nyquist_lines(self):
        # The projector must follow the same convention as `derivative`,
        # which treats the unpaired -n/2 frequency as derivative-free;
        # otherwise fields with content there come back "projected" yet fail
        # a divergence check.
        grid = make_grid(32)
        rng = np.random.default_rng(7)
        V = VectorField(
            smooth_random_field(grid, rng, k0=12.0),
            smooth_random_field(grid, rng, k0=12.0),
        )
        nyq = np.max(np.abs(V.u1.modes[grid.n // 2, :])) / grid.n**2
        assert nyq > 1e-6  # the input genuinely exercises the unpaired line
        P = leray_project(V)
        assert np.max(np.abs(divergence(P).values.real)) < 1e-13
        rec = P + gradient_part(V)
        for w, v in zip(rec.components, V.components):
            assert np.max(np.abs(w.modes - v.modes)) < 1e-13 * grid.n**2


class TestHeat:
    def test_single_mode_decay(self, grid64):
        x, y = grid64.coords
        f = SpectralField.from_physical(grid64, np.cos(3 * x + 4 * y))
        g = heat_propagate(f, nu=0.7, t=0.2)
        assert np.max(np.abs(g.values - np.exp(-0.7 * 0.2 * 25.0) * f.values)) < 1e-13

    def test_semigroup(self, grid64, rng):
        f = smooth_random_field(grid64, rng)
        a = heat_propagate(heat_propagate(f, 1.0, 0.1), 1.0, 0.15)
        b = heat_propagate(f, 1.0, 0.25)
        assert np.max(np.abs(a.modes - b.modes)) < 1e-12 * np.max(np.abs(f.modes))

    def test_t_zero_is_identity_and_negative_rejected(self, grid64, rng):
        f = smooth_random_field(grid64, rng)
        g = heat_propagate(f, 1.0, 0.0)
        assert np.array_equal(g.modes, f.modes)
        with pytest.raises(ValueError):
            heat_propagate(f, 1.0, -0.1)

    def test_l2_contraction(self, grid64, rng):
        f = smooth_random_field(grid64, rng)
        assert l2_quadrature(heat_propagate(f, 1.0, 0.05)) <= l2_quadrature(f)


class TestInversion:
    def test_inverse_laplacian_inverts(self, grid64, rng):
        f = smooth_random_field(grid64, rng, mean_zero=True)
        g = inverse_laplacian(f)
        lap = derivative(g, (2, 0)) + derivative(g, (0, 2))
        assert np.max(np.abs(lap.values - f.values)) < 1e-11 * f.linf()
        assert abs(g.mean) < 1e-15

    def test_inverse_laplacian_rejects_mean(self, grid64):
        f = SpectralField.from_physical(grid64, np.ones((64, 64)))
        with pytest.raises(ValueError):
            inverse_laplacian(f)

    def test_potential_from_gradient(self, grid64, rng):
        f = smooth_random_field(grid64, rng, mean_zero=True)
        g = potential_from_gradient(gradient(f))
        assert np.max(np.abs(g.values - f.values)) < 1e-12 * f.linf()
