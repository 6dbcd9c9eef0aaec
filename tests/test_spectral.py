"""Core transform/operator checks against closed forms and algebraic identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab import spectral
from besovlab.dyadic import build_ladder, phi
from besovlab.elliptic import _inner
from besovlab.norms import BesovSpec, besov_norm
from besovlab.spectral import (
    SpectralField,
    VectorField,
    advect,
    derivative,
    divergence,
    gradient,
    gradient_part,
    heat_propagate,
    l2_norm,
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
from conftest import smooth_random_divfree, smooth_random_field


def l2_quadrature(f):
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.cell_area))


def full_width_real_product(fm, gm, grid):
    """Reference product kernel that transforms the whole padded half spectrum.

    Full-width irfft2/rfft2 on the M x (M//2+1) half spectrum, of which only
    the first n/2+1 columns are nonzero going in or read coming out.  The
    samples carry the scale (n/M)^2, and the output is scaled by (M/n)^2 once.
    """
    n, M, h = grid.n, grid.product_size, grid.n // 2

    def samples(c):
        padded = np.zeros((M, M // 2 + 1), dtype=np.complex128)
        padded[: h + 1, : h + 1] = c[: h + 1]
        padded[M - h :, : h + 1] = c[h:]
        padded[h] *= 0.5
        padded[M - h] *= 0.5
        padded[:, h] *= 0.5
        return np.fft.irfft2(padded, s=(M, M))

    q = np.fft.rfft2(samples(fm) * samples(gm))
    half = np.concatenate((q[:h, : h + 1], q[M - h :, : h + 1]))
    half[h] += q[h, : h + 1]
    half[:, h] += np.conj(half[-np.arange(n) % n, h])
    half *= (M / n) ** 2
    return half


def full_spectrum(f):
    """The n x n spectrum whose first n/2+1 columns are f's half spectrum, the rest by conjugate symmetry."""
    n, h = f.grid.n, f.grid.n // 2
    mirrored = np.conj(f.modes[-np.arange(n) % n])
    return np.concatenate((f.modes, mirrored[:, h - 1 : 0 : -1]), axis=1)


def white_noise(n, seed):
    """A real field of white noise, which carries content on the Nyquist lines."""
    return SpectralField.from_physical(make_grid(n), np.random.default_rng(seed).standard_normal((n, n)))


def dense_product_modes(f, g):
    """Half spectrum of fg by a 2n-grid reference.

    Refine both factors by 2, multiply node values, transform, and keep
    |k| <= n/2 per axis with +-n/2 folded onto the stored -n/2 line; exact
    for factors band-limited to |k| <= n/2.
    """
    n = f.grid.n
    N, h = 2 * n, n // 2
    Q = np.fft.fft2(refine(f, 2).values * refine(g, 2).values) / 4.0
    kept = np.arange(-h, h + 1)
    coarse = np.zeros((n, n), dtype=np.complex128)
    np.add.at(coarse, (kept[:, None] % n, kept[None, :] % n), Q[np.ix_(kept % N, kept % N)])
    return coarse[:, : h + 1]


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
        tables = (grid64.parseval_weights, *grid64.derivative_symbols, *grid64.projector_tables)
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0

    def test_wavenumbers_are_integer_multiples(self):
        g = make_grid(16, L=4.0)
        assert g.kx[1, 0] == pytest.approx(2 * np.pi / 4.0)
        assert g.kx[8, 0] == pytest.approx(-8 * 2 * np.pi / 4.0)
        assert g.ky[0, 3] == pytest.approx(3 * 2 * np.pi / 4.0)

    def test_tables_have_half_width(self, grid64):
        half = (64, 33)
        for table in (grid64.kx, grid64.ky, grid64.k_squared, grid64.k_magnitude, *grid64.projector_tables):
            assert table.shape == half
        assert grid64.half_grad_inverse_neg_laplacian.shape == (2, *half)
        assert SpectralField.zero(grid64).modes.shape == half

    def test_fields_are_real(self, grid64, rng):
        with pytest.raises(ValueError, match="real"):
            SpectralField.from_physical(grid64, np.ones((64, 64)) + 1j)
        f = SpectralField.from_physical(grid64, rng.standard_normal((64, 64)))
        with pytest.raises(ValueError, match="real"):
            f * 1j
        assert not hasattr(f, "real")
        with pytest.raises(ValueError, match="shape"):
            SpectralField(grid64, np.zeros((64, 64), dtype=np.complex128))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_node_values_rejected(self, bad):
        grid = make_grid(8)
        vals = np.zeros((8, 8))
        vals[3, 5] = bad
        with pytest.raises(ValueError, match=rf"node \(3, 5\) holds {bad}"):
            SpectralField.from_physical(grid, vals)
        with pytest.raises(ValueError, match=rf"node \(3, 5\) holds {bad}"):
            VectorField.from_physical(grid, np.zeros((8, 8)), vals)

    def test_round_trip(self, grid64, rng):
        v = rng.standard_normal((64, 64))
        f = SpectralField.from_physical(grid64, v)
        assert np.max(np.abs(f.values - v)) < 1e-12 * np.max(np.abs(v))

    def test_parseval(self, grid64, rng):
        f = smooth_random_field(grid64, rng)
        spectral = grid64.L / grid64.n**2 * float(np.sqrt(np.sum(np.abs(f.modes) ** 2 * grid64.parseval_weights)))
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
        # reconstructing through complex ifft should carry ~no imaginary part
        assert np.max(np.abs(np.fft.ifft2(full_spectrum(g)).imag)) < 1e-9 * max(1.0, g.linf())

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
        # exp(3ix) exp(2ix) = exp(5ix), by its real and imaginary parts
        g = make_grid(16)
        x, _ = g.coords
        c3, s3, c2, s2 = (SpectralField.from_physical(g, v) for v in (np.cos(3 * x), np.sin(3 * x), np.cos(2 * x), np.sin(2 * x)))
        re = multiply(c3, c2) - multiply(s3, s2)
        im = multiply(c3, s2) + multiply(s3, c2)
        assert np.max(np.abs(re.values - np.cos(5 * x))) < 1e-13
        assert np.max(np.abs(im.values - np.sin(5 * x))) < 1e-13

    def test_no_aliasing(self):
        # 7+5=12 exceeds the n=16 band; a naive product would wrap it to -4.
        # exp(7ix) exp(5ix) by its real and imaginary parts, cos 12x and sin 12x
        g = make_grid(16)
        x, _ = g.coords
        c7, s7, c5, s5 = (SpectralField.from_physical(g, v) for v in (np.cos(7 * x), np.sin(7 * x), np.cos(5 * x), np.sin(5 * x)))
        for p in (multiply(c7, c5) - multiply(s7, s5), multiply(c7, s5) + multiply(s7, c5)):
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
        assert np.max(np.abs(np.fft.ifft2(full_spectrum(fine)).imag)) < 1e-12 * f.linf()

    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    @pytest.mark.parametrize("n", [8, 32])
    def test_real_samples_match_refined_values(self, n, factor):
        g = make_grid(n)
        rng = np.random.default_rng(n + factor)
        # white noise carries Nyquist content
        f = SpectralField.from_physical(g, rng.standard_normal((n, n)))
        want = refine(f, factor).values
        got = real_samples(f, factor * n)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        with pytest.raises(ValueError, match="at least"):
            real_samples(f, n - 1)

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_product_samples_are_the_product_grid_formula(self, n):
        g = make_grid(n)
        M, h = g.product_size, n // 2
        f = white_noise(n, n)
        # the product grid's samples written out for that one size; multiply
        # scales its output by (M/n)^2 once, so they carry (n/M)^2
        padded = np.zeros((M, h + 1), dtype=np.complex128)
        padded[: h + 1] = f.modes[: h + 1]
        padded[M - h :] = f.modes[h:]
        padded[h] *= 0.5
        padded[M - h] *= 0.5
        padded[:, h] *= 0.5
        assert np.array_equal(_product_samples(f), np.fft.irfft2(padded, s=(M, M)))

    @pytest.mark.parametrize("n, size", [(8, 15), (16, 25), (64, 100), (128, 200)])
    def test_product_grid_is_smallest_5_smooth_above_three_halves(self, n, size):
        assert make_grid(n).product_size == size

    @pytest.mark.parametrize("n", [8, 16, 64, 128])
    def test_reused_factor_agrees(self, n, rng):
        # white noise carries content on the Nyquist lines
        g = make_grid(n)
        f = SpectralField.from_physical(g, rng.standard_normal((n, n)))
        h = SpectralField.from_physical(g, rng.standard_normal((n, n)))
        fresh = multiply(f, h)
        scale = np.max(np.abs(fresh.modes))
        reused = multiply(reused_factor(f), h)
        assert np.max(np.abs(reused.modes - fresh.modes)) < 1e-13 * scale

    def test_reused_factor_keeps_cached_node_values(self, grid64, rng, fft_calls):
        f = smooth_random_field(grid64, rng)
        values = f.values
        held = reused_factor(f)
        fft_calls.clear()
        assert held.values is values
        assert fft_calls["irfft2"] == 0

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
    def test_kernel_is_bitwise_equal_to_full_width_transforms(self, n, rng):
        g = make_grid(n)
        shape = (n, n)
        f = SpectralField.from_physical(g, rng.standard_normal(shape))
        h = SpectralField.from_physical(g, rng.standard_normal(shape))
        for x, y in ((f, h), (reused_factor(f), h), (h, reused_factor(f))):
            assert np.array_equal(multiply(x, y).modes, full_width_real_product(x.modes, y.modes, g))

    def test_every_factor_must_share_the_grid(self):
        f, g, other = white_noise(16, 1), white_noise(16, 2), white_noise(32, 3)
        for args in ((f, other), (f, g, (f, other)), (f, g, (other, g))):
            with pytest.raises(ValueError, match="grid mismatch"):
                multiply(*args)

    def test_advect_folds_once(self, grid64, rng, fft_calls):
        V = smooth_random_divfree(grid64, rng).map(reused_factor)
        f = smooth_random_field(grid64, rng)
        fft_calls.clear()
        got = advect(V, f)
        assert fft_calls == {"irfft2": 2, "rfft": 1, "fft": 1}
        want = multiply(V.u1, derivative(f, (1, 0))) + multiply(V.u2, derivative(f, (0, 1)))
        assert np.max(np.abs(got.modes - want.modes)) <= 1e-14 * np.max(np.abs(want.modes))

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
            require_solenoidal(VectorField(SpectralField(grid, np.fft.rfft2(vals)), SpectralField.zero(grid)))

    @pytest.fixture
    def divergence_calls(self, monkeypatch):
        calls = []

        def counted(V):
            calls.append(V)
            return divergence(V)

        monkeypatch.setattr(spectral, "divergence", counted)
        return calls

    def test_solenoidal_verdict_is_evaluated_once_per_field(self, grid64, rng, divergence_calls):
        u = smooth_random_divfree(grid64, rng)
        for tol in (1e-8, 1e-10, 1e-8, 1e-10):
            require_solenoidal(u, tol)
        assert len(divergence_calls) == 1 and divergence_calls[0] is u
        require_solenoidal(u.map(lambda c: c * 1.0))  # an equal field is another object
        assert len(divergence_calls) == 2

    def test_non_solenoidal_field_raises_on_every_call(self, grid64, rng, divergence_calls):
        f = smooth_random_field(grid64, rng)
        u = VectorField(f, f)
        for tol in (1e-8, 1e-10, 1e-8):
            with pytest.raises(ValueError, match="not solenoidal"):
                require_solenoidal(u, tol)
        assert len(divergence_calls) == 1

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("argument", ["nu", "t"])
    def test_non_finite_rate_or_time_rejected(self, grid64, rng, argument, bad):
        f = smooth_random_field(grid64, rng)
        kwargs = {"nu": 1.0, "t": 0.1, argument: bad}
        with pytest.raises(ValueError, match=f"finite {argument}"):
            heat_propagate(f, **kwargs)
        with pytest.raises(ValueError, match=f"finite {argument}"):
            heat_propagate(VectorField(f, f), **kwargs)

    def test_l2_contraction(self, grid64, rng):
        f = smooth_random_field(grid64, rng)
        assert l2_quadrature(heat_propagate(f, 1.0, 0.05)) <= l2_quadrature(f)

    def test_smoothing_integral_shrinks_with_horizon(self, grid64, rng):
        u0 = smooth_random_divfree(grid64, rng)
        spec = BesovSpec(s=2.0, p=2.0, r=1.0)

        def integral(T, samples=33):
            ts = np.linspace(0.0, T, samples)
            vals = []
            for t in ts:
                uf = heat_propagate(u0, 1.0, float(t))
                vals.append(
                    besov_norm(uf.u1, spec)[0] + besov_norm(uf.u2, spec)[0]
                )
            return np.trapezoid(vals, ts)

        v1, v2, v3 = integral(0.4), integral(0.2), integral(0.1)
        assert v3 < v2 < v1


class TestInversion:
    def test_potential_from_gradient(self, grid64, rng):
        f = smooth_random_field(grid64, rng, mean_zero=True)
        g = potential_from_gradient(gradient(f))
        assert np.max(np.abs(g.values - f.values)) < 1e-12 * f.linf()


class TestHalfLayout:
    """The stored half spectrum against physical-space and full-lattice references."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), seed=st.integers(0, 2**32 - 1))
    def test_round_trip(self, n, seed):
        v = np.random.default_rng(seed).standard_normal((n, n))
        f = SpectralField.from_physical(make_grid(n), v)
        assert np.max(np.abs(f.values - v)) <= 1e-15 * np.max(np.abs(v))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), seed=st.integers(0, 2**32 - 1))
    def test_parseval_sums_match_the_node_sums(self, n, seed):
        f, g = white_noise(n, seed), white_noise(n, seed + 1)
        area = f.grid.cell_area
        norm_f = np.sqrt(np.sum(f.values**2) * area)
        norm_g = np.sqrt(np.sum(g.values**2) * area)
        assert l2_norm(f) == pytest.approx(norm_f, rel=1e-13)
        assert abs(_inner(f, g) - np.sum(f.values * g.values) * area) <= 1e-13 * norm_f * norm_g
        assert _inner(f, f) == pytest.approx(norm_f**2, rel=1e-13)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), seed=st.integers(0, 2**32 - 1))
    def test_product_matches_a_dense_reference(self, n, seed):
        f, g = white_noise(n, seed), white_noise(n, seed + 1)
        want = dense_product_modes(f, g)
        got = multiply(f, g).modes
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), seed=st.integers(0, 2**32 - 1), terms=st.integers(2, 4))
    def test_sum_of_products_folds_once_to_the_sum(self, n, seed, terms):
        factors = [white_noise(n, seed + i) for i in range(2 * terms)]
        pairs = list(zip(factors[::2], factors[1::2]))
        got = multiply(*pairs[0], *pairs[1:]).modes
        singles = sum(multiply(f, g).modes for f, g in pairs)
        dense = sum(dense_product_modes(f, g) for f, g in pairs)
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(got - singles)) <= 1e-14 * scale
        assert np.max(np.abs(got - dense)) <= 1e-14 * scale

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), L=st.floats(0.5, 50.0))
    def test_ladder_sees_the_full_lattice(self, n, L):
        grid = make_grid(n, L)
        k1 = 2.0 * np.pi / L * np.fft.fftfreq(n, d=1.0 / n)
        k_full = np.hypot(k1[:, None], k1[None, :])
        live = [j for j in range(-20, 20) if np.any(phi(k_full / 2.0**j) > 0.0)]
        ladder = build_ladder(grid)
        assert (ladder.j_min, ladder.j_max) == (live[0], live[-1])
