"""L^p quadrature, Besov, and time-space norm checks against closed forms."""

import numpy as np
import pytest

from besovlab.dyadic import build_ladder
from besovlab.norms import (
    BesovSpec,
    BlockProfile,
    RunningTimeNorm,
    besov_norm,
    chemin_lerner,
    lp_norm,
    lr_aggregate,
)
from besovlab import spectral
from besovlab.spectral import SpectralField, VectorField, centered, l2_norm, make_grid, refine
from conftest import single_mode, single_mode_lp_norm, smooth_random_field

L = 2 * np.pi


def band_limited_field(grid, rng, band=7):
    """Random real field supported on integer modes |m1|,|m2| <= band."""
    modes = np.zeros((grid.n, grid.n // 2 + 1), dtype=np.complex128)
    m = grid.mode_index
    keep = (np.abs(m)[:, None] <= band) & (np.abs(m)[None, : grid.n // 2 + 1] <= band)
    raw = rng.standard_normal((grid.n, grid.n))
    modes[keep] = np.fft.rfft2(raw)[keep]
    modes[0, 0] = 0.0
    return SpectralField(grid, modes)


class TestLp:
    def test_constant(self):
        g = make_grid(32)
        f = SpectralField.from_physical(g, np.ones((32, 32)))
        assert lp_norm(f, 2) == pytest.approx(2 * np.pi, rel=1e-13)
        assert lp_norm(f, 1) == pytest.approx((2 * np.pi) ** 2, rel=1e-13)

    def test_sup_norm_of_sine(self):
        g = make_grid(64)
        x, _ = g.coords
        f = SpectralField.from_physical(g, np.sin(x))
        assert lp_norm(f, np.inf) == pytest.approx(1.0, abs=1e-6)

    def test_refinement_oracle_p4(self, rng):
        g = make_grid(64)
        f = band_limited_field(g, rng)
        coarse = lp_norm(f, 4)
        fine = lp_norm(refine(f, 4), 4)
        assert coarse == pytest.approx(fine, rel=1e-8)

    def test_non_even_p_refinement(self, rng):
        # |f|^p is no longer band-limited for fractional p, so only ~1% here
        g = make_grid(64)
        f = band_limited_field(g, rng)
        coarse = lp_norm(f, 2.5)
        fine = lp_norm(refine(f, 4), 2.5)
        assert coarse == pytest.approx(fine, rel=1e-2)

    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_p2_by_parseval_is_the_quadrature(self, n, kind, rng):
        grid = make_grid(n, 3.0)
        u = white_noise(grid, rng, kind, homogeneous=False)
        mag = u.magnitude_values() if kind == "vector" else np.abs(u.values)
        quadrature = np.sqrt(np.sum(mag**2) * grid.cell_area)
        assert lp_norm(u, 2) == pytest.approx(quadrature, rel=1e-14)

    def test_invalid_p(self):
        g = make_grid(32)
        f = SpectralField.zero(g)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)


class TestBesov:
    @pytest.mark.parametrize("j,p,s", [(0, 1.0, 0.5), (1, 1.5, -1.0), (2, 2.0, 2.0 / 3.0), (3, 4.0, 0.0), (4, np.inf, 1.0)])
    def test_single_mode_closed_form(self, grid64, j, p, s):
        grid = grid64
        u = single_mode(grid, 2**j, 2**j)  # |k| = sqrt(2) 2^j inside the phi==1 zone
        spec = BesovSpec(s=s, p=p, r=1)
        val, profile = besov_norm(u, spec)
        expected = 2.0 ** (j * s) * single_mode_lp_norm(grid, 2**j, 2**j, p)
        assert val == pytest.approx(expected, rel=1e-12)
        assert sum(v > 0 for v in profile.values) == 1

    def test_zero_field(self, grid64):
        assert besov_norm(SpectralField.zero(grid64), BesovSpec(0.5, 2))[0] == 0.0

    def test_homogeneous_rejects_mean(self, grid64):
        grid = grid64
        c = SpectralField.from_physical(grid, np.full((64, 64), 1.0))
        with pytest.raises(ValueError):
            besov_norm(c, BesovSpec(0.5, 2))

    def test_inhomogeneous_constant(self, grid64):
        grid = grid64
        c = SpectralField.from_physical(grid, np.full((64, 64), 3.0))
        s, p = 0.75, 2.0
        val, profile = besov_norm(c, BesovSpec(s, p, 1, homogeneous=False))
        # only the low block at j=-1 holds the constant
        assert val == pytest.approx(2.0**-s * 3.0 * L, rel=1e-12)
        assert profile.js[0] == -1

    def test_scaling_invariance_single_instance(self, rng):
        # lambda u(lambda .) lives on the torus of side L/lambda with the same
        # integer mode layout; the critical-norm equality is then exact
        grid = make_grid(128)
        p = 2.0
        u = band_limited_field(grid, rng, band=6)
        lam = 2
        small = make_grid(grid.n, grid.L / lam)
        u_lam = SpectralField(small, lam * u.modes)
        spec = BesovSpec(2.0 / p - 1.0, p, 1)
        a = besov_norm(u, spec)[0]
        b = besov_norm(u_lam, spec)[0]
        assert abs(a - b) / a < 0.01

    def test_monotone_in_s_exact_power(self, grid64):
        u = single_mode(grid64, 8, 8)
        j = 3
        lo = besov_norm(u, BesovSpec(0.5, 2))[0]
        hi = besov_norm(u, BesovSpec(1.5, 2))[0]
        assert hi == pytest.approx(2.0**j * lo, rel=1e-12)

    def test_l1_dominates_l2_aggregation(self, grid64, rng):
        for _ in range(20):
            f = smooth_random_field(grid64, rng, k0=rng.uniform(3, 14))
            n1 = besov_norm(f, BesovSpec(0.3, 2, 1))[0]
            n2 = besov_norm(f, BesovSpec(0.3, 2, 2))[0]
            assert n2 <= n1 * (1 + 1e-12)

    def test_triangle_inequality(self, grid64, rng):
        specs = [BesovSpec(0.5, 1.5, 1), BesovSpec(-0.25, 2, 2), BesovSpec(1.0, np.inf, np.inf)]
        for _ in range(50):
            f = smooth_random_field(grid64, rng, k0=rng.uniform(3, 12))
            g = smooth_random_field(grid64, rng, k0=rng.uniform(3, 12))
            for spec in specs:
                nf = besov_norm(f, spec)[0]
                ng = besov_norm(g, spec)[0]
                nfg = besov_norm(f + g, spec)[0]
                assert nfg <= nf + ng + 1e-12 * (nf + ng)

    def test_block_profile_rejects_negative(self):
        with pytest.raises(ValueError):
            BlockProfile((0, 1), (1.0, -2.0))


class TestCheminLerner:
    def test_constant_in_time_matches_instantaneous(self, grid64, rng):
        f = smooth_random_field(grid64, rng)
        spec = BesovSpec(0.4, 2, 1)
        snaps = [(0.0, f), (0.5, f), (1.0, f)]
        tilde = chemin_lerner(snaps, spec, np.inf)
        assert tilde == pytest.approx(besov_norm(f, spec)[0], rel=1e-12)

    def test_single_block_factorizes(self, grid64):
        u = single_mode(grid64, 4, 4)  # octave j=2
        times = np.linspace(0.0, 1.0, 11)
        snaps = [(t, u * (1.0 + t)) for t in times]
        s, p, sigma = 0.5, 2.0, 2.0
        tilde = chemin_lerner(snaps, BesovSpec(s, p, 1), sigma)
        g = 1.0 + times
        g_norm = np.trapezoid(g**sigma, times) ** (1.0 / sigma)
        assert tilde == pytest.approx(2.0 ** (2 * s) * single_mode_lp_norm(grid64, 4, 4, p) * g_norm, rel=1e-12)

    def test_tilde_infty_dominates_pointwise_sup(self, grid64, rng):
        spec = BesovSpec(0.3, 2, 1)
        snaps = [(t, smooth_random_field(grid64, rng, k0=6 + 4 * t)) for t in np.linspace(0, 1, 6)]
        tilde = chemin_lerner(snaps, spec, np.inf)
        sup_inst = max(besov_norm(f, spec)[0] for _, f in snaps)
        assert tilde >= sup_inst * (1 - 1e-12)

    def test_tilde_one_below_time_integral_for_r2(self, grid64, rng):
        # integrate-then-aggregate vs aggregate-then-integrate (Minkowski direction)
        spec = BesovSpec(0.3, 2, 2)
        times = np.linspace(0, 1, 6)
        snaps = [(t, smooth_random_field(grid64, rng, k0=5 + 6 * t)) for t in times]
        tilde = chemin_lerner(snaps, spec, 1.0)
        inst = np.array([besov_norm(f, spec)[0] for _, f in snaps])
        lebesgue = float(np.trapezoid(inst, times))
        assert tilde <= lebesgue * (1 + 1e-12)

    def test_unordered_times_rejected(self, grid64, rng):
        f = smooth_random_field(grid64, rng)
        with pytest.raises(ValueError):
            chemin_lerner([(0.0, f), (0.5, f), (0.4, f)], BesovSpec(0, 2), 1)


def white_noise(grid, rng, kind, homogeneous):
    """Random node values: every mode carries content, the -n/2 lines included."""

    def scalar():
        f = SpectralField.from_physical(grid, rng.standard_normal((grid.n, grid.n)))
        return centered(f) if homogeneous else f

    return scalar() if kind == "scalar" else VectorField(scalar(), scalar())


def transform_block_norms(u, spec):
    """Oracle: the L^p norm of each block's node values."""
    ladder = build_ladder(u.grid)
    if spec.homogeneous:
        js, block_of = ladder.js, ladder.block
    else:
        js, block_of = ladder.inhomogeneous_js(), ladder.inhomogeneous_block
    return tuple(js), tuple(lp_norm(block_of(u, j), spec.p) for j in js)


class TestParsevalBlockNorms:
    """At p = 2 the block norms come from the masked coefficients; at other p from the node values."""

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("homogeneous", [True, False], ids=["homog", "inhomog"])
    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_p2_matches_the_transform_path(self, rng, n, homogeneous, kind):
        grid = make_grid(n)
        u = white_noise(grid, rng, kind, homogeneous)
        h = n // 2
        for c in (u,) if kind == "scalar" else u.components:
            assert np.all(c.modes[h, 1:] != 0.0) and np.all(c.modes[1:, h] != 0.0)
        spec = BesovSpec(0.0, 2.0, 1.0, homogeneous=homogeneous)
        js, expected = transform_block_norms(u, spec)
        _, profile = besov_norm(u, spec)
        assert profile.js == js
        assert np.max(np.abs(np.subtract(profile.values, expected))) <= 1e-14 * l2_norm(u)

    @pytest.mark.parametrize("homogeneous", [True, False], ids=["homog", "inhomog"])
    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_p4_is_the_transform_path_bitwise(self, grid64, rng, homogeneous, kind):
        u = white_noise(grid64, rng, kind, homogeneous)
        spec = BesovSpec(0.0, 4.0, 1.0, homogeneous=homogeneous)
        assert besov_norm(u, spec)[1].values == transform_block_norms(u, spec)[1]

    def test_p2_makes_no_inverse_transform(self, grid64, rng, monkeypatch):
        fields = [white_noise(grid64, rng, kind, True) for kind in ("scalar", "vector")]

        def refuse(*args, **kwargs):
            raise AssertionError("a p = 2 block norm ran an inverse transform")

        monkeypatch.setattr(spectral.np.fft, "irfft2", refuse)
        for u in fields:
            for homogeneous in (True, False):
                besov_norm(u, BesovSpec(1.0, 2.0, 2.0, homogeneous=homogeneous))
            RunningTimeNorm(BesovSpec(1.0, 2.0, 1.0), 1.0).update(0.0, u)


def batch_time_norm(samples, space, sigma):
    """Oracle: per block, the sigma-norm in time of its L^p norms, then weighted and l^r-aggregated."""
    times = np.array([t for t, _ in samples])
    js = transform_block_norms(samples[0][1], space)[0]
    per_sample = np.array([transform_block_norms(f, space)[1] for _, f in samples])
    total = []
    for j, series in zip(js, per_sample.T):
        if np.isinf(sigma):
            time_norm = np.max(series)
        else:
            time_norm = np.trapezoid(series**sigma, times) ** (1.0 / sigma)
        total.append(2.0 ** (j * space.s) * time_norm)
    return lr_aggregate(total, space.r)


class TestRunningTimeNorm:
    @pytest.mark.parametrize("sigma", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize("r", [1.0, 2.0])
    @pytest.mark.parametrize("homogeneous", [True, False], ids=["homog", "inhomog"])
    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_matches_the_batch_formula_after_every_sample(self, grid32, rng, sigma, r, homogeneous, kind):
        space = BesovSpec(0.7, 3.0, r, homogeneous=homogeneous)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.3, 6))])

        def field(k0):
            f = smooth_random_field(grid32, rng, k0=k0, mean_zero=homogeneous)
            return f if kind == "scalar" else VectorField(f, smooth_random_field(grid32, rng, k0=k0 + 1))

        samples = [(t, field(2.0 + 3.0 * t)) for t in times]
        norm = RunningTimeNorm(space, sigma)
        for i, (t, f) in enumerate(samples):
            expected = batch_time_norm(samples[: i + 1], space, sigma)
            assert norm.update(t, f) == pytest.approx(expected, rel=1e-12)
            assert norm.sample_norm == besov_norm(f, space)[0]

    def test_chemin_lerner_is_its_last_value(self, grid32, rng):
        space = BesovSpec(0.4, 2.0, 2.0)
        samples = [(t, smooth_random_field(grid32, rng, k0=3 + 4 * t)) for t in np.linspace(0.0, 1.0, 9)]
        norm = RunningTimeNorm(space, 2.0)
        running = [norm.update(t, f) for t, f in samples]
        assert chemin_lerner(samples, space, 2.0) == running[-1]

    @pytest.mark.parametrize("t", [0.0, -0.5, np.nan], ids=["repeated", "earlier", "nan"])
    def test_time_must_increase(self, grid32, rng, t):
        f = smooth_random_field(grid32, rng)
        norm = RunningTimeNorm(BesovSpec(0.0, 2.0), 1.0)
        norm.update(0.0, f)
        with pytest.raises(ValueError, match="increase strictly"):
            norm.update(t, f)

    def test_nan_first_time_rejected(self, grid32, rng):
        with pytest.raises(ValueError, match="increase strictly"):
            RunningTimeNorm(BesovSpec(0.0, 2.0), np.inf).update(np.nan, smooth_random_field(grid32, rng))

    def test_homogeneous_spec_needs_mean_zero_samples(self, grid32, rng):
        f = smooth_random_field(grid32, rng) + SpectralField.from_physical(grid32, np.ones((32, 32)))
        with pytest.raises(ValueError, match="time norm at t=0.25 needs a mean-zero field"):
            RunningTimeNorm(BesovSpec(0.0, 2.0), 1.0).update(0.25, f)
        # the inhomogeneous norm measures the mean in its low block
        assert RunningTimeNorm(BesovSpec(0.0, 2.0, homogeneous=False), np.inf).update(0.25, f) > 0.0

    def test_samples_share_one_grid(self, grid32, grid64, rng):
        norm = RunningTimeNorm(BesovSpec(0.0, 2.0), 1.0)
        norm.update(0.0, smooth_random_field(grid32, rng))
        with pytest.raises(ValueError, match="different grids"):
            norm.update(0.1, smooth_random_field(grid64, rng))
