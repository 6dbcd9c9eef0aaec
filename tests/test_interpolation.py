"""Off-grid sampling: cubic accuracy, periodic wrap, and local bounds."""

import numpy as np
import pytest

from besovlab.interpolation import _CHUNK, PeriodicSampler, cell_bounds
from besovlab.random_fields import random_band_field
from besovlab.spectral import SpectralField, VectorField, make_grid, refine


def _node_points(grid, stride=1):
    xg, yg = grid.coords
    return xg[::stride, ::stride], yg[::stride, ::stride]


def _random_points(rng, count, L):
    return rng.uniform(0.0, L, size=count), rng.uniform(0.0, L, size=count)


class TestCubicSampling:
    def test_samples_nodes_exactly(self, grid64, rng):
        f = random_band_field(grid64, 1.0, 8.0, seed=401)
        sampler = PeriodicSampler.of_scalar(f, upsample=1)
        x, y = _node_points(grid64)
        got = sampler.at(x, y)[0]
        assert np.max(np.abs(got - f.values.real)) <= 1e-12 * f.linf()

    def test_constant_field_reproduced_everywhere(self, grid32, rng):
        f = SpectralField.from_physical(grid32, np.full((32, 32), 0.7))
        sampler = PeriodicSampler.of_scalar(f, upsample=2)
        x, y = _random_points(rng, 200, grid32.L)
        assert np.max(np.abs(sampler.at(x, y)[0] - 0.7)) <= 1e-14

    def test_single_mode_accuracy(self, grid64, rng):
        xg, yg = grid64.coords
        f = SpectralField.from_physical(grid64, np.cos(3.0 * xg) * np.sin(2.0 * yg))
        sampler = PeriodicSampler.of_scalar(f, upsample=4)
        x, y = _random_points(rng, 500, grid64.L)
        exact = np.cos(3.0 * x) * np.sin(2.0 * y)
        assert np.max(np.abs(sampler.at(x, y)[0] - exact)) <= 2e-6

    def test_upsampling_tightens_the_error(self, grid64, rng):
        f = random_band_field(grid64, 1.0, 6.0, seed=402)
        x, y = _random_points(rng, 400, grid64.L)
        reference = PeriodicSampler.of_scalar(f, upsample=8).at(x, y)[0]
        coarse = PeriodicSampler.of_scalar(f, upsample=1).at(x, y)[0]
        fine = PeriodicSampler.of_scalar(f, upsample=4).at(x, y)[0]
        err_coarse = np.max(np.abs(coarse - reference))
        err_fine = np.max(np.abs(fine - reference))
        assert err_fine < err_coarse / 30.0

    def test_agrees_with_spectral_resampling(self, grid32):
        f = random_band_field(grid32, 1.0, 5.0, seed=403)
        dense = refine(f, 8)
        x, y = dense.grid.coords
        got = PeriodicSampler.of_scalar(f, upsample=4).at(x, y)[0]
        assert np.max(np.abs(got - dense.values.real)) <= 1e-4 * f.linf()

    def test_periodic_shift_invariance(self, grid32, rng):
        f = random_band_field(grid32, 1.0, 5.0, seed=404)
        sampler = PeriodicSampler.of_scalar(f, upsample=2)
        x, y = _random_points(rng, 100, grid32.L)
        base = sampler.at(x, y)[0]
        assert np.max(np.abs(sampler.at(x - grid32.L, y)[0] - base)) <= 1e-11
        assert np.max(np.abs(sampler.at(x, y + 2 * grid32.L)[0] - base)) <= 1e-11

    def test_vector_sampler_matches_components(self, grid32, rng):
        v1 = random_band_field(grid32, 1.0, 4.0, seed=405)
        v2 = random_band_field(grid32, 1.0, 4.0, seed=406)
        V = VectorField(v1, v2)
        x, y = _random_points(rng, 50, grid32.L)
        got1, got2 = PeriodicSampler.of_vector(V, upsample=2).at(x, y)
        want1 = PeriodicSampler.of_scalar(v1, upsample=2).at(x, y)[0]
        want2 = PeriodicSampler.of_scalar(v2, upsample=2).at(x, y)[0]
        assert np.array_equal(got1, want1)
        assert np.array_equal(got2, want2)

    def test_broadcasting_shapes(self, grid32):
        f = random_band_field(grid32, 1.0, 4.0, seed=407)
        sampler = PeriodicSampler.of_scalar(f, upsample=1)
        out = sampler.at(1.0, np.linspace(0.0, 6.0, 7))[0]
        assert out.shape == (7,)
        out2 = sampler.at(np.zeros((3, 1)), np.zeros((1, 5)))[0]
        assert out2.shape == (3, 5)

    def test_rejects_bad_construction(self, grid32):
        with pytest.raises(ValueError, match="at least one"):
            PeriodicSampler(grid32.L, ())
        with pytest.raises(ValueError, match="share one shape"):
            PeriodicSampler(grid32.L, (np.zeros((4, 4)), np.zeros((8, 8))))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_rejects_non_finite_points(self, grid32, rng, bad, axis):
        sampler = PeriodicSampler.of_vector(VectorField.zero(grid32))
        # past the first chunk, so the check covers every chunk before any is evaluated
        x = rng.uniform(0.0, grid32.L, _CHUNK + 10)
        y = rng.uniform(0.0, grid32.L, _CHUNK + 10)
        (x if axis == "x" else y)[[_CHUNK + 3, _CHUNK + 7]] = bad
        with pytest.raises(ValueError, match=rf"query point {_CHUNK + 3} is not finite"):
            sampler.at(x, y)


def fancy_index_at(sampler, x, y):
    """Reference evaluation: one 2-D fancy-index gather of the 4x4 stencil and one sum per plane."""

    def weights(s):
        w = np.empty(s.shape + (4,))
        w[..., 0] = -s * (s - 1.0) * (s - 2.0) / 6.0
        w[..., 1] = (s + 1.0) * (s - 1.0) * (s - 2.0) / 2.0
        w[..., 2] = -(s + 1.0) * s * (s - 2.0) / 2.0
        w[..., 3] = (s + 1.0) * s * (s - 1.0) / 6.0
        return w

    def split(c):
        ic = c / sampler.h
        base = np.floor(ic)
        return base.astype(np.int64) % sampler.n, ic - base

    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    (bx, sx), (by, sy) = split(x), split(y)
    offsets = np.array([-1, 0, 1, 2])
    rows = ((bx[..., None] + offsets) % sampler.n)[..., :, None]
    cols = ((by[..., None] + offsets) % sampler.n)[..., None, :]
    w = weights(sx)[..., :, None] * weights(sy)[..., None, :]
    return tuple((p[rows, cols] * w).sum(axis=(-2, -1)) for p in sampler.planes)


def _nyquist_field(grid, seed):
    # white noise carries content on the Nyquist lines
    return SpectralField.from_physical(grid, np.random.default_rng(seed).standard_normal((grid.n, grid.n)))


class TestSharedStencil:
    """The chunked one-stencil evaluation is bitwise the fancy-index reference."""

    @pytest.mark.parametrize("planes", [1, 2, 3, 4])
    @pytest.mark.parametrize("upsample", [1, 4])
    def test_matches_reference_for_every_plane_count(self, grid32, rng, planes, upsample):
        sampler = PeriodicSampler.joined(
            *(PeriodicSampler.of_scalar(_nyquist_field(grid32, 420 + k), upsample) for k in range(planes))
        )
        L = grid32.L
        inputs = [
            (0.3, -7.0),
            (rng.uniform(-3 * L, 3 * L, (3, 1)), rng.uniform(-3 * L, 3 * L, (1, 5))),
            grid32.coords,
        ]
        for x, y in inputs:
            got, want = sampler.at(x, y), fancy_index_at(sampler, x, y)
            assert len(got) == planes
            for g, w in zip(got, want):
                assert type(g) is type(w) and np.shape(g) == np.shape(w)
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("count", [1, 100, _CHUNK, 2 * _CHUNK + 37])
    def test_matches_reference_across_chunk_boundaries(self, grid32, rng, count):
        V = VectorField(_nyquist_field(grid32, 430), _nyquist_field(grid32, 431))
        sampler = PeriodicSampler.of_vector(V)
        # negative and out-of-box coordinates wrap
        x = rng.uniform(-2 * grid32.L, 3 * grid32.L, count)
        y = rng.uniform(-2 * grid32.L, 3 * grid32.L, count)
        for g, w in zip(sampler.at(x, y), fancy_index_at(sampler, x, y)):
            assert np.array_equal(g, w)

    def test_empty_point_set(self, grid32):
        sampler = PeriodicSampler.of_scalar(_nyquist_field(grid32, 432))
        assert sampler.at(np.zeros(0), np.zeros(0))[0].shape == (0,)

    def test_joined_shares_planes(self, grid32):
        a = PeriodicSampler.of_scalar(_nyquist_field(grid32, 433))
        b = PeriodicSampler.of_vector(VectorField(_nyquist_field(grid32, 434), _nyquist_field(grid32, 435)))
        joined = PeriodicSampler.joined(a, b)
        assert all(p is q for p, q in zip(joined.planes, a.planes + b.planes))
        with pytest.raises(ValueError, match="one box"):
            PeriodicSampler.joined(a, PeriodicSampler.of_scalar(_nyquist_field(make_grid(32, 1.0), 436)))

    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    def test_planes_are_the_refined_samples(self, grid32, factor):
        for seed in (440, 441):
            f = _nyquist_field(grid32, seed)
            want = refine(f, factor).values.real
            got = PeriodicSampler.of_scalar(f, upsample=factor).planes[0]
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestCellBounds:
    def test_brackets_node_values(self, grid32):
        f = random_band_field(grid32, 1.0, 6.0, seed=409)
        x, y = _node_points(grid32)
        lo, hi = cell_bounds(f, x, y)
        vals = f.values.real
        assert np.all(lo <= vals + 1e-15)
        assert np.all(vals <= hi + 1e-15)

    def test_bounds_stay_within_global_range(self, grid32, rng):
        f = random_band_field(grid32, 1.0, 6.0, seed=410)
        x, y = _random_points(rng, 300, grid32.L)
        lo, hi = cell_bounds(f, x, y)
        vals = f.values.real
        assert np.all(lo >= vals.min() - 1e-15)
        assert np.all(hi <= vals.max() + 1e-15)
        assert np.all(lo <= hi)

    def test_clipped_samples_preserve_range(self, grid32, rng):
        f = random_band_field(grid32, 1.0, 8.0, seed=411)
        sampler = PeriodicSampler.of_scalar(f, upsample=4)
        x, y = _random_points(rng, 500, grid32.L)
        lo, hi = cell_bounds(f, x, y)
        clipped = np.clip(sampler.at(x, y)[0], lo, hi)
        vals = f.values.real
        assert clipped.max() <= vals.max() + 1e-15
        assert clipped.min() >= vals.min() - 1e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_rejects_non_finite_points(self, grid32, rng, bad, axis):
        f = random_band_field(grid32, 1.0, 6.0, seed=412)
        x, y = _random_points(rng, 20, grid32.L)
        (x if axis == "x" else y)[[3, 7]] = bad
        with pytest.raises(ValueError, match=r"query point 3 is not finite"):
            cell_bounds(f, x, y)
