"""Pressure-solver checks: dense oracle, invariants, and method agreement."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab import elliptic
from besovlab.elliptic import (
    EllipticSolveStats,
    _inner,
    _precondition,
    coefficient_floor,
    residual,
    solve_pressure,
    weight_by,
)
from besovlab.random_fields import random_band_field, random_divergence_free, trial_seed
from besovlab.spectral import (
    SpectralField,
    VectorField,
    centered,
    divergence,
    drop_nyquist,
    gradient,
    gradient_part,
    make_grid,
    multiply,
    reused_factor,
)
from conftest import smooth_random_field


def bounded_coefficient(grid, seed, floor=0.3, k_high=6.0):
    """Random coefficient with min(1+a) >= floor by amplitude rescaling."""
    a = random_band_field(grid, 1.0, k_high, seed, slope=-0.5)
    vals = a.values.real
    vals = vals * ((1.0 - floor) / np.max(np.abs(vals)))
    return SpectralField.from_physical(grid, vals)


def band_forcing(grid, seed, k_high=10.0):
    return VectorField(
        random_band_field(grid, 1.0, k_high, trial_seed(seed, 1)),
        random_band_field(grid, 1.0, k_high, trial_seed(seed, 2)),
    )


def vec_linf(v):
    return max(np.max(np.abs(v.u1.values)), np.max(np.abs(v.u2.values)))


def vec_l2(v):
    grid = v.u1.grid
    w = grid.parseval_weights  # interior half-spectrum columns stand for two modes
    return np.sqrt(
        np.sum(np.abs(v.u1.modes) ** 2 * w) + np.sum(np.abs(v.u2.modes) ** 2 * w)
    ) * grid.L / grid.n**2


def dense_gradient_solve(a, F):
    """Direct dense solve of the projected operator pi -> -div((1+a) grad pi).

    Assembles the matrix column by column over node deltas (projected onto the
    derivative-resolved subspace on both sides, as the iterative solver poses
    the problem) and solves by least squares; the minimum-norm solution is
    orthogonal to the operator's null directions, so its gradient is the
    unique answer.  An iteration-free reference path.
    """
    grid = a.grid
    n = grid.n
    dim = n * n
    A = np.zeros((dim, dim))
    for i in range(dim):
        basis = np.zeros(dim)
        basis[i] = 1.0
        e = drop_nyquist(SpectralField.from_physical(grid, basis.reshape(n, n)))
        g = gradient(e)
        cg = g + VectorField(multiply(a, g.u1), multiply(a, g.u2))
        A[:, i] = drop_nyquist(-1.0 * divergence(cg)).values.real.ravel()
    b = drop_nyquist(-1.0 * divergence(F)).values.real.ravel()
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = SpectralField.from_physical(grid, x.reshape(n, n))
    return gradient(pi)


def inverse_laplacian(f):
    """Mean-zero g with Laplace(g) = f (mean of f ignored), by division on the half spectrum."""
    k2 = f.grid.k_squared.copy()
    k2[0, 0] = 1.0
    out = f.modes / (-k2)
    out[0, 0] = 0.0
    return f.with_modes(out)


def composed_preconditioner(a, r):
    """-Delta^-1 div(c^-1 grad Delta^-1 r) composed from field operators, c^-1 = 1/(1+a) at the nodes.

    Restricted to the derivative-resolved subspace the solve is posed on.
    """
    grid = a.grid
    c_inv = 1.0 / (1.0 + a.values.real)
    g = gradient(inverse_laplacian(r))
    w = VectorField.from_physical(grid, c_inv * g.u1.values.real, c_inv * g.u2.values.real)
    return drop_nyquist(-inverse_laplacian(divergence(w)))


def resolved_noise(grid, rng):
    """Real white noise with no mean and no half-Nyquist content."""
    return centered(drop_nyquist(SpectralField.from_physical(grid, rng.standard_normal((grid.n, grid.n)))))


class TestPreconditioner:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([8, 16, 32]),
        amplitude=st.floats(0.0, 0.7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_symmetric_positive_and_equal_to_the_composed_operator(self, n, amplitude, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid(n)
        raw = rng.standard_normal((n, n))
        a = SpectralField.from_physical(grid, amplitude * raw / np.max(np.abs(raw)))
        r, s = resolved_noise(grid, rng), resolved_noise(grid, rng)
        br, bs = _precondition(a, r), _precondition(a, s)
        rbr, sbs = _inner(r, br), _inner(s, bs)
        assert rbr > 0.0 and sbs > 0.0
        assert abs(_inner(s, br) - _inner(bs, r)) <= 1e-12 * np.sqrt(rbr * sbs)
        oracle = composed_preconditioner(a, r)
        assert np.max(np.abs(br.modes - oracle.modes)) <= 1e-13 * np.max(np.abs(oracle.modes))

    def test_constant_coefficient_takes_one_iteration(self):
        # B inverts the form exactly when 1+a is constant
        grid = make_grid(32)
        a = SpectralField.from_physical(grid, np.full((grid.n, grid.n), 0.5))
        _, stats, _ = solve_pressure(a, band_forcing(grid, 101))
        assert stats.iterations == 1

    def test_x_only_coefficient_takes_two_iterations(self):
        # for c(x) and an x-only forcing the form is 1-D, where B inverts it up
        # to a rank-one term: the exact solution c^-1 (f + C) carries a constant
        # C that keeps it mean free, which B's projection drops
        grid = make_grid(32)
        x, _ = grid.coords
        a = SpectralField.from_physical(grid, 0.3 * np.sin(x))
        F = VectorField.from_physical(grid, np.cos(2 * x) + np.sin(x) ** 3, np.zeros_like(x))
        _, stats, _ = solve_pressure(a, F)
        assert stats.iterations == 2

    @pytest.mark.parametrize("n", [64, 128])
    def test_cold_rough_solves_stay_under_twelve_iterations(self, n):
        # the constant-coefficient preconditioner needs 17-25 on these
        grid = make_grid(n)
        for trial in range(3):
            a = bounded_coefficient(grid, trial_seed(31, trial))
            _, stats, _ = solve_pressure(a, band_forcing(grid, 3100 + trial, k_high=20.0))
            assert stats.iterations <= 12, trial


class TestTrivialCoefficients:
    def test_zero_coefficient(self):
        grid = make_grid(32)
        F = band_forcing(grid, 100)
        g, stats, _ = solve_pressure(SpectralField.zero(grid), F, tol=1e-13)
        qf = gradient_part(F)
        assert vec_linf(g - qf) < 1e-12 * vec_linf(qf)
        assert residual(SpectralField.zero(grid), g, F) < 1e-13 * vec_linf(qf)
        assert stats.iterations <= 2

    def test_constant_coefficient(self):
        grid = make_grid(32)
        c = 0.5
        a = SpectralField.from_physical(grid, np.full((grid.n, grid.n), c))
        F = band_forcing(grid, 101)
        g, stats, _ = solve_pressure(a, F, tol=1e-13)
        expected = (1.0 / (1.0 + c)) * gradient_part(F)
        assert vec_linf(g - expected) < 1e-11 * vec_linf(expected)
        assert stats.iterations <= 3


class TestDenseOracle:
    def test_matches_direct_solve(self):
        grid = make_grid(8)
        for trial in range(20):
            a = bounded_coefficient(grid, trial_seed(7, trial), floor=0.3, k_high=3.0)
            F = band_forcing(grid, 1000 + trial, k_high=3.0)
            g, _, _ = solve_pressure(a, F, tol=1e-13, max_iter=300)
            ref = dense_gradient_solve(a, F)
            scale = max(vec_linf(ref), 1e-30)
            assert vec_linf(g - ref) < 1e-8 * scale, trial


class TestResidual:
    def test_zero_gradpi(self):
        grid = make_grid(32)
        F = band_forcing(grid, 102)
        a = bounded_coefficient(grid, 103)
        zero = VectorField(SpectralField.zero(grid), SpectralField.zero(grid))
        qf_l2 = vec_l2(gradient_part(F))
        assert abs(residual(a, zero, F) - qf_l2) < 1e-12 * qf_l2

    def test_exact_constant_solution(self):
        grid = make_grid(32)
        a = SpectralField.from_physical(grid, np.full((grid.n, grid.n), 0.25))
        F = band_forcing(grid, 104)
        g = (1.0 / 1.25) * gradient_part(F)
        assert residual(a, g, F) < 1e-13 * vec_linf(F)

    def test_solver_meets_contract(self):
        grid = make_grid(64)
        a = bounded_coefficient(grid, 105)
        F = band_forcing(grid, 106, k_high=20.0)
        g, stats, _ = solve_pressure(a, F, tol=1e-10)
        assert residual(a, g, F) <= 1e-10 * vec_l2(gradient_part(F))
        assert stats.residual <= 1e-10


class TestInvariants:
    def test_output_is_mean_free_gradient(self):
        grid = make_grid(64)
        a = bounded_coefficient(grid, 107)
        F = band_forcing(grid, 108, k_high=20.0)
        g, _, _ = solve_pressure(a, F, tol=1e-11)
        q = gradient_part(g)
        assert vec_linf(g - q) < 1e-12 * vec_linf(g)
        assert abs(complex(g.u1.mean)) < 1e-13
        assert abs(complex(g.u2.mean)) < 1e-13

    def test_uniqueness_across_initial_guesses(self, rng):
        grid = make_grid(32)
        a = bounded_coefficient(grid, 109)
        F = band_forcing(grid, 110)
        tol = 1e-11
        g0, _, _ = solve_pressure(a, F, tol=tol)
        guess = VectorField(
            smooth_random_field(grid, rng, k0=3.0),
            smooth_random_field(grid, rng, k0=3.0),
        )
        g1, _, _ = solve_pressure(a, F, tol=tol, initial_guess=guess)
        assert vec_linf(g0 - g1) < 10 * tol * max(vec_linf(g0), 1.0)

    def test_linearity_in_forcing(self):
        grid = make_grid(32)
        a = bounded_coefficient(grid, 111)
        F1 = band_forcing(grid, 112)
        F2 = band_forcing(grid, 113)
        tol = 1e-11
        g12, _, _ = solve_pressure(a, F1 + F2, tol=tol)
        g1, _, _ = solve_pressure(a, F1, tol=tol)
        g2, _, _ = solve_pressure(a, F2, tol=tol)
        assert vec_linf(g12 - (g1 + g2)) < 10 * tol * max(vec_linf(g12), 1.0)

    def test_divergence_free_forcing_is_invisible(self):
        grid = make_grid(32)
        a = bounded_coefficient(grid, 114)
        F = band_forcing(grid, 115)
        w = random_divergence_free(grid, 2.0, 10.0, 99)
        tol = 1e-11
        g0, _, _ = solve_pressure(a, F, tol=tol)
        g1, _, _ = solve_pressure(a, F + w, tol=tol)
        assert vec_linf(g0 - g1) < 10 * tol * max(vec_linf(g0), 1.0)

    def test_l2_bound_never_violated(self):
        grid = make_grid(64)
        for trial in range(5):
            a = bounded_coefficient(grid, trial_seed(8, trial))
            F = band_forcing(grid, 2000 + trial, k_high=20.0)
            g, _, _ = solve_pressure(a, F, tol=1e-11)
            kappa = coefficient_floor(a)
            assert kappa * vec_l2(g) <= vec_l2(gradient_part(F)) * (1.0 + 1e-6)


class TestWarmStart:
    """A cold solve starts from the right-hand side; a warm one forms its guess's flux once."""

    @pytest.fixture
    def flux_calls(self, monkeypatch):
        calls = []
        flux = elliptic._flux

        def counted(a, p):
            calls.append(a)
            return flux(a, p)

        monkeypatch.setattr(elliptic, "_flux", counted)
        return calls

    def test_cold_solve_forms_no_product_of_the_zero_start(self, flux_calls):
        grid = make_grid(32)
        _, stats, _ = solve_pressure(bounded_coefficient(grid, 127), band_forcing(grid, 128), tol=1e-10)
        assert len(flux_calls) == stats.iterations

    def test_warm_start_meets_the_cold_tolerance(self, flux_calls):
        grid = make_grid(64)
        a = reused_factor(bounded_coefficient(grid, 129))
        F1 = band_forcing(grid, 130, k_high=20.0)
        F2 = F1 + band_forcing(grid, 131, k_high=20.0) * 0.01
        tol = 1e-10
        # solved on another handle of the same coefficient, so the warm start forms its flux
        g1, _, _ = solve_pressure(bounded_coefficient(grid, 129), F1, tol=tol)
        flux_calls.clear()
        g2, stats, _ = solve_pressure(a, F2, tol=tol, initial_guess=g1)
        assert len(flux_calls) == stats.iterations + 1
        assert flux_calls[0] is a
        g_cold, cold, _ = solve_pressure(bounded_coefficient(grid, 129), F2, tol=tol)
        q_den = vec_l2(gradient_part(F2))
        assert stats.residual <= tol and cold.residual <= tol
        assert stats.iterations < cold.iterations
        assert residual(a, g2, F2) <= tol * q_den
        assert vec_l2(g2 - g_cold) <= 10 * tol * vec_l2(g_cold)


class TestCarriedFlux:
    """The solve returns the flux that conjugate gradients carried beside the potential."""

    def test_returned_flux_is_the_weighted_gradient(self):
        # the carried flux drifts from (1+a) grad Pi by rounding only, on every kind of start
        grid = make_grid(64)
        a = reused_factor(bounded_coefficient(grid, 132))
        F1 = band_forcing(grid, 133, k_high=20.0)
        F2 = F1 + band_forcing(grid, 134, k_high=20.0) * 0.01
        F3 = F2 + band_forcing(grid, 135, k_high=20.0) * 0.01
        g_other, _, _ = solve_pressure(bounded_coefficient(grid, 136), F1)
        cold = solve_pressure(a, F1)
        warm_other = solve_pressure(a, F2, initial_guess=g_other)
        warm_same = solve_pressure(a, F3, initial_guess=warm_other[0])
        for g, stats, flux in (cold, warm_other, warm_same):
            assert stats.iterations > 0
            assert vec_l2(flux - weight_by(a, g)) <= 1e-13 * vec_l2(flux)

    def test_same_handle_warm_start_saves_two_products(self, monkeypatch):
        grid = make_grid(32)
        coeff = bounded_coefficient(grid, 137)
        a, b = reused_factor(coeff), reused_factor(coeff)  # two handles on one coefficient
        F1 = band_forcing(grid, 138)
        F2 = F1 + band_forcing(grid, 139) * 0.01
        g1, _, _ = solve_pressure(a, F1)
        products = []

        def counted(*args):
            products.append(args)
            return multiply(*args)

        monkeypatch.setattr(elliptic, "multiply", counted)
        _, on_other, _ = solve_pressure(b, F2, initial_guess=g1)
        other_products = len(products)
        products.clear()
        _, on_same, _ = solve_pressure(a, F2, initial_guess=g1)
        assert on_same.iterations == on_other.iterations
        assert len(products) == other_products - 2


class TestMethods:
    def test_split_iteration_converges(self):
        grid = make_grid(64)
        a = bounded_coefficient(grid, 119, floor=0.5, k_high=12.0)
        F = band_forcing(grid, 120, k_high=20.0)
        tol = 1e-10
        g_ref, _, _ = solve_pressure(a, F, tol=tol)
        g_split, stats, _ = solve_pressure(a, F, tol=tol, max_iter=200, split_m=2)
        assert stats.split_m == 2
        assert vec_linf(g_ref - g_split) < 20 * tol * max(vec_linf(g_ref), 1.0)

    def test_split_rate_improves_with_m(self):
        grid = make_grid(64)
        a = bounded_coefficient(grid, 121, floor=0.5, k_high=12.0)
        F = band_forcing(grid, 122, k_high=20.0)
        iters = {}
        for m in (0, 3):
            _, stats, _ = solve_pressure(a, F, tol=1e-9, max_iter=400, split_m=m)
            iters[m] = stats.iterations
        # moving more of the coefficient into the implicit part cannot slow
        # the outer relaxation
        assert iters[3] <= iters[0]


class TestErrors:
    def test_coefficient_violation(self):
        grid = make_grid(32)
        xs = grid.coords[0]
        a = SpectralField.from_physical(grid, -1.0 + 0.1 * np.cos(xs))
        F = band_forcing(grid, 123)
        with pytest.raises(ValueError, match="coefficient"):
            solve_pressure(a, F)

    def test_nan_coefficient_rejected(self):
        grid = make_grid(8)
        vals = np.zeros((8, 8))
        vals[3, 5] = np.nan
        with pytest.raises(ValueError, match="floor"):
            solve_pressure(SpectralField(grid, np.fft.rfft2(vals)), VectorField.zero(grid))

    def test_non_finite_forcing_rejected(self):
        grid = make_grid(32)
        F = band_forcing(grid, 127)
        F = VectorField(F.u1 * np.nan, F.u2)
        with pytest.raises(FloatingPointError, match="not finite"):
            solve_pressure(bounded_coefficient(grid, 128), F, max_iter=3)

    def test_bad_tolerance(self):
        grid = make_grid(32)
        with pytest.raises(ValueError):
            solve_pressure(SpectralField.zero(grid), band_forcing(grid, 124), tol=0.0)

    def test_nan_tolerance_rejected_at_entry(self):
        grid = make_grid(32)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            solve_pressure(bounded_coefficient(grid, 125), band_forcing(grid, 126), tol=math.nan)

    @pytest.mark.parametrize("split_m", [None, 2])
    def test_zero_iteration_cap_rejected_at_entry(self, split_m):
        grid = make_grid(32)
        with pytest.raises(ValueError, match="iteration cap"):
            solve_pressure(bounded_coefficient(grid, 125), band_forcing(grid, 126), max_iter=0, split_m=split_m)

    def test_nonconvergence_raises(self):
        grid = make_grid(32)
        a = bounded_coefficient(grid, 125)
        F = band_forcing(grid, 126)
        with pytest.raises(RuntimeError):
            solve_pressure(a, F, tol=1e-13, max_iter=1)

    def test_nonconvergence_names_the_residual_reached(self):
        grid = make_grid(32)
        with pytest.raises(RuntimeError, match=r"in 1 iterations \(residual \d\.\d{3}e[-+]\d+\)"):
            solve_pressure(bounded_coefficient(grid, 125), band_forcing(grid, 126), tol=1e-13, max_iter=1)

    def test_tolerance_below_rounding_raises_the_solver_error(self):
        # the defect stalls at the rounding floor, where restarts stop lowering it; the
        # solve raises there instead of restarting until its 500 iterations are spent
        grid = make_grid(32)
        with pytest.raises(RuntimeError, match="did not reach tol=1.0e-17") as info:
            solve_pressure(bounded_coefficient(grid, 125), band_forcing(grid, 126), tol=1e-17)
        assert int(re.search(r"in (\d+) iterations", str(info.value))[1]) < 500

    def test_stall_test_reads_true_defects(self):
        # a restart forms its flux anew: the carried flux's defect keeps falling by rounding, and a
        # stall test that read it spent all 500 iterations on this problem, where this one takes 256
        grid = make_grid(32)
        with pytest.raises(RuntimeError, match="did not reach tol=1.0e-17") as info:
            solve_pressure(bounded_coefficient(grid, 127), band_forcing(grid, 128), tol=1e-17)
        assert int(re.search(r"in (\d+) iterations", str(info.value))[1]) < 500

    def test_stats_shape(self):
        s = EllipticSolveStats(iterations=3, residual=1e-12, split_m=None)
        assert s.iterations == 3 and s.split_m is None


class TestOperatorSymmetry:
    def test_dealiased_product_is_self_adjoint_on_resolved_subspace(self, rng):
        # the SPD backbone of the conjugate-gradient method: for pairing
        # fields without half-Nyquist content, multiplication by any third
        # field is exactly symmetric
        grid = make_grid(32)
        c = smooth_random_field(grid, rng, k0=5.0)
        f = drop_nyquist(smooth_random_field(grid, rng, k0=9.0))
        g = drop_nyquist(smooth_random_field(grid, rng, k0=7.0))
        lhs = np.sum(multiply(c, f).values.real * g.values.real)
        rhs = np.sum(f.values.real * multiply(c, g).values.real)
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)
