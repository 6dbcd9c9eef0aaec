"""Transport, momentum stepping, full integration, and energy bookkeeping."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import smooth_random_divfree, smooth_random_field

from besovlab import elliptic, evolution, spectral
from besovlab.elliptic import solve_pressure, weight_by
from besovlab.evolution import (
    CFLViolation,
    DiagnosticsSeries,
    IntegrationConfig,
    StateSnapshot,
    ViscosityLaw,
    cfl_number,
    energy_diagnostics,
    momentum_step,
    ns_integrate,
    transport_step,
)
from besovlab.lagrangian import rk4_step
from besovlab.norms import BesovSpec, besov_norm
from besovlab.random_fields import random_band_field, random_divergence_free, trial_seed
from besovlab.spectral import (
    SpectralField,
    VectorField,
    advect_vector,
    centered,
    derivative,
    divergence,
    heat_propagate,
    l2_norm,
    leray_project,
    make_grid,
    multiply,
    reused_factor,
)


def taylor_green(grid, mu, t):
    """Closed-form decaying cellular flow and its pressure gradient."""
    x, y = grid.coords
    damp = math.exp(-2.0 * mu * t)
    u = VectorField(
        SpectralField.from_physical(grid, damp * np.cos(x) * np.sin(y)),
        SpectralField.from_physical(grid, -damp * np.sin(x) * np.cos(y)),
    )
    damp2 = math.exp(-4.0 * mu * t)
    grad_pi = VectorField(
        SpectralField.from_physical(grid, 0.5 * damp2 * np.sin(2.0 * x)),
        SpectralField.from_physical(grid, 0.5 * damp2 * np.sin(2.0 * y)),
    )
    return u, grad_pi


def coupled_data(grid, rng):
    """Rough scalar and small solenoidal velocity for a short coupled run."""
    a0 = smooth_random_field(grid, rng, k0=3.0, amplitude=0.3)
    u0 = smooth_random_divfree(grid, rng, k0=3.0) * 0.2
    return a0, u0


@pytest.fixture
def rk4_traces(monkeypatch):
    """Step sizes of the particle steps `evolution` takes while the test runs: one per departure trace."""
    traces = []

    def counting(*args):
        traces.append(args[-1])
        return rk4_step(*args)

    monkeypatch.setattr(evolution, "rk4_step", counting)
    return traces


def rel_l2(got, want):
    num = np.sqrt(np.sum(np.abs(got.u1.values.real - want.u1.values.real) ** 2)
                  + np.sum(np.abs(got.u2.values.real - want.u2.values.real) ** 2))
    den = np.sqrt(np.sum(want.u1.values.real**2) + np.sum(want.u2.values.real**2))
    return num / den


class TestViscosityLaw:
    def test_constant_law_fields(self):
        law = ViscosityLaw("constant", 2.0)
        assert law.mu_tilde(0.7) == 2.0
        a = np.array([0.0, 0.5, -0.25])
        assert np.allclose(law.b_values(a), 2.0 * a)
        assert np.allclose(law.lam(a), 2.0 * a)
        assert law.is_constant

    @pytest.mark.parametrize(
        "law",
        [
            ViscosityLaw("constant", 1.5),
            ViscosityLaw("affine", 1.0, 0.5),
            ViscosityLaw("exponential", 0.8, 0.6),
        ],
    )
    def test_lam_antiderivative_matches_viscosity(self, law):
        a = np.linspace(-0.4, 1.2, 9)
        eps = 1e-6
        numeric = (law.lam(a + eps) - law.lam(a - eps)) / (2.0 * eps)
        assert np.allclose(numeric, law.mu_tilde(a), rtol=1e-8, atol=1e-8)
        assert abs(law.lam(0.0)) <= 1e-15

    def test_b_vanishes_at_zero(self):
        for law in (ViscosityLaw("affine", 1.0, 0.5), ViscosityLaw("exponential", 1.0, -0.3)):
            assert abs(law.b_values(np.array([0.0]))[0]) <= 1e-15
            assert not law.is_constant

    def test_positivity_checks(self):
        with pytest.raises(ValueError, match="positive"):
            ViscosityLaw("constant", -1.0)
        law = ViscosityLaw("affine", 1.0, -0.9)
        law.require_positive(0.0, 2.0)
        with pytest.raises(ValueError, match="positivity"):
            law.require_positive(-0.3, 0.0)
        with pytest.raises(ValueError, match="unknown viscosity"):
            ViscosityLaw("cubic", 1.0)


class TestStateSnapshot:
    def test_records_and_rechecks_floor(self, grid32):
        x, _ = grid32.coords
        a = SpectralField.from_physical(grid32, 0.4 * np.cos(x))
        st = StateSnapshot(0.0, a, VectorField.zero(grid32), VectorField.zero(grid32))
        assert st.kappa == pytest.approx(0.6, rel=1e-12)
        assert np.allclose(st.rho_values(), 1.0 / (1.0 + a.values.real))
        with pytest.raises(ValueError, match="floor"):
            StateSnapshot(0.0, a, VectorField.zero(grid32), VectorField.zero(grid32), kappa=0.9)
        with pytest.raises(ValueError, match="floor"):
            StateSnapshot(
                0.0, a * 3.0, VectorField.zero(grid32), VectorField.zero(grid32)
            )

    def test_rejects_nan_coefficient_and_nan_kappa(self):
        grid = make_grid(8)
        vals = np.zeros((8, 8))
        vals[3, 5] = np.nan
        a = SpectralField(grid, np.fft.rfft2(vals))
        zero = VectorField.zero(grid)
        for kappa in (None, 0.5):
            with pytest.raises(ValueError, match="floor"):
                StateSnapshot(0.0, a, zero, zero, kappa=kappa)
        with pytest.raises(ValueError, match="floor"):
            StateSnapshot(0.0, SpectralField.zero(grid), zero, zero, kappa=float("nan"))

    def test_rejects_compressible_velocity(self, grid32):
        x, y = grid32.coords
        u = VectorField(
            SpectralField.from_physical(grid32, np.sin(x)),
            SpectralField.zero(grid32),
        )
        with pytest.raises(ValueError, match="solenoidal"):
            StateSnapshot(0.0, SpectralField.zero(grid32), u, VectorField.zero(grid32))

    def test_rejects_mismatched_grids(self, grid32, grid64):
        with pytest.raises(ValueError, match="grid"):
            StateSnapshot(
                0.0, SpectralField.zero(grid64), VectorField.zero(grid32), VectorField.zero(grid32)
            )


class TestTransportStep:
    def test_zero_velocity_fixes_field(self, grid32, rng):
        a = smooth_random_field(grid32, rng, amplitude=0.5)
        for scheme in ("spectral", "semi_lagrangian", "semi_lagrangian_monotone"):
            out = transport_step(a, VectorField.zero(grid32), 0.01, scheme)
            assert np.max(np.abs(out.values - a.values)) <= 1e-13

    def test_constant_velocity_translates(self, grid64, rng):
        a = smooth_random_field(grid64, rng, k0=4.0, amplitude=1.0)
        U = (0.9, -0.4)
        u = VectorField(
            SpectralField.from_physical(grid64, np.full((64, 64), U[0])),
            SpectralField.from_physical(grid64, np.full((64, 64), U[1])),
        )
        def exact_shift(dt):
            return a.with_modes(
                a.modes * np.exp(-1j * (grid64.kx * U[0] + grid64.ky * U[1]) * dt)
            )

        def spectral_error(dt):
            out = transport_step(a, u, dt, "spectral")
            return np.max(np.abs(out.values - exact_shift(dt).values))

        e1, e2 = spectral_error(0.02), spectral_error(0.01)
        assert e1 <= 5e-6
        assert e1 / e2 >= 12.0  # one-step defect of a third-order update
        semi = transport_step(a, u, 0.02, "semi_lagrangian")
        assert np.max(np.abs(semi.values - exact_shift(0.02).values)) <= 2e-5 * a.linf()

    def test_shear_matches_characteristics(self, grid64):
        x, y = grid64.coords
        a0 = SpectralField.from_physical(grid64, np.cos(x))
        u = VectorField(
            SpectralField.from_physical(grid64, np.sin(y)), SpectralField.zero(grid64)
        )
        dt, steps = 0.01, 10
        results = {}
        for scheme in ("spectral", "semi_lagrangian"):
            a = a0
            for _ in range(steps):
                a = transport_step(a, u, dt, scheme)
            results[scheme] = a
        exact = np.cos(x - dt * steps * np.sin(y))
        assert np.max(np.abs(results["spectral"].values.real - exact)) <= 1e-6
        assert np.max(np.abs(results["semi_lagrangian"].values.real - exact)) <= 1e-5

    def test_monotone_variant_never_expands_range(self, grid64):
        x, y = grid64.coords
        a = SpectralField.from_physical(grid64, 0.8 * np.cos(x) * np.sin(2 * y))
        u = VectorField(
            SpectralField.from_physical(grid64, np.sin(y)), SpectralField.zero(grid64)
        )
        lo0, hi0 = a.values.real.min(), a.values.real.max()
        for _ in range(20):
            a = transport_step(a, u, 0.02, "semi_lagrangian_monotone")
        assert a.values.real.max() <= hi0 + 1e-15
        assert a.values.real.min() >= lo0 - 1e-15

    def test_steady_velocity_is_traced_once(self, grid64, rng, rk4_traces):
        a0 = smooth_random_field(grid64, rng, k0=4.0, amplitude=0.8)
        u = smooth_random_divfree(grid64, rng, k0=3.0)
        fresh = a0
        for _ in range(5):
            fresh = transport_step(fresh, u * 1.0, 0.02, "semi_lagrangian_monotone")
        assert len(rk4_traces) == 5
        a = a0
        for _ in range(5):
            a = transport_step(a, u, 0.02, "semi_lagrangian_monotone")
        assert rk4_traces == [-0.02] * 6
        assert np.array_equal(a.modes, fresh.modes)
        # the stored points are the ones handed out, and nothing may write to them
        xd, yd = evolution._departure_points(u, 0.02)
        assert xd is evolution._departure_points(u, 0.02)[0]
        assert not xd.flags.writeable and not yd.flags.writeable

    def test_guards(self, grid32, rng):
        a = smooth_random_field(grid32, rng)
        big = VectorField(
            SpectralField.from_physical(grid32, np.full((32, 32), 30.0)),
            SpectralField.zero(grid32),
        )
        with pytest.raises(CFLViolation):
            transport_step(a, big, 0.1, "spectral")
        with pytest.raises(ValueError, match="scheme"):
            transport_step(a, VectorField.zero(grid32), 0.01, "upwind")
        x, _ = grid32.coords
        squeeze = VectorField(
            SpectralField.from_physical(grid32, np.sin(x)), SpectralField.zero(grid32)
        )
        with pytest.raises(ValueError, match="solenoidal"):
            transport_step(a, squeeze, 0.01, "spectral")
        assert transport_step(a, VectorField.zero(grid32), 0.0, "spectral") is a


class TestMomentumStep:
    def test_taylor_green_regression(self, grid64):
        mu, dt, steps = 1.0, 1e-3, 100
        u0, gp0 = taylor_green(grid64, mu, 0.0)
        state = StateSnapshot(0.0, SpectralField.zero(grid64), u0, gp0)
        visc = ViscosityLaw("constant", mu)
        for _ in range(steps):
            state = momentum_step(state, visc, dt)
        u_want, gp_want = taylor_green(grid64, mu, dt * steps)
        assert rel_l2(state.u, u_want) <= 1e-10
        assert rel_l2(state.gradPi, gp_want) <= 1e-9

    def test_rest_state_is_fixed(self, grid32, rng):
        a = smooth_random_field(grid32, rng, amplitude=0.4)
        state = StateSnapshot(0.0, a, VectorField.zero(grid32), VectorField.zero(grid32))
        out = momentum_step(state, ViscosityLaw("affine", 1.0, 0.5), 0.01)
        assert out.u.linf() <= 1e-14
        assert out.gradPi.linf() <= 1e-14
        assert out.a is a
        assert out.t == pytest.approx(0.01)

    @pytest.mark.parametrize("split_m", [None, 2])
    def test_second_order_consistency(self, grid32, rng, split_m):
        u0 = smooth_random_divfree(grid32, rng, k0=3.0) * 0.25
        a = smooth_random_field(grid32, rng, k0=3.0, amplitude=0.3)
        visc = ViscosityLaw("affine", 1.0, 0.5)
        state = StateSnapshot(0.0, a, u0, VectorField.zero(grid32))

        def defect(h):
            one = momentum_step(state, visc, h, split_m)
            fine = state
            for _ in range(8):
                fine = momentum_step(fine, visc, h / 8.0, split_m)
            return rel_l2(one.u, fine.u)

        d1, d2 = defect(0.02), defect(0.01)
        assert d1 / d2 >= 3.5

    def test_incompressibility_after_step(self, grid32, rng):
        u0 = smooth_random_divfree(grid32, rng) * 0.3
        a = smooth_random_field(grid32, rng, amplitude=0.5)
        state = StateSnapshot(0.0, a, u0, VectorField.zero(grid32))
        out = momentum_step(state, ViscosityLaw("exponential", 1.0, 0.4), 0.01)
        div = divergence(out.u)
        assert np.max(np.abs(div.values.real)) <= 1e-8 * max(out.u.linf(), 1.0)

    def test_nan_step_fails_the_cfl_check(self, grid32, rng):
        a, u = coupled_data(grid32, rng)
        with pytest.raises(CFLViolation, match="nan"):
            transport_step(a, u, math.nan)
        state = StateSnapshot(0.0, a, u, VectorField.zero(grid32))
        with pytest.raises(CFLViolation, match="nan"):
            momentum_step(state, ViscosityLaw("constant", 1.0), math.nan)

    def test_guards(self, grid32, rng):
        a = smooth_random_field(grid32, rng, amplitude=0.3)
        x, y = grid32.coords
        u = VectorField(
            SpectralField.from_physical(grid32, 40.0 * np.cos(y)),
            SpectralField.zero(grid32),
        )
        state = StateSnapshot(0.0, a, u, VectorField.zero(grid32))
        with pytest.raises(CFLViolation):
            momentum_step(state, ViscosityLaw("constant", 1.0), 0.5)
        slow = StateSnapshot(0.0, a, u * 0.01, VectorField.zero(grid32))
        with pytest.raises(ValueError, match="positivity"):
            momentum_step(slow, ViscosityLaw("affine", 1.0, -0.95), 0.01)
        with pytest.raises(ValueError, match="dt > 0"):
            momentum_step(slow, ViscosityLaw("constant", 1.0), 0.0)


class TestForcing:
    def test_fused_forcing_is_the_weighted_strain_minus_the_convection(self, grid64, rng, fft_calls):
        a, u = coupled_data(grid64, rng)
        coeff = reused_factor(a)
        mu_a = reused_factor(SpectralField.from_physical(grid64, np.exp(0.5 * a.values)))
        fft_calls.clear()
        got = evolution._forcing(coeff, mu_a, u)
        # u and its four first derivatives sampled, then -S_1 and -S_2; three
        # strain folds and one fold per component
        assert fft_calls == {"irfft2": 8, "rfft": 5, "fft": 5}
        d1, d2 = derivative(u, (1, 0)), derivative(u, (0, 1))
        s11 = multiply(mu_a, d1.u1 * 2.0)
        s12 = multiply(mu_a, d2.u1 + d1.u2)
        s22 = multiply(mu_a, d2.u2 * 2.0)
        strain = VectorField(
            derivative(s11, (1, 0)) + derivative(s12, (0, 1)),
            derivative(s12, (1, 0)) + derivative(s22, (0, 1)),
        )
        want = weight_by(coeff, strain) - advect_vector(u, u)
        for g, w in zip(got.components, want.components):
            assert np.max(np.abs(g.modes - w.modes)) <= 1e-13 * np.max(np.abs(w.modes))


class TestIntegrationConfig:
    def test_validation(self):
        IntegrationConfig(T=1.0, dt=0.1)
        with pytest.raises(ValueError, match="dt"):
            IntegrationConfig(T=1.0, dt=2.0)
        with pytest.raises(ValueError, match="integer"):
            IntegrationConfig(T=1.0, dt=0.3)
        with pytest.raises(ValueError, match="scheme"):
            IntegrationConfig(T=1.0, dt=0.1, scheme="leapfrog")
        with pytest.raises(ValueError, match="p must"):
            IntegrationConfig(T=1.0, dt=0.1, p=5.0)
        with pytest.raises(ValueError, match="budget"):
            IntegrationConfig(T=1.0, dt=0.1, epsilon_budget=0.0)
        with pytest.raises(ValueError, match="cadence"):
            IntegrationConfig(T=1.0, dt=0.1, snapshot_every=0)


class TestNsIntegrate:
    def test_rest_data_stays_at_rest(self, grid32, rng):
        a0 = smooth_random_field(grid32, rng, amplitude=0.4)
        config = IntegrationConfig(T=0.05, dt=0.01)
        traj, diag = ns_integrate(config, a0, VectorField.zero(grid32))
        assert diag.stop_reason == "completed"
        assert len(traj) == 6
        assert max(diag.Z) <= 1e-12
        assert max(diag.E0) <= 1e-20 and max(diag.E1) <= 1e-20
        assert diag.A[0] == pytest.approx(diag.A[-1], rel=1e-10)
        assert np.max(np.abs(traj[-1].a.values - a0.values)) <= 1e-12

    @pytest.mark.parametrize("lowering", [0.0, 2e-3])
    def test_floor_is_the_polynomial_minimum(self, grid32, monkeypatch, lowering):
        # 1 + a0 dips to 0.8 at x = h/2, between the nodes, whose minimum is 0.8086
        x, _ = grid32.coords
        h = grid32.h
        a0 = SpectralField.from_physical(grid32, -0.2 * np.cos(3.0 * (x - 0.5 * h)))
        calls = []

        def shifting(a, u, dt, scheme):
            # the first half step translates a by half a cell, exactly, which puts the dip on a node;
            # the lowering takes the polynomial's minimum below the recorded floor by twice its slack
            calls.append(dt)
            if len(calls) > 1:
                return a
            moved = a.with_modes(a.modes * np.exp(-0.5j * h * grid32.kx))
            return SpectralField.from_physical(grid32, moved.values - lowering)

        monkeypatch.setattr(evolution, "transport_step", shifting)
        traj, diag = ns_integrate(IntegrationConfig(T=0.02, dt=0.01), a0, VectorField.zero(grid32))
        assert traj[0].kappa == pytest.approx(0.8, abs=1e-12)
        if lowering:
            assert diag.stop_reason == "invalid_state"
            assert diag.stop_cause.startswith("step 1: coefficient floor violation: min(1+a) = 7.980e-01")
        else:
            assert diag.stop_reason == "completed"
            assert 1.0 + traj[-1].a.values.min() == pytest.approx(0.8, abs=1e-12)

    def test_A_and_Z_are_the_time_norms_of_the_trajectory(self, grid32, rng):
        p = 3.0
        a0 = smooth_random_field(grid32, rng, k0=4.0, amplitude=0.3)
        u0 = smooth_random_divfree(grid32, rng, k0=3.0, amplitude=0.3)
        traj, diag = ns_integrate(IntegrationConfig(T=0.04, dt=0.01, p=p), a0, u0)
        assert diag.stop_reason == "completed" and len(traj) == 5
        low, mid, high = (BesovSpec(2.0 / p + ds, p, 1.0) for ds in (-1.0, 0.0, 1.0))
        times = np.array([st.t for st in traj])

        def blocks(fields, spec):
            """Weighted block norms of the centered fields, one row per sample."""
            return np.array([besov_norm(centered(f), spec)[1].values for f in fields])

        u_start = leray_project(u0)
        ubar = [st.u - heat_propagate(u_start, 1.0, st.t) for st in traj]
        a_blocks = blocks([st.a for st in traj], mid)
        ubar_low, ubar_high = blocks(ubar, low), blocks(ubar, high)
        pressure = blocks([st.gradPi for st in traj], low)
        for i in range(len(traj)):
            now = slice(0, i + 1)
            A = a_blocks[now].max(axis=0).sum()
            Z = (
                ubar_low[now].max(axis=0).sum()
                + np.trapezoid(ubar_high[now], times[now], axis=0).sum()
                + np.trapezoid(pressure[now], times[now], axis=0).sum()
            )
            assert diag.A[i] == pytest.approx(A, rel=1e-12)
            assert diag.Z[i] == pytest.approx(Z, rel=1e-12)

    def test_taylor_green_trajectory(self, grid64):
        u0, _ = taylor_green(grid64, 1.0, 0.0)
        config = IntegrationConfig(T=0.05, dt=2.5e-3, snapshot_every=4)
        traj, diag = ns_integrate(config, SpectralField.zero(grid64), u0)
        assert diag.stop_reason == "completed"
        for st in traj:
            want, _ = taylor_green(grid64, 1.0, st.t)
            assert rel_l2(st.u, want) <= 1e-10
        assert diag.Z[-1] < 10.0
        assert all(z2 >= z1 - 1e-12 for z1, z2 in zip(diag.Z, diag.Z[1:]))

    def test_budget_stop(self, grid64):
        u0, _ = taylor_green(grid64, 1.0, 0.0)
        config = IntegrationConfig(T=0.05, dt=0.01, epsilon_budget=1e-12)
        traj, diag = ns_integrate(config, SpectralField.zero(grid64), u0)
        assert diag.stop_reason == "budget_exceeded"
        assert len(traj) <= 2

    def test_cfl_stop(self, grid32):
        x, y = grid32.coords
        u0 = VectorField(
            SpectralField.from_physical(grid32, 20.0 * np.cos(y)),
            SpectralField.zero(grid32),
        )
        config = IntegrationConfig(T=0.2, dt=0.1)
        traj, diag = ns_integrate(config, SpectralField.zero(grid32), u0)
        assert diag.stop_reason == "cfl_violation"
        assert len(traj) == 1

    def test_variable_viscosity_smoke_run(self, grid32, rng, tmp_path):
        a0 = smooth_random_field(grid32, rng, k0=3.0, amplitude=0.3)
        u0 = smooth_random_divfree(grid32, rng, k0=3.0) * 0.2
        config = IntegrationConfig(
            T=0.04,
            dt=0.01,
            visc=ViscosityLaw("affine", 1.0, 0.5),
            p=2.5,
            monitor_ms=(1, 3),
            split_m=2,
        )
        traj, diag = ns_integrate(config, a0, u0)
        assert diag.stop_reason == "completed"
        assert len(traj) == 5
        for st in traj:
            div_max = np.max(np.abs(divergence(st.u).values.real))
            assert div_max <= 1e-8 * max(st.u.linf(), 1e-30)
            assert 1.0 + st.a.values.real.min() >= st.kappa - 1e-3
        assert "smallness_m1" in diag.extra and "smallness_m3" in diag.extra
        assert diag.extra["smallness_m1"][-1] > diag.extra["smallness_m3"][-1]
        diag.write_csv(tmp_path / "diagnostics.csv")
        rows = (tmp_path / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0].startswith("t,A,Z,E0,E1,E2")
        assert len(rows) == len(diag.times) + 1

    def test_smallness_monitors_sample_the_viscosity_tail(self, grid32, rng):
        a0, u0 = coupled_data(grid32, rng)
        config = IntegrationConfig(
            T=0.03, dt=0.01, visc=ViscosityLaw("exponential", 1.0, 0.5), monitor_ms=(1, 2)
        )
        for a, positive in ((a0, True), (SpectralField.zero(grid32), False)):
            _, diag = ns_integrate(config, a, u0)
            assert diag.stop_reason == "completed"
            for name in ("smallness_m1", "smallness_m2"):
                series = diag.extra[name]
                assert len(series) == len(diag.times) == 4
                assert all(math.isfinite(v) and v >= 0.0 for v in series)
                if positive:
                    assert all(v > 0.0 for v in series)
                else:
                    assert all(v == 0.0 for v in series)

    def test_pressure_solved_at_each_stage_and_at_sampled_ends(self, grid32, rng, monkeypatch):
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(kwargs.get("initial_guess"))
            return solve_pressure(*args, **kwargs)

        monkeypatch.setattr(evolution, "solve_pressure", counting_solve)
        config = IntegrationConfig(T=0.08, dt=0.01, visc=ViscosityLaw("affine", 1.0, 0.5), snapshot_every=3)
        traj, diag = ns_integrate(config, *coupled_data(grid32, rng))
        assert diag.stop_reason == "completed"
        assert [round(st.t / config.dt) for st in traj] == [0, 3, 6, 8]
        # the initial solve, two stage solves per step, one end solve per sampled step
        assert len(calls) == 1 + 2 * config.steps + 3
        assert calls[0] is None and all(guess is not None for guess in calls[1:])

    def test_strang_half_steps_trace_each_velocity_once(self, grid32, rng, monkeypatch, rk4_traces):
        config = IntegrationConfig(T=0.04, dt=0.01, scheme="semi_lagrangian_monotone")
        data = coupled_data(grid32, rng)
        _, diag = ns_integrate(config, *data)
        assert diag.stop_reason == "completed"
        # the first half step's velocity, then each step's new velocity serves two half steps
        assert rk4_traces == [-0.5 * config.dt] * (config.steps + 1)
        traced = evolution._departure_points
        monkeypatch.setattr(evolution, "_departure_points", lambda u, dt: traced(u * 1.0, dt))
        _, fresh = ns_integrate(config, *data)
        assert len(rk4_traces) == (config.steps + 1) + 2 * config.steps
        assert fresh.A == diag.A and fresh.E0 == diag.E0

    def test_sampled_states_do_not_depend_on_the_cadence(self, grid32, rng):
        data = coupled_data(grid32, rng)
        runs = {
            every: ns_integrate(
                IntegrationConfig(T=0.08, dt=0.01, visc=ViscosityLaw("exponential", 1.0, 0.5), snapshot_every=every),
                *data,
            )
            for every in (1, 4)
        }
        (dense, dense_diag), (sparse, sparse_diag) = runs[1], runs[4]
        assert [st.t for st in sparse] == pytest.approx([dense[i].t for i in (0, 4, 8)])
        assert sparse_diag.E0[-1] == pytest.approx(dense_diag.E0[-1], rel=1e-8)
        for i, st in zip((0, 4, 8), sparse):
            assert rel_l2(st.gradPi, dense[i].gradPi) <= 1e-8

    @pytest.mark.parametrize("poisoned_call", [5, 6])
    def test_non_finite_step_stops_the_run(self, grid32, rng, monkeypatch, poisoned_call):
        # with one sample per step, solves 2-4 are step 1 and 5-6 are the stages
        # of step 2: a NaN k1 pressure reaches the k2 solve through its forcing,
        # a NaN k2 pressure reaches the final velocity
        calls = []

        def poisoned_solve(*args, **kwargs):
            calls.append(1)
            grad_pi, stats, flux = solve_pressure(*args, **kwargs)
            if len(calls) == poisoned_call:
                grad_pi, flux = grad_pi * math.nan, flux * math.nan
            return grad_pi, stats, flux

        monkeypatch.setattr(evolution, "solve_pressure", poisoned_solve)
        config = IntegrationConfig(T=0.04, dt=0.01, visc=ViscosityLaw("affine", 1.0, 0.5))
        traj, diag = ns_integrate(config, *coupled_data(grid32, rng))
        assert diag.stop_reason == "non_finite"
        assert [st.t for st in traj] == pytest.approx([0.0, 0.01])
        assert diag.times == pytest.approx((0.0, 0.01))

    def test_solver_failure_names_its_step_and_residual(self, grid32, rng, monkeypatch):
        # solve 6 is the second stage of step 2 (see above); it gets one iteration
        # at an unreachable tolerance, so it fails as a real solve does
        calls = []

        def failing_solve(*args, **kwargs):
            calls.append(1)
            if len(calls) == 6:
                kwargs.update(tol=1e-14, max_iter=1)
            return solve_pressure(*args, **kwargs)

        monkeypatch.setattr(evolution, "solve_pressure", failing_solve)
        config = IntegrationConfig(T=0.04, dt=0.01, visc=ViscosityLaw("affine", 1.0, 0.5))
        traj, diag = ns_integrate(config, *coupled_data(grid32, rng))
        assert diag.stop_reason == "solver_failure"
        assert diag.stop_cause.startswith("step 2: pressure solve did not reach tol=1.0e-14 in 1 iterations")
        assert "(residual " in diag.stop_cause
        assert [st.t for st in traj] == pytest.approx([0.0, 0.01])
        monkeypatch.undo()
        _, completed = ns_integrate(config, *coupled_data(grid32, rng))
        assert completed.stop_reason == "completed" and completed.stop_cause is None

    def test_coupled_step_work_is_pinned(self, grid32, rng, monkeypatch, fft_calls):
        # upper bounds, measured on this run: a count may fall without editing the test
        iterations = []

        def counting_solve(*args, **kwargs):
            grad_pi, stats, flux = solve_pressure(*args, **kwargs)
            iterations.append(stats.iterations)
            return grad_pi, stats, flux

        products = []  # one entry per dealiased product call

        def counting_multiply(*args):
            products.append(None)
            return multiply(*args)

        data = coupled_data(grid32, rng)
        fft_calls.clear()
        monkeypatch.setattr(evolution, "solve_pressure", counting_solve)
        for module in (spectral, elliptic, evolution):
            monkeypatch.setattr(module, "multiply", counting_multiply)
        config = IntegrationConfig(
            T=0.04, dt=0.01, visc=ViscosityLaw("exponential", 1.0, 0.5), split_m=2, snapshot_every=2
        )
        _, diag = ns_integrate(config, *data)
        assert diag.stop_reason == "completed"
        # the initial solve, three stage solves per step (split_m adds one), one end solve per sampled step
        assert len(iterations) == 1 + 3 * config.steps + 2
        pins = {"fft": 247, "rfft": 247, "irfft2": 443, "rfft2": 83}
        assert set(fft_calls) <= set(pins)
        assert all(fft_calls[name] <= pin for name, pin in pins.items()), dict(fft_calls)
        assert len(products) <= 247
        assert sum(iterations) <= 74

    @pytest.mark.parametrize("seed", [1, 10])
    def test_observed_order_is_second_order(self, grid32, monkeypatch, seed):
        # code verification by observed order (Roache 2002): differences of the final states at
        # dt, dt/2 and dt/4.  Over seeds 1-12 the orders were u 1.716-1.946 and a 2.003-2.006
        # (seed 10 is the lowest u); Lie splitting gave a 0.946-0.955, exponential Euler u 0.943-0.967
        raw = random_band_field(grid32, 1.5, 6.0, trial_seed(seed, 11)).values
        a0 = SpectralField.from_physical(grid32, raw * (0.2 / np.max(np.abs(raw))))
        u0 = random_divergence_free(grid32, 1.5, 6.0, trial_seed(seed, 12), amplitude=0.02)
        visc = ViscosityLaw("exponential", 1.0, 0.5)

        def orders():
            finals = []
            for dt in (0.01, 0.005, 0.0025):
                config = IntegrationConfig(T=0.04, dt=dt, visc=visc, snapshot_every=16)
                traj, diag = ns_integrate(config, a0, u0)
                assert diag.stop_reason == "completed"
                finals.append(traj[-1])
            coarse, mid, fine = finals
            return tuple(
                math.log2(l2_norm(part(coarse) - part(mid)) / l2_norm(part(mid) - part(fine)))
                for part in (lambda st: st.u, lambda st: st.a)
            )

        order_u, order_a = orders()
        assert order_u >= 1.5 and order_a >= 1.9

        def lie_step(state, config, end_pressure):
            # no first half step, and one full transport step after the momentum step
            moved = momentum_step(
                state,
                config.visc,
                config.dt,
                config.split_m,
                pressure_tol=config.pressure_tol,
                pressure_max_iter=config.pressure_max_iter,
                end_pressure=end_pressure,
            )
            return replace(moved, a=transport_step(moved.a, moved.u, config.dt, config.scheme))

        monkeypatch.setattr(evolution, "_strang_step", lie_step)
        _, lie_order_a = orders()
        assert lie_order_a < 1.9  # the bound above catches Lie splitting

    def test_rejects_bad_floor(self, grid32):
        x, _ = grid32.coords
        a0 = SpectralField.from_physical(grid32, -1.5 * np.cos(x) ** 2)
        with pytest.raises(ValueError, match="floor"):
            ns_integrate(IntegrationConfig(T=0.1, dt=0.1), a0, VectorField.zero(grid32))


class TestEnergyDiagnostics:
    def test_pure_heat_correction_vanishes(self, grid64):
        u0, _ = taylor_green(grid64, 1.0, 0.0)
        config = IntegrationConfig(T=0.04, dt=2e-3, snapshot_every=2)
        traj, _ = ns_integrate(config, SpectralField.zero(grid64), u0)
        diag = energy_diagnostics(traj, visc=config.visc)
        assert max(diag.E0) <= 1e-18
        assert max(diag.extra["energy_defect"]) <= 1e-10
        assert all(c < 10.0 for c in diag.extra["convection_l2"])

    def test_unit_density_balance(self, grid32, rng):
        u0 = smooth_random_divfree(grid32, rng, k0=3.0) * 0.4
        config = IntegrationConfig(T=0.03, dt=1e-3)
        traj, _ = ns_integrate(config, SpectralField.zero(grid32), u0)
        diag = energy_diagnostics(traj, visc=config.visc)
        assert max(diag.extra["energy_defect"][1:-1]) <= 1e-4
        assert diag.E2[1] > 0.0

    def test_density_range_bounds(self, grid32, rng):
        a0 = smooth_random_field(grid32, rng, k0=3.0, amplitude=0.35)
        u0 = smooth_random_divfree(grid32, rng, k0=3.0) * 0.2
        config = IntegrationConfig(T=0.03, dt=0.01)
        traj, _ = ns_integrate(config, a0, u0)
        diag = energy_diagnostics(traj, visc=config.visc)
        kappa = traj[0].kappa
        amax = a0.linf()
        lo = (1.0 / (1.0 + amax)) * (1.0 - 1e-3)
        hi = (1.0 / kappa) * (1.0 + 1e-3)
        assert min(diag.extra["rho_min"]) >= lo
        assert max(diag.extra["rho_max"]) <= hi

    def test_refuses_variable_viscosity(self, grid32):
        traj = [
            StateSnapshot(0.0, SpectralField.zero(grid32), VectorField.zero(grid32), VectorField.zero(grid32)),
            StateSnapshot(0.1, SpectralField.zero(grid32), VectorField.zero(grid32), VectorField.zero(grid32)),
        ]
        with pytest.raises(ValueError, match="constant viscosity"):
            energy_diagnostics(traj, visc=ViscosityLaw("affine", 1.0, 0.5))


class TestDiagnosticsSeries:
    def test_validation(self):
        DiagnosticsSeries((0.0, 1.0), (1.0, 1.5), (0.0, 0.1), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError, match="entries"):
            DiagnosticsSeries((0.0, 1.0), (1.0,), (0.0, 0.1), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError, match="nondecreasing"):
            DiagnosticsSeries((0.0, 1.0), (1.0, 0.5), (0.0, 0.1), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            DiagnosticsSeries((0.0,), (math.nan,), (0.0,), (0.0,), (0.0,), (0.0,))

    def test_csv_round_trip(self, tmp_path):
        diag = DiagnosticsSeries(
            (0.0, 0.5),
            (1.0, 1.0),
            (0.0, 0.2),
            (0.1, 0.1),
            (0.2, 0.15),
            (0.0, 0.01),
            extra={"cfl": (0.1, 0.2)},
        )
        path = tmp_path / "diag.csv"
        diag.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,A,Z,E0,E1,E2,cfl"
        assert len(lines) == 3


def test_cfl_number_formula(grid32):
    u = VectorField(
        SpectralField.from_physical(grid32, np.full((32, 32), 2.0)),
        SpectralField.zero(grid32),
    )
    want = 0.1 * 2.0 * 32 / grid32.L
    assert cfl_number(u, 0.1) == pytest.approx(want, rel=1e-12)
