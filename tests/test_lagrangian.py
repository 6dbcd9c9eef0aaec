"""Flow maps, the RK4 particle step, inverse-Jacobian series, pullbacks, the divergence identity, and stability ratios."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import smooth_random_divfree, smooth_random_field

from besovlab.inequality_lab import RatioReport
from besovlab.interpolation import PeriodicSampler
from besovlab.lagrangian import (
    FlowMap,
    _VelocityInTime,
    check_div_identity,
    delta_estimates,
    gradient_tensor,
    integrate_flow,
    jacobian_series,
    rk4_step,
)
from besovlab.spectral import (
    SpectralField,
    VectorField,
    gradient,
    make_grid,
    potential_from_gradient,
)

ID = np.eye(2)


def shear_velocity(grid):
    _, y = grid.coords
    return VectorField(SpectralField.from_physical(grid, np.sin(y)), SpectralField.zero(grid))


def taylor_green_velocity(grid, t, mu=1.0):
    x, y = grid.coords
    d = math.exp(-2.0 * mu * t)
    return VectorField(
        SpectralField.from_physical(grid, d * np.cos(x) * np.sin(y)),
        SpectralField.from_physical(grid, -d * np.sin(x) * np.cos(y)),
    )


def steady_trajectory(u, times):
    return [(t, u) for t in times]


def test_gradient_tensor_single_modes(grid32):
    x, y = grid32.coords
    V = VectorField(
        SpectralField.from_physical(grid32, np.cos(2.0 * y)),
        SpectralField.from_physical(grid32, np.sin(x)),
    )
    G = gradient_tensor(V)
    assert np.max(np.abs(G[..., 0, 0])) <= 1e-12
    assert np.max(np.abs(G[..., 0, 1] + 2.0 * np.sin(2.0 * y))) <= 1e-12
    assert np.max(np.abs(G[..., 1, 0] - np.cos(x))) <= 1e-12
    assert np.max(np.abs(G[..., 1, 1])) <= 1e-12


class TestIntegrateFlow:
    def test_zero_velocity_identity(self, grid32):
        traj = steady_trajectory(VectorField.zero(grid32), (0.0, 0.5))
        flow = integrate_flow(traj, 0.1)
        assert flow.displacements[-1].linf() == 0.0
        assert np.max(np.abs(flow.inverse_jacobians[-1] - ID)) == 0.0

    def test_uniform_translation(self, grid32):
        U = (0.7, -0.3)
        u = VectorField.from_physical(
            grid32, np.full((32, 32), U[0]), np.full((32, 32), U[1])
        )
        flow = integrate_flow(steady_trajectory(u, (0.0, 0.4)), 0.05)
        d = flow.displacements[-1]
        assert np.max(np.abs(d.u1.values.real - 0.4 * U[0])) <= 1e-13
        assert np.max(np.abs(d.u2.values.real - 0.4 * U[1])) <= 1e-13
        assert np.max(np.abs(flow.inverse_jacobians[-1] - ID)) <= 1e-12

    def test_shear_closed_form(self, grid64):
        _, y = grid64.coords
        flow = integrate_flow(
            steady_trajectory(shear_velocity(grid64), (0.0, 0.25, 0.5)), 1e-2
        )
        A = flow.inverse_jacobians[-1]
        assert np.max(np.abs(A[..., 0, 1] + 0.5 * np.cos(y))) <= 1e-6
        assert np.max(np.abs(A[..., 0, 0] - 1.0)) <= 1e-9
        assert np.max(np.abs(A[..., 1, 0])) <= 1e-9
        assert np.max(np.abs(A[..., 1, 1] - 1.0)) <= 1e-9
        assert flow.volume_defect() <= 1e-9
        assert flow.inverse_consistency_defect() <= 1e-8
        disp = flow.displacements[-1]
        assert np.max(np.abs(disp.u1.values.real - 0.5 * np.sin(y))) <= 1e-9
        assert disp.u2.linf() <= 1e-12

    def test_decaying_cellular_flow_preserves_volume(self, grid64):
        traj = [(0.05 * k, taylor_green_velocity(grid64, 0.05 * k)) for k in range(7)]
        flow = integrate_flow(traj, 2.5e-3)
        assert flow.volume_defect() <= 1e-6
        assert flow.inverse_consistency_defect() <= 1e-8

    def test_group_property(self, grid32, rng):
        u = smooth_random_divfree(grid32, rng, k0=3.0) * 0.4
        traj = steady_trajectory(u, (0.0, 0.1, 0.2, 0.3))
        full = integrate_flow(traj, 5e-3)
        first = integrate_flow(traj[:3], 5e-3)
        restart = integrate_flow(traj[2:], 5e-3)
        x1, y1 = first.position_arrays(2)
        dx, dy = PeriodicSampler.of_vector(restart.displacements[-1], 4).at(x1, y1)
        xf, yf = full.position_arrays(3)
        assert np.max(np.abs(x1 + dx - xf)) <= 1e-6
        assert np.max(np.abs(y1 + dy - yf)) <= 1e-6

    def test_one_sampler_per_distinct_field(self, grid32, rng, monkeypatch):
        u = smooth_random_divfree(grid32, rng, k0=3.0) * 0.4
        times = (0.0, 0.1, 0.2, 0.3)
        copies = integrate_flow([(t, u * 1.0) for t in times], 5e-3)
        built = []
        of_vector = PeriodicSampler.of_vector

        def counting(V, *upsample):
            built.append(V)
            return of_vector(V, *upsample)

        monkeypatch.setattr(PeriodicSampler, "of_vector", counting)
        shared = integrate_flow(steady_trajectory(u, times), 5e-3)
        assert len(built) == 1 and built[0] is u
        for got, want in zip(shared.displacements, copies.displacements):
            assert np.array_equal(got.u1.modes, want.u1.modes)
            assert np.array_equal(got.u2.modes, want.u2.modes)

    def test_blend_matches_two_samplers(self, grid32, rng):
        times = (0.0, 0.1, 0.2)
        fields = [smooth_random_divfree(grid32, rng, k0=3.0) for _ in times]
        velocity = _VelocityInTime(times, fields)
        x = rng.uniform(-grid32.L, 2 * grid32.L, (40, 3))
        y = rng.uniform(-grid32.L, 2 * grid32.L, (40, 3))
        # the last two times go back into the first interval, which is rebuilt
        for t in (0.0, 0.03, 0.1, 0.17, 0.2, 0.05, 0.0):
            i = min(int(t / 0.1), 1)
            w = (t - times[i]) / 0.1
            a1, a2 = PeriodicSampler.of_vector(fields[i]).at(x, y)
            b1, b2 = PeriodicSampler.of_vector(fields[i + 1]).at(x, y)
            got1, got2 = velocity(t, x, y)
            assert np.array_equal(got1, a1 if w == 0.0 else (1.0 - w) * a1 + w * b1)
            assert np.array_equal(got2, a2 if w == 0.0 else (1.0 - w) * a2 + w * b2)
            # the interval in use samples its two snapshot samplers' own planes, not copies
            start, end = velocity.ends
            assert velocity.index == i
            assert all(p is q for p, q in zip(velocity.both.planes, start.planes + end.planes))

    def test_holds_one_interval_of_planes(self, grid32, rng, monkeypatch):
        times = tuple(0.01 * k for k in range(11))
        traj = [(t, smooth_random_divfree(grid32, rng, k0=3.0) * 0.4) for t in times]
        built = []
        of_vector = PeriodicSampler.of_vector

        def counting(V, *upsample):
            built.append(V)
            return of_vector(V, *upsample)

        monkeypatch.setattr(PeriodicSampler, "of_vector", counting)
        tracemalloc.start()
        try:
            integrate_flow(traj, 5e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each snapshot's sampler is built once: the shared end carries into the next interval
        assert len(built) == len(traj) and all(V is u for V, (_, u) in zip(built, traj))
        plane = (4 * grid32.n) ** 2 * 8
        assert peak <= 16 * plane

    def test_step_size_guards(self, grid32):
        traj = steady_trajectory(VectorField.zero(grid32), (0.0, 0.1))
        with pytest.raises(ValueError, match="exceeds the snapshot spacing"):
            integrate_flow(traj, 0.3)
        with pytest.raises(ValueError, match="tile"):
            integrate_flow(traj, 0.03)
        with pytest.raises(ValueError, match="positive"):
            integrate_flow(traj, -0.1)
        with pytest.raises(ValueError, match="two snapshots"):
            integrate_flow(traj[:1], 0.1)

    def test_rejects_compressible_snapshots(self, grid32):
        x, _ = grid32.coords
        bad = VectorField(SpectralField.from_physical(grid32, np.sin(x)), SpectralField.zero(grid32))
        with pytest.raises(ValueError, match="solenoidal"):
            integrate_flow(steady_trajectory(bad, (0.0, 0.1)), 0.05)


class TestFlowMapType:
    def test_validation(self, grid32):
        zero = VectorField.zero(grid32)
        A = np.broadcast_to(ID, (32, 32, 2, 2)).copy()
        FlowMap((0.0,), (zero,), (A,))
        with pytest.raises(ValueError, match="align"):
            FlowMap((0.0, 1.0), (zero,), (A,))
        with pytest.raises(ValueError, match="increase"):
            FlowMap((1.0, 0.5), (zero, zero), (A, A))
        with pytest.raises(ValueError, match="identity"):
            FlowMap((0.0,), (zero + VectorField.from_physical(grid32, np.ones((32, 32)), np.zeros((32, 32))),), (A,))
        with pytest.raises(ValueError, match="shape"):
            FlowMap((0.0,), (zero,), (np.eye(2),))

    def test_index_of(self, grid32):
        flow = integrate_flow(steady_trajectory(VectorField.zero(grid32), (0.0, 0.5, 1.0)), 0.25)
        assert flow.index_of(0.5) == 1
        assert flow.index_of(1.0 + 1e-12) == 2
        with pytest.raises(ValueError, match="time mismatch"):
            flow.index_of(0.3)


class TestJacobianSeries:
    def test_zero_gradient(self, grid32):
        traj = steady_trajectory(VectorField.zero(grid32), (0.0, 1.0))
        assert np.max(np.abs(jacobian_series(traj, 1.0) - ID)) == 0.0

    def test_nilpotent_shear_terminates(self, grid64):
        u = shear_velocity(grid64)
        traj = steady_trajectory(u, (0.0, 0.25, 0.5))
        A = jacobian_series(traj, 0.5)
        M = 0.5 * gradient_tensor(u)
        assert np.max(np.abs(A - (ID - M))) == 0.0

    def test_matches_direct_inversion(self, grid32, rng):
        v = smooth_random_divfree(grid32, rng, k0=3.0) * 0.2
        traj = [(0.0, v), (0.2, v * 0.8), (0.4, v * 0.64)]
        A = jacobian_series(traj, 0.4)
        from besovlab.lagrangian import _gradient_integrals, _invert_per_node

        M = list(_gradient_integrals([t for t, _ in traj], [u for _, u in traj]))[-1][1]
        direct = _invert_per_node(np.asarray(ID + M))
        assert np.max(np.abs(A - direct)) <= 1e-8

    def test_equals_the_running_trapezoid_sum_bitwise(self, grid32, rng):
        v = smooth_random_divfree(grid32, rng, k0=3.0) * 0.2
        traj = [(0.0, v), (0.2, v * 0.8), (0.35, v * 0.6), (0.4, v * 0.5)]
        grads = [gradient_tensor(u) for _, u in traj]
        times = [t for t, _ in traj]
        from besovlab.lagrangian import _neumann_inverse

        for t in (0.0, 0.1, 0.2, 0.3, 0.35, 0.4):
            # the integral as one running sum over the stored intervals, partial one last
            M = np.zeros((32, 32, 2, 2))
            for k in range(len(times) - 1):
                if times[k + 1] <= t:
                    M += 0.5 * (times[k + 1] - times[k]) * (grads[k] + grads[k + 1])
                    continue
                if times[k] < t:
                    w = (t - times[k]) / (times[k + 1] - times[k])
                    M += 0.5 * (t - times[k]) * (grads[k] + ((1.0 - w) * grads[k] + w * grads[k + 1]))
                break
            assert np.array_equal(jacobian_series(traj, t), _neumann_inverse(M, 16)), t

    def test_partial_time_integration(self, grid32, rng):
        v = smooth_random_divfree(grid32, rng, k0=3.0) * 0.1
        traj = [(0.0, v), (0.4, v)]
        A_mid = jacobian_series(traj, 0.2)
        direct = jacobian_series([(0.0, v), (0.2, v)], 0.2)
        assert np.max(np.abs(A_mid - direct)) <= 1e-12

    def test_divergence_detection(self, grid32, rng):
        v = smooth_random_divfree(grid32, rng, k0=2.0) * 4.0
        traj = steady_trajectory(v, (0.0, 1.0, 2.0))
        with pytest.raises(RuntimeError, match="diverg"):
            jacobian_series(traj, 2.0)

    def test_time_range_guard(self, grid32):
        traj = steady_trajectory(VectorField.zero(grid32), (0.0, 1.0))
        with pytest.raises(ValueError, match="out of stored time range"):
            jacobian_series(traj, 2.0)


def test_backward_rk4_step_is_the_negated_step_bitwise(grid64, rng):
    u = smooth_random_divfree(grid64, rng, k0=3.0)
    vel = PeriodicSampler.of_vector(u).at
    xg, yg = grid64.coords
    dt = 0.013
    # reference: the backward step written out with a positive dt
    k1x, k1y = vel(xg, yg)
    k2x, k2y = vel(xg - 0.5 * dt * k1x, yg - 0.5 * dt * k1y)
    k3x, k3y = vel(xg - 0.5 * dt * k2x, yg - 0.5 * dt * k2y)
    k4x, k4y = vel(xg - dt * k3x, yg - dt * k3y)
    want_x = xg - dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    want_y = yg - dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    got_x, got_y = rk4_step(lambda t, x, y: vel(x, y), 0.0, xg, yg, -dt)
    assert np.array_equal(got_x, want_x) and np.array_equal(got_y, want_y)


def test_matmul_is_the_einsum_bitwise(rng):
    from besovlab.lagrangian import _matmul

    A, B = rng.standard_normal((2, 128, 128, 2, 2))
    assert np.array_equal(_matmul(A, B), np.einsum("...ij,...jk->...ik", A, B))


class TestToLagrangian:
    """Fields pulled back along the flow: evaluated at the images of the nodes."""

    @staticmethod
    def pulled_back(flow, t, *samplers):
        xs, ys = flow.position_arrays(flow.index_of(t))
        return PeriodicSampler.joined(*samplers).at(xs, ys)

    def test_identity_flow(self, grid32, rng):
        a = smooth_random_field(grid32, rng, amplitude=0.3)
        pot = smooth_random_field(grid32, rng, k0=3.0)
        flow = integrate_flow(steady_trajectory(VectorField.zero(grid32), (0.0, 0.5)), 0.1)
        eta, v1, v2, p = self.pulled_back(
            flow,
            0.5,
            PeriodicSampler.of_scalar(a),
            PeriodicSampler.of_vector(VectorField.zero(grid32)),
            PeriodicSampler.of_scalar(potential_from_gradient(gradient(pot))),
        )
        assert np.max(np.abs(eta - a.values)) <= 1e-12
        assert max(np.max(np.abs(v1)), np.max(np.abs(v2))) <= 1e-12
        assert np.max(np.abs(p - pot.values.real)) <= 1e-10 * pot.linf()

    def test_translation_restores_initial_scalar(self, grid64, rng):
        a0 = smooth_random_field(grid64, rng, k0=4.0, amplitude=0.5)
        U, T = (0.6, -0.2), 0.5
        u = VectorField.from_physical(grid64, np.full((64, 64), U[0]), np.full((64, 64), U[1]))
        carried = a0.with_modes(
            a0.modes * np.exp(-1j * (grid64.kx * U[0] + grid64.ky * U[1]) * T)
        )
        flow = integrate_flow(steady_trajectory(u, (0.0, 0.25, 0.5)), 0.025)
        eta, v1, _ = self.pulled_back(
            flow, T, PeriodicSampler.of_scalar(carried), PeriodicSampler.of_vector(u)
        )
        assert np.max(np.abs(eta - a0.values.real)) <= 2e-5 * a0.linf()
        assert np.max(np.abs(v1 - U[0])) <= 1e-10

    def test_shear_restores_initial_scalar(self, grid64):
        x, y = grid64.coords
        T = 0.25
        a0 = SpectralField.from_physical(grid64, np.cos(x) * np.sin(y))
        carried = SpectralField.from_physical(grid64, np.cos(x - T * np.sin(y)) * np.sin(y))
        u = shear_velocity(grid64)
        flow = integrate_flow(steady_trajectory(u, (0.0, T)), 5e-3)
        eta, v1, _ = self.pulled_back(
            flow, T, PeriodicSampler.of_scalar(carried), PeriodicSampler.of_vector(u)
        )
        num = np.sqrt(np.sum((eta - a0.values.real) ** 2))
        den = np.sqrt(np.sum(a0.values.real**2))
        assert num / den <= 1e-4
        assert np.max(np.abs(v1 - np.sin(y))) <= 1e-9


class TestDivIdentity:
    def test_zero_and_constant_velocity(self, grid32):
        flow = integrate_flow(steady_trajectory(VectorField.zero(grid32), (0.0, 0.5)), 0.1)
        res = check_div_identity(VectorField.zero(grid32), 0.5, flow)
        assert res.trace_form == 0.0 and res.flux_form == 0.0
        u = VectorField.from_physical(grid32, np.full((32, 32), 1.2), np.full((32, 32), -0.4))
        flow_c = integrate_flow(steady_trajectory(u, (0.0, 0.5)), 0.05)
        res_c = check_div_identity(u, 0.5, flow_c)
        assert res_c.trace_form <= 1e-11 and res_c.flux_form <= 1e-11

    def test_cellular_flow(self, grid64):
        traj = [(0.05 * k, taylor_green_velocity(grid64, 0.05 * k)) for k in range(7)]
        flow = integrate_flow(traj, 2.5e-3)
        res = check_div_identity(taylor_green_velocity(grid64, 0.3), 0.3, flow)
        assert res.trace_form <= 1e-5
        assert res.flux_form <= 1e-5


class TestDeltaEstimates:
    def test_identical_trajectories(self, grid32, rng):
        v = smooth_random_divfree(grid32, rng, k0=3.0) * 0.2
        traj = [(0.0, v), (0.2, v * 0.8), (0.4, v * 0.64)]
        report = delta_estimates(traj, traj)
        named = dict(zip(report.extra["ratio_names"], report.ratios))
        assert named["difference"] == 0.0
        assert named["difference_rate"] == 0.0
        assert named["deviation"] > 0.0
        assert named["rate"] > 0.0
        integrals = report.extra["gradient_integrals"]
        assert integrals[0] == pytest.approx(integrals[1])

    def test_reports_named_ratios(self, grid32, rng):
        v = smooth_random_divfree(grid32, rng, k0=3.0) * 0.2
        traj = [(0.0, v), (0.2, v * 0.8), (0.4, v * 0.64)]
        report = delta_estimates(traj, traj)
        assert isinstance(report, RatioReport)
        assert report.check == "flow_map_deltas"
        assert report.config == {"p": 2.0, "grid_n": 32, "samples": 3}
        assert report.extra["ratio_names"] == ("deviation", "difference", "rate", "difference_rate")
        # identical trajectories have no difference: the zeros sit where the
        # names put the two difference ratios
        assert [r > 0.0 for r in report.ratios] == [True, False, True, False]

    def test_ratio_invariance_under_perturbation_scaling(self, grid32, rng):
        base = smooth_random_divfree(grid32, rng, k0=3.0) * 3e-7
        bump = smooth_random_divfree(grid32, rng, k0=4.0) * 3e-7
        times = (0.0, 0.1, 0.2)

        def report(s):
            t1 = [(t, base) for t in times]
            t2 = [(t, base + bump * s) for t in times]
            return delta_estimates(t1, t2)

        r1, r2 = report(1.0), report(0.5)
        for a, b in zip(r1.ratios, r2.ratios):
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a))

    def test_ratios_stable_under_refinement(self, rng):
        reports = []
        for n in (32, 64):
            grid = make_grid(n)
            seeded = np.random.default_rng(99)
            v1 = smooth_random_divfree(grid, seeded, k0=3.0) * 0.25
            dv = smooth_random_divfree(grid, seeded, k0=3.0) * 0.05
            times = (0.0, 0.15, 0.3)
            t1 = [(t, v1 * math.exp(-t)) for t in times]
            t2 = [(t, (v1 + dv) * math.exp(-t)) for t in times]
            reports.append(delta_estimates(t1, t2))
        for a, b in zip(reports[0].ratios, reports[1].ratios):
            assert b <= 1.5 * a + 1e-12
            assert b >= a / 1.5 - 1e-12

    def test_input_validation(self, grid32, rng):
        v = smooth_random_divfree(grid32, rng, k0=3.0) * 0.2
        t1 = [(0.0, v), (0.2, v)]
        with pytest.raises(ValueError, match="share their sample times"):
            delta_estimates(t1, [(0.0, v), (0.3, v)])
        other = make_grid(64)
        w = VectorField.zero(other)
        with pytest.raises(ValueError, match="different grids"):
            delta_estimates(t1, [(0.0, w), (0.2, w)])

    def test_memory_does_not_grow_with_the_samples(self, grid32, rng):
        v = smooth_random_divfree(grid32, rng, k0=3.0) * 0.2
        dv = smooth_random_divfree(grid32, rng, k0=3.0) * 0.01

        def peak(samples):
            times = np.linspace(0.0, 0.4, samples)
            t1 = [(float(t), v * math.exp(-t)) for t in times]
            t2 = [(float(t), (v + dv) * math.exp(-t)) for t in times]
            delta_estimates(t1, t2)  # warm the grid's cached multipliers and ladders
            tracemalloc.start()
            try:
                delta_estimates(t1, t2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one (n, n, 2, 2) float64 tensor; holding every sample's tensors at once takes about 58 at 9 samples
        tensor = grid32.n**2 * 4 * 8
        five, nine = peak(5), peak(9)
        assert nine <= 16 * tensor
        assert nine - five <= 2 * tensor

    def test_monitor_failure_raises(self, grid32, rng):
        v = smooth_random_divfree(grid32, rng, k0=2.0) * 4.0
        traj = steady_trajectory(v, (0.0, 1.0, 2.0))
        with pytest.raises(RuntimeError, match="diverg"):
            delta_estimates(traj, [(t, u * 1.1) for t, u in traj])
