"""End-to-end acceptance runs: one test per headline guarantee, at stated budgets.

Each test prints a single summary line (visible with ``pytest -s`` or in the
failure report) and asserts both the numerical tolerance and the wall-clock
budget it must meet.
"""

import math
import time

import numpy as np
from numpy.random import default_rng

from besovlab.dyadic import build_ladder
from besovlab.elliptic import coefficient_floor, solve_pressure
from besovlab.evolution import (
    IntegrationConfig,
    StateSnapshot,
    ViscosityLaw,
    momentum_step,
    ns_integrate,
    transport_step,
)
from besovlab.inequality_lab import (
    check_elliptic_estimate,
    check_heat_decay,
    check_transport_estimate,
    fit_growth_envelope,
)
from besovlab.lagrangian import (
    check_div_identity,
    gradient_tensor,
    integrate_flow,
    jacobian_series,
)
from besovlab.norms import BesovSpec, besov_norm
from besovlab.paraproduct import para_T, remainder_R
from besovlab.random_fields import (
    random_band_field,
    random_divergence_free,
    trial_seed,
)
from besovlab.spectral import (
    SpectralField,
    VectorField,
    gradient_part,
    leray_project,
    make_grid,
    multiply,
)

from conftest import single_mode, single_mode_lp_norm, smooth_random_field
from test_elliptic import band_forcing, bounded_coefficient, dense_gradient_solve, vec_l2, vec_linf
from test_evolution import rel_l2, taylor_green


def _line(num: int, detail: str) -> None:
    print(f"criterion {num:02d} PASS: {detail}")


def _sup(field) -> float:
    return field.linf()


def test_01_block_partition_and_projector_algebra():
    """Octave blocks plus the low block reassemble every field; the
    divergence-free/gradient projectors are idempotent complements."""
    start = time.perf_counter()
    grid = make_grid(64)
    ladder = build_ladder(grid)
    rng = default_rng(1101)
    worst_partition = worst_idem = worst_split = 0.0
    for _ in range(200):
        f = smooth_random_field(grid, rng, k0=9.0, mean_zero=False)
        scale = max(_sup(f), 1e-300)
        worst_partition = max(worst_partition, _sup(ladder.reconstruct(f) - f) / scale)

        V = VectorField(
            smooth_random_field(grid, rng, k0=9.0, mean_zero=False),
            smooth_random_field(grid, rng, k0=9.0, mean_zero=False),
        )
        vscale = max(_sup(V.u1), _sup(V.u2), 1e-300)
        P = leray_project(V)
        Q = gradient_part(V)
        PP = leray_project(P)
        worst_idem = max(
            worst_idem,
            max(_sup(PP.u1 - P.u1), _sup(PP.u2 - P.u2)) / vscale,
        )
        S = P + Q
        worst_split = max(
            worst_split,
            max(_sup(S.u1 - V.u1), _sup(S.u2 - V.u2)) / vscale,
        )
    elapsed = time.perf_counter() - start
    assert worst_partition <= 1e-12
    assert worst_idem <= 1e-13
    assert worst_split <= 1e-13
    assert elapsed < 10.0
    _line(1, f"partition {worst_partition:.2e}, idempotence {worst_idem:.2e}, "
             f"split {worst_split:.2e} over 200 fields in {elapsed:.1f}s")


def test_02_product_decomposition_identity():
    """Low-high, high-low, and resonant parts reassemble the pointwise product."""
    start = time.perf_counter()
    grid = make_grid(64)
    worst = 0.0
    for t in range(100):
        u = random_band_field(grid, 1.0, 16.0, trial_seed(1202, t, 0), mean=0.4)
        v = random_band_field(grid, 1.0, 16.0, trial_seed(1202, t, 1), mean=-0.7)
        exact = multiply(u, v)
        recon = para_T(u, v) + para_T(v, u) + remainder_R(u, v)
        scale = max(_sup(exact), 1e-300)
        worst = max(worst, _sup(recon - exact) / scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 30.0
    _line(2, f"max relative defect {worst:.2e} over 100 pairs in {elapsed:.1f}s")


def test_03_single_mode_norms_match_closed_form():
    """A lone cosine at octave j has norm 2^(j s) times its node-quadrature L^p norm exactly."""
    start = time.perf_counter()
    grid = make_grid(64)
    combos = [
        (j, p, s)
        for j in (0, 1, 2, 3, 4)
        for p, s in ((1.0, -1.0), (1.5, 0.5), (2.0, 2.0 / 3.0), (3.0, 0.0))
    ]
    assert len(combos) == 20
    worst = 0.0
    for j, p, s in combos:
        u = single_mode(grid, 2**j, 2**j)
        value, profile = besov_norm(u, BesovSpec(s, p, 1.0))
        expected = 2.0 ** (j * s) * single_mode_lp_norm(grid, 2**j, 2**j, p)
        worst = max(worst, abs(value - expected) / expected)
        assert sum(v > 0 for v in profile.values) == 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    _line(3, f"max relative error {worst:.2e} over {len(combos)} combos in {elapsed:.1f}s")


def _dilate(u0, lam: int):
    """lam * u0(lam x), realized on the compressed box of side L/lam.

    The mode coefficients carry over unchanged in lattice position but sit at
    lam-times-larger physical frequencies there, which is exactly the plane's
    dilation; the compressed box supplies the volume factor.
    """
    small = make_grid(u0.grid.n, u0.grid.L / lam)
    return SpectralField(small, lam * u0.modes)


def test_04_critical_norm_is_dilation_invariant():
    """In the scale-critical space the norm of lam*u0(lam x) matches u0 within 1%."""
    start = time.perf_counter()
    grid = make_grid(64)
    u0 = random_band_field(grid, 2.0, 6.0, trial_seed(1404, 0))
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        spec = BesovSpec(2.0 / p - 1.0, p, 1.0)
        base, _ = besov_norm(u0, spec)
        for lam in (2, 4):
            scaled_field = _dilate(u0, lam)
            scaled, _ = besov_norm(scaled_field, spec)
            worst = max(worst, abs(scaled / base - 1.0))
    elapsed = time.perf_counter() - start
    assert worst <= 0.01
    assert elapsed < 10.0
    _line(4, f"max norm drift under dilation {worst:.2e} in {elapsed:.1f}s")


def test_05_pressure_solver_against_dense_oracle_and_l2_bound():
    """Iterative pressure gradients match a dense direct solve, and the
    coefficient floor controls the gradient in mean square."""
    start = time.perf_counter()
    grid8 = make_grid(8)
    worst_oracle = 0.0
    for t in range(20):
        a = bounded_coefficient(grid8, trial_seed(1505, t, 0), floor=0.3, k_high=3.0)
        F = band_forcing(grid8, 150500 + t, k_high=3.0)
        ref = dense_gradient_solve(a, F)
        got, _, _ = solve_pressure(a, F, tol=1e-12)
        worst_oracle = max(
            worst_oracle, vec_linf(got - ref) / max(1.0, vec_linf(ref))
        )
    assert worst_oracle <= 1e-8

    grid64 = make_grid(64)
    worst_l2 = 0.0
    for t in range(20):
        a = bounded_coefficient(grid64, trial_seed(1506, t, 0), floor=0.3)
        F = band_forcing(grid64, 150600 + t)
        grad_pi, _, _ = solve_pressure(a, F, tol=1e-11)
        kappa = coefficient_floor(a)
        lhs = kappa * vec_l2(grad_pi)
        rhs = vec_l2(gradient_part(F))
        worst_l2 = max(worst_l2, lhs / rhs)
    elapsed = time.perf_counter() - start
    assert worst_l2 <= 1.0 + 1e-6
    assert elapsed < 60.0
    _line(5, f"oracle gap {worst_oracle:.2e} (n=8), floor*grad vs source ratio "
             f"{worst_l2:.6f} (n=64) in {elapsed:.1f}s")


def test_06_pressure_estimate_ratios_refinement_stable():
    """Measured pressure-estimate ratios stay finite and move < 50% when the
    grid doubles, at first power (p=2) and second power (p=3) weighting."""
    start = time.perf_counter()

    def max_ratio(n: int, p: float) -> float:
        grid = make_grid(n, 2.0 * math.pi)
        worst = 0.0
        for t in range(20):
            a = bounded_coefficient(grid, trial_seed(1606, t, 0), floor=0.3)
            F = band_forcing(grid, 160600 + t)
            grad_pi, _, _ = solve_pressure(a, F, tol=1e-11)
            rep = check_elliptic_estimate(a, F, grad_pi, p)
            assert all(math.isfinite(r) for r in rep.ratios)
            worst = max(worst, max(rep.ratios))
        return worst

    drifts = {}
    for p in (2.0, 3.0):
        coarse = max_ratio(64, p)
        fine = max_ratio(128, p)
        drifts[p] = abs(fine - coarse) / max(coarse, 1e-300)
        assert drifts[p] <= 0.5
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _line(6, f"ratio drift n=64->128: p=2 {drifts[2.0]:.2%}, p=3 {drifts[3.0]:.2%} "
             f"in {elapsed:.1f}s")


def test_07_heat_decay_rates_sit_in_the_annulus_window():
    """Fitted exponential decay rates of octave blocks match the annulus bounds."""
    start = time.perf_counter()
    windows = []
    for j in (2, 3, 4):
        rep = check_heat_decay(
            j, (0.0, 0.005, 0.01, 0.02, 0.04), p=2.0, trials=6, grid_n=128, seed=1707
        )
        lo, hi = rep.extra["c_window"]
        c_fit = rep.extra["c_fit"]
        assert all(lo <= c <= hi for c in c_fit)
        windows.append((j, min(c_fit), max(c_fit)))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _line(7, "fits " + ", ".join(f"j={j}: [{a:.3f}, {b:.3f}]" for j, a, b in windows)
             + f" within [0.5625, 7.1111] in {elapsed:.1f}s")


def test_08_transport_schemes_control_the_sup_norm():
    """Spectral advection drifts below 1e-3 per unit time, the monotone
    scheme never overshoots, and the growth constant survives refinement."""
    start = time.perf_counter()
    grid = make_grid(128)
    x, y = grid.coords
    u = VectorField(SpectralField.from_physical(grid, np.sin(y)), SpectralField.zero(grid))
    a0 = SpectralField.from_physical(grid, np.cos(x))
    sup0 = a0.linf()

    a = a0
    spectral_drift = 0.0
    for _ in range(400):
        a = transport_step(a, u, 2.5e-3, scheme="spectral")
        spectral_drift = max(spectral_drift, abs(a.linf() - sup0))
    assert spectral_drift <= 1e-3

    a = a0
    overshoot = 0.0
    for _ in range(100):
        a = transport_step(a, u, 0.01, scheme="semi_lagrangian_monotone")
        overshoot = max(overshoot, a.linf() - sup0)
    # the clamp is exact in sample space; only spectral-storage rounding remains
    assert overshoot <= 1e-13 * sup0

    def shear_trajectory(n: int):
        g = make_grid(n)
        _, yy = g.coords
        uu = VectorField(SpectralField.from_physical(g, np.sin(yy)), SpectralField.zero(g))
        rr = random_band_field(g, 1.0, 8.0, trial_seed(1808, 0))
        aa = SpectralField.from_physical(g, rr.values.real / np.max(np.abs(rr.values.real)))
        out = [(0.0, aa, uu)]
        state = aa
        for k in range(1, 11):
            state = transport_step(state, uu, 0.01, scheme="spectral")
            out.append((k * 0.01, state, uu))
        return out

    c64 = check_transport_estimate(shear_trajectory(64), 2.0, 2.0).extra["C_min"]
    c128 = check_transport_estimate(shear_trajectory(128), 2.0, 2.0).extra["C_min"]
    c_drift = abs(c128 - c64) / max(c64, 1e-300)
    elapsed = time.perf_counter() - start
    assert c_drift <= 0.5
    assert elapsed < 120.0
    _line(8, f"spectral drift {spectral_drift:.2e}/unit time, monotone overshoot "
             f"{overshoot:.1e}, growth-constant drift {c_drift:.2%} in {elapsed:.1f}s")


def test_09_uniform_density_momentum_matches_closed_form():
    """With uniform density the stepped cellular flow tracks its closed form."""
    start = time.perf_counter()
    grid = make_grid(64)
    mu = 1.0
    law = ViscosityLaw("constant", mu)
    a = SpectralField.zero(grid)
    u, grad_pi = taylor_green(grid, mu, 0.0)
    state = StateSnapshot(t=0.0, a=a, u=u, gradPi=grad_pi)
    dt = 1e-3
    for _ in range(100):
        state = momentum_step(state, law, dt)
    u_ref, grad_ref = taylor_green(grid, mu, 0.1)
    vel_err = rel_l2(state.u, u_ref)
    pressure_err = vec_l2(state.gradPi - grad_ref) / max(vec_l2(grad_ref), 1e-300)
    elapsed = time.perf_counter() - start
    assert vel_err <= 1e-4
    assert pressure_err <= 1e-3
    assert elapsed < 60.0
    _line(9, f"velocity error {vel_err:.2e}, pressure-gradient error "
             f"{pressure_err:.2e} after 100 steps in {elapsed:.1f}s")


def test_10_flow_maps_preserve_volume_and_divergence_identity():
    """Particle maps of solenoidal flows keep unit Jacobian determinant, the
    two divergence transport identities agree, and the series inverse matches
    direct inversion."""
    start = time.perf_counter()
    grid = make_grid(128)
    x, y = grid.coords
    shear = VectorField(SpectralField.from_physical(grid, np.sin(y)), SpectralField.zero(grid))
    cellular = VectorField(
        SpectralField.from_physical(grid, np.cos(x) * np.sin(y)),
        SpectralField.from_physical(grid, -np.sin(x) * np.cos(y)),
    )

    def steady(vel, T, m):
        return [(float(t), vel) for t in np.linspace(0.0, T, m)]

    reports = []
    for name, vel in (("shear", shear), ("cellular", cellular)):
        flow = integrate_flow(steady(vel, 0.5, 11), 5e-3)
        volume = flow.volume_defect()
        res = check_div_identity(vel, 0.5, flow)
        assert volume <= 1e-6
        assert res.trace_form <= 1e-5
        assert res.flux_form <= 1e-5
        reports.append((name, volume, max(res.trace_form, res.flux_form)))

    t_probe = 0.2
    trajectory = steady(cellular, 0.5, 11)
    series = jacobian_series(trajectory, t_probe, k_max=32)
    M = t_probe * gradient_tensor(cellular)
    ident = np.zeros_like(M)
    ident[..., 0, 0] = 1.0
    ident[..., 1, 1] = 1.0
    direct = np.linalg.inv(ident + M)
    series_gap = float(np.max(np.abs(series - direct)))
    elapsed = time.perf_counter() - start
    assert series_gap <= 1e-8
    assert elapsed < 120.0
    _line(10, ", ".join(f"{n}: volume {v:.1e}, identity {d:.1e}" for n, v, d in reports)
              + f"; series vs inversion {series_gap:.1e} in {elapsed:.1f}s")


def test_11_small_data_run_fits_growth_envelope_with_bounded_energy():
    """A long small-data run completes, admits a double-exponential envelope
    with zero violations, and balances the correction energy to 1e-3."""
    start = time.perf_counter()
    grid = make_grid(128)
    raw = random_band_field(grid, 1.0, 4.0, trial_seed(1911, 0), slope=-0.5)
    vals = raw.values.real
    a0 = SpectralField.from_physical(grid, vals * (0.2 / np.max(np.abs(vals))))
    u0 = random_divergence_free(grid, 1.0, 4.0, trial_seed(1911, 1))
    u0 = u0 * (0.05 / max(u0.u1.linf(), u0.u2.linf()))
    energy_init = float(
        np.sum(u0.u1.values.real**2 + u0.u2.values.real**2)
    ) * grid.cell_area

    run = IntegrationConfig(
        T=2.0, dt=0.01, visc=ViscosityLaw("constant", 1.0), p=2.0,
        scheme="spectral", snapshot_every=10, energy=True,
    )
    _, diag = ns_integrate(run, a0, u0)
    assert diag.stop_reason == "completed"

    series = [
        (t, diag.A[i] + diag.Z[i])
        for i, t in enumerate(diag.times)
        if diag.A[i] + diag.Z[i] > 0.0
    ]
    C, fit_defect = fit_growth_envelope(series)
    assert fit_defect <= 0.0  # no sample exceeds the fitted envelope

    E0 = np.array(diag.E0)
    E1 = np.array(diag.E1)
    defect = np.array(diag.energy["energy_defect"])
    assert np.all(np.isfinite(E0)) and np.all(np.isfinite(E1))
    assert E0.max() <= energy_init
    assert E1.max() <= 1.0
    interior = defect[1:-1]
    elapsed = time.perf_counter() - start
    assert interior.max() <= 1e-3
    assert elapsed < 600.0
    _line(11, f"completed T=2 (C={C:.3f}, envelope defect {fit_defect:.1e}, "
              f"E0 max {E0.max():.1e}, balance defect {interior.max():.1e}) "
              f"in {elapsed:.1f}s")
