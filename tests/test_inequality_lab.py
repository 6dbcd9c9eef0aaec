"""Ratio-experiment checks: report plumbing, saturating cases, and sweeps."""

import math

import numpy as np
import pytest

from besovlab.elliptic import solve_pressure
from besovlab.inequality_lab import (
    COMMUTATOR_P_LOWER,
    PRESSURE_P_UPPER,
    RatioReport,
    check_bernstein,
    check_elliptic_estimate,
    check_heat_decay,
    check_Ij_bound,
    check_transport_estimate,
    fit_growth_envelope,
    ij_integral,
    mark_refinement,
)
from besovlab.norms import lp_norm
from besovlab.random_fields import random_band_field, trial_seed
from besovlab.spectral import (
    SpectralField,
    VectorField,
    derivative,
    make_grid,
)
from conftest import single_mode


def make_report(ratios, **kw):
    defaults = dict(check="demo", config={"p": 2.0}, seed=1, ratios=tuple(ratios))
    defaults.update(kw)
    return RatioReport(**defaults)


class TestRatioReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_report([])
        with pytest.raises(ValueError):
            make_report([1.0, -0.5])
        with pytest.raises(ValueError):
            make_report([float("nan")])
        with pytest.raises(ValueError):
            make_report([float("inf")])

    def test_summary_stats(self):
        r = make_report([3.0, 1.0, 2.0])
        assert r.max_ratio == 3.0
        assert r.median_ratio == 2.0

    def test_mark_refinement(self):
        coarse = make_report([2.0])
        fine = make_report([2.4])
        flagged = mark_refinement(coarse, fine)
        assert flagged.refinement_stable is True
        assert flagged.extra["refinement_drift"] == pytest.approx(0.2)
        drifted = mark_refinement(coarse, make_report([4.0]))
        assert drifted.refinement_stable is False
        with pytest.raises(ValueError):
            mark_refinement(coarse, make_report([1.0], check="other"))

    def test_mark_refinement_bounds_every_ratio(self):
        # the max ratio stays at 2.0, but each ratio moves by 100% or 50%
        flagged = mark_refinement(make_report([1.0, 2.0]), make_report([2.0, 1.0]))
        assert flagged.refinement_stable is False
        assert flagged.extra["refinement_drift"] == pytest.approx(1.0)

    def test_mark_refinement_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="2 coarse ratios with 3 fine"):
            mark_refinement(make_report([1.0, 2.0]), make_report([1.0, 2.0, 2.0]))


class TestThresholds:
    def test_exact_expressions(self):
        assert COMMUTATOR_P_LOWER == pytest.approx((1 + math.sqrt(17)) / 4, rel=1e-15)
        assert PRESSURE_P_UPPER == pytest.approx((5 + math.sqrt(17)) / 2, rel=1e-15)
        assert 1.28 < COMMUTATOR_P_LOWER < 1.2809
        assert 4.56 < PRESSURE_P_UPPER < 4.5616


class TestBernstein:
    def test_errors(self):
        with pytest.raises(ValueError):
            check_bernstein(1, 4.0, 2.0, 1)
        with pytest.raises(ValueError):
            check_bernstein(-1, 2.0, 2.0, 1)
        with pytest.raises(ValueError):
            check_bernstein(1, 2.0, 2.0, 0)

    def test_axis_mode_saturates_equivalence(self):
        # an axis-aligned oscillation differentiates exactly: the measured
        # ratio at matching exponents is 1
        grid = make_grid(64)
        u = single_mode(grid, 4, 0)
        lam = 4.0
        for k in (1, 2):
            dk = sum(
                lp_norm(derivative(u, (k - i, i)), 2.0) for i in range(k + 1)
            )
            assert dk / (lam**k * lp_norm(u, 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_single_mode_sup_over_l2(self):
        grid = make_grid(64)
        u = single_mode(grid, 3, 4)
        # sup |cos| = 1 and |cos|_2 = L / sqrt(2)
        assert lp_norm(u, float("inf")) / lp_norm(u, 2.0) == pytest.approx(
            np.sqrt(2.0) / grid.L, rel=1e-12
        )

    def test_annulus_sweep_is_scale_stable(self):
        # at matching exponents the ratio is an rms-wavenumber fraction of
        # the octave scale, the same for every octave up to lattice effects
        report = check_bernstein(1, 2.0, 2.0, 4, js=(1, 2, 3), grid_n=64, seed=511)
        assert report.extra["annulus_drift"] <= 0.30
        assert all(r > 0 for r in report.ratios)
        assert all(r > 0 for r in report.extra["reverse_ratios"])
        assert all(r > 0 for r in report.extra["ball_ratios"])
        assert report.config["k"] == 1

    def test_integrability_gain_never_saturated_by_gaussian_fields(self):
        # diffuse random fields sit strictly inside the p<q bound and drift
        # downward with scale; the recorded ratios stay bounded while the
        # per-octave peaks decrease
        report = check_bernstein(1, 2.0, 4.0, 4, js=(1, 2, 3), grid_n=64, seed=511)
        assert report.max_ratio < 10.0
        peaks = report.extra["per_j_max"]
        assert peaks["1"] > peaks["3"]

    def test_sup_norm_case_bounded(self):
        report = check_bernstein(0, 2.0, float("inf"), 3, js=(2, 3), grid_n=64, seed=512)
        assert report.max_ratio < 10.0
        assert report.median_ratio > 0.01


class TestHeatDecay:
    def test_too_few_times(self):
        with pytest.raises(ValueError):
            check_heat_decay(2, [0.0, 0.1])

    def test_fitted_rate_in_window(self):
        # every mode decays between the slowest and fastest annulus rates, and
        # the least-squares slope is a weighted mean of pairwise slopes, so at
        # p=2 containment is exact mathematics
        lo, hi = 9.0 / 16.0, (8.0 / 3.0) ** 2
        for j in (2, 3):
            lam2 = 4.0**j
            times = [i * 0.2 / lam2 for i in range(6)]
            report = check_heat_decay(j, times, p=2.0, trials=4, grid_n=64, seed=514)
            for c in report.extra["c_fit"]:
                assert lo * (1 - 1e-9) <= c <= hi * (1 + 1e-9)
            assert all(r >= 1.0 - 1e-12 for r in report.ratios)
            assert report.max_ratio < 3.0

    def test_p4_fit(self):
        lam2 = 16.0
        times = [i * 0.2 / lam2 for i in range(6)]
        report = check_heat_decay(2, times, p=4.0, trials=3, grid_n=64, seed=515)
        lo, hi = report.extra["c_window"]
        for c in report.extra["c_fit"]:
            assert c > 0.0
            assert 0.5 * lo <= c <= 2.0 * hi


def shear_trajectory(grid, times):
    """Exact transport of cos(x) by the stationary shear (sin y, 0)."""
    xs, ys = grid.coords
    u = VectorField.from_physical(grid, np.sin(ys), np.zeros_like(ys))
    snaps = []
    for t in times:
        a = SpectralField.from_physical(grid, np.cos(xs - t * np.sin(ys)))
        snaps.append((t, a, u))
    return snaps


class TestTransportEstimate:
    def test_zero_velocity_keeps_norms(self, grid64):
        a0 = random_band_field(grid64, 1.0, 6.0, 42)
        zero_u = VectorField.zero(grid64)
        traj = [(t, a0, zero_u) for t in (0.0, 0.5, 1.0)]
        report = check_transport_estimate(traj, 2.0, 2.0)
        assert all(abs(r - 1.0) < 1e-12 for r in report.ratios)
        assert report.extra["C_min"] == 0.0
        assert all(u == 0.0 for u in report.extra["U"])
        # each octave tail is measured against its own initial norm: no defect without transport
        assert report.extra["m_sweep"] == {"0": 0.0, "1": 0.0, "2": 0.0, "3": 0.0}

    def test_translation_is_isometric(self, grid64):
        # constant velocity translates the field; block L^2 norms are blind
        # to the phase shift, so the growth factors are exactly 1
        a0 = random_band_field(grid64, 1.0, 6.0, 43)
        c = (0.7, -0.3)
        kx, ky = grid64.kx, grid64.ky
        u = VectorField.from_physical(
            grid64,
            np.full((grid64.n, grid64.n), c[0]),
            np.full((grid64.n, grid64.n), c[1]),
        )
        traj = []
        for t in (0.0, 0.4, 0.8):
            shifted = a0.with_modes(a0.modes * np.exp(-1j * (kx * c[0] + ky * c[1]) * t))
            traj.append((t, shifted, u))
        report = check_transport_estimate(traj, 2.0, 2.0)
        assert all(abs(r - 1.0) < 1e-12 for r in report.ratios)
        assert report.extra["C_min"] == 0.0
        # the phase shift leaves every octave tail at its initial norm, up to
        # rounding, and rounding is no defect at zero cost
        assert report.extra["m_sweep"] == {str(m): 0.0 for m in range(4)}

    def test_growth_at_zero_cost_is_a_defect(self, grid64):
        # no velocity, so no cost, yet the high octaves grow: no rate covers that
        a0 = random_band_field(grid64, 1.0, 4.0, 44)
        high = random_band_field(grid64, 12.0, 20.0, 45)
        u = VectorField.zero(grid64)
        report = check_transport_estimate([(t, a0 + high * t, u) for t in (0.0, 0.5, 1.0)], 2.0, 2.0)
        assert report.extra["U"] == (0.0, 0.0, 0.0)
        sweep = report.extra["m_sweep"]
        assert all(sweep[f"defect_at_zero_cost_m{m}"] > 0.1 for m in range(4))

    def test_shear_growth_is_finite(self, grid64):
        traj = shear_trajectory(grid64, (0.0, 0.25, 0.5))
        report = check_transport_estimate(traj, 2.0, 2.0)
        assert report.ratios[0] == pytest.approx(1.0, abs=1e-12)
        assert all(b >= a - 1e-12 for a, b in zip(report.ratios, report.ratios[1:]))
        assert 0.0 < report.extra["C_min"] < 50.0
        assert report.extra["U"][-1] > 0.0
        assert "0" in report.extra["m_sweep"]
        assert "3" in report.extra["m_sweep"]

    def test_object_snapshots_accepted(self, grid64):
        class Snap:
            def __init__(self, t, a, u):
                self.t, self.a, self.u = t, a, u

        traj = [Snap(*s) for s in shear_trajectory(grid64, (0.0, 0.2))]
        report = check_transport_estimate(traj, 2.0, 2.0)
        assert len(report.ratios) == 2

    def test_errors(self, grid64):
        traj = shear_trajectory(grid64, (0.0, 0.25))
        with pytest.raises(ValueError, match="1/q - 1/p"):
            check_transport_estimate(traj, 64.0, 1.0)
        with pytest.raises(ValueError, match="snapshots"):
            check_transport_estimate(traj[:1], 2.0, 2.0)
        xs, _ = grid64.coords
        bad_u = VectorField.from_physical(grid64, np.sin(xs), np.zeros_like(xs))
        bad = [(t, a, bad_u) for t, a, _ in traj]
        with pytest.raises(ValueError, match="divergence"):
            check_transport_estimate(bad, 2.0, 2.0)


@pytest.fixture(scope="module")
def fields64():
    grid = make_grid(64)
    a = random_band_field(grid, 1.0, 8.0, trial_seed(61, 0), slope=-1.0)
    pi = random_band_field(grid, 1.0, 10.0, trial_seed(61, 1), slope=-1.0)
    return grid, a, pi


class TestIjBound:
    def test_constant_coefficient_vanishes(self, fields64):
        grid, _, pi = fields64
        const = SpectralField.from_physical(grid, np.full((grid.n, grid.n), 0.7))
        assert abs(ij_integral(const, pi, 2.0, 2)) < 1e-12
        report = check_Ij_bound(const, pi, 2.0, 2.0, 2)
        assert report.ratios == (0.0,)

    def test_negative_pairing_gives_positive_ratio(self, fields64):
        # the pairing is linear in the coefficient and the bound is even in it
        _, a, pi = fields64
        plus = check_Ij_bound(a, pi, 2.0, 2.0, 2)
        minus = check_Ij_bound(-a, pi, 2.0, 2.0, 2)
        assert plus.extra["pairing"] != 0.0
        assert minus.extra["pairing"] == pytest.approx(-plus.extra["pairing"], rel=1e-12)
        assert minus.max_ratio > 0.0
        assert minus.max_ratio == pytest.approx(plus.max_ratio, rel=1e-12)

    def test_quadrature_routes_agree_at_p2(self, fields64):
        # fully resolved spectra: the two pairings differ by an exact
        # integration by parts
        _, a, pi = fields64
        for j in (1, 2, 3):
            div_route = ij_integral(a, pi, 2.0, j, form="divergence")
            parts_route = ij_integral(a, pi, 2.0, j, form="parts")
            scale = max(abs(div_route), abs(parts_route), 1e-30)
            assert abs(div_route - parts_route) <= 1e-8 * scale

    def test_parts_route_needs_p2(self, fields64):
        _, a, pi = fields64
        with pytest.raises(ValueError):
            ij_integral(a, pi, 1.5, 2, form="parts")
        with pytest.raises(ValueError):
            ij_integral(a, pi, 2.0, 2, form="sideways")

    def test_regime_validation(self, fields64):
        _, a, pi = fields64
        with pytest.raises(ValueError, match="regime"):
            check_Ij_bound(a, pi, 1.1, 2.0, 2)
        with pytest.raises(ValueError, match="regime"):
            check_Ij_bound(a, pi, 4.5, 4.5, 2)
        with pytest.raises(ValueError, match="regime"):
            check_Ij_bound(a, pi, 1.0, 1.0, 2)
        with pytest.raises(ValueError, match="octave"):
            check_Ij_bound(a, pi, 2.0, 2.0, 99)

    def test_ratio_recorded_both_regimes(self, fields64):
        _, a, pi = fields64
        r1 = check_Ij_bound(a, pi, 2.0, 2.5, 2)
        assert r1.extra["regime"] == "i"
        assert r1.max_ratio >= 0.0
        r2 = check_Ij_bound(a, pi, 2.5, 2.5, 2)
        assert r2.extra["regime"] == "ii"
        # matching exponents below 2 fall inside the cross-exponent regime,
        # where the two bounds coincide
        r3 = check_Ij_bound(a, pi, 1.5, 1.5, 2)
        assert r3.extra["regime"] == "i"
        # below the cross-exponent threshold only the matched regime remains
        r4 = check_Ij_bound(a, pi, 1.2, 1.2, 2)
        assert r4.extra["regime"] == "ii"


def band_forcing(grid, seed, k_high=10.0):
    return VectorField(
        random_band_field(grid, 1.0, k_high, trial_seed(seed, 1)),
        random_band_field(grid, 1.0, k_high, trial_seed(seed, 2)),
    )


class TestEllipticEstimate:
    def test_zero_coefficient_ratio_one(self, grid64):
        F = band_forcing(grid64, 71)
        a = SpectralField.zero(grid64)
        sol, _, _ = solve_pressure(a, F, tol=1e-12)
        report = check_elliptic_estimate(a, F, sol, 2.0)
        assert report.ratios[0] == pytest.approx(1.0, abs=1e-10)
        assert report.extra["k"] == 1
        assert report.extra["l2_ok"]

    def test_constant_coefficient(self, grid64):
        F = band_forcing(grid64, 72)
        a = SpectralField.from_physical(grid64, np.full((grid64.n, grid64.n), 0.5))
        sol, _, _ = solve_pressure(a, F, tol=1e-12)
        report = check_elliptic_estimate(a, F, sol, 3.0)
        assert report.extra["k"] == 2
        assert report.extra["kappa"] == pytest.approx(1.5)
        assert report.extra["l2_ratio"] == pytest.approx(1.0 / 1.5, rel=1e-9)
        assert report.extra["l2_ok"]
        assert report.ratios[0] == pytest.approx(1.0 / 1.5, rel=1e-9)

    def test_random_coefficient_all_regimes(self, grid64):
        coeff = random_band_field(grid64, 1.0, 6.0, 73, slope=-0.5)
        vals = coeff.values.real
        a = SpectralField.from_physical(grid64, vals * (0.7 / np.max(np.abs(vals))))
        F = band_forcing(grid64, 74)
        sol, _, _ = solve_pressure(a, F, tol=1e-11)
        for p in (1.5, 2.0, 3.0):
            report = check_elliptic_estimate(a, F, sol, p)
            assert report.max_ratio > 0.0
            assert report.extra["l2_ok"]
            if p in (1.5, 3.0):
                assert "flat_ratio" in report.extra
                assert report.extra["flat_ratio"] > 0.0

    def test_p_out_of_range(self, grid64):
        F = band_forcing(grid64, 75)
        a = SpectralField.zero(grid64)
        sol, _, _ = solve_pressure(a, F, tol=1e-10)
        for p in (1.0, 4.0, 5.0):
            with pytest.raises(ValueError):
                check_elliptic_estimate(a, F, sol, p)


class TestGrowthEnvelope:
    def test_constant_series(self):
        series = [(t, 5.0) for t in np.linspace(0.0, 2.0, 9)]
        C, residual = fit_growth_envelope(series)
        assert residual <= 0.0
        assert C > 0.0
        # minimality: shrinking C below the bracket breaks the bound
        shrunk = C * (1 - 1e-6)
        worst = max(v - shrunk * math.exp(shrunk * math.exp(shrunk * math.sqrt(t))) for t, v in series)
        assert worst > 0.0

    def test_single_exponential_dominated(self):
        series = [(t, math.exp(t)) for t in np.linspace(0.0, 4.0, 17)]
        C, residual = fit_growth_envelope(series)
        assert residual <= 0.0
        assert C < 4.0

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_growth_envelope([])
        with pytest.raises(ValueError):
            fit_growth_envelope([(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(ValueError):
            fit_growth_envelope([(0.0, 1.0), (1.0, -2.0)])
        with pytest.raises(ValueError):
            fit_growth_envelope([(-1.0, 1.0), (1.0, 2.0)])
