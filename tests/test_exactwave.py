import dataclasses
import math
import re

import numpy as np
import pytest

from lgradial import exactwave
from lgradial.constants import C_LIGHT
from lgradial.errors import DiagnosticError, QuadratureConvergenceError
from lgradial.exactwave import (BesselModeParams, RSField, SpacetimePoint,
                                chi_bessel, chi_closed_form, fit_global_scale,
                                maxwell_residual, rs_bessel_field,
                                synthesize_lg, wave_residual)
from lgradial.lgmode import LGParams, lg_field
from lgradial.momentum import ExactMomentumParams
from lgradial.specfun import bessel_j

from conftest import K, OMEGA, W0
from oracles import chi_two_term_mpmath, synthesis_mpmath

LAM = 2 * math.pi / K
T_RAY = W0**2 * OMEGA / C_LIGHT**2  # envelope (Rayleigh) time scale


def _carrier(p, q):
    """chi_closed_form's carrier exp(-i sigma (Omega t_minus - m phi)), formed as it forms it."""
    return np.exp(-1j * p.sigma * (p.Omega * q.t_minus - p.m * q.phi))


def _bessel_params(m=2, sigma=1, tilt=0.05):
    return BesselModeParams(m=m, sigma=sigma, k_t=tilt * K,
                            k_z=math.sqrt(1 - tilt**2) * K)


def _point(r=0.4e-3, phi=0.7, z=5 * LAM, t=None, omega=None):
    t = 3.0 / (omega or OMEGA) if t is None else t
    return SpacetimePoint(r=r, phi=phi, z=z, t=t)


class TestSpacetimePoint:
    def test_lightcone_times_round_trip(self):
        p = SpacetimePoint(r=1.0, phi=0.0, z=2.0, t=1e-8)
        t = 0.5 * (p.t_plus + p.t_minus)
        z = 0.5 * C_LIGHT * (p.t_plus - p.t_minus)
        assert t == pytest.approx(p.t, rel=1e-15)
        assert z == pytest.approx(p.z, rel=1e-12)


class TestChiBessel:
    def test_on_axis_monopole(self):
        bp = _bessel_params(m=0)
        p = SpacetimePoint(r=0.0, phi=0.0, z=0.0, t=0.0)
        want = 1.0 / (bp.k * bp.k_t * math.sqrt(2.0))  # J_0(0) = 1, phase = 1
        assert chi_bessel(bp, p) == pytest.approx(want, rel=1e-14)

    def test_on_axis_vortex_vanishes(self):
        for m in (1, 2, 5):
            bp = _bessel_params(m=m)
            p = SpacetimePoint(r=0.0, phi=0.3, z=0.0, t=0.0)
            assert chi_bessel(bp, p) == 0.0

    def test_transverse_wavenumber_required(self):
        with pytest.raises(DiagnosticError):
            BesselModeParams(m=0, sigma=1, k_t=0.0, k_z=K)

    @pytest.mark.parametrize("k_t", [math.nan, math.inf, -math.inf])
    def test_transverse_wavenumber_must_be_finite_and_positive(self, k_t):
        with pytest.raises(DiagnosticError, match="k_t must be finite > 0, k_z finite"):
            BesselModeParams(m=1, sigma=1, k_t=k_t, k_z=K)

    @pytest.mark.parametrize("k_z", [math.nan, math.inf, -math.inf])
    def test_longitudinal_wavenumber_must_be_finite(self, k_z):
        with pytest.raises(DiagnosticError, match="k_t must be finite > 0, k_z finite"):
            BesselModeParams(m=1, sigma=1, k_t=0.05 * K, k_z=k_z)

    @pytest.mark.parametrize("m, sigma, message", [
        (1.5, 1, "m must be an integer, got 1.5"),  # once accepted until chi_bessel
        (True, 1, "m must be an integer, got True"),
        (1, True, "sigma must be an integer, got True"),
        (1, 0, "sigma must be +1 or -1, got 0"),
    ], ids=["m-half", "m-true", "sigma-true", "sigma-0"])
    def test_mode_numbers_checked(self, m, sigma, message):
        with pytest.raises(DiagnosticError, match=re.escape(message)):
            _bessel_params(m=m, sigma=sigma)
        bp = _bessel_params(m=np.int64(-2), sigma=np.int32(-1))
        assert chi_bessel(bp, SpacetimePoint(r=1e-4, phi=0.3, z=0.0, t=0.0)) == chi_bessel(
            _bessel_params(m=-2, sigma=-1), SpacetimePoint(r=1e-4, phi=0.3, z=0.0, t=0.0))

    def test_momentum_azimuth_folds_as_phase(self):
        # chi(k_phi) = chi(0) * exp(sigma i m k_phi)
        bp = _bessel_params(m=3, sigma=-1)
        p = _point()
        base = chi_bessel(bp, p)
        shifted = chi_bessel(bp, p, k_phi=0.8)
        assert shifted == pytest.approx(base * np.exp(1j * bp.sigma * bp.m * 0.8),
                                        rel=1e-13)

    @pytest.mark.parametrize("sigma", [1, -1])
    def test_satisfies_wave_equation(self, sigma):
        bp = _bessel_params(m=2, sigma=sigma)
        resid = wave_residual(lambda q: chi_bessel(bp, q), _point(omega=bp.omega_k),
                              wavenumber=bp.k)
        assert resid < 1e-6

    def test_frequency_on_light_cone(self):
        bp = _bessel_params()
        assert bp.omega_k == pytest.approx(C_LIGHT * math.hypot(bp.k_t, bp.k_z), rel=1e-15)


class TestRSBesselField:
    def test_longitudinal_component_structure(self):
        bp = _bessel_params(m=1)
        p = _point()
        f = rs_bessel_field(bp, p)
        pref = ((1j * bp.sigma) ** bp.m / (bp.k * math.sqrt(2.0))
                * np.exp(-1j * bp.sigma * (bp.omega_k * p.t - bp.k_z * p.z - bp.m * p.phi)))
        want = pref * bp.k_t * bessel_j(bp.m, bp.k_t * p.r)
        assert f.F_z == pytest.approx(want, rel=1e-14)

    def test_finite_at_small_radius_for_m0(self):
        bp = _bessel_params(m=0)
        f = rs_bessel_field(bp, SpacetimePoint(r=1e-9, phi=0.0, z=0.0, t=0.0))
        assert np.isfinite([f.F_r, f.F_phi, f.F_z]).all()

    @pytest.mark.parametrize("m,sigma", [(0, 1), (1, 1), (2, -1), (3, 1)])
    def test_maxwell_equations(self, m, sigma):
        bp = _bessel_params(m=m, sigma=sigma)
        res = maxwell_residual(lambda q: rs_bessel_field(bp, q),
                               _point(omega=bp.omega_k), wavenumber=bp.k)
        assert res.curl_defect < 1e-6
        assert res.div_defect < 1e-6
        assert res.warning is None

    def test_corrupted_field_detected(self):
        # non-paraxial tilt so the longitudinal component carries real weight
        bp = _bessel_params(m=1, tilt=0.4)

        def corrupt(q):
            f = rs_bessel_field(bp, q)
            return RSField(f.F_r, f.F_phi, 2.0 * f.F_z)

        res = maxwell_residual(corrupt, _point(omega=bp.omega_k), wavenumber=bp.k)
        assert res.curl_defect > 1e-2

    def test_zero_field(self):
        zero = lambda q: RSField(0j, 0j, 0j)
        res = maxwell_residual(zero, _point(), wavenumber=K)
        assert res.curl_defect == 0.0
        assert res.div_defect == 0.0
        assert res.warning is None

    def test_rough_field_attaches_warning(self):
        # a sub-step ripple cannot converge under step halving
        bp = _bessel_params(m=0)

        def rough(q):
            f = rs_bessel_field(bp, q)
            ripple = 1e-5 * np.sin(q.r * 1e9 + q.z * 7.7e8)
            return RSField(f.F_r * (1 + ripple), f.F_phi, f.F_z)

        res = maxwell_residual(rough, _point(omega=bp.omega_k), wavenumber=bp.k)
        assert res.warning is not None

    def test_requires_off_axis_point(self):
        bp = _bessel_params()
        with pytest.raises(DiagnosticError):
            rs_bessel_field(bp, SpacetimePoint(r=0.0, phi=0.0, z=0.0, t=0.0))


class TestChiClosedForm:
    def test_vortex_vanishes_on_axis(self):
        p = ExactMomentumParams(1, 2, 1, OMEGA, W0)
        assert chi_closed_form(p, SpacetimePoint(r=0.0, phi=0.1, z=0.0, t=0.0)) == 0.0

    def test_focal_snapshot_is_real_profile(self):
        # at t_plus = 0 the beam parameter is real (w^2), so is the profile under the carrier
        p = ExactMomentumParams(2, 1, 1, OMEGA, W0)
        z = 0.3
        pt = SpacetimePoint(r=0.6 * W0, phi=0.8, z=z, t=-z / C_LIGHT)  # t_plus = 0
        assert pt.t_plus == 0.0
        profile = chi_closed_form(p, pt) / _carrier(p, pt)
        assert abs(profile.imag) < 1e-12 * abs(profile)
        assert abs(profile - complex(chi_two_term_mpmath(p, pt.r, 0.0))) <= 1e-13 * abs(profile)

    @pytest.mark.parametrize("kw", [50.0, 200.0, 1e4])
    def test_matches_two_term_oracle(self, kw, rng):
        # k_plus T_n + T_(n+1) in 40 digits, each side with the double carrier divided out
        omega = C_LIGHT * kw / W0
        t_ray = W0**2 * omega / C_LIGHT**2
        for n in range(4):
            for m in range(-3, 4):
                p = ExactMomentumParams(n, m, 1 - 2 * (n % 2), omega, W0)
                for r, z, t in zip(rng.uniform(0.05, 3.0, 3), rng.uniform(-2.0, 2.0, 3),
                                   rng.uniform(-0.4, 0.4, 3)):
                    q = SpacetimePoint(r * W0, 0.7, z * W0, t * t_ray)
                    want = complex(chi_two_term_mpmath(p, q.r, q.t_plus))
                    got = chi_closed_form(p, q) / _carrier(p, q)
                    assert abs(got - want) <= 1e-13 * abs(want), (n, m, r, z, t)

    @pytest.mark.parametrize("n,w,t", [(40, 5e-6, 0.0), (100, W0, 0.0), (100, W0, 1e3)],
                             ids=["n40-5um", "n100-1mm", "n100-late"])
    def test_once_refused_values_match_oracle(self, n, w, t):
        # the one-term form's a^(n+|m|+1) underflowed (t = 0) or overflowed (t = 1000 s) and
        # raised; the table's one exp gives 1.5e204 and 3.1e63, and 0 where chi is 1e-1003
        p = ExactMomentumParams(n, 1, 1, OMEGA, w)
        for r in (w, np.array([w, 2 * w])):
            q = SpacetimePoint(r=r, phi=0.1, z=0.0, t=t)
            got = np.atleast_1d(chi_closed_form(p, q) / _carrier(p, q))
            want = np.array([complex(chi_two_term_mpmath(p, v, q.t_plus))
                             for v in np.atleast_1d(r)])
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("n,m,w", [(60, 1, 5e-6), (300, 0, 2e-5)], ids=["n60-5um", "n300-20um"])
    def test_overflow_raises(self, n, m, w):
        # |chi| is 3.3e310 and 1.1e1343 at r = w: past the largest double, at a point and a batch
        p = ExactMomentumParams(n, m, 1, OMEGA, w)
        for r in (w, np.array([0.5 * w, w])):
            with pytest.raises(DiagnosticError, match="not a finite double"):
                chi_closed_form(p, SpacetimePoint(r=r, phi=0.1, z=0.0, t=0.0))

    def test_finite_values_unchanged(self):
        # a point and a batch take the same code, and both agree with the oracle
        p = ExactMomentumParams(20, -3, -1, OMEGA, W0)
        q = SpacetimePoint(r=np.array([0.3, 1.1, 2.5]) * W0, phi=0.4, z=3 * LAM,
                           t=np.array([0.0, T_RAY, -T_RAY]))
        batch = chi_closed_form(p, q)
        for i, r in enumerate(q.r):
            qi = SpacetimePoint(r=float(r), phi=0.4, z=3 * LAM, t=float(q.t[i]))
            want = complex(chi_two_term_mpmath(p, qi.r, qi.t_plus))
            for got in (chi_closed_form(p, qi), batch[i]):
                assert abs(got / _carrier(p, qi) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("sigma", [1, -1])
    def test_satisfies_wave_equation(self, sigma):
        p = ExactMomentumParams(2, 1, sigma, OMEGA, W0)
        pt = SpacetimePoint(r=0.7e-3, phi=0.3, z=8 * LAM, t=5.0 / OMEGA)
        assert wave_residual(lambda q: chi_closed_form(p, q), pt, wavenumber=K) < 1e-5


class TestSynthesis:
    def test_gamma_integral_at_origin(self):
        # n = m = 0, t_plus = 0, r = 0: the radial integral is
        # int (k_plus + k) e^{-beta k} dk = k_plus / beta + 1 / beta^2
        p = ExactMomentumParams(0, 0, 1, OMEGA, W0)
        pt = SpacetimePoint(r=0.0, phi=0.0, z=0.0, t=0.0)
        got = synthesize_lg(p, pt, 64)
        want = p.k_plus / p.beta + 1.0 / p.beta**2
        assert got == pytest.approx(want, rel=1e-12)

    def test_minimum_order_enforced(self):
        p = ExactMomentumParams(0, 0, 1, OMEGA, W0)
        with pytest.raises(DiagnosticError):
            synthesize_lg(p, SpacetimePoint(0.0, 0.0, 0.0, 0.0), 4)

    @pytest.mark.parametrize("order", [0, 2.5, True, "4", 7])
    def test_order_must_be_an_integer_from_8(self, order):
        p = ExactMomentumParams(0, 0, 1, OMEGA, W0)
        with pytest.raises(DiagnosticError):
            synthesize_lg(p, SpacetimePoint(0.0, 0.0, 0.0, 0.0), order)

    @staticmethod
    def _sample_points(rng, count=200):
        return [SpacetimePoint(r=float(rv) * W0, phi=float(pv), z=float(zv) * W0,
                               t=float(tv) * T_RAY)
                for rv, pv, zv, tv in zip(rng.uniform(0.05, 2.8, count),
                                          rng.uniform(0, 2 * math.pi, count),
                                          rng.uniform(-3.0, 3.0, count),
                                          rng.choice([0.0, 0.5, -0.5], count))]

    @pytest.mark.parametrize("kw", [50.0, 200.0, 1e4])
    def test_matches_closed_form_pointwise(self, kw, rng):
        # no fitted scale: the one-term form left 1e-4 (k w = 50) to 1e-8 (k w = 1e4) after one
        omega = C_LIGHT * kw / W0
        t_ray = W0**2 * omega / C_LIGHT**2
        q = SpacetimePoint(r=rng.uniform(0.05, 3.0, 8) * W0, phi=rng.uniform(0, 6.0, 8),
                           z=rng.uniform(-2.0, 2.0, 8) * W0, t=rng.uniform(-0.4, 0.4, 8) * t_ray)
        for n in range(4):
            for m in range(-3, 4):
                p = ExactMomentumParams(n, m, 1 - 2 * (m % 2), omega, W0)
                closed = chi_closed_form(p, q)
                synth = synthesize_lg(p, q, 96)
                assert np.max(np.abs(synth - closed) / np.abs(closed)) <= 1e-10, (n, m)

    def test_fitted_scale_point_independent(self, rng):
        # the scale a fit would find is 1 at every point
        p = ExactMomentumParams(2, 2, 1, OMEGA, W0)
        pts = self._sample_points(rng, count=24)
        ratios = np.array([synthesize_lg(p, q, 128, check_convergence=False)
                           / chi_closed_form(p, q) for q in pts])
        assert np.max(np.abs(ratios - 1.0)) < 1e-10

    def test_far_tail_is_negligible(self):
        p = ExactMomentumParams(1, 1, 1, OMEGA, W0)
        peak_pt = SpacetimePoint(r=W0, phi=0.0, z=0.0, t=0.0)
        far_pt = SpacetimePoint(r=5.0 * W0, phi=0.0, z=0.0, t=0.0)
        peak = abs(synthesize_lg(p, peak_pt, 128))
        assert abs(synthesize_lg(p, far_pt, 128)) < 1e-8 * peak
        assert abs(chi_closed_form(p, far_pt)) < 1e-8 * abs(chi_closed_form(p, peak_pt))

    @pytest.mark.parametrize("n, m, sigma, r, phi, t_plus", [
        (200, 0, 1, 0.5 * W0, 0.0, 0.0),  # psi's k_minus^200 once overflowed with a warning
        (2, 1, -1, 0.7 * W0, 0.3, 0.2 * T_RAY),
    ], ids=["n200", "n2m1"])
    def test_matches_mpmath_quadrature(self, n, m, sigma, r, phi, t_plus):
        # t_minus ~ 0: at t_minus ~ T_RAY, Omega t_minus is 1e7 rad, a 1e-9 phase in doubles
        p = ExactMomentumParams(n, m, sigma, OMEGA, W0)
        pt = SpacetimePoint(r=r, phi=phi, z=0.5 * C_LIGHT * t_plus, t=0.5 * t_plus)
        want = synthesis_mpmath(p, r, phi, pt.t_plus, pt.t_minus)
        assert abs(synthesize_lg(p, pt, 96) - want) <= 1e-12 * abs(want)
        if n == 200:
            assert want.real == pytest.approx(4.5436186692662e180, rel=1e-12)

    def test_convergence_check_runs(self):
        p = ExactMomentumParams(1, 1, 1, OMEGA, W0)
        pt = SpacetimePoint(r=0.8 * W0, phi=1.0, z=0.2 * W0, t=0.0)
        v = synthesize_lg(p, pt, 96, check_convergence=True)
        assert np.isfinite(v.real) and np.isfinite(v.imag)


class TestSynthesisRule:
    """psi_exact's weights on the Gauss nodes depend on (params, order) alone: built once, shared."""

    @pytest.mark.parametrize("n, m, sigma, w", [(0, 0, 1, W0), (1, 1, -1, W0),
                                                (3, -2, 1, 0.3 * W0), (6, 5, -1, 2.5 * W0)])
    def test_cached_rule_gives_the_fresh_value_bitwise(self, n, m, sigma, w):
        p = ExactMomentumParams(n, m, sigma, OMEGA, w)
        t_ray = w**2 * OMEGA / C_LIGHT**2
        batch = SpacetimePoint(r=np.linspace(0.08, 2.6, 5) * w, phi=np.linspace(0.0, 6.0, 5),
                               z=np.linspace(-2.0, 2.0, 5) * w, t=np.linspace(-0.4, 0.4, 5) * t_ray)
        points = [SpacetimePoint(*map(float, q)) for q in zip(batch.r, batch.phi, batch.z, batch.t)]
        calls = [(q, order, False) for order in (8, 16, 48, 96, 128, 256) for q in [batch, *points]]
        for q, order, gated in calls + [(batch, 96, True), (points[2], 128, True)]:
            exactwave._synthesis_rule.cache_clear()
            fresh = synthesize_lg(p, q, order, check_convergence=gated)
            cached = synthesize_lg(p, q, order, check_convergence=gated)
            assert exactwave._synthesis_rule.cache_info().hits >= 1
            assert np.array_equal(cached, fresh) and np.ndim(cached) == np.ndim(q.r)

    def test_cached_arrays_are_read_only(self):
        for x in exactwave._synthesis_rule(ExactMomentumParams(1, 1, -1, OMEGA, W0), 96):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0.0

    def test_a_refusal_is_not_cached(self):
        # psi of (41, -106) at 29.73 um is not a finite double on the rule's nodes: every call
        # must raise again, not return a cached rule
        p = ExactMomentumParams(41, -106, 1, OMEGA, 29.73e-6)
        exactwave._synthesis_rule.cache_clear()
        for _ in range(3):
            with pytest.raises(DiagnosticError, match="psi is not a finite double"):
                synthesize_lg(p, SpacetimePoint(0.05 * p.w, 0.0, 0.0, 0.0))
        assert exactwave._synthesis_rule.cache_info().currsize == 0


class TestBatch:
    """A SpacetimePoint of arrays is a batch: one call equals the per-point calls."""

    BATCH = SpacetimePoint(r=np.linspace(0.08, 2.6, 24) * W0, phi=np.linspace(0.0, 6.0, 24),
                           z=np.linspace(-2.0, 2.0, 24) * W0,
                           t=np.linspace(-0.4, 0.4, 24) * T_RAY)

    def _assert_batch_matches_points(self, f):
        batch = f(self.BATCH)
        points = [SpacetimePoint(*map(float, q)) for q in
                  zip(self.BATCH.r, self.BATCH.phi, self.BATCH.z, self.BATCH.t)]
        single = [f(q) for q in points]
        assert all(np.ndim(v) == 0 for v in single)
        np.testing.assert_allclose(batch, single, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("gated", [True, False])
    @pytest.mark.parametrize("n,m,sigma", [(0, 0, 1), (1, 1, -1), (3, 2, 1)])
    def test_synthesis(self, n, m, sigma, gated):
        p = ExactMomentumParams(n, m, sigma, OMEGA, W0)
        self._assert_batch_matches_points(
            lambda q: synthesize_lg(p, q, 96, check_convergence=gated))

    def test_closed_form(self):
        p = ExactMomentumParams(2, -1, -1, OMEGA, W0)
        self._assert_batch_matches_points(lambda q: chi_closed_form(p, q))

    def test_chi_bessel(self):
        bp = _bessel_params(m=3, sigma=-1)
        self._assert_batch_matches_points(lambda q: chi_bessel(bp, q))

    def test_rs_bessel_field(self):
        bp = _bessel_params(m=1, tilt=0.4)
        for part in ("F_r", "F_phi", "F_z"):
            self._assert_batch_matches_points(lambda q: getattr(rs_bessel_field(bp, q), part))

    def test_fields_broadcast(self):
        # a radial profile at one time: r is an array, the other fields floats
        p = ExactMomentumParams(1, 1, 1, OMEGA, W0)
        r = np.linspace(0.1, 2.0, 7) * W0
        got = synthesize_lg(p, SpacetimePoint(r=r, phi=0.4, z=0.0, t=0.1 * T_RAY), 96)
        assert got.shape == (7,)
        assert got[3] == pytest.approx(
            synthesize_lg(p, SpacetimePoint(r=float(r[3]), phi=0.4, z=0.0, t=0.1 * T_RAY), 96),
            rel=1e-13)

    def test_gate_holds_at_every_point(self):
        # order 8 resolves a point near the axis at the focus but not one far out
        # at 0.4 Rayleigh times; a batch holding both must fail
        p = ExactMomentumParams(1, 1, -1, OMEGA, W0)
        synthesize_lg(p, SpacetimePoint(r=0.5 * W0, phi=0.0, z=0.0, t=0.0), 8)
        both = SpacetimePoint(r=np.array([0.5, 2.6]) * W0, phi=0.0, z=0.0,
                              t=np.array([0.0, 0.4]) * T_RAY)
        with pytest.raises(QuadratureConvergenceError):
            synthesize_lg(p, both, 8)

    def test_gate_tolerance_is_per_point(self):
        # at order 12 the change at 2.7 w0 misses 1e-11 of its own integrand mass
        # but not 1e-11 of the axis point's, 3.4x larger: a tolerance taken from the
        # batch's largest mass would pass it
        p = ExactMomentumParams(0, 0, 1, OMEGA, W0)
        synthesize_lg(p, SpacetimePoint(r=0.0, phi=0.0, z=0.0, t=0.0), 12)
        both = SpacetimePoint(r=np.array([0.0, 2.7]) * W0, phi=0.0, z=0.0, t=0.0)
        with pytest.raises(QuadratureConvergenceError):
            synthesize_lg(p, both, 12)


class TestResidualStencil:
    @staticmethod
    def _counting(sampler):
        def counted(q):
            counted.calls += 1
            assert np.shape(q.r) == (4, 5)
            return sampler(q)
        counted.calls = 0
        return counted

    def test_one_sampler_call_per_step_size(self):
        bp = _bessel_params(m=1)
        rs = self._counting(lambda q: rs_bessel_field(bp, q))
        maxwell_residual(rs, _point(omega=bp.omega_k), wavenumber=bp.k)
        assert rs.calls == 2
        chi = self._counting(lambda q: chi_bessel(bp, q))
        wave_residual(chi, _point(omega=bp.omega_k), wavenumber=bp.k)
        assert chi.calls == 1

    def test_scalar_sampler(self):
        # a constant solves the wave equation; what is left is stencil roundoff
        assert wave_residual(lambda q: 1.0 + 0j, _point(), wavenumber=K) < 1e-9

    @pytest.mark.parametrize("residual", ["maxwell", "wave"])
    @pytest.mark.parametrize("r,wavenumber", [
        (0.0, K),             # the 1/r terms are undefined on the axis
        (1e-9, K),            # the stencil would sample at r < 0
        (0.4e-3, -K),         # a negative wavenumber flips the sign of the defects
        (0.4e-3, 0.0),        # no wavelength to take the steps from
        (0.4e-3, math.nan),
        (0.4e-3, math.inf),
    ], ids=["axis", "below_two_steps", "negative_k", "zero_k", "nan_k", "inf_k"])
    def test_rejects_bad_point_or_wavenumber(self, residual, r, wavenumber):
        p = ExactMomentumParams(2, 1, 1, OMEGA, W0)
        bp = _bessel_params(m=0)
        pt = SpacetimePoint(r=r, phi=0.3, z=0.0, t=0.0)
        with pytest.raises(DiagnosticError):
            if residual == "maxwell":
                maxwell_residual(lambda q: rs_bessel_field(bp, q), pt, wavenumber=wavenumber)
            else:
                wave_residual(lambda q: chi_closed_form(p, q), pt, wavenumber=wavenumber)

    @pytest.mark.parametrize("residual", ["maxwell", "wave"])
    @pytest.mark.parametrize("coord,value", [
        ("r", math.inf), ("phi", math.nan), ("phi", math.inf),
        ("z", math.nan), ("z", -math.inf), ("t", math.nan), ("t", math.inf),
    ])
    def test_rejects_non_finite_coordinate(self, residual, coord, value):
        # unchecked, a non-finite coordinate gives a NaN residual with no warning
        bp = _bessel_params(m=1)
        pt = dataclasses.replace(_point(omega=bp.omega_k), **{coord: value})
        with pytest.raises(DiagnosticError, match="finite point"):
            if residual == "maxwell":
                maxwell_residual(lambda q: rs_bessel_field(bp, q), pt, wavenumber=bp.k)
            else:
                wave_residual(lambda q: chi_bessel(bp, q), pt, wavenumber=bp.k)


class TestParaxialBridge:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_zero_node_modes_match_paraxial_lg(self, m):
        # n = 0 exact modes at the focal snapshot coincide with the paraxial
        # LG(0, l = m) profile: constant modulus ratio (k w0 ~ 1e4 >> 200)
        exact = ExactMomentumParams(0, m, 1, OMEGA, W0)
        par = LGParams(0, m, K, W0)
        assert par.paraxiality >= 200
        r = np.linspace(0.05, 2.5, 40) * W0
        chi = np.array([chi_closed_form(exact, SpacetimePoint(r=ri, phi=0.9, z=0.0, t=0.0))
                        for ri in r])
        lg = lg_field(par, r, 0.9, 0.0)
        ratio = np.abs(chi / lg)
        assert (ratio.max() - ratio.min()) / ratio.mean() < 1e-3


class TestGlobalScaleFit:
    def test_recovers_known_scale(self, rng):
        ref = rng.normal(size=50) + 1j * rng.normal(size=50)
        scale = 2.5 - 0.7j
        fitted, resid = fit_global_scale(ref, scale * ref)
        assert fitted == pytest.approx(scale, rel=1e-12)
        assert resid < 1e-14

    def test_zero_reference_rejected(self):
        with pytest.raises(DiagnosticError):
            fit_global_scale(np.zeros(5), np.ones(5))

    def test_zero_values_rejected(self):
        with pytest.raises(DiagnosticError):
            fit_global_scale(np.ones(5), np.zeros(5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("side", ["reference", "values"])
    def test_non_finite_rejected(self, bad, side):
        ref, vals = np.ones(5, dtype=complex), np.arange(1.0, 6.0) + 0j
        (ref if side == "reference" else vals)[2] = bad
        with pytest.raises(DiagnosticError):
            fit_global_scale(ref, vals)

    def test_size_mismatch_rejected(self):
        with pytest.raises(DiagnosticError):
            fit_global_scale(np.ones(5), np.ones(4))
