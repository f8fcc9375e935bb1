import math
import re

import mpmath
import numpy as np
import pytest

from lgradial import momentum, paraxops
from lgradial.errors import DiagnosticError, QuadratureConvergenceError
from lgradial.momentum import (ExactMomentumParams, apply_nk,
                               apply_nk_paraxial, hermiticity_defect,
                               nk_eigen_residual, nk_polar, paraxial_norm_sq,
                               plusminus_to_polar, polar_to_plusminus,
                               psi_exact, psi_paraxial)
from lgradial.paraxops import _fd_apply, _stencils
from lgradial.specfun import make_rule

from conftest import K, OMEGA, W0, count_calls
from oracles import hermiticity_defect_closed_form, nk_polar_mpmath


def _params(n, m, sigma=1):
    return ExactMomentumParams(n, m, sigma, OMEGA, W0)


class TestPsiExact:
    def test_power_law_zero_at_origin(self):
        for (n, m) in ((1, 0), (0, 1), (2, 3)):
            assert psi_exact(_params(n, m), 0.0, 0.3) == 0.0

    def test_ground_state_finite_at_origin(self):
        # n = m = 0 carries no power-law factor; the value is k_plus
        p = _params(0, 0)
        assert psi_exact(p, 0.0, 0.0) == pytest.approx(p.k_plus, rel=1e-15)

    def test_no_azimuthal_dependence_for_m_zero(self):
        p = _params(2, 0)
        k_phi = np.linspace(0, 2 * math.pi, 7)
        vals = psi_exact(p, 1.5 / p.beta, k_phi)
        assert np.allclose(vals, vals[0], rtol=0, atol=1e-18)

    def test_radial_maximum_location(self):
        # without the trailing total-wavenumber factor the modulus peaks at
        # k_minus = (n + |m|/2) / beta
        p = _params(2, 3)
        km = np.linspace(1e-3, 30.0, 200001) / p.beta
        mod = np.abs(psi_exact(p, km, 0.0) / (p.k_plus + km))
        got = km[np.argmax(mod)]
        want = (p.n + abs(p.m) / 2.0) / p.beta
        assert got == pytest.approx(want, rel=1e-3)

    def test_validation(self):
        with pytest.raises(DiagnosticError):
            ExactMomentumParams(-1, 0, 1, OMEGA, W0)
        with pytest.raises(DiagnosticError):
            ExactMomentumParams(0, 0, 2, OMEGA, W0)
        with pytest.raises(DiagnosticError):
            ExactMomentumParams(0, 0, 1, -1.0, W0)


class TestRadialMomentumOperator:
    def test_ground_state_annihilated(self):
        p = _params(0, 0)
        km = np.linspace(0.1, 8.0, 50) / p.beta
        out = apply_nk(p, km, 0.0)
        psi = psi_exact(p, km, 0.0)
        assert np.max(np.abs(out) / np.abs(psi)) < 1e-14

    @pytest.mark.parametrize("n,m,sigma", [(3, 2, 1), (1, 1, -1), (5, 4, 1), (4, 0, -1)])
    def test_pointwise_eigenrelation(self, n, m, sigma, rng):
        p = _params(n, m, sigma)
        km = rng.uniform(0.05, 20.0, 60) / p.beta
        kphi = rng.uniform(0, 2 * math.pi, 60)
        assert nk_eigen_residual(p, km, kphi) < 1e-10

    def test_full_index_sweep(self, rng):
        for n in range(6):
            for m in range(5):
                for sigma in (1, -1):
                    p = _params(n, m, sigma)
                    km = rng.uniform(0.05, 15.0, 25) / p.beta
                    kphi = rng.uniform(0, 2 * math.pi, 25)
                    assert nk_eigen_residual(p, km, kphi) < 1e-10

    def test_negative_m_policies(self, rng):
        p = _params(2, -3)
        km = rng.uniform(0.1, 10.0, 30) / p.beta
        kphi = rng.uniform(0, 2 * math.pi, 30)
        psi = psi_exact(p, km, kphi)
        verb = apply_nk(p, km, kphi, "verbatim")
        # printed operator returns n + |m| on negative m
        assert np.max(np.abs(verb - (2 + 3) * psi) / np.abs(psi)) < 1e-10
        sym = apply_nk(p, km, kphi, "symmetrized")
        assert np.max(np.abs(sym - 2 * psi) / np.abs(psi)) < 1e-10


class TestFiniteOrRaises:
    # each case once returned a silent nan: x^P overflowed while e^(-D) underflowed, or
    # the domain went unchecked
    def test_underflow_is_zero(self):
        p = _params(50, 3)
        assert psi_exact(p, 1e6, 0.0) == 0.0
        assert apply_nk(p, 1e6, 0.0) == 0.0
        # |N_k psi - n psi| / |psi| has no value where psi is 0, and b g + c_r + c_m is
        # roundoff once beta k_minus swamps n (-0.5 for n = 2 at k_minus = 1e300)
        for q, k_minus in ((p, 1e6), (_params(2, 1), 1e300)):
            with pytest.raises(DiagnosticError, match="needs psi != 0"):
                nk_eigen_residual(q, [1.0, k_minus], 0.0)

    @pytest.mark.parametrize("k_minus", [-1.0, math.inf, math.nan])
    def test_outside_the_domain_raises(self, k_minus):
        with pytest.raises(DiagnosticError, match="k_minus must be finite and >= 0"):
            psi_exact(_params(50, 3), k_minus, 0.0)

    def test_overflow_raises(self):
        # the true value is about 1e1209
        with pytest.raises(DiagnosticError, match="psi is not a finite double"):
            psi_paraxial(_params(200, 3), 1e3, 0.0)

    @pytest.mark.parametrize("n, m", [(0, 0), (2, 3)])
    def test_origin_needs_no_division(self, n, m):
        # k_minus = 0 once raised "derivative path requires k_minus > 0"; N_k psi = n psi there
        p = _params(n, m)
        assert apply_nk(p, 0.0, 0.0) == n * psi_exact(p, 0.0, 0.0) == 0.0
        if n == m == 0:  # psi = k_plus at the origin
            assert nk_eigen_residual(p, 0.0, 0.0) == 0.0
        else:
            with pytest.raises(DiagnosticError, match="needs psi != 0"):
                nk_eigen_residual(p, 0.0, 0.0)

    def test_unknown_operator_name(self):
        with pytest.raises(DiagnosticError, match="unknown operator 'Nz'"):
            momentum._coefficients("Nz", 1.0, 0, W0)


class TestFiniteDifferenceNk:
    # an independent supplier of N_k's derivative: 7-point stencils in k_minus on the
    # closed-form psi, with the same (b, c_r, c_m) as the closed-form path
    @staticmethod
    def _residual(p, nodes):
        x = np.linspace(0.02, 40.0, nodes)[:, None] / p.beta
        f = psi_exact(p, x, 0.0)  # the mode's one k_phi column
        b, c_r, c_m = momentum._coefficients("Nk", x, abs(p.m), p.w, p.k_plus)
        out = _fd_apply(b * x * _stencils(x[:, 0])[0], c_r - p.n, c_m, f)
        return np.linalg.norm(out) / np.linalg.norm(f)

    @pytest.mark.parametrize("n, m, sigma", [(3, 2, 1), (2, 4, -1), (0, 0, 1)])
    def test_sixth_order_convergence(self, n, m, sigma):
        p = _params(n, m, sigma)
        r400, r800, r1600 = (self._residual(p, nodes) for nodes in (400, 800, 1600))
        assert r800 < 1e-8
        assert r400 / r800 >= 32 and r800 / r1600 >= 32, (r400, r800, r1600)


class TestPolarForm:
    def test_agreement_with_plusminus_form(self, rng):
        # nk_polar is N_k at k_minus(k_t, k_z); the oracle applies the printed polar
        # formula term by term, in 40-digit mpmath
        p = _params(2, 1)
        km = rng.uniform(0.05, 20.0, 200) / p.beta
        kphi = rng.uniform(0, 2 * math.pi, 200)
        kt, kz = plusminus_to_polar(np.full_like(km, p.k_plus), km)
        got = nk_polar(p, kt, kz, kphi)
        want = np.array([nk_polar_mpmath(p, *point) for point in zip(kt, kz, kphi)])
        psi = psi_exact(p, km, kphi)
        assert np.max(np.abs(got - want) / np.abs(psi)) < 1e-9

    def test_eigenvalue_in_polar_coordinates(self, rng):
        p = _params(2, 0)
        km = rng.uniform(0.05, 12.0, 50) / p.beta
        kt, kz = plusminus_to_polar(np.full_like(km, p.k_plus), km)
        out = nk_polar(p, kt, kz, 0.0)
        psi = psi_exact(p, km, 0.0)
        assert np.max(np.abs(out - 2 * psi) / np.abs(psi)) < 1e-10

    def test_small_kt_reduces_to_first_two_terms(self):
        # the (k - k_z) = 2 k_minus prefactor kills the third term as
        # k_t -> 0, leaving (1/2)(k_t d/dk_t + (i/sigma) d/dk_phi)
        p = _params(1, 1)
        kt = 1.0                        # 1e-7 of k_plus: deeply paraxial
        km = kt**2 / (4.0 * p.k_plus)   # constraint surface
        kz = p.k_plus - km
        psi = psi_exact(p, km, 0.3)
        full = nk_polar(p, kt, kz, 0.3)
        k = math.hypot(kt, kz)
        dpsi = psi * ((p.n + abs(p.m) / 2) / km - p.beta + 1.0 / (p.k_plus + km))
        first_two = 0.5 * (kt * (kt / (2 * k)) * dpsi - p.m * psi)
        assert abs(full - first_two) < 1e-6 * abs(psi)


class TestCoordinateConversions:
    def test_round_trip_from_polar(self, rng):
        kt = rng.uniform(1e-3, 1e5, 200)
        kz = rng.uniform(-1e7, 1e7, 200)
        kp, km = polar_to_plusminus(kt, kz)
        kt2, kz2 = plusminus_to_polar(kp, km)
        assert np.max(np.abs(kt2 - kt) / kt) < 1e-12
        assert np.max(np.abs(kz2 - kz) / np.maximum(np.abs(kz), 1.0)) < 1e-12

    def test_round_trip_from_plusminus(self, rng):
        kp = rng.uniform(1e2, 1e7, 200)
        km = rng.uniform(1e-6, 1e3, 200)
        kt, kz = plusminus_to_polar(kp, km)
        kp2, km2 = polar_to_plusminus(kt, kz)
        assert np.max(np.abs(kp2 - kp) / kp) < 1e-12
        assert np.max(np.abs(km2 - km) / km) < 1e-12

    def test_k_definition(self):
        kp, km = polar_to_plusminus(3.0, 4.0)
        assert kp + km == pytest.approx(5.0, rel=1e-15)  # k = sqrt(kz^2 + kt^2)
        assert kp - km == pytest.approx(4.0, rel=1e-15)

    def test_negative_inputs_rejected(self):
        with pytest.raises(DiagnosticError):
            plusminus_to_polar(-1.0, 1.0)

    @pytest.mark.parametrize("k_t, k_z", [(1e200, 1.0), (1e308, 1e308), (1.0, -1e308)])
    def test_extreme_polar_values(self, k_t, k_z):
        # each once overflowed with a RuntimeWarning: in k_t^2, k + k_z or k - k_z
        with mpmath.workdps(40):
            k = mpmath.hypot(k_t, k_z)
            want = [float((k + k_z) / 2), float((k - k_z) / 2)]
        got = polar_to_plusminus(k_t, k_z)
        assert got == pytest.approx(want, rel=1e-14)

    def test_extreme_plusminus_values(self):
        # 2 sqrt(k_plus k_minus) once overflowed in the product
        assert plusminus_to_polar(1e200, 1e200) == (2e200, 0.0)

    @pytest.mark.parametrize("convert, args, message", [
        (polar_to_plusminus, (math.nan, 1.0), "k_t and k_z must be finite"),
        (polar_to_plusminus, (1.0, math.inf), "k_t and k_z must be finite"),
        (polar_to_plusminus, (1.7e308, 1.7e308), "with finite k_plus and k_minus"),
        (plusminus_to_polar, (math.nan, 1.0), "k_plus and k_minus must be finite and >= 0"),
        (plusminus_to_polar, (1.0, math.inf), "k_plus and k_minus must be finite and >= 0"),
        (plusminus_to_polar, (1.7e308, 1.7e308), "with a finite k_t"),
    ], ids=["polar-nan", "polar-inf", "polar-overflow", "plusminus-nan", "plusminus-inf",
            "plusminus-overflow"])
    def test_non_finite_raises(self, convert, args, message):
        with pytest.raises(DiagnosticError, match=message):
            convert(*args)


class TestParaxialOperator:
    def test_ground_state_cancellation(self):
        p = _params(0, 0)
        kt = np.linspace(0.1, 5.0, 40) / W0
        out = apply_nk_paraxial(p, kt, 0.0)
        assert np.max(np.abs(out)) == 0.0

    def test_eigenrelation(self, rng):
        p = _params(3, 2)
        kt = rng.uniform(0.05, 6.0, 60) / W0
        kphi = rng.uniform(0, 2 * math.pi, 60)
        psi = psi_paraxial(p, kt, kphi)
        out = apply_nk_paraxial(p, kt, kphi)
        assert np.max(np.abs(out - 3 * psi) / np.abs(psi)) < 1e-10

    def test_radial_factor_real_nonnegative(self):
        p = _params(2, 1)
        kt = np.linspace(0.0, 8.0, 30) / W0
        vals = psi_paraxial(p, kt, 0.0)
        assert np.all(vals.imag == 0.0)
        assert np.all(vals.real >= 0.0)

    def test_expectation_is_radial_index(self):
        # <N'_k> on the normalized paraxial wavefunction, measure kt dkt dkphi
        for (n, m) in ((0, 0), (2, 1), (3, 4)):
            p = _params(n, m)
            rule = make_rule("legendre", 384, interval=(0.0, 16.0 / W0))
            kt = rule.nodes
            psi = psi_paraxial(p, kt, 0.0)
            npsi = apply_nk_paraxial(p, kt, 0.0)
            num = 2 * math.pi * np.sum(rule.weights * kt * np.conj(psi) * npsi)
            assert abs(num.imag) < 1e-8 * paraxial_norm_sq(p)
            assert num.real / paraxial_norm_sq(p) == pytest.approx(n, abs=1e-8)

    def test_norm_is_a_finite_double_or_raises(self):
        # at w = 1 mm, n = 24-29 once gave a silent inf, n >= 30 a bare ZeroDivisionError
        # and n = 200 a bare OverflowError; a finite value is unchanged, bit for bit
        assert paraxial_norm_sq(_params(20, 0)) == 2.563273459803178e294
        wide = ExactMomentumParams(100, 0, 1, OMEGA, 1e3)  # w^402 overflows
        for p in [_params(n, 0) for n in (24, 29, 30, 200)] + [wide]:
            with pytest.raises(DiagnosticError, match="not a finite, nonzero double"):
                paraxial_norm_sq(p)

    def test_exact_paraxial_taylor_bridge(self):
        # on the constraint surface, k_minus = k_t^2 / (4 k_z) to leading
        # order; deep in the paraxial cone the exact wavefunction matches the
        # separable paraxial form after one fitted constant
        p = _params(2, 1)
        kz = p.k_plus
        kt = np.linspace(1.0, 0.06 / W0, 60)
        assert np.all(kt < 0.01 * kz)
        km = kt**2 / (4.0 * kz)
        exact = psi_exact(p, km, 0.7)
        par = psi_paraxial(p, kt, 0.7)
        scale = np.vdot(par, exact) / np.vdot(par, par)
        assert np.max(np.abs(exact - scale * par) / np.abs(par * scale)) < 1e-3


def _verify_wavefunctions():
    """The two wavefunctions `lg-radial verify` checks: the LG one and its complex variant."""
    p = _params(1, 2)
    nrm = math.sqrt(paraxial_norm_sq(p))
    good = lambda kt, kphi: psi_paraxial(p, kt, kphi) / nrm
    return {"good": good, "bad": lambda kt, kphi: good(kt, kphi) * np.exp(1j * kt * W0)}


class TestHermiticitySpectral:
    @pytest.mark.parametrize("a", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n, m", [(0, 0), (1, 2), (3, 1)])
    def test_matches_closed_form(self, n, m, a):
        # a = 1 at (1, 2) is `verify`'s counterexample, Gamma(5.5)/Gamma(5) = 2.18094907435640
        p = _params(n, m)
        nrm = math.sqrt(paraxial_norm_sq(p))
        psi = lambda kt, kphi: psi_paraxial(p, kt, kphi) / nrm * np.exp(1j * a * W0 * kt)
        hd = hermiticity_defect(psi, w=W0, sigma=1, kt_max=(14.0 + 2 * n) / W0)
        want = hermiticity_defect_closed_form(n, m, a * W0, W0)
        assert abs(hd.norm_sq - 1.0) <= 1e-12
        assert abs(hd.defect / hd.norm_sq - want) <= 1e-12 * max(abs(want), 1.0)

    def test_two_forward_ffts_per_order_and_no_stencils(self, monkeypatch):
        calls = count_calls(monkeypatch, paraxops)
        hermiticity_defect(_verify_wavefunctions()["good"], w=W0, sigma=1, kt_max=14.0 / W0)
        assert calls == {"fft": 4, "ifft": 0, "_stencils": 0}

    @pytest.mark.parametrize("top", [14.0, 60.0, 1e6])
    def test_counterexample_at_any_kt_max(self, top):
        # 60/w and 1e6/w once widened the window at the same node counts, and stopped converging
        hd = hermiticity_defect(_verify_wavefunctions()["bad"], w=W0, sigma=1, kt_max=top / W0)
        assert abs(hd.defect / hd.norm_sq + 2.18094907435640j) <= 1e-12 * 2.18094907435640

    def test_only_the_radial_derivative_is_evaluated(self, monkeypatch):
        # w^2 k_t^2 and (i/sigma) d/dk_phi are hermitian: no operator coefficients are formed
        def refuse(*args, **kwargs):
            raise AssertionError("hermiticity_defect formed N'_k's coefficients")
        monkeypatch.setattr(momentum, "_coefficients", refuse)
        hermiticity_defect(_verify_wavefunctions()["bad"], w=W0, sigma=1, kt_max=14.0 / W0)

    @pytest.mark.parametrize("wave", ["good", "bad"])
    def test_sigma_cannot_change_the_defect(self, wave):
        psi = _verify_wavefunctions()[wave]
        plus, minus = (hermiticity_defect(psi, w=W0, sigma=s, kt_max=14.0 / W0) for s in (1, -1))
        assert plus == minus

    @pytest.mark.parametrize("top, nodes", [(14.0, (192, 384)), (16.0, (192, 384)),
                                            (60.0, (256, 512)), (1e6, (320, 640)),
                                            (1e34, (768, 1536))])
    def test_window_follows_w_and_kt_max(self, top, nodes):
        # e^-24 min(kt_max, 16/w) up to kt_max, at most 96 units, 64 ceil(span/8) nodes then 2n
        seen = []
        gauss = lambda kt, kphi: seen.append(kt.ravel()) or np.exp(-0.5 * (W0 * kt) ** 2) + 0 * kphi
        try:
            hermiticity_defect(gauss, w=W0, sigma=1, kt_max=top / W0)
        except DiagnosticError:
            assert top == 1e34  # beyond the cap: the Gaussian's |F| is not small at e^-96 kt_max
        assert tuple(len(kt) for kt in seen) == (nodes if top < 1e34 else nodes[:1])
        span = min(24.0 + math.log(max(top, 16.0) / 16.0), 96.0)
        assert seen[0][-1] == pytest.approx(top / W0, rel=1e-13)
        assert math.log(seen[0][-1] / seen[0][0]) == pytest.approx(span * (1 - 1 / nodes[0]))


class TestHermiticity:
    def test_lg_momentum_wavefunction_is_hermitian_domain(self):
        p = _params(1, 2)
        nrm = math.sqrt(paraxial_norm_sq(p))
        psi = lambda kt, kphi: psi_paraxial(p, kt, kphi) / nrm
        hd = hermiticity_defect(psi, w=W0, sigma=1, kt_max=14.0 / W0)
        assert abs(hd.defect) / hd.norm_sq < 1e-9

    def test_complex_radial_factor_breaks_hermiticity(self):
        p = _params(1, 2)
        nrm = math.sqrt(paraxial_norm_sq(p))
        psi = lambda kt, kphi: psi_paraxial(p, kt, kphi) / nrm * np.exp(1j * kt * W0)
        hd = hermiticity_defect(psi, w=W0, sigma=1, kt_max=14.0 / W0)
        assert abs(hd.defect) > 1e-3 * hd.norm_sq

    def test_zero_wavefunction(self):
        # norm_sq = 0 leaves nothing to compare the defect against
        psi = lambda kt, kphi: np.zeros_like(kt, dtype=complex)
        with pytest.raises(DiagnosticError, match="identically zero"):
            hermiticity_defect(psi, w=W0, sigma=1, kt_max=5.0 / W0)

    @pytest.mark.parametrize("w", [1e100, 1e150])
    def test_defect_is_scale_free(self, w):
        # psi(k_t) = f(w k_t) at every w: the node spacing near 1e-152 once gave 0/0 in the stencils
        bad = _verify_wavefunctions()["bad"]
        want = hermiticity_defect(bad, w=W0, sigma=1, kt_max=14.0 / W0)
        got = hermiticity_defect(lambda kt, kphi: bad(kt * (w / W0), kphi), w=w, sigma=1,
                                 kt_max=14.0 / w)
        ratio = want.defect / want.norm_sq
        assert abs(got.defect / got.norm_sq - ratio) <= 1e-9 * abs(ratio)

    def test_overflow_raises(self):
        # a psi that does not decay once overflowed the measure-weighted inner products; with
        # the window at most 96 units long a constant is caught at its ends, and a psi k_t that
        # overflows by its norm
        for value, message in ((1.0, "negligible at both ends of ln k_t"),
                               (1e300, "finite defect and norm, got")):
            psi = lambda kt, kphi: np.full(np.broadcast_shapes(np.shape(kt), np.shape(kphi)),
                                           value, complex)
            with pytest.raises(DiagnosticError, match=message):
                hermiticity_defect(psi, w=W0, sigma=1, kt_max=1e150)

    @pytest.mark.parametrize("psi, kt_max, message", [
        (lambda kt, kphi: 1 / (1 + kt * W0) + 0 * kphi, 14.0 / W0, "negligible at both ends"),
        (lambda kt, kphi: 1 / kt + 0 * kphi, 14.0 / W0, "negligible at both ends"),
        (lambda kt, kphi: np.exp(-0.5 * (W0 * kt) ** 2) + 0 * kphi, 1e34 / W0,
         "negligible at both ends"),
        (_verify_wavefunctions()["good"], 2.0 / W0, "negligible at both ends of ln k_t"),
        (lambda kt, kphi: np.ones(3), 14.0 / W0, "psi returned shape (3,), not (192, 64)"),
        (lambda kt, kphi: None, 14.0 / W0, "needs a finite psi, got a non-finite value"),
    ], ids=["not-decaying", "inverse-k_t", "gaussian-beyond-cap", "cut-gaussian", "wrong-shape",
            "none"])
    def test_truncated_or_misshapen_psi_raises(self, psi, kt_max, message):
        # not-decaying and cut-gaussian once returned a number (a norm of 1.1e7 for the first);
        # wrong-shape and none once raised numpy's bare ValueError and TypeError
        with pytest.raises(DiagnosticError, match=re.escape(message)):
            hermiticity_defect(psi, w=W0, sigma=1, kt_max=kt_max)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_wavefunction_is_named(self, bad):
        # once "not converged ... last change nan" (nan) and numpy's FFT RuntimeWarning (inf)
        psi = lambda kt, kphi: np.full(np.shape(kt), bad + 0j)
        with pytest.raises(DiagnosticError, match="needs a finite psi") as info:
            hermiticity_defect(psi, w=W0, sigma=1, kt_max=5.0 / W0)
        assert not isinstance(info.value, QuadratureConvergenceError)

    @pytest.mark.parametrize("kwargs, message", [
        ({"sigma": 0}, "sigma must be +1 or -1, got 0"),  # once a bare ZeroDivisionError
        ({"sigma": 2}, "sigma must be +1 or -1, got 2"),
        ({"sigma": 0.5}, "sigma must be an integer, got 0.5"),
        ({"sigma": True}, "sigma must be an integer, got True"),
        ({"kt_max": math.inf}, "kt_max must be finite and > 0"),  # once "not converged ... nan"
        ({"w": math.nan}, "w must be finite and > 0, got nan"),
        ({"kt_max": 1e160}, "kt_max must be finite and > 0"),  # once overflowed w^2 k_t^2
        ({"kt_max": -1.0}, "kt_max must be finite and > 0"),  # once "interval must be finite"
        ({"kt_max": math.nan}, "kt_max must be finite and > 0"),
        ({"kt_max": np.float64(1e160)}, "kt_max must be finite and > 0"),
        ({"kt_max": 1e-300}, "kt_max must be finite and > 0"),  # once 0/0 in the stencils
        ({"kt_max": 1e-160}, "kt_max must be finite and > 0"),  # a subnormal kt_max^2
    ], ids=["sigma-0", "sigma-2", "sigma-half", "sigma-true", "kt_max-inf", "w-nan",
            "kt_max-1e160", "kt_max-negative", "kt_max-nan", "kt_max-numpy-1e160",
            "kt_max-1e-300", "kt_max-1e-160"])
    def test_operator_context_checked(self, kwargs, message):
        psi = lambda kt, kphi: psi_paraxial(_params(1, 2), kt, kphi)
        args = {"w": W0, "sigma": 1, "kt_max": 14.0 / W0, **kwargs}
        with pytest.raises(DiagnosticError, match=re.escape(message)):
            hermiticity_defect(psi, **args)


class TestParams:
    def test_non_integer_mode_numbers_rejected(self):
        with pytest.raises(DiagnosticError):
            ExactMomentumParams(1.5, 0, 1, OMEGA, W0)
        with pytest.raises(DiagnosticError):
            ExactMomentumParams(1, 0.5, 1, OMEGA, W0)
        with pytest.raises(DiagnosticError, match="n must be an integer >= 0, got False"):
            ExactMomentumParams(False, 0, 1, OMEGA, W0)
        with pytest.raises(DiagnosticError, match="m must be an integer, got True"):
            ExactMomentumParams(1, True, 1, OMEGA, W0)

    @pytest.mark.parametrize("sigma", [0, 2, 0.5, -1.0, True])
    def test_helicity_must_be_plus_or_minus_one(self, sigma):
        with pytest.raises(DiagnosticError, match="sigma must be"):
            ExactMomentumParams(1, 0, sigma, OMEGA, W0)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, 0.0])
    def test_frequency_must_be_finite_and_positive(self, omega):
        with pytest.raises(DiagnosticError, match="Omega and w must be finite and > 0"):
            ExactMomentumParams(0, 0, 1, omega, W0)

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, 0.0])
    def test_width_must_be_finite_and_positive(self, w):
        with pytest.raises(DiagnosticError, match="Omega and w must be finite and > 0"):
            ExactMomentumParams(0, 0, 1, OMEGA, w)

    def test_numpy_integers_accepted(self):
        p = ExactMomentumParams(np.int64(2), np.int32(-1), np.int8(-1), OMEGA, W0)
        assert (p.n, p.m, p.sigma) == (2, -1, -1)
