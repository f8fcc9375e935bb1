import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import lgradial.analysis as analysis
from lgradial.analysis import (decompose, expectation, overlap, overlap_matrix,
                               ph_vs_w0, ph_vs_z, raw_expectation)
from lgradial.errors import DiagnosticError, QuadratureConvergenceError
from lgradial.lgmode import (FieldGrid, LGParams, beam_geometry, lg_field, norm,
                             quadrature_polar_grid, sample)
from lgradial.paraxops import Operator

from conftest import ENVELOPE, K, W0, ZR
from oracles import overlap_riemann


class TestExpectation:
    def test_hyperbolic_momentum_vanishes_at_focus(self):
        for (n, l) in ((0, 0), (2, 1), (4, 3)):
            assert abs(expectation("PH", LGParams(n, l, K, W0), 0.0)) < 1e-9

    def test_oam_eigenvalue_any_plane(self):
        for z in (0.0, 0.8 * ZR, -2.0 * ZR):
            assert expectation("Lz", LGParams(1, 3, K, W0), z) == pytest.approx(3.0, abs=1e-10)
            assert expectation("Lz", LGParams(2, -2, K, W0), z) == pytest.approx(-2.0, abs=1e-10)

    def test_consistency_with_fitted_line(self):
        p = LGParams(2, 0, K, W0)
        series = ph_vs_z(p, np.linspace(-3 * ZR, 3 * ZR, 13))
        v = expectation("PH", p, ZR)
        assert abs(v - series.diagnostics["slope"] * ZR) < 1e-6

    def test_imaginary_residue_is_tiny(self):
        p = LGParams(2, 1, K, W0)
        for op in ("PH", "Lz", "N0"):
            z = 0.0
            assert abs(raw_expectation(op, p, z).imag) < 1e-9
        assert abs(raw_expectation(Operator("Nz", params=p, z=ZR), p, ZR).imag) < 1e-9

    @pytest.mark.parametrize("n,l", [(3, 0), (300, 0), (20, 300)])
    def test_ph_is_exact_at_high_n_and_l(self, n, l):
        got = expectation("PH", LGParams(n, l, K, W0), 1.3 * ZR)
        assert got == pytest.approx((2 * n + abs(l) + 1) * 1.3, rel=1e-9)

    def test_raw_expectation_is_exact_at_n_120(self):
        got = raw_expectation("PH", LGParams(120, 0, K, W0), 1.3 * ZR)
        assert got.real == pytest.approx(313.3, rel=1e-12)
        assert abs(got.imag) < 1e-9

    def test_imaginary_residue_is_an_accuracy_error(self, monkeypatch):
        monkeypatch.setattr(analysis, "raw_expectation", lambda *a, **k: 1 + 1e-3j)
        with pytest.raises(QuadratureConvergenceError, match="imaginary residue"):
            expectation("PH", LGParams(0, 0, K, W0), ZR)

    @pytest.mark.parametrize("n,l,w0,z", [(40, 3, W0, 2.0), (2, 1, 5e-6, 2.0)])
    def test_ph_matches_closed_form(self, n, l, w0, z):
        # the rule order grows with n and the tolerance is relative: fixed
        # orders 160/320 moved by 2e-6 at n = 40, and an absolute 1e-7 is
        # out of reach for the ~1e5 value of a 5 um waist
        p = LGParams(n, l, K, w0)
        want = (2 * n + abs(l) + 1) * z / p.rayleigh_range
        assert expectation("PH", p, z) == pytest.approx(want, rel=1e-9)

    def test_nz_expectation_is_z_invariant(self):
        # the radial index is conserved when the operator carries its own z
        for (n, l) in ((1, 0), (3, 2)):
            p = LGParams(n, l, K, W0)
            for z in (0.5 * ZR, ZR, 2.0 * ZR):
                got = expectation(Operator("Nz", params=p, z=z), p, z)
                assert abs(got - n) < 1e-7


class TestPhVsZ:
    def test_linear_through_origin(self):
        z_list = np.linspace(-3 * ZR, 3 * ZR, 13)
        for n in range(5):
            s = ph_vs_z(LGParams(n, 0, K, W0), z_list)
            assert s.diagnostics["r_squared"] > 0.999999
            assert abs(s.diagnostics["intercept"]) < 1e-8

    def test_odd_in_z(self):
        z_list = np.linspace(-2 * ZR, 2 * ZR, 9)
        s = ph_vs_z(LGParams(1, 1, K, W0), z_list)
        assert np.allclose(s.values, -s.values[::-1], atol=1e-9)

    def test_five_distinct_slopes(self):
        z_list = np.linspace(-ZR, ZR, 5)
        slopes = [ph_vs_z(LGParams(n, 0, K, W0), z_list).diagnostics["slope"]
                  for n in range(5)]
        assert len({round(s, 9) for s in slopes}) == 5
        assert all(b > a for a, b in zip(slopes, slopes[1:]))

    def test_empty_sweep_rejected(self):
        with pytest.raises(DiagnosticError):
            ph_vs_z(LGParams(0, 0, K, W0), [])

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_plane_rejected(self, z):
        p = LGParams(2, 1, K, W0)
        for call in (lambda: beam_geometry(p, z), lambda: expectation("PH", p, z),
                     lambda: ph_vs_z(p, [0.0, z]), lambda: lg_field(p, W0, 0.0, z),
                     lambda: quadrature_polar_grid(p, z)):
            with pytest.raises(DiagnosticError, match="plane z must be finite"):
                call()

    @pytest.mark.parametrize("params, z, message", [
        (LGParams(2, 1, 1e7, 1e-3), 1e200, "|z|/zR below 1.341e+154, got z = 1e+200 for zR = 5.0"),
        (LGParams(2, 1, K, 1e-300), 0.0, "w0 must lie in"),
        (LGParams(2, 1, 1e-300, W0), 1.0, "zR must lie in"),
    ], ids=["z-squared-overflows", "w0-tiny", "k-tiny"])
    def test_unrepresentable_geometry_rejected(self, params, z, message):
        # once a bare OverflowError, ZeroDivisionError and OverflowError
        for call in (lambda: beam_geometry(params, z), lambda: expectation("PH", params, z)):
            with pytest.raises(DiagnosticError, match=re.escape(message)):
                call()

    def test_quadratic_scaling_of_curvature_term(self):
        # the whole radius-of-curvature term -(z / k w0^2) <PH> grows as a z^2
        p = LGParams(2, 0, K, W0)
        z_list = np.linspace(-3 * ZR, 3 * ZR, 13)
        s = ph_vs_z(p, z_list)
        term = -(z_list / (K * W0**2)) * s.values
        coef, *_ = np.linalg.lstsq(z_list[:, None] ** 2, term, rcond=None)
        fit = coef[0] * z_list**2
        ss_res = float(np.sum((term - fit) ** 2))
        ss_tot = float(np.sum((term - term.mean()) ** 2))
        assert 1.0 - ss_res / ss_tot > 0.9999


class TestPhVsW0:
    def test_monotone_decay_over_tenfold_span(self):
        w0_list = np.geomspace(0.2e-3, 2.05e-3, 10)
        s = ph_vs_w0(LGParams(1, 0, K, W0), w0_list, z=1.0)
        assert s.diagnostics["monotone_decreasing"]
        assert np.all(np.isfinite(s.values))
        assert s.values[-1] < 0.01 * s.values[0]

    def test_power_law_diagnostics(self):
        w0_list = np.geomspace(0.3e-3, 1.5e-3, 6)
        s = ph_vs_w0(LGParams(2, 1, K, W0), w0_list, z=0.8)
        assert s.diagnostics["loglog_r_squared"] > 0.999999
        assert s.diagnostics["loglog_slope"] == pytest.approx(-2.0, abs=1e-6)

    def test_bad_sweep_rejected(self):
        with pytest.raises(DiagnosticError):
            ph_vs_w0(LGParams(0, 0, K, W0), [2e-3, 1e-3], z=1.0)


class TestHighRadialIndexCurves:
    # a fixed quadrature order loses <PH> for n >= ~100; every point is a
    # convergence-checked expectation, which returns the closed form
    @pytest.mark.parametrize("n", [120, 300])
    def test_ph_vs_z_matches_closed_form(self, n):
        z_list = np.array([0.5, 1.3]) * ZR
        s = ph_vs_z(LGParams(n, 0, K, W0), z_list)
        want = (2 * n + 1) * z_list / ZR
        assert np.max(np.abs(s.values - want) / want) <= 1e-12

    def test_ph_vs_w0_matches_closed_form(self):
        w0_list = np.array([0.8, 1.25]) * W0
        s = ph_vs_w0(LGParams(120, 0, K, W0), w0_list, z=1.3 * ZR)
        want = 241 * 1.3 * ZR / (K * w0_list**2 / 2)
        assert np.max(np.abs(s.values - want) / want) <= 1e-12


class TestOverlap:
    def test_identical_parameters(self):
        p = LGParams(2, 1, K, W0)
        assert abs(overlap(p, 0.7, p, 0.7) - 1.0) < 1e-9

    def test_ground_mode_is_normalized(self):
        # a quadrature extent of 1.5 turning radii cut the n_max = 0 Gaussian
        # tail and left 1 - 1.2e-4 here
        p = LGParams(0, 0, K, W0)
        assert abs(overlap(p, 0.0, p, 0.0) - 1.0) < 1e-14

    def test_orthonormal_at_equal_geometry(self):
        a = LGParams(0, 1, K, W0)
        b = LGParams(1, 1, K, W0)
        assert abs(overlap(a, 0.3, b, 0.3)) < 1e-9

    def test_different_l_is_exactly_zero(self):
        a = LGParams(0, 1, K, W0)
        b = LGParams(0, 2, K, W0)
        got = overlap(a, 0.0, b, 0.0)
        assert got == 0.0 and isinstance(got, complex)

    def test_shared_wavenumber_required(self):
        a = LGParams(0, 0, K, W0)
        b = LGParams(0, 0, 2 * K, W0)
        with pytest.raises(DiagnosticError):
            overlap(a, 0.0, b, 0.0)

    def test_propagation_mismatch_against_riemann_sum(self):
        a = LGParams(0, 0, K, W0)
        b = LGParams(1, 0, K, W0)
        got = overlap(a, 0.0, b, 5.0)
        want = overlap_riemann(0, 1, 0, K, W0, W0, 0.0, 5.0, rmax=30 * W0, nr=60000)
        assert abs(got - want) < 1e-5
        assert abs(got) > 0.1  # crosstalk really is nonzero

    def test_waist_mismatch_nonzero(self):
        a = LGParams(0, 0, K, W0)
        b = LGParams(1, 0, K, 1.3 * W0)
        assert abs(overlap(a, 0.0, b, 0.0)) > 1e-3


class TestOverlapMatrix:
    def test_identity_at_zero_mismatch(self):
        M = overlap_matrix(1, range(6), 0.0, 0.0, W0, W0, K)
        assert np.max(np.abs(M.entries - np.eye(6))) < 1e-8

    def test_columns_bounded_and_monotone(self):
        M = overlap_matrix(0, range(12), 0.0, 1.5 * ZR, W0, W0, K)
        comp = M.completeness()
        assert np.all(comp <= 1.0 + 1e-8)
        cum = M.cumulative_completeness()
        assert np.all(np.diff(cum, axis=0) >= -1e-15)

    def test_minimum_mode_count_grows_with_mismatch(self):
        counts = []
        for dz in (0.5 * ZR, ZR, 2 * ZR, 4 * ZR):
            M = overlap_matrix(0, range(26), 0.0, dz, W0, W0, K)
            counts.append(M.min_modes(column=0, threshold=0.99))
        assert all(c is not None for c in counts)
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_crosstalk_oscillates_and_decays(self):
        # the n=5 mode's projection onto n'=4 rises to a local maximum and
        # then falls as the propagation mismatch grows
        dzs = np.linspace(0.0, 4.0, 33) * ZR
        vals = np.array([abs(overlap(LGParams(5, 0, K, W0), 0.0,
                                     LGParams(4, 0, K, W0), dz)) ** 2
                         for dz in dzs])
        imax = int(np.argmax(vals))
        assert 0 < imax < len(vals) - 1
        assert vals[-1] < vals[imax]

    def test_self_overlap_magnitude_decreasing(self):
        dzs = np.linspace(0.0, 3.0, 13) * ZR
        vals = np.array([abs(overlap(LGParams(0, 0, K, W0), 0.0,
                                     LGParams(0, 0, K, W0), dz)) ** 2
                         for dz in dzs])
        assert np.all(np.diff(vals) < 0)

    def test_finite_and_complete_at_n160(self):
        M = overlap_matrix(0, range(161), 0.0, ZR, W0, W0, K)
        assert np.all(np.isfinite(M.entries))
        assert np.all(M.completeness() <= 1.0 + 1e-9)
        for i in range(3):
            for j in range(3):
                want = overlap_riemann(i, j, 0, K, W0, W0, 0.0, ZR, rmax=12 * W0, nr=100000)
                assert abs(M.entries[i, j] - want) < 1e-8  # midpoint-rule error ~2e-9

    def test_requires_contiguous_n_set(self):
        with pytest.raises(DiagnosticError):
            overlap_matrix(0, [1, 2, 3], 0.0, 0.0, W0, W0, K)

    def test_rejects_empty_n_set(self):
        with pytest.raises(DiagnosticError, match="contiguous from 0"):
            overlap_matrix(0, [], 0.0, 0.0, W0, W0, K)

    def test_rejects_non_integer_mode_numbers(self):
        # int() would truncate [0, 1.7] to (0, 1)
        with pytest.raises(DiagnosticError, match="integer radial indices"):
            overlap_matrix(0, [0, 1.7], 0.0, 0.0, W0, W0, K)
        with pytest.raises(DiagnosticError, match="integer radial indices"):
            overlap_matrix(0, [0, True], 0.0, 0.0, W0, W0, K)
        M = overlap_matrix(0, np.arange(3), 0.0, 0.0, W0, W0, K)
        assert M.n_set == (0, 1, 2) and all(type(n) is int for n in M.n_set)

    @pytest.mark.parametrize("l", [0, 5, -300])
    def test_identity_at_equal_families(self, l):
        M = overlap_matrix(l, range(301), 0.4 * ZR, 0.4 * ZR, W0, W0, K)
        assert np.max(np.abs(M.entries - np.eye(301))) <= 1e-14

    @pytest.mark.parametrize("l", [0, 3, -150])
    def test_swapping_families_gives_conjugate_transpose(self, l):
        # the two sides reach the same phases by different roundings, so the
        # agreement is the phase rounding times the index, not bitwise
        M = overlap_matrix(l, range(81), 0.3 * ZR, -1.1 * ZR, W0, 0.9 * W0, K)
        S = overlap_matrix(l, range(81), -1.1 * ZR, 0.3 * ZR, 0.9 * W0, W0, K)
        assert np.max(np.abs(S.entries - M.entries.conj().T)) <= 5e-14

    @pytest.mark.parametrize("l", [0, 1, 3])
    def test_first_columns_complete_at_n120(self, l):
        M = overlap_matrix(l, range(121), 0.0, ZR, W0, W0, K)
        assert np.max(np.abs(M.completeness()[:13] - 1.0)) <= 1e-12

    @pytest.mark.parametrize("l, n_max", [(150, 40), (60, 80)])
    def test_against_generating_function_in_mpmath(self, l, n_max):
        z, z_prime, w0_prime = -0.5 * ZR, 1.1 * ZR, 0.85 * W0
        got = overlap_matrix(l, range(n_max + 1), z, z_prime, W0, w0_prime, K).entries
        assert np.max(np.abs(got - _overlap_mp(l, n_max, z, z_prime, w0_prime))) <= 1e-13

    def test_finite_and_bounded_far_outside_the_envelope(self):
        # unitary matrix elements: every entry is finite and at most 1, with no
        # RuntimeWarning (which the test configuration makes an error)
        for l, n_max, dz in ((20000, 300, ZR), (1400, 800, ZR), (1400, 700, 0.3 * ZR)):
            M = overlap_matrix(l, range(n_max + 1), 0.0, dz, W0, W0, K)
            assert np.all(np.isfinite(M.entries)) and np.max(np.abs(M.entries)) <= 1 + 1e-12
        M = overlap_matrix(1400, range(701), 0.0, 0.0, W0, W0, K)
        assert np.max(np.abs(M.entries - np.eye(701))) <= 1e-15

    @pytest.mark.parametrize("z_prime, w0_prime, want", [
        (0.0, 1e9 * W0, 2e9 / (1 + 1e18)),       # 2 w0 w0' / (w0^2 + w0'^2)
        (1e12 * ZR, W0, 1 / math.hypot(1, 5e11)),  # 1 / sqrt(1 + (dz / 2 zR)^2)
    ])
    def test_tanh_tau_rounding_to_one_is_finite(self, z_prime, w0_prime, want):
        # tanh(tau) rounds to 1 and 1 - tanh^2(tau) to 0 there: |<LG00|LG00'>| = sech(tau)
        # is right only if sech^2(tau) comes from 4 Re(gamma) Re(gamma') / |G|^2
        M = overlap_matrix(0, range(4), 0.0, z_prime, W0, w0_prime, K)
        assert np.all(np.isfinite(M.entries)) and np.max(np.abs(M.entries)) <= 1.0
        assert abs(M.entries[0, 0]) == pytest.approx(want, rel=1e-12)

    @ENVELOPE
    @given(l=st.integers(-2000, 2000), n_max=st.integers(0, 400), z_over_zr=st.floats(-5.0, 5.0),
           zp_over_zr=st.floats(-5.0, 5.0), ratio=st.floats(0.2, 5.0), coincide=st.booleans())
    @example(l=20000, n_max=300, z_over_zr=0.0, zp_over_zr=1.0, ratio=1.0, coincide=False)
    @example(l=1400, n_max=800, z_over_zr=0.0, zp_over_zr=1.0, ratio=1.0, coincide=False)
    @example(l=1400, n_max=700, z_over_zr=0.0, zp_over_zr=0.3, ratio=1.0, coincide=False)
    @example(l=1400, n_max=700, z_over_zr=0.0, zp_over_zr=0.0, ratio=1.0, coincide=True)
    @example(l=-300, n_max=300, z_over_zr=0.4, zp_over_zr=0.4, ratio=1.0, coincide=True)
    @example(l=2000, n_max=400, z_over_zr=-5.0, zp_over_zr=5.0, ratio=0.2, coincide=False)
    def test_entries_are_unitary_matrix_elements(self, l, n_max, z_over_zr, zp_over_zr, ratio,
                                                 coincide):
        if coincide:
            zp_over_zr, ratio = z_over_zr, 1.0
        M = overlap_matrix(l, range(n_max + 1), z_over_zr * ZR, zp_over_zr * ZR, W0, ratio * W0, K)
        assert np.all(np.isfinite(M.entries))
        assert np.max(np.abs(M.entries)) <= 1 + 1e-12
        assert np.max(M.completeness()) <= 1 + 1e-12
        if coincide:
            assert np.max(np.abs(M.entries - np.eye(n_max + 1))) <= 1e-15


def _overlap_mp(l, n_max, z, z_prime, w0_prime, dps=50):
    """The overlap matrix from Laguerre's generating function, in mpmath.

    sum_(n,m) s^n t^m I_nm = (a!/2) G^-(a+1) (1 + al s + be t + de s t)^-(a+1)
    gives, normalized, h_00 = 1, h_0m = -be sqrt((m+a)/m) h_0,m-1 and
    h_(n+1,m) = -al sqrt((n+a+1)/(n+1)) h_nm - be sqrt(m/(m+a)) h_(n+1,m-1)
    - de sqrt((n+a+1)/(n+1)) sqrt(m/(m+a)) h_(n,m-1), run forward in both
    indices (unstable in double precision at large |l|, fine at 50 digits).
    """
    a = abs(l)
    with mpmath.workdps(dps):
        k = mpmath.mpf(K)

        def plane(w0, z):
            zr, z = k * mpmath.mpf(w0) ** 2 / 2, mpmath.mpf(z)
            w2 = mpmath.mpf(w0) ** 2 * (1 + (z / zr) ** 2)
            return w2, 1 / w2 - 0.5j * k * z / (z * z + zr * zr), mpmath.atan2(z, zr)

        (wa2, ga, pa), (wb2, gb, pb) = plane(W0, z), plane(w0_prime, z_prime)
        G = mpmath.conj(ga) + gb
        al, be = 2 / (wa2 * G) - 1, 2 / (wb2 * G) - 1
        de = -1 - al - be
        h = [[mpmath.mpc(1)] * (n_max + 1) for _ in range(n_max + 1)]
        for m in range(1, n_max + 1):
            h[0][m] = -be * mpmath.sqrt(mpmath.mpf(m + a) / m) * h[0][m - 1]
        for n in range(n_max):
            r = mpmath.sqrt(mpmath.mpf(n + a + 1) / (n + 1))
            h[n + 1][0] = -al * r * h[n][0]
            for m in range(1, n_max + 1):
                s = mpmath.sqrt(mpmath.mpf(m) / (m + a))
                h[n + 1][m] = -al * r * h[n][m] - be * s * h[n + 1][m - 1] - de * r * s * h[n][m - 1]
        pref = (2 / (mpmath.sqrt(wa2 * wb2) * G)) ** (a + 1)
        return np.array([[complex(pref * mpmath.expj((2 * n + a + 1) * pa - (2 * m + a + 1) * pb)
                                  * h[n][m]) for m in range(n_max + 1)] for n in range(n_max + 1)])


class TestDecompose:
    def test_pure_mode_projects_to_unit_vector(self):
        p = LGParams(3, 1, K, W0)
        g = quadrature_polar_grid(p, 0.0, n_max=6, l_max=1, order=256)
        d = decompose(sample(p, g), 1, range(6), 0.0, W0, K)
        want = np.zeros(6)
        want[3] = 1.0
        assert np.max(np.abs(np.abs(d.coefficients) - want)) < 1e-8
        assert d.reconstruction_residual < 1e-8

    def test_linearity_on_superposition(self):
        g = quadrature_polar_grid(LGParams(5, 2, K, W0), 0.0, n_max=5, l_max=2, order=256)
        f = FieldGrid(g, (sample(LGParams(0, 2, K, W0), g).values
                          + sample(LGParams(1, 2, K, W0), g).values) / math.sqrt(2.0))
        d = decompose(f, 2, range(6), 0.0, W0, K)
        assert abs(d.coefficients[0] - 1 / math.sqrt(2)) < 1e-8
        assert abs(d.coefficients[1] - 1 / math.sqrt(2)) < 1e-8
        assert np.max(np.abs(d.coefficients[2:])) < 1e-8

    def test_waist_mismatch_spreads_over_radial_modes(self):
        g = quadrature_polar_grid(LGParams(8, 1, K, 1.2 * W0), 0.0, n_max=8, l_max=1, order=320)
        f = sample(LGParams(0, 1, K, 1.2 * W0), g)
        d = decompose(f, 1, range(6), 0.0, W0, K)
        power = np.abs(d.coefficients) ** 2
        assert power[0] < 1.0 - 1e-3          # no longer a pure eigenstate
        assert np.sum(power[1:]) > 1e-3       # genuinely spread
        assert np.sum(power) <= 1.0 + 1e-8

    def test_parseval_for_in_span_fields(self):
        g = quadrature_polar_grid(LGParams(5, 0, K, W0), 0.0, n_max=5, l_max=0, order=256)
        coeffs = np.array([0.5, 0.0, 0.7j, 0.2, 0.0, -0.4])
        coeffs = coeffs / np.linalg.norm(coeffs)
        vals = np.zeros(g.shape, dtype=complex)
        for c, n in zip(coeffs, range(6)):
            vals += c * sample(LGParams(n, 0, K, W0), g).values
        f = FieldGrid(g, vals)
        d = decompose(f, 0, range(6), 0.0, W0, K)
        assert abs(np.sum(np.abs(d.coefficients) ** 2) - norm(f) ** 2) < 1e-7

    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
    def test_zero_or_non_finite_field_rejected(self, value):
        # a NaN norm once failed `nf > 0` and reported reconstruction_residual 0.0
        g = quadrature_polar_grid(LGParams(2, 1, K, W0), 0.0, n_max=2, l_max=1)
        f = FieldGrid(g, np.full(g.shape, value, dtype=complex))
        with pytest.raises(DiagnosticError, match="nonzero, finite field"):
            decompose(f, 1, range(3), 0.0, W0, K)

    def test_plane_mismatch_rejected(self):
        g = quadrature_polar_grid(LGParams(0, 0, K, W0), 0.5, order=64)
        f = sample(LGParams(0, 0, K, W0), g)
        with pytest.raises(DiagnosticError):
            decompose(f, 0, range(3), 0.0, W0, K)

    def test_negative_mode_number_rejected(self):
        # the table index would wrap and return c_1 again as "c_-1"
        g = quadrature_polar_grid(LGParams(2, 2, K, W0), 0.0, n_max=2, l_max=2, order=128)
        f = sample(LGParams(1, 2, K, W0), g)
        with pytest.raises(DiagnosticError, match="n >= 0"):
            decompose(f, 2, [0, 1, -1], 0.0, W0, K)

    def test_non_integer_mode_number_rejected(self):
        # int() would truncate [0.5, 1.9] and project onto n = 0 and 1
        g = quadrature_polar_grid(LGParams(2, 2, K, W0), 0.0, n_max=2, l_max=2)
        f = sample(LGParams(1, 2, K, W0), g)
        with pytest.raises(DiagnosticError, match="integer radial indices"):
            decompose(f, 2, [0.5, 1.9], 0.0, W0, K)
        assert decompose(f, 2, np.arange(3), 0.0, W0, K).n_set == (0, 1, 2)
