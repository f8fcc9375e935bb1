import math

import numpy as np
import pytest

from lgradial.analysis import (decompose, expectation, overlap, overlap_matrix,
                               ph_vs_w0, ph_vs_z, raw_expectation)
from lgradial.errors import DiagnosticError
from lgradial.lgmode import (FieldGrid, LGParams, norm, quadrature_polar_grid,
                             sample)
from lgradial.paraxops import Operator

from conftest import K, W0, ZR
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


class TestOverlap:
    def test_identical_parameters(self):
        p = LGParams(2, 1, K, W0)
        assert abs(overlap(p, 0.7, p, 0.7) - 1.0) < 1e-9

    def test_orthonormal_at_equal_geometry(self):
        a = LGParams(0, 1, K, W0)
        b = LGParams(1, 1, K, W0)
        assert abs(overlap(a, 0.3, b, 0.3)) < 1e-9

    def test_different_l_is_exactly_zero(self):
        a = LGParams(0, 1, K, W0)
        b = LGParams(0, 2, K, W0)
        assert overlap(a, 0.0, b, 0.0) == 0.0

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

    def test_plane_mismatch_rejected(self):
        g = quadrature_polar_grid(LGParams(0, 0, K, W0), 0.5, order=64)
        f = sample(LGParams(0, 0, K, W0), g)
        with pytest.raises(DiagnosticError):
            decompose(f, 0, range(3), 0.0, W0, K)
