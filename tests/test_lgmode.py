import math
import re

import mpmath
import numpy as np
import pytest

from lgradial.errors import DiagnosticError, GridError
from lgradial.lgmode import (_GAUSS_U_MAX_ORDER, FieldGrid, LGParams, PolarGrid, _gauss_u,
                             _radial_profiles, beam_geometry,
                             inner, lg_field, lg_partials, norm,
                             quadrature_polar_grid, sample,
                             uniform_polar_grid)
from lgradial.specfun import bessel_j, make_rule

from conftest import K, W0, ZR
from oracles import lg_reference


class TestBeamGeometry:
    def test_focus_values(self, params00):
        geo = beam_geometry(params00, 0.0)
        assert geo.w_z == W0
        assert geo.inv_R_z == 0.0
        assert geo.phi_g == 0.0

    def test_rayleigh_range_values(self, params00):
        geo = beam_geometry(params00, ZR)
        assert geo.w_z == pytest.approx(W0 * math.sqrt(2.0), rel=1e-14)
        assert geo.phi_g == pytest.approx(math.pi / 4.0, rel=1e-14)

    def test_parity(self, params00):
        plus = beam_geometry(params00, 1.7)
        minus = beam_geometry(params00, -1.7)
        assert minus.w_z == plus.w_z
        assert minus.inv_R_z == -plus.inv_R_z
        assert minus.phi_g == -plus.phi_g

    def test_waist_grows_off_focus(self, params00):
        assert beam_geometry(params00, 0.3).w_z > W0

    def test_gouy_range(self, params00):
        for z in (-1e3, -1.0, 0.0, 2.0, 1e4):
            assert -math.pi / 2 < beam_geometry(params00, z).phi_g < math.pi / 2


class TestLGField:
    def test_fundamental_on_axis(self, params00):
        val = lg_field(params00, 0.0, 0.0, 0.0)
        assert val == pytest.approx(math.sqrt(2.0 / math.pi) / W0, rel=1e-14)
        assert val.imag == 0.0

    def test_vortex_vanishes_on_axis(self):
        for l in (1, -2, 3):
            assert lg_field(LGParams(1, l, K, W0), 0.0, 0.3, 0.0) == 0.0

    def test_first_radial_zero_crossing(self):
        # L_1^0(2 r^2 / w0^2) vanishes where the argument is 1
        p = LGParams(1, 0, K, W0)
        assert abs(lg_field(p, W0 / math.sqrt(2.0), 0.0, 0.0)) < 1e-12

    def test_against_independent_reassembly(self):
        p = LGParams(2, 1, K, W0)
        r, phi, z = 0.3e-3, 1.0, 2.0
        got = lg_field(p, r, phi, z)
        want = lg_reference(2, 1, K, W0, r, phi, z)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_reassembly_across_modes(self, rng):
        for _ in range(20):
            n = int(rng.integers(0, 5))
            l = int(rng.integers(-4, 5))
            r = float(rng.uniform(0.05, 2.5)) * W0
            phi = float(rng.uniform(0, 2 * math.pi))
            z = float(rng.uniform(-2, 2)) * ZR
            got = lg_field(LGParams(n, l, K, W0), r, phi, z)
            want = lg_reference(n, l, K, W0, r, phi, z)
            assert abs(got - want) <= 1e-11 * max(abs(want), 1e-30)

    @pytest.mark.parametrize("l", [300, -300])
    def test_high_order_mode_against_mpmath(self, l):
        # log-space reference: sqrt(2 n!/(pi (n+a)!)) / w0 u^(a/2) e^(-u/2) L_n^a(u)
        n, a = 300, abs(l)
        with mpmath.workdps(40):
            for r in (10e-3, 20e-3):
                u = 2 * mpmath.mpf(r) ** 2 / mpmath.mpf(W0) ** 2
                log_amp = (0.5 * (mpmath.log(2 / mpmath.pi) + mpmath.loggamma(n + 1)
                                  - mpmath.loggamma(n + a + 1)) - mpmath.log(W0)
                           + 0.5 * a * mpmath.log(u) - u / 2)
                want = float(mpmath.exp(log_amp) * mpmath.laguerre(n, a, u))
                got = lg_field(LGParams(n, l, K, W0), r, 0.0, 0.0)
                assert np.isfinite(got)
                assert abs(got - want) <= 1e-10 * abs(want)

    def test_non_integer_mode_numbers_rejected(self):
        with pytest.raises(DiagnosticError):
            LGParams(2.5, 0, K, W0)
        with pytest.raises(DiagnosticError):
            LGParams(1, 1.5, K, W0)
        with pytest.raises(DiagnosticError, match="n must be an integer >= 0, got True"):
            LGParams(True, 0, K, W0)
        with pytest.raises(DiagnosticError, match="l must be an integer, got False"):
            LGParams(1, False, K, W0)
        p = LGParams(np.int64(2), np.int32(-1), K, W0)
        assert (p.n, p.l) == (2, -1)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 0.0])
    def test_wavenumber_must_be_finite_and_positive(self, k):
        with pytest.raises(DiagnosticError, match="k and w0 must be finite and > 0"):
            LGParams(0, 0, k, W0)

    @pytest.mark.parametrize("w0", [math.nan, math.inf, -math.inf, 0.0])
    def test_waist_must_be_finite_and_positive(self, w0):
        with pytest.raises(DiagnosticError, match="k and w0 must be finite and > 0"):
            LGParams(0, 0, K, w0)

    def test_paraxiality_flag(self):
        assert not LGParams(0, 0, K, W0).paraxial_strained
        assert LGParams(0, 0, K, 1e-6).paraxial_strained


class TestRadialProfiles:
    def test_table_matches_independent_reassembly(self):
        z = 0.6 * ZR
        wz = beam_geometry(LGParams(0, 0, K, W0), z).w_z
        for l in range(-20, 21):
            r = np.linspace(0.0, 1.5 * wz * math.sqrt(2.0 * (41 + abs(l) + 1)), 301)[1:]
            table, curvature, gouy = _radial_profiles(20, l, K, W0, z, r)
            for n in range(21):
                want = lg_reference(n, l, K, W0, r, 0.0, z)
                got = table[n] * curvature * gouy[n]
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_deep_tail_against_mpmath(self):
        # at u = 3364 the scale e^(-u/2) alone underflows, though the values
        # themselves are normal doubles
        us = np.array([2600.0, 3000.0, 3364.0])
        for l in (0, 5):
            table = _radial_profiles(300, l, K, W0, 0.0, W0 * np.sqrt(us / 2))[0]
            for n in (280, 300):
                for got, u in zip(table[n], us):
                    with mpmath.workdps(50):
                        want = float(mpmath.sqrt(2 / mpmath.pi * mpmath.factorial(n)
                                                 / mpmath.factorial(n + l)) / W0
                                     * mpmath.mpf(u) ** (l / 2) * mpmath.exp(-mpmath.mpf(u) / 2)
                                     * mpmath.laguerre(n, l, u))
                    assert abs(got - want) <= 1e-11 * abs(want) + 1e-320, (l, n, u, got, want)


class TestSampling:
    def test_single_point_grid(self, params21):
        g = PolarGrid(np.array([0.4e-3]), np.array([1.1]), z=0.5)
        f = sample(params21, g)
        assert f.values[0, 0] == lg_field(params21, 0.4e-3, 1.1, 0.5)

    def test_norm_is_one(self, params00):
        g = quadrature_polar_grid(params00, 0.0, order=128)
        assert norm(sample(params00, g)) == pytest.approx(1.0, abs=1e-8)

    def test_norm_is_one_any_mode_any_z(self):
        for (n, l, z) in ((0, 0, 0.0), (3, 2, 0.0), (2, -1, ZR), (4, 3, 2 * ZR), (1, 0, -0.7 * ZR)):
            p = LGParams(n, l, K, W0)
            g = quadrature_polar_grid(p, z, order=192)
            assert norm(sample(p, g)) == pytest.approx(1.0, abs=1e-8)

    def test_zero_field_and_homogeneity(self, params21):
        g = quadrature_polar_grid(params21, 0.0, order=96)
        f = sample(params21, g)
        assert norm(FieldGrid(g, np.zeros_like(f.values))) == 0.0
        assert norm(FieldGrid(g, 2.0 * f.values)) == pytest.approx(2.0 * norm(f), rel=1e-13)

    @pytest.mark.parametrize("n, l", [(0, 0), (40, 3), (120, 0), (300, 300), (300, -300)])
    def test_default_grid_norm_is_exact(self, n, l):
        p = LGParams(n, l, K, W0)
        for z in (0.0, 1.3 * ZR, -2.0 * ZR):
            assert abs(norm(sample(p, quadrature_polar_grid(p, z))) - 1.0) < 1e-12, z

    def test_default_grid_family_is_orthonormal(self):
        l, n_max = 3, 40
        g = quadrature_polar_grid(LGParams(n_max, l, K, W0), 0.7 * ZR, nphi=8)
        fields = [sample(LGParams(n, l, K, W0), g) for n in range(n_max + 1)]
        gram = np.array([[inner(f, h) for h in fields] for f in fields])
        assert np.max(np.abs(gram - np.eye(n_max + 1))) < 1e-12

    @pytest.mark.parametrize("n_max, l_max", [(0, 0), (4, 3), (4, -3), (120, 0), (300, 300)])
    def test_default_order(self, n_max, l_max):
        g = quadrature_polar_grid(LGParams(0, 0, K, W0), 0.0, n_max=n_max, l_max=l_max)
        assert len(g.r_nodes) == n_max + 2 + abs(l_max) // 2

    @pytest.mark.parametrize("order", [0, 2.5, True, "4"])
    def test_order_must_be_an_integer(self, params21, order):
        with pytest.raises(DiagnosticError, match="quadrature order must be an integer >= 1"):
            quadrature_polar_grid(params21, 0.0, order=order)

    def test_numpy_integer_order_accepted(self, params21):
        assert len(quadrature_polar_grid(params21, 0.0, order=np.int32(6)).r_nodes) == 6

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_max": 4.0}, "n_max must be an integer >= 0, got 4.0"),
        ({"n_max": -9}, "n_max must be an integer >= 0, got -9"),
        ({"n_max": True}, "n_max must be an integer >= 0, got True"),
        ({"l_max": 1.5}, "l_max must be an integer, got 1.5"),
        ({"l_max": "3"}, "l_max must be an integer, got '3'"),
    ])
    def test_family_bounds_named_as_passed(self, params21, kwargs, message):
        with pytest.raises(DiagnosticError, match=re.escape(message)):
            quadrature_polar_grid(params21, 0.0, **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_max": 4.5}, "n_max must be an integer >= 0, got 4.5"),
        ({"n_max": -9}, "n_max must be an integer >= 0, got -9"),
        ({"n_max": False}, "n_max must be an integer >= 0, got False"),
        ({"l_max": 1.5}, "l_max must be an integer, got 1.5"),
        ({"l_max": "3"}, "l_max must be an integer, got '3'"),
    ])
    def test_uniform_grid_family_bounds_named_as_passed(self, params21, kwargs, message):
        with pytest.raises(DiagnosticError, match=re.escape(message)):
            uniform_polar_grid(params21, 0.0, **kwargs)

    def test_uniform_grid_numpy_integer_family_bounds_accepted(self, params21):
        g = uniform_polar_grid(params21, 0.0, n_max=np.int64(4), l_max=np.int32(-3), nr=8)
        assert g.r_nodes[-1] == pytest.approx(7.5 / 8 * 1.5 * math.sqrt(2.0 * (2 * 4 + 3 + 1))
                                              * W0)

    def test_numpy_integer_family_bounds_accepted(self, params21):
        g = quadrature_polar_grid(params21, 0.0, n_max=np.int64(4), l_max=np.int32(-3))
        assert len(g.r_nodes) == 4 + 2 + 3 // 2

    def test_norm_requires_quadrature_grid(self, params21):
        g = PolarGrid(np.linspace(1e-5, 4e-3, 64), np.arange(16) * (2 * math.pi / 16))
        with pytest.raises(GridError):
            norm(sample(params21, g))

    def test_azimuthal_winding_count(self):
        # phase of LG(0, 2) advances by 2 * 2pi around a circle
        p = LGParams(0, 2, K, W0)
        g = quadrature_polar_grid(p, 0.0, nphi=256, order=64)
        f = sample(p, g)
        row = f.values[16]
        total = np.sum(np.angle(row[1:] / row[:-1]))
        total += np.angle(row[0] / row[-1])
        assert total == pytest.approx(2 * 2 * math.pi, rel=1e-9)

    def test_intensity_ring_count(self):
        # n + 1 concentric rings for l != 0
        for (n, l) in ((1, 1), (2, 1), (3, 2), (4, 1)):
            p = LGParams(n, l, K, W0)
            r = np.linspace(1e-6, 5.5 * W0, 4000)
            inten = np.abs(lg_field(p, r, 0.0, 0.0)) ** 2
            interior = (inten[1:-1] > inten[:-2]) & (inten[1:-1] > inten[2:])
            assert int(np.sum(interior)) == n + 1


class TestOrthonormality:
    def test_same_l_family(self):
        l = 1
        g = quadrature_polar_grid(LGParams(6, l, K, W0), 0.0, n_max=6, l_max=l, order=256)
        fields = [sample(LGParams(n, l, K, W0), g) for n in range(7)]
        for i in range(7):
            for j in range(7):
                want = 1.0 if i == j else 0.0
                assert abs(inner(fields[i], fields[j]) - want) < 1e-8

    def test_same_l_family_off_focus(self):
        l = 0
        z = 1.3 * ZR
        g = quadrature_polar_grid(LGParams(4, l, K, W0), z, n_max=4, l_max=l, order=256)
        fields = [sample(LGParams(n, l, K, W0), g) for n in range(5)]
        for i in range(5):
            for j in range(5):
                want = 1.0 if i == j else 0.0
                assert abs(inner(fields[i], fields[j]) - want) < 1e-8

    def test_different_l_orthogonal(self):
        g = quadrature_polar_grid(LGParams(2, 2, K, W0), 0.0, n_max=2, l_max=2, order=128)
        f1 = sample(LGParams(1, 1, K, W0), g)
        f2 = sample(LGParams(1, 2, K, W0), g)
        assert abs(inner(f1, f2)) < 1e-12


class TestPartials:
    def test_azimuthal_partials_are_algebraic(self, params21):
        r = np.array([[0.4e-3]])
        phi = np.array([[0.9]])
        d_r, d2_r, d_phi, d2_phi = lg_partials(params21, r, phi, 0.4)
        val = lg_field(params21, r, phi, 0.4)
        assert np.allclose(d_phi, 1j * params21.l * val, rtol=1e-14)
        assert np.allclose(d2_phi, -params21.l**2 * val, rtol=1e-14)

    def test_radial_derivative_vanishes_at_ring_peak(self):
        # real l = 0 mode at focus: a ring intensity maximum is a stationary
        # point of the (real) radial profile
        p = LGParams(2, 0, K, W0)
        r = np.linspace(1e-6, 4 * W0, 32000)
        inten = np.abs(lg_field(p, r, 0.0, 0.0)) ** 2
        interior = np.nonzero((inten[1:-1] > inten[:-2]) & (inten[1:-1] > inten[2:])
                              & (r[1:-1] > 0.3 * W0))[0] + 1
        assert interior.size > 0
        r_peak = r[interior[-1]]
        d_r, *_ = lg_partials(p, r_peak, 0.0, 0.0)
        scale = abs(lg_field(p, r_peak, 0.0, 0.0)) / W0
        assert abs(d_r) / scale < 1e-3  # grid-resolution-limited stationarity

    def test_against_finite_differences(self, rng):
        h = 2e-7
        weights1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
        weights2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
        offs = np.arange(-3, 4)
        for _ in range(100):
            n = int(rng.integers(0, 4))
            l = int(rng.integers(-3, 4))
            p = LGParams(n, l, K, W0)
            r = float(rng.uniform(0.2, 2.0)) * W0
            phi = float(rng.uniform(0, 2 * math.pi))
            z = float(rng.uniform(-1.5, 1.5)) * ZR
            d_r, d2_r, d_phi, d2_phi = lg_partials(p, r, phi, z)
            vals = np.array([lg_field(p, r + o * h, phi, z) for o in offs])
            fd1 = np.dot(weights1, vals) / h
            fd2 = np.dot(weights2, vals) / h**2
            scale1 = max(abs(fd1), abs(lg_field(p, r, phi, z)) / W0)
            scale2 = max(abs(fd2), abs(lg_field(p, r, phi, z)) / W0**2)
            assert abs(d_r - fd1) / scale1 < 1e-6
            assert abs(d2_r - fd2) / scale2 < 1e-6

    def test_origin_rejected(self, params21):
        with pytest.raises(DiagnosticError):
            lg_partials(params21, 0.0, 0.0, 0.0)


class TestPropagationConsistency:
    @staticmethod
    def _propagate(params, dz, nr=640, nk=640):
        """Plane-to-plane evolution via discrete Hankel transform of order l."""
        l = abs(params.l)
        scale = math.sqrt(2.0 * (2 * params.n + l + 1))
        rmax = max(2.4 * scale * params.w0,
                   2.4 * scale * beam_geometry(params, dz).w_z)
        kmax = 2.2 * (scale + 8.0) / params.w0
        rrule = make_rule("legendre", nr, interval=(0.0, rmax))
        krule = make_rule("legendre", nk, interval=(0.0, kmax))
        f0 = lg_field(params, rrule.nodes, 0.0, 0.0)
        J = bessel_j(l, np.outer(krule.nodes, rrule.nodes))
        spectrum = J @ (rrule.weights * rrule.nodes * f0)
        spectrum = spectrum * np.exp(-1j * krule.nodes**2 * dz / (2.0 * params.k))
        return rrule.nodes, J.T @ (krule.weights * krule.nodes * spectrum)

    @pytest.mark.parametrize("n,l", [(0, 0), (2, 1), (1, 2)])
    @pytest.mark.parametrize("dz_factor", [0.5, 3.0])
    def test_hankel_evolution_matches_closed_form(self, n, l, dz_factor):
        p = LGParams(n, l, K, W0)
        dz = dz_factor * ZR
        r, propagated = self._propagate(p, dz)
        want = lg_field(p, r, 0.0, dz)
        rel = np.linalg.norm(propagated - want) / np.linalg.norm(want)
        assert rel < 1e-5


class TestGridValidation:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(GridError):
            PolarGrid(np.array([0.0, 1.0]), np.array([0.0]))

    def test_rejects_unsorted_radius(self):
        with pytest.raises(GridError):
            PolarGrid(np.array([2.0, 1.0]), np.array([0.0]))

    def test_rejects_nonuniform_phi(self):
        with pytest.raises(GridError):
            PolarGrid(np.array([1.0, 2.0]), np.array([0.0, 0.1, 0.5]))
        with pytest.raises(GridError):
            PolarGrid(np.array([1.0, 2.0]), np.array([0.0, math.nan, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_radius(self, bad):
        with pytest.raises(GridError, match="finite"):
            PolarGrid(np.array([0.5, bad, 2.0]), np.arange(8) * np.pi / 4, r_weights=np.ones(3))
        with pytest.raises(GridError, match="finite"):
            PolarGrid(np.array([0.5, 1.0, bad]), np.arange(8) * np.pi / 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(GridError, match="finite"):
            PolarGrid(np.array([0.5, 1.0, 2.0]), np.arange(8) * np.pi / 4,
                      r_weights=np.array([1.0, bad, 1.0]))

    def test_phi_uniform_period(self):
        r = np.array([1.0, 2.0])
        full = np.arange(16) * (2 * math.pi / 16)
        PolarGrid(r, full)
        PolarGrid(r, full + 0.3)
        PolarGrid(r, np.linspace(1e5, 1e5 + 2 * math.pi, 16, endpoint=False))  # 1e-11 roundoff
        # half a period, and uniform but with the last node 6e-11 rad off the period
        for phi in (full / 2, full * (1 + 1e-11)):
            with pytest.raises(GridError, match="one uniform period"):
                PolarGrid(r, phi)

    def test_half_period_is_rejected_not_misintegrated(self):
        # on 16 nodes over half a turn, LG(0,0) + LG(0,1) once had norm^2 2.1117 instead of 2
        p0, p1 = LGParams(0, 0, K, W0), LGParams(0, 1, K, W0)
        g = quadrature_polar_grid(p0, 0.0, n_max=0, l_max=1, nphi=16)
        both = FieldGrid(g, sample(p0, g).values + sample(p1, g).values)
        assert norm(both) ** 2 == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(GridError, match="one uniform period"):
            PolarGrid(g.r_nodes, np.arange(16) * (math.pi / 16), r_weights=g.r_weights)

    def test_rejects_empty_node_arrays(self):
        with pytest.raises(GridError, match="nonempty"):
            PolarGrid(np.array([]), np.array([0.0]))
        with pytest.raises(GridError, match="nonempty"):
            PolarGrid(np.array([1.0, 2.0]), np.array([]))

    @pytest.mark.parametrize("builder, kwargs, message", [
        (quadrature_polar_grid, {"nphi": 0}, "nphi must be an integer >= 1, got 0"),
        (quadrature_polar_grid, {"nphi": -3}, "nphi must be an integer >= 1, got -3"),
        (quadrature_polar_grid, {"nphi": 2.5}, "nphi must be an integer >= 1, got 2.5"),
        (uniform_polar_grid, {"nr": 0}, "nr must be an integer >= 1, got 0"),
        (uniform_polar_grid, {"nr": 2.5}, "nr must be an integer >= 1, got 2.5"),
        (uniform_polar_grid, {"nr": True}, "nr must be an integer >= 1, got True"),
        (uniform_polar_grid, {"nphi": -3}, "nphi must be an integer >= 1, got -3"),
        (uniform_polar_grid, {"nphi": "8"}, "nphi must be an integer >= 1, got '8'"),
    ])
    def test_grid_sizes_must_be_positive_integers(self, params21, builder, kwargs, message):
        with pytest.raises(DiagnosticError, match=re.escape(message)):
            builder(params21, 0.0, **kwargs)

    def test_gauss_rule_order_is_capped(self):
        # a typed error, not numpy's "array is too big" or a dense eigenproblem of any size
        with pytest.raises(DiagnosticError, match="exceeds the cap of 1024"):
            quadrature_polar_grid(LGParams(2, 1, 1e7, 1e-3), 0.0, n_max=10**18)
        with pytest.raises(DiagnosticError, match="exceeds the cap"):
            _gauss_u(_GAUSS_U_MAX_ORDER + 1, 0)
        assert quadrature_polar_grid(LGParams(2, 1, K, W0), 0.0, order=512).shape == (512, 32)

    def test_numpy_integer_grid_sizes_accepted(self, params21):
        g = uniform_polar_grid(params21, 0.0, nr=np.int64(16), nphi=np.int32(8))
        assert g.shape == (16, 8)
        assert quadrature_polar_grid(params21, 0.0, nphi=np.int16(1)).shape[1] == 1

    def test_field_shape_must_match(self, params21):
        g = quadrature_polar_grid(params21, 0.0, order=32)
        with pytest.raises(GridError):
            FieldGrid(g, np.zeros((3, 3)))

    def test_uniform_grid_excludes_origin(self, params21):
        g = uniform_polar_grid(params21, 0.0, nr=64, nphi=8)
        assert g.r_nodes[0] > 0
