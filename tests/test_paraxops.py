import math
import tracemalloc

import numpy as np
import pytest

from lgradial.errors import DiagnosticError, GridError, QuadratureConvergenceError
from lgradial.lgmode import (FieldGrid, LGParams, PolarGrid, beam_geometry, lg_field,
                             quadrature_polar_grid, inner, norm, sample,
                             uniform_polar_grid)
from lgradial import paraxops
from lgradial.paraxops import (Operator, _fd_apply, _stencils, apply_to_field,
                               apply_to_mode, commutator_residual, dilation_check,
                               eigen_residual, expected_eigenvalue)
from lgradial.specfun import make_rule

from conftest import K, W0, ZR, count_calls
from oracles import fd_matrix_vandermonde


def _plain_grid(rmax=8.0, nr=1024, nphi=16):
    h = rmax / nr
    r = (np.arange(nr) + 0.5) * h
    phi = np.arange(nphi) * (2 * math.pi / nphi)
    return PolarGrid(r, phi, r_weights=np.full(nr, h))


def _radial_derivatives(nodes, values):
    """(d_r, d2_r) of the columns of `values` by the FD contraction on one stencil build."""
    c = _stencils(nodes)
    cols = np.asarray(values, dtype=complex).reshape(len(nodes), -1)
    return [_fd_apply(c[s - 1], 0.0, 0.0, cols).reshape(np.shape(values)) for s in (1, 2)]


def _interior(grid, lo_frac=0.08, hi_frac=0.9):
    r = grid.r_nodes
    rmax = r[-1]
    return (r > lo_frac * rmax) & (r < hi_frac * rmax)


class TestLz:
    def test_eigenvalue_on_vortex_mode(self):
        p = LGParams(0, 3, K, W0)
        g = quadrature_polar_grid(p, 0.0, order=96)
        out = apply_to_mode(Operator("Lz"), p, g)
        assert np.allclose(out.values, 3.0 * sample(p, g).values, rtol=1e-12)

    def test_zero_on_axisymmetric_mode(self):
        p = LGParams(2, 0, K, W0)
        g = quadrature_polar_grid(p, 0.0, order=96)
        out = apply_to_mode(Operator("Lz"), p, g)
        assert np.max(np.abs(out.values)) == 0.0

    def test_fd_on_generic_azimuthal_harmonic(self):
        g = _plain_grid(nr=256, nphi=32)
        r, phi = g.mesh()
        f = FieldGrid(g, np.exp(-r**2) * np.exp(2j * phi))
        out = apply_to_field(Operator("Lz"), f)
        assert np.max(np.abs(out.values - 2.0 * f.values)) < 1e-6

    def test_requires_enough_phi_nodes(self):
        g = PolarGrid(np.linspace(0.1, 4.0, 64), np.arange(4) * (math.pi / 2),
                      r_weights=np.full(64, 4.0 / 64))
        f = FieldGrid(g, np.ones((64, 4), dtype=complex))
        with pytest.raises(GridError):
            apply_to_field(Operator("Lz"), f)


class TestLaplacian:
    def test_quadratic_profile(self):
        g = _plain_grid()
        r, _ = g.mesh()
        out = apply_to_field(Operator("laplacian_t"), FieldGrid(g, (r**2).astype(complex)))
        assert np.max(np.abs(out.values - 4.0)) < 1e-6

    def test_log_profile_is_harmonic(self):
        g = _plain_grid()
        r, _ = g.mesh()
        out = apply_to_field(Operator("laplacian_t"), FieldGrid(g, np.log(r).astype(complex)))
        mask = _interior(g)
        assert np.max(np.abs(out.values[mask])) < 1e-5

    def test_fundamental_mode_closed_form(self):
        # lap exp(-r^2/w0^2) = (4 r^2 / w0^4 - 4 / w0^2) exp(-r^2/w0^2)
        p = LGParams(0, 0, K, W0)
        g = quadrature_polar_grid(p, 0.0, order=128)
        out = apply_to_mode(Operator("laplacian_t"), p, g)
        r, _ = g.mesh()
        want = (4.0 * r**2 / W0**4 - 4.0 / W0**2) * sample(p, g).values
        scale = np.max(np.abs(want))
        assert np.max(np.abs(out.values - want)) < 1e-12 * scale


class TestHyperbolicMomentum:
    def test_inverse_r_is_annihilated(self):
        g = _plain_grid()
        r, _ = g.mesh()
        out = apply_to_field(Operator("PH"), FieldGrid(g, (1.0 / r).astype(complex)))
        mask = _interior(g)
        assert np.max(np.abs(out.values[mask])) < 1e-6

    def test_euler_operator_on_monomials(self):
        g = _plain_grid()
        r, _ = g.mesh()
        for m in (0, 1, 3):
            out = apply_to_field(Operator("PH"), FieldGrid(g, (r**m).astype(complex)))
            want = -1j * (m + 1) * r**m
            assert np.max(np.abs(out.values - want)) < 1e-6 * np.max(np.abs(want))

    def test_analytic_path_on_lg_mode_vs_sympy(self):
        import sympy as sp
        rs, ps = sp.symbols("r phi", positive=True)
        n, l = 1, 0
        w0s, ks = sp.Float(W0), sp.Float(K)
        norm_c = sp.sqrt(2 * sp.factorial(n) / (sp.pi * sp.factorial(n + abs(l))))
        u = 2 * rs**2 / w0s**2
        lg = norm_c / w0s * sp.assoc_laguerre(n, abs(l), u) * sp.exp(-rs**2 / w0s**2)
        ph = -sp.I * (rs * sp.diff(lg, rs) + lg)
        oracle = sp.lambdify((rs, ps), ph, "numpy")
        p = LGParams(n, l, K, W0)
        g = quadrature_polar_grid(p, 0.0, order=64)
        out = apply_to_mode(Operator("PH"), p, g)
        r, phi = g.mesh()
        want = oracle(r, phi) * np.ones_like(phi)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(out.values - want)) < 1e-10 * scale


class TestRadialIndexOperators:
    def test_n0_eigenrelation_analytic_and_fd(self):
        p = LGParams(2, 1, K, W0)
        g = quadrature_polar_grid(p, 0.0, n_max=4, l_max=3, order=192)
        assert eigen_residual(p, Operator("N0", params=p), g) < 1e-8
        gu = uniform_polar_grid(p, 0.0, n_max=4, l_max=3, nr=768, nphi=16)
        assert eigen_residual(p, Operator("N0", params=p), gu, method="fd") < 1e-4

    def test_ground_mode_is_annihilated(self):
        p = LGParams(0, 0, K, W0)
        g = quadrature_polar_grid(p, 0.0, order=128)
        out = apply_to_mode(Operator("N0", params=p), p, g)
        assert norm(out) / norm(sample(p, g)) < 1e-10

    def test_negative_l_verbatim_vs_symmetrized(self):
        p = LGParams(1, -2, K, W0)
        g = quadrature_polar_grid(p, 0.0, n_max=3, l_max=2, order=160)
        verbatim = apply_to_mode(Operator("N0", params=p, sign_policy="verbatim"), p, g)
        f = sample(p, g)
        # printed operator returns n + |l| = 3 on exp(-2 i phi) modes
        resid3 = norm(FieldGrid(g, verbatim.values - 3.0 * f.values)) / norm(f)
        assert resid3 < 1e-8
        assert eigen_residual(p, Operator("N0", params=p, sign_policy="symmetrized"), g) < 1e-8

    def test_negative_l_verbatim_vs_sympy(self):
        import sympy as sp
        rs, ps = sp.symbols("r phi", positive=True)
        n, l = 1, -2
        w0s = sp.symbols("w_0", positive=True)
        al = abs(l)
        norm_c = sp.sqrt(2 * sp.factorial(n) / (sp.pi * sp.factorial(n + al)))
        u = 2 * rs**2 / w0s**2
        lg = (norm_c / w0s * (sp.sqrt(2) * rs / w0s) ** al * sp.assoc_laguerre(n, al, u)
              * sp.exp(-rs**2 / w0s**2 + sp.I * l * ps))
        lap = sp.diff(rs * sp.diff(lg, rs), rs) / rs + sp.diff(lg, ps, 2) / rs**2
        lz = -sp.I * sp.diff(lg, ps)
        n0 = -w0s**2 / 8 * lap - lz / 2 + (rs**2 / w0s**2 - 1) / 2 * lg
        ratio = sp.simplify(n0 / lg)
        assert ratio == n + al  # printed operator: n + |l| for l < 0

    def test_nz_eigenrelation_at_half_rayleigh(self):
        p = LGParams(1, 0, K, W0)
        z = 0.5 * ZR
        g = quadrature_polar_grid(p, z, n_max=3, l_max=2, order=192)
        assert eigen_residual(p, Operator("Nz", params=p, z=z), g) < 1e-7

    def test_nz_at_two_rayleigh_fd(self):
        p = LGParams(3, 2, K, W0)
        z = 2.0 * ZR
        gu = uniform_polar_grid(p, z, n_max=5, l_max=4, nr=1152, nphi=16)
        assert eigen_residual(p, Operator("Nz", params=p, z=z), gu, method="fd") < 1e-6

    def test_nz_at_zero_matches_n0_bit_for_bit(self):
        p = LGParams(2, 1, K, W0)
        g = quadrature_polar_grid(p, 0.0, order=96)
        a = apply_to_mode(Operator("N0", params=p), p, g)
        b = apply_to_mode(Operator("Nz", params=p, z=0.0), p, g)
        assert np.array_equal(a.values, b.values)
        gu = uniform_polar_grid(p, 0.0, nr=256, nphi=16)
        f = sample(p, gu)
        a = apply_to_field(Operator("N0", params=p), f)
        b = apply_to_field(Operator("Nz", params=p, z=0.0), f)
        assert np.array_equal(a.values, b.values)

    def test_nz_requires_matching_plane(self):
        p = LGParams(1, 0, K, W0)
        gu = uniform_polar_grid(p, 0.0, nr=128, nphi=16)
        f = sample(p, gu)
        with pytest.raises(GridError):
            apply_to_field(Operator("Nz", params=p, z=0.3), f)

    def test_n0_requires_focal_plane(self):
        p = LGParams(1, 0, K, W0)
        g = quadrature_polar_grid(p, 0.5, order=64)
        with pytest.raises(GridError):
            apply_to_mode(Operator("N0", params=p), p, g)

    def test_operator_validation(self):
        p = LGParams(0, 0, K, W0)
        with pytest.raises(DiagnosticError):
            Operator("Nz", params=p)          # missing z
        with pytest.raises(DiagnosticError):
            Operator("N0")                    # missing params
        with pytest.raises(DiagnosticError):
            Operator("N0", params=p, sign_policy="other")
        with pytest.raises(DiagnosticError):
            Operator("unknown")


class TestEigenResidual:
    def test_ground_mode(self):
        p = LGParams(0, 0, K, W0)
        g = quadrature_polar_grid(p, 0.0, order=128)
        assert eigen_residual(p, Operator("N0", params=p), g) < 1e-10

    def test_high_mode_off_focus(self):
        p = LGParams(4, 3, K, W0)
        g = quadrature_polar_grid(p, ZR, n_max=5, l_max=4, order=256)
        assert eigen_residual(p, Operator("Nz", params=p, z=ZR), g) < 1e-6

    def test_oam_eigenvalue(self):
        p = LGParams(2, 1, K, W0)
        g = quadrature_polar_grid(p, 0.0, order=128)
        assert expected_eigenvalue(Operator("Lz"), p) == 1.0
        assert eigen_residual(p, Operator("Lz"), g) < 1e-10


class TestDilation:
    @pytest.mark.parametrize("gamma", [0.3, -0.3, 1.0, -1.0])
    def test_unitarity(self, gamma):
        dc = dilation_check(lambda r: np.exp(-r**2), gamma)
        assert abs(dc.unitarity_ratio - 1.0) < 1e-10

    def test_generator_matches_hyperbolic_momentum(self):
        dc = dilation_check(lambda r: np.exp(-r**2), 0.5)
        assert dc.generator_defect < 1e-6

    def test_generator_on_ring_profile(self):
        dc = dilation_check(lambda r: r**2 * np.exp(-r**2), 0.0)
        assert dc.generator_defect < 1e-6

    @pytest.mark.parametrize("f, gamma, message", [
        (lambda r: np.full_like(r, np.nan), 0.3, "finite norms"),
        (lambda r: np.where(r < 40.0, np.exp(-r**2), np.nan), 0.5, "finite norms"),
        (np.zeros_like, 0.3, "nonzero reference norm"),
        (lambda r: np.exp(-r**2), math.nan, "finite gamma"),
        (lambda r: np.exp(-r**2), -math.inf, "finite gamma"),
        (lambda r: np.exp(-r**2), 800.0, "finite gamma"),  # e^800 overflows a float
        (lambda r: np.exp(-r**2), 290.0, "finite gamma"),  # e^(s + gamma) would pass e^350
        (lambda r: 1.0 / (1.0 + r), 0.3, "negligible at both ends"),  # once ratio 1.055
        (lambda r: np.exp(-(r / 1e30) ** 2), 0.3, "negligible at both ends"),
        (lambda r: np.exp(-r**2), 62.0, "negligible at both ends"),
        # |f r| at the lower end is 2.4e-9 and 6.3e-9 of its peak: once QuadratureConvergenceError
        (lambda r: np.exp(-(r / 7.7e-18) ** 2), 0.3, "negligible at both ends"),
        (lambda r: np.exp(-(r / 3e-18) ** 2), 0.3, "negligible at both ends"),
        (lambda r: np.exp(-r**2), 65.0, "nonzero reference norm"),  # D_gamma f is all 0
        (lambda r: 1.0, 0.3, "negligible at both ends"),  # once numpy's bare ValueError
        (lambda r: np.ones(3), 0.3, r"f returned shape \(3,\), not \(2449,\)"),
    ], ids=["nan", "nan-beyond-dilated-edge", "zero", "gamma-nan", "gamma-minus-inf",
            "gamma-800", "gamma-290", "not-square-integrable", "wider-than-the-grid",
            "dilated-across-the-end", "remnant-2.4e-9", "remnant-6.3e-9", "dilated-off-the-grid",
            "constant", "wrong-shape"])
    def test_no_silent_nan(self, f, gamma, message):
        # an all-NaN f once returned unitarity_ratio=nan and generator_defect=0.0; the last
        # two once raised numpy's bare ValueError; every other case once returned a number
        with pytest.raises(DiagnosticError, match=message):
            dilation_check(f, gamma)

    @pytest.mark.parametrize("n, l", [(0, 0), (2, 1), (5, 3)])
    def test_lg_modes_at_the_default_waist(self, n, l):
        # at gamma = 0.3 the fixed Legendre rule on (0, 32) once gave ratios 1.21, 2.15 and
        # 0.91, and generator defects 1.02, 3.3 and 7.1, for these modes
        f = lambda r: lg_field(LGParams(n, l, K, W0), r, 0.0, 0.0)
        for gamma in (0.3, -1.0, 8.0):
            dc = dilation_check(f, gamma)
            assert abs(dc.unitarity_ratio - 1.0) <= 1e-10, dc
            assert dc.generator_defect <= 1e-6, dc

    @pytest.mark.parametrize("w", [1.5e-17, 3e-17])
    def test_small_end_remnant_converges(self, w):
        # |f r| at the lower end is 1.4e-9 and 6.9e-10 of its peak: the FFT derivative of F
        # with its end-to-end line taken out sees no wrap, where it once did not converge
        dc = dilation_check(lambda r: np.exp(-(r / w) ** 2), 0.3)
        assert abs(dc.unitarity_ratio - 1.0) <= 1e-10 and dc.generator_defect <= 1e-6, dc

    def test_four_calls_of_f_per_level(self):
        # the first level reads every other point of the second's samples; a third samples its own
        sizes = []
        f = lambda r: sizes.append(r.size) or np.exp(-r**2)
        dilation_check(f, 0.3)  # converged at the second level
        assert sizes == [2449] * 4
        sizes.clear()
        f = lambda r: sizes.append(r.size) or lg_field(LGParams(30, 10, K, W0), r, 0.0, 0.0)
        with pytest.raises(QuadratureConvergenceError):  # the third level is reached, and fails
            dilation_check(f, 0.3)
        assert sizes == [2449] * 4 + [4897] * 4

    def test_unresolved_mode_raises(self):
        # LG (30, 10) at 1 mm needs a finer step than pi/128 in ln r
        f = lambda r: lg_field(LGParams(30, 10, K, W0), r, 0.0, 0.0)
        with pytest.raises(QuadratureConvergenceError, match="dilation_check: not converged"):
            dilation_check(f, 0.3)


class TestCommutators:
    def test_radial_operator_commutes_with_oam(self):
        p = LGParams(2, 2, K, W0)
        gu = uniform_polar_grid(p, 0.0, n_max=4, l_max=4, nr=768, nphi=16)
        f = sample(p, gu)
        assert commutator_residual(Operator("N0", params=p), Operator("Lz"), f) < 1e-6

    def test_laplacian_hyperbolic_momentum_commutator(self):
        g = _plain_grid()
        r, _ = g.mesh()
        f = FieldGrid(g, np.exp(-r**2).astype(complex))
        assert commutator_residual(Operator("laplacian_t"), Operator("PH"), f) < 1e-5

    def test_operator_with_itself(self):
        g = _plain_grid(nr=256)
        r, phi = g.mesh()
        f = FieldGrid(g, np.exp(-r**2) * np.exp(1j * phi))
        assert commutator_residual(Operator("Lz"), Operator("Lz"), f) == 0.0

    @pytest.mark.parametrize("bad", [None, math.nan, math.inf], ids=["zero", "nan", "inf"])
    def test_rejects_zero_or_non_finite_field(self, bad):
        g = _plain_grid(nr=64)
        r, _ = g.mesh()
        values = np.zeros(g.shape, dtype=complex)
        if bad is not None:
            values = np.exp(-r**2).astype(complex)
            values[10, 3] = bad
        with pytest.raises(DiagnosticError, match="nonzero, finite field"):
            commutator_residual(Operator("Lz"), Operator("PH"), FieldGrid(g, values))


class TestPathAgreementAndSymmetry:
    def test_analytic_and_fd_paths_agree(self):
        gu = uniform_polar_grid(LGParams(4, 4, K, W0), 0.0,
                                n_max=4, l_max=4, nr=768, nphi=16)
        for n in range(0, 5):
            for l in range(-4, 5):
                p = LGParams(n, l, K, W0)
                a = apply_to_mode(Operator("N0", params=p), p, gu)
                b = apply_to_field(Operator("N0", params=p), sample(p, gu))
                diff = norm(FieldGrid(gu, a.values - b.values))
                scale = max(norm(a), norm(sample(p, gu)))
                assert diff / scale < 1e-5

    def test_analytic_and_fd_paths_agree_off_focus(self):
        z = 1.5 * ZR
        gu = uniform_polar_grid(LGParams(4, 4, K, W0), z,
                                n_max=4, l_max=4, nr=896, nphi=16)
        for (n, l) in ((0, 0), (2, -3), (4, 4), (3, 1)):
            p = LGParams(n, l, K, W0)
            op = Operator("Nz", params=p, z=z)
            a = apply_to_mode(op, p, gu)
            b = apply_to_field(op, sample(p, gu))
            diff = norm(FieldGrid(gu, a.values - b.values))
            scale = max(norm(a), norm(sample(p, gu)))
            assert diff / scale < 1e-5

    def test_n0_expectation_is_radial_index(self):
        from lgradial.analysis import expectation
        for (n, l) in ((0, 0), (1, 2), (3, 1)):
            p = LGParams(n, l, K, W0)
            assert abs(expectation("N0", p, 0.0) - n) < 1e-8

    def test_n0_expectation_negative_l_both_policies(self):
        from lgradial.analysis import raw_expectation
        p = LGParams(1, -2, K, W0)
        verb = raw_expectation(Operator("N0", params=p, sign_policy="verbatim"), p, 0.0)
        sym = raw_expectation(Operator("N0", params=p, sign_policy="symmetrized"), p, 0.0)
        assert abs(verb - (1 + 2)) < 1e-8
        assert abs(sym - 1) < 1e-8

    def test_hyperbolic_momentum_is_symmetric(self):
        # <f, PH g> = <PH f, g> under r dr dphi for smooth decaying fields
        g = _plain_grid(rmax=10.0, nr=2048, nphi=16)
        r, phi = g.mesh()
        f = FieldGrid(g, (np.exp(-r**2) * (1 + 0.3 * r**2)).astype(complex) * np.exp(1j * phi))
        h = FieldGrid(g, (r * np.exp(-0.7 * r**2)).astype(complex) * np.exp(1j * phi))
        ph_f = apply_to_field(Operator("PH"), f)
        ph_h = apply_to_field(Operator("PH"), h)
        lhs = inner(f, ph_h)
        rhs = inner(ph_f, h)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    def test_ph_expectation_vanishes_at_focus(self):
        from lgradial.analysis import raw_expectation
        for (n, l) in ((0, 0), (2, 1), (3, -2)):
            p = LGParams(n, l, K, W0)
            assert abs(raw_expectation("PH", p, 0.0)) < 1e-9


class TestDiffMatrix:
    def test_exact_on_polynomials(self):
        nodes = np.sort(np.concatenate([np.linspace(0.1, 5, 40),
                                        np.array([0.33, 1.234, 4.5])]))
        f = nodes**5 - 2 * nodes**3 + nodes
        want1 = 5 * nodes**4 - 6 * nodes**2 + 1
        want2 = 20 * nodes**3 - 12 * nodes
        d1, d2 = (d.real for d in _radial_derivatives(nodes, f))
        assert np.max(np.abs(d1 - want1)) < 1e-8 * np.max(np.abs(want1))
        assert np.max(np.abs(d2 - want2)) < 1e-7 * np.max(np.abs(want2))

    @pytest.mark.parametrize("m,legendre", [(1, False), (2, False), (1, True), (2, True)],
                             ids=["1", "2", "legendre-1", "legendre-2"])
    def test_banded_weights_match_sympy(self, m, legendre):
        from sympy import Rational
        from sympy.calculus.finite_diff import finite_diff_weights
        if legendre:  # graded nodes: spacing ~100x finer at the ends than mid-rule
            nodes = make_rule("legendre", 384, interval=(0.0, 1.0)).nodes
            rows = [*range(10), *range(190, 195), *range(374, 384)]
        else:
            nodes = np.cumsum(np.random.default_rng(7).uniform(0.05, 0.3, 40))
            rows = range(len(nodes))
        c = _stencils(nodes)
        assert c.shape == (2, len(nodes), 7)
        w = c[m - 1]
        # interior rows centred on their node, three one-sided rows at each end
        lo = np.clip(np.arange(len(nodes)) - 3, 0, len(nodes) - 7)
        for i in rows:
            xs = [Rational(x) for x in nodes[lo[i]:lo[i] + 7]]
            want = np.array(finite_diff_weights(m, xs, Rational(nodes[i]))[m][-1], dtype=float)
            assert np.max(np.abs(w[i] - want)) <= 1e-10 * np.max(np.abs(want)), i

    def test_needs_seven_nodes(self):
        with pytest.raises(GridError):
            _stencils(np.linspace(0.1, 1.0, 6))


class TestScaleFree:
    """FD results do not depend on the unit of length: no node spacing underflows a stencil."""

    @pytest.mark.parametrize("scale", [1e-60, 1e-100, 1e60])
    def test_stencils_scale_as_inverse_powers(self, scale):
        # at these scales the products of six node differences once under- or overflowed
        nodes = np.cumsum(np.random.default_rng(7).uniform(0.05, 0.3, 40))
        want, got = _stencils(nodes), _stencils(nodes * scale)
        for s in (1, 2):
            err = np.max(np.abs(got[s - 1] * scale**s - want[s - 1]))
            assert err <= 1e-12 * np.max(np.abs(want[s - 1])), s

    @pytest.mark.parametrize("w0", [1e-30, 1e-60, 1e-100])
    def test_fd_eigen_residual_at_tiny_waists(self, w0):
        # the 1 mm mode in other units (k w0 fixed); 1e-60 and 1e-100 once gave 0/0
        def residual(w):
            p = LGParams(2, 1, K * W0 / w, w)
            return eigen_residual(p, Operator("N0", params=p), uniform_polar_grid(p, nr=384),
                                  method="fd")
        assert residual(w0) == pytest.approx(residual(W0), rel=1e-3)

    def test_apply_and_commutator_at_tiny_spacing(self):
        # a radial spacing of 1e-60 against 1/32: PH is scale-free, [lap, PH] + 2i lap ~ 1/s^2
        s = 3.2e-59
        fields = []
        for rmax in (8.0, 8.0 * s):
            g = _plain_grid(rmax=rmax, nr=256)
            r, phi = g.mesh()
            fields.append(FieldGrid(g, np.exp(-(r * 8.0 / rmax) ** 2 + 1j * phi)))
        unit, tiny = (apply_to_field(Operator("PH"), f).values for f in fields)
        assert np.max(np.abs(tiny - unit)) <= 1e-12 * np.max(np.abs(unit))
        unit, tiny = (commutator_residual(Operator("laplacian_t"), Operator("PH"), f)
                      for f in fields)
        assert tiny * s**2 == pytest.approx(unit, rel=1e-9)


class TestFDContraction:
    """apply_to_field against dense Vandermonde-solve stencils and a plain FFT in phi."""

    @staticmethod
    def _random_field(nr=96, nphi=24):
        rng = np.random.default_rng(13)
        r = W0 * 4.0 / nr * np.cumsum(rng.uniform(0.5, 1.5, nr))  # non-uniform nodes
        g = PolarGrid(r, np.arange(nphi) * (2 * math.pi / nphi), z=0.7 * ZR)
        return FieldGrid(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))

    @staticmethod
    def _oracle(kind, policy, field, p):
        g, f = field.grid, field.values
        r = g.r_nodes[:, None]
        if kind == "Nz":  # the fd path's C N0(w0 -> w_z) C^-1, C the curvature phase at z
            geo = beam_geometry(p, g.z)
            c = np.exp(0.5j * p.k * geo.inv_R_z * r**2)
            focal = FieldGrid(PolarGrid(g.r_nodes, g.phi_nodes), f / c)
            return c * TestFDContraction._oracle("N0", policy, focal, LGParams(p.n, p.l, p.k, geo.w_z))
        d1 = fd_matrix_vandermonde(g.r_nodes, 1) @ f
        d2 = fd_matrix_vandermonde(g.r_nodes, 2) @ f
        m = np.fft.fftfreq(f.shape[1], d=1.0 / f.shape[1])
        spectrum = np.fft.fft(f, axis=1)
        d2_phi = np.fft.ifft(-(m**2) * spectrum, axis=1)
        lz_mult = np.abs(m) if policy == "symmetrized" else np.where(m == -len(m) / 2, 0.0, m)
        lz_part = np.fft.ifft(lz_mult * spectrum, axis=1)  # Lz has no Nyquist mode
        if kind == "PH":
            return -1j * (r * d1 + f)
        lap = d2 + d1 / r + d2_phi / r**2
        if kind == "laplacian_t":
            return lap
        return (-(p.w0**2 / 8) * lap - 0.5 * lz_part + 0.5 * (r**2 / p.w0**2 - 1.0) * f)

    @pytest.mark.parametrize("kind,policy", [("N0", "symmetrized"), ("N0", "verbatim"),
                                             ("Nz", "symmetrized"), ("PH", None),
                                             ("laplacian_t", None)])
    def test_matches_vandermonde_oracle(self, kind, policy):
        field = self._random_field()
        p = LGParams(1, 2, K, W0)
        if kind == "N0":  # N0 acts on its focal plane only
            field = FieldGrid(PolarGrid(field.grid.r_nodes, field.grid.phi_nodes), field.values)
        op = Operator(kind, params=p, z=field.grid.z if kind == "Nz" else None,
                      sign_policy=policy or "symmetrized")
        got = apply_to_field(op, field).values
        want = self._oracle(kind, policy, field, p)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_real_1d_and_complex_2d_input_agree(self):
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.uniform(0.5, 1.5, 40))
        f, g = rng.normal(size=40), rng.normal(size=40)
        real = [np.stack(_radial_derivatives(x, v)) for v in (f, g)]
        both = np.asfortranarray(np.stack([f + 1j * g, g - 1j * f], 1))
        both = np.stack(_radial_derivatives(x, both))
        assert both.shape == (2, 40, 2) and real[0].shape == (2, 40)
        assert np.max(np.abs(real[0].imag)) == 0.0
        tol = 1e-14 * max(np.max(np.abs(v)) for v in real)
        assert np.max(np.abs(both[..., 0] - (real[0] + 1j * real[1]))) <= tol
        assert np.max(np.abs(both[..., 1] - (real[1] - 1j * real[0]))) <= tol
        for s in (1, 2):
            want = fd_matrix_vandermonde(x, s) @ f
            assert np.max(np.abs(real[0][s - 1] - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)],
                             ids=["nan", "inf", "imag-minus-inf"])
    def test_rejects_non_finite_field(self, bad):
        field = self._random_field()
        field.values[10, 3] = bad
        with pytest.raises(DiagnosticError, match="apply_to_field needs a finite field"):
            apply_to_field(Operator("PH"), field)

    def test_one_forward_fft_per_apply(self, monkeypatch):
        field = self._random_field()
        calls = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda *a, **k: calls.append(1) or fft(*a, **k))
        apply_to_field(Operator("Nz", params=LGParams(1, 2, K, W0), z=field.grid.z), field)
        assert len(calls) == 1


def _n0_field(nr=96, nphi=24):
    """A random complex field on non-uniform radial nodes with weights, at the focal plane."""
    field = TestFDContraction._random_field(nr, nphi)
    r = field.grid.r_nodes
    return FieldGrid(PolarGrid(r, field.grid.phi_nodes, r_weights=np.gradient(r)), field.values)


class TestSpectralCounts:
    """Each public FD call: forward FFTs, inverse FFTs and stencil builds."""

    P = LGParams(1, 2, K, W0)

    @pytest.mark.parametrize("kind", ["N0", "Nz"])
    def test_apply_to_field(self, monkeypatch, kind):
        field = TestFDContraction._random_field()
        if kind == "N0":
            field = _n0_field()
        op = Operator(kind, params=self.P, z=field.grid.z if kind == "Nz" else None)
        calls = count_calls(monkeypatch, paraxops)
        apply_to_field(op, field)
        assert calls == {"fft": 1, "ifft": 1, "_stencils": 1}

    def test_lz_alone_builds_no_weights(self, monkeypatch):
        calls = count_calls(monkeypatch, paraxops)
        apply_to_field(Operator("Lz"), _n0_field())
        commutator_residual(Operator("Lz"), Operator("Lz"), _n0_field())
        assert calls == {"fft": 2, "ifft": 1, "_stencils": 0}

    def test_eigen_residual_fd(self, monkeypatch):
        g = uniform_polar_grid(self.P, 0.0, n_max=4, l_max=3, nr=256, nphi=16)
        calls = count_calls(monkeypatch, paraxops)
        eigen_residual(self.P, Operator("N0", params=self.P), g, method="fd")
        assert calls == {"fft": 0, "ifft": 0, "_stencils": 1}  # the mode's column, no FFT

    @pytest.mark.parametrize("kinds", [("N0", "Lz"), ("laplacian_t", "PH")])
    def test_commutator_residual(self, monkeypatch, kinds):
        calls = count_calls(monkeypatch, paraxops)
        commutator_residual(*(Operator(k, params=self.P) for k in kinds), _n0_field())
        assert calls == {"fft": 1, "ifft": 0, "_stencils": 1}


class TestSpectralOracles:
    """commutator_residual on the spectrum against the direct-space composition."""

    P = LGParams(1, 2, K, W0)

    def _direct(self, kind, values, grid):
        if kind == "Lz":
            nphi = values.shape[1]
            m = np.fft.fftfreq(nphi, d=1.0 / nphi)
            lz = np.where(m == -nphi / 2, 0.0, m)  # no Nyquist mode
            return np.fft.ifft(lz * np.fft.fft(values, axis=1), axis=1)
        return TestFDContraction._oracle(kind, "symmetrized", FieldGrid(grid, values), self.P)

    @pytest.mark.parametrize("kinds,coeff", [(("N0", "Lz"), 0), (("laplacian_t", "PH"), -2j)])
    def test_matches_direct_space_composition(self, kinds, coeff):
        field = _n0_field()
        g, f = field.grid, field.values
        a, b = kinds
        ab = self._direct(a, self._direct(b, f, g), g)
        comm = (ab - self._direct(b, self._direct(a, f, g), g)
                - coeff * self._direct("laplacian_t", f, g))
        want = norm(FieldGrid(g, comm)) / norm(field)
        got = commutator_residual(*(Operator(k, params=self.P) for k in kinds), field)
        # [N0, Lz] = 0, so both sides are rounding at the scale of A B f; [lap, PH] + 2i lap
        # is the FD truncation of a rough field, an O(1) number
        scale = norm(FieldGrid(g, ab)) / norm(field) if coeff == 0 else want
        assert abs(got - want) <= 1e-10 * scale

    def test_fortran_ordered_field(self):
        field = _n0_field()
        fortran = FieldGrid(field.grid, np.asfortranarray(field.values))
        ops = [Operator("laplacian_t"), Operator("PH")]
        want = commutator_residual(*ops, field)
        assert abs(commutator_residual(*ops, fortran) - want) <= 1e-14 * want
        got, want = (apply_to_field(ops[1], f).values for f in (fortran, field))
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_n0_lz_is_exact_on_a_pure_mode(self):
        p = LGParams(2, 2, K, W0)
        f = sample(p, uniform_polar_grid(p, 0.0, n_max=4, l_max=4, nr=768, nphi=16))
        assert commutator_residual(Operator("N0", params=p), Operator("Lz"), f) < 1e-24


class TestWorkingSet:
    @pytest.mark.parametrize("kind,n,l", [("N0", 3, -2), ("Nz", 3, 2)])
    def test_fd_eigen_residual_peak(self, kind, n, l):
        # the mode's N x 1 column, its weights and one stencil build, with no sampled field
        p, z = LGParams(n, l, K, W0), 0.0 if kind == "N0" else 0.7 * ZR
        g = uniform_polar_grid(p, z, n_max=4, l_max=3, nr=1152, nphi=16)
        op = Operator(kind, params=p, z=None if kind == "N0" else z)
        eigen_residual(p, op, g, method="fd")
        tracemalloc.start()
        try:
            eigen_residual(p, op, g, method="fd")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 700 * 1024


class TestEigenColumn:
    """FD eigen_residual on the mode's column against a full sampled grid, FFT and dense stencils."""

    @pytest.mark.parametrize("policy", ["symmetrized", "verbatim"])
    @pytest.mark.parametrize("kind", ["N0", "Nz"])
    @pytest.mark.parametrize("l", [-2, 3, 8, -8, 9])  # 8 and -8 the Nyquist column, 9 aliased
    def test_matches_full_grid_oracle(self, l, kind, policy):
        p = LGParams(2, l, K, W0)
        z = 0.0 if kind == "N0" else 0.7 * ZR
        g = uniform_polar_grid(p, z, n_max=4, l_max=3, nr=192, nphi=16)
        op = Operator(kind, params=p, z=None if kind == "N0" else z, sign_policy=policy)
        f = sample(p, g)
        af = TestFDContraction._oracle(kind, policy, f, p)
        want = norm(FieldGrid(g, af - expected_eigenvalue(op, p) * f.values)) / norm(f)
        got = eigen_residual(p, op, g, method="fd")
        assert abs(got - want) <= 1e-10 * norm(FieldGrid(g, af)) / norm(f)

    @pytest.mark.parametrize("phi,message", [(np.arange(4) * (math.pi / 2), "8 phi nodes"),
                                             (np.arange(16) * (math.pi / 16), "uniform period")],
                             ids=["four-nodes", "half-period"])
    def test_rejects_phi_grid(self, phi, message):
        # too few nodes fail the FD call; a partial period fails the grid's construction
        p = LGParams(1, 2, K, W0)
        g = uniform_polar_grid(p, 0.0, n_max=4, l_max=3, nr=64, nphi=16)
        with pytest.raises(GridError, match=message):
            bad = PolarGrid(g.r_nodes, phi, r_weights=g.r_weights)
            eigen_residual(p, Operator("N0", params=p), bad, method="fd")

    @pytest.mark.parametrize("kind", ["N0", "Nz"])
    def test_rejects_plane_mismatch(self, kind):
        p = LGParams(1, 2, K, W0)
        g = uniform_polar_grid(p, 0.5 * ZR, n_max=4, l_max=3, nr=64, nphi=16)
        op = Operator(kind, params=p, z=None if kind == "N0" else ZR)
        with pytest.raises(GridError, match="operator built for z="):
            eigen_residual(p, op, g, method="fd")

    @pytest.mark.parametrize("method", ["FD", "spectral", None])
    def test_rejects_unknown_method(self, method):
        p = LGParams(1, 2, K, W0)
        g = uniform_polar_grid(p, 0.0, n_max=4, l_max=3, nr=64, nphi=16)
        with pytest.raises(DiagnosticError, match='"analytic" or "fd"'):
            eigen_residual(p, Operator("N0", params=p), g, method=method)

    @pytest.mark.parametrize("zeta", [0.5, 3.0, 30.0, -2.0])
    @pytest.mark.parametrize("n,l", [(2, 1), (4, -3)])
    def test_nz_error_is_the_focal_planes(self, n, l, zeta):
        # the grid scales with w_z and the curvature phase is taken out, so the FD residual of
        # Nz at any plane is N0's at the focus (without the phase: 1.2x at 0.5 zR, 5e10x at 30)
        p = LGParams(n, l, K, W0)
        focal = eigen_residual(p, Operator("N0", params=p), uniform_polar_grid(
            p, 0.0, n_max=4, l_max=3, nr=512, nphi=16), method="fd")
        g = uniform_polar_grid(p, zeta * ZR, n_max=4, l_max=3, nr=512, nphi=16)
        got = eigen_residual(p, Operator("Nz", params=p, z=zeta * ZR), g, method="fd")
        assert abs(got / focal - 1.0) <= 1e-5
