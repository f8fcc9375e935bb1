import math

import mpmath
import numpy as np
import pytest

from lgradial.errors import DiagnosticError
from lgradial.specfun import (_converged, _roots, bessel_j, bessel_j_derivative, laguerre,
                              make_rule)

from oracles import bessel_series, laguerre_monomial


class TestLaguerre:
    def test_degree_zero_is_one(self):
        for alpha in (0.0, 1.0, 3.5):
            for x in (0.0, 2.7, -1.0, 1.5 + 0.5j):
                assert laguerre(0, alpha, x) == 1.0

    def test_degree_one(self):
        assert laguerre(1, 0, 2.0) == pytest.approx(-1.0, abs=1e-15)

    def test_value_at_zero_is_binomial(self):
        assert laguerre(2, 1, 0.0) == pytest.approx(3.0, abs=1e-14)
        assert laguerre(4, 2, 0.0) == pytest.approx(15.0, rel=1e-14)

    def test_complex_argument_against_monomial_expansion(self):
        x = 1.5 + 0.5j
        got = laguerre(3, 2, x)
        want = laguerre_monomial(3, 2, x)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_recurrence_matches_monomial_expansion(self, rng):
        xs = rng.uniform(0.0, 30.0, 40)
        for n in range(7):
            for alpha in (0, 1, 2, 3.5):
                got = laguerre(n, alpha, xs)
                want = laguerre_monomial(n, alpha, xs)
                scale = np.maximum(np.abs(want), 1.0)
                assert np.max(np.abs(got - want) / scale) < 1e-10

    def test_negative_order_rejected(self):
        with pytest.raises(DiagnosticError):
            laguerre(-1, 0, 1.0)

    def test_vectorized_shape(self):
        out = laguerre(2, 1, np.linspace(0, 5, 7))
        assert out.shape == (7,)


class TestThreePointIdentity:
    def test_identity_over_orders_and_degrees(self, rng):
        # (x - l - 1) L' - x L'' = n L with both derivatives taken through
        # the analytic step-down rule
        xs = rng.uniform(0.0, 40.0, 50)
        for n in range(0, 9):
            for l in range(0, 6):
                L = laguerre(n, l, xs)
                d1 = -laguerre(n - 1, l + 1, xs) if n >= 1 else np.zeros_like(xs)
                d2 = laguerre(n - 2, l + 2, xs) if n >= 2 else np.zeros_like(xs)
                lhs = (xs - l - 1) * d1 - xs * d2
                rhs = n * L
                scale = np.maximum(np.abs(rhs), np.abs((xs - l - 1) * d1) + np.abs(xs * d2))
                scale = np.maximum(scale, 1.0)
                assert np.max(np.abs(lhs - rhs) / scale) < 1e-9


class TestBesselJ:
    def test_values_at_origin(self):
        assert bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-15)
        for m in (1, 2, 5, -3):
            assert bessel_j(m, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_first_zero_of_j1_from_series_bisection(self):
        lo, hi = 3.0, 4.5
        assert bessel_series(1, lo) > 0 > bessel_series(1, hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bessel_series(1, mid) > 0:
                lo = mid
            else:
                hi = mid
        zero = 0.5 * (lo + hi)
        assert zero == pytest.approx(3.8317059702, abs=1e-9)
        assert abs(bessel_j(1, zero)) < 1e-9

    def test_negative_order_reflection(self):
        x = np.linspace(0.1, 25.0, 11)
        for m in (1, 2, 3, 4):
            assert np.allclose(bessel_j(-m, x), (-1.0) ** m * bessel_j(m, x),
                               rtol=0, atol=1e-15)

    def test_against_series_small_argument(self):
        for m in (0, 1, 4):
            for x in (0.3, 2.0, 8.0):
                assert bessel_j(m, x) == pytest.approx(bessel_series(m, x), abs=1e-13)

    def test_absolute_accuracy_to_large_argument(self):
        # spot values against mpmath, x up to 1e3
        for m, x in ((0, 1.0), (1, 10.0), (3, 50.0), (2, 300.0), (5, 1000.0)):
            want = float(mpmath.besselj(m, mpmath.mpf(x)))
            assert abs(bessel_j(m, x) - want) < 1e-12

    def test_derivative_identity(self):
        x = np.linspace(0.2, 20.0, 9)
        for m in (0, 1, 3):
            want = 0.5 * (bessel_j(m - 1, x) - bessel_j(m + 1, x))
            assert np.allclose(bessel_j_derivative(m, x), want, rtol=0, atol=1e-14)


class TestConverged:
    def test_nan_and_inf_never_converge(self):
        for bad in (math.nan, math.inf, -math.inf, complex(math.nan, 0.0), complex(0.0, math.inf)):
            assert not _converged(bad, bad, 1.0, 1.0)
            assert not _converged(1.0, bad, 1.0, 1.0)
            assert not _converged(bad, 1.0, 1.0, 1.0)
        assert not _converged(np.array([1.0, np.nan]), np.array([1.0, np.nan]), 1.0, 1.0)
        assert not _converged(np.array([1.0, np.inf]), np.array([1.0, 2.0]), 1.0, 1.0)

    def test_tolerance_is_the_larger_of_rtol_and_atol(self):
        assert _converged(1.0, 1.0 + 5e-8, 1e-7, 0.0)
        assert not _converged(1.0, 1.0 + 5e-7, 1e-7, 0.0)
        assert _converged(0.0, 5e-8, 1e-7, 1e-7)
        assert _converged(1e6, 1e6 + 0.05, 1e-7, 1e-7)
        assert not _converged(np.ones(3), np.array([1.0, 1.0, 1.1]), 1e-7, 1e-7)


class TestQuadrature:
    def test_midpoint_rule(self):
        rule = make_rule("legendre", 1, interval=(-1.0, 1.0))
        assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert rule.weights[0] == pytest.approx(2.0, abs=1e-14)

    def test_legendre_monomial(self):
        rule = make_rule("legendre", 16, interval=(0.0, 1.0))
        assert rule.integrate(lambda x: x**5) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_legendre_polynomial_exactness(self):
        n = 12
        rule = make_rule("legendre", n, interval=(-0.5, 2.0))
        for deg in (0, 7, 2 * n - 1):
            got = rule.integrate(lambda x: x**deg)
            want = (2.0 ** (deg + 1) - (-0.5) ** (deg + 1)) / (deg + 1)
            assert abs(got - want) < 1e-13 * max(1.0, abs(want))

    def test_laguerre_moments(self):
        rule = make_rule("laguerre", 20, scale=1.0)
        assert rule.integrate(lambda x: x**3) == pytest.approx(6.0, rel=1e-12)
        for j in (0, 10, 25, 39):  # up to 2N - 1
            want = math.factorial(j)
            assert abs(rule.integrate(lambda x: x**j) - want) < 1e-12 * want

    def test_laguerre_scale_substitution(self):
        s = 3.7
        rule = make_rule("laguerre", 24, scale=s)
        # integral of x^2 e^{-s x} = 2 / s^3
        assert rule.integrate(lambda x: x**2) == pytest.approx(2.0 / s**3, rel=1e-13)

    def test_invariants(self):
        for rule in (make_rule("legendre", 31, interval=(0.0, 4.0)),
                     make_rule("laguerre", 31, scale=2.0)):
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)

    def test_doubling_convergence(self):
        f = lambda x: np.exp(-x) * np.cos(3 * x)
        a = make_rule("legendre", 48, interval=(0.0, 6.0)).integrate(f)
        b = make_rule("legendre", 96, interval=(0.0, 6.0)).integrate(f)
        assert abs(a - b) < 1e-12
        g = lambda x: x**3 / (1 + 0.1 * x)
        a = make_rule("laguerre", 48, scale=1.0).integrate(g)
        b = make_rule("laguerre", 96, scale=1.0).integrate(g)
        assert abs(a - b) < 1e-12 * max(1.0, abs(b))

    def test_roots_are_cached_read_only(self):
        x, w = _roots("legendre", 37)
        assert _roots("legendre", 37)[0] is x
        assert not (x.flags.writeable or w.flags.writeable)
        assert _roots.cache_info().maxsize == 64

    def test_bad_arguments(self):
        with pytest.raises(DiagnosticError):
            make_rule("legendre", 0, interval=(0, 1))
        with pytest.raises(DiagnosticError):
            make_rule("legendre", 4, interval=(1, 1))
        with pytest.raises(DiagnosticError):
            make_rule("laguerre", 4, scale=0.0)
        with pytest.raises(DiagnosticError):
            make_rule("chebyshev", 4, interval=(0, 1))
