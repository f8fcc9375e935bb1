import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.special import roots_legendre

from lgradial import specfun
from lgradial.errors import DiagnosticError, QuadratureConvergenceError
from lgradial.lgmode import _gauss_u
from lgradial.specfun import (QuadratureRule, _bessel_j_and_derivative, _converge, _converged,
                              _gauss_legendre, _roots, bessel_j, laguerre, make_rule)

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
            assert np.allclose(_bessel_j_and_derivative(m, x)[1], want, rtol=0, atol=1e-14)


def _jprime(m, x):
    """J_m'(x), the second of `_bessel_j_and_derivative`'s pair."""
    return _bessel_j_and_derivative(m, x)[1]


def _envelope_error(got, m, x):
    """|got - J_m(x)| over sqrt(2/(pi x)) where x > |m|+1 (the oscillatory envelope) and
    over |J_m(x)| where x <= |m|+1; below the normal doubles only the magnitude counts."""
    with mpmath.workdps(30):
        want = mpmath.besselj(m, mpmath.mpf(x))
    if abs(want) < 1e-300:
        return 0.0 if abs(got) < 2e-300 else math.inf
    scale = math.sqrt(2.0 / (math.pi * x)) if x > abs(m) + 1 else abs(float(want))
    return float(abs(mpmath.mpf(float(got)) - want)) / scale


# where `_bessel_jn(M, x)` switches method, for a few M: the series ends at x = 5, the
# trapezoid rule at 25, and Miller's recurrence at x = M
BESSEL_BOUNDARIES = [(0, 5.0), (1, 5.0), (2, 5.0), (1, 25.0), (2, 25.0), (10, 5.0),
                     (10, 10.0), (40, 25.0), (40, 40.0), (300, 300.0)]


class TestBesselCore:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(m=st.integers(-300, 300), x=st.floats(0.0, 1e4))
    @example(m=300, x=1e4)
    @example(m=-299, x=300.5)
    @example(m=7, x=1e-300)
    def test_matches_mpmath_over_the_envelope(self, m, x):
        assert _envelope_error(bessel_j(m, x), m, x) <= 1e-13

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(m=st.integers(-300, 300), offset=st.floats(-30.0, 30.0))
    def test_matches_mpmath_near_the_turning_point(self, m, offset):
        x = max(0.0, abs(m) + offset)
        assert _envelope_error(bessel_j(m, x), m, x) <= 1e-13

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(m=st.integers(-40, 40), x=st.floats(1e-3, 200.0))
    def test_derivative_matches_mpmath(self, m, x):
        with mpmath.workdps(30):
            want = float(mpmath.besselj(m, mpmath.mpf(x), derivative=1))
        assert abs(_bessel_j_and_derivative(m, x)[1] - want) <= 1e-13 * max(abs(want), 1.0)

    @pytest.mark.parametrize("M, edge", BESSEL_BOUNDARIES)
    def test_one_ulp_either_side_of_each_method_boundary(self, M, edge):
        xs = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
        j = specfun._bessel_jn(M, xs)
        for m in range(M + 1):
            for i, x in enumerate(xs):
                assert _envelope_error(j[m, i], m, float(x)) <= 1e-13, (m, x)

    def test_every_method_in_one_array(self):
        # the elements of one call take the series, Miller's recurrence, the trapezoid
        # rule and Hankel's expansion, each on its own slice of the sorted x
        x = np.array([1e4, 0.0, 60.1, 4.9, 1e-3, 26.0, 59.9, 5.1, 200.0, 30.0])
        j = specfun._bessel_jn(60, x)
        assert j.shape == (61, 10)
        for m in (0, 1, 2, 30, 59, 60):
            for i, xi in enumerate(x):
                assert _envelope_error(j[m, i], m, float(xi)) <= 1e-13, (m, xi)

    def test_origin_is_exact(self):
        j = specfun._bessel_jn(5, 0.0)
        assert j[0] == 1.0 and not np.any(j[1:])
        assert bessel_j(-3, 0.0) == 0.0
        assert [_bessel_j_and_derivative(m, 0.0)[1] for m in (-1, 0, 1, 2)] == [-0.5, 0.0, 0.5, 0.0]

    def test_shape_and_scalar_ness_follow_x(self):
        x = np.array([[0.5, 7.0, 40.0], [3.0, 25.0, 600.0]])
        for f in (bessel_j, _jprime):
            got = f(-3, x)
            assert got.shape == (2, 3)
            for point in (40.0, 3.0, 3, np.float64(600.0)):
                value = f(-3, point)
                assert isinstance(value, np.float64)
            assert np.allclose(got, [[f(-3, v) for v in row] for row in x], rtol=0, atol=1e-15)
        assert specfun._bessel_jn(2, x).shape == (3, 2, 3)

    @pytest.mark.parametrize("m", [0, 1, -1, 4, -5, 30])
    def test_derivative_is_the_half_difference(self, m):
        x = np.array([1e-3, 2.0, 5.0, 9.0, 24.0, 31.0, 90.0, 2000.0])
        want = 0.5 * (bessel_j(m - 1, x) - bessel_j(m + 1, x))
        assert np.allclose(_bessel_j_and_derivative(m, x)[1], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("x", [-1.0, -1e-300, math.nan, math.inf, -math.inf,
                                   [1.0, math.nan], np.array([[2.0], [-3.0]])])
    def test_x_outside_the_domain_raises(self, x):
        for f in (bessel_j, _jprime):
            with pytest.raises(DiagnosticError, match="finite x >= 0"):
                f(1, x)

    @pytest.mark.parametrize("m", [1.5, 2.0, True, "2", None])
    def test_order_must_be_an_integer(self, m):
        for f in (bessel_j, _jprime):
            with pytest.raises(DiagnosticError, match="Bessel order must be an integer"):
                f(m, 1.0)

    def test_numpy_integer_orders_accepted(self):
        assert bessel_j(np.int64(-2), 3.0) == bessel_j(-2, 3.0)


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


class TestConverge:
    def test_returns_the_finer_result_of_the_first_agreeing_pair(self):
        values = {10: 1.0, 20: 2.0, 40: 2.0 + 1e-12, 80: 5.0}
        calls = []

        def evaluate(order):
            calls.append(order)
            return values[order], 1.0, ("result", order)
        assert _converge("demo", evaluate, [10, 20, 40, 80], 1e-9, 0.0) == ("result", 40)
        assert calls == [10, 20, 40]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_values_never_converge(self, bad):
        with pytest.raises(QuadratureConvergenceError,
                           match=r"^demo stage: not converged at orders \[8, 16, 32\]"):
            _converge("demo stage", lambda order: (bad, 1.0, order), [8, 16, 32], 1.0, 1.0)

    def test_message_names_the_last_change(self):
        with pytest.raises(QuadratureConvergenceError, match=r"last change 0\.25$"):
            _converge("demo", lambda order: (1.0 / order, 1.0, order), [1, 2, 4], 0.0, 1e-3)

    def test_atol_is_scaled_by_the_finer_evaluation(self):
        # the values move by 1e-3; atol 2e-6 passes only at the finer scale 1e3
        def evaluate_with(scales):
            return lambda order: (1e-3 * order, scales[order], order)
        assert _converge("demo", evaluate_with({1: 1.0, 2: 1e3}), [1, 2], 0.0, 2e-6) == 2
        with pytest.raises(QuadratureConvergenceError):
            _converge("demo", evaluate_with({1: 1e3, 2: 1.0}), [1, 2], 0.0, 2e-6)


def test_convergence_gates_live_in_specfun_only():
    # every order-doubled quadrature goes through specfun._converge, so no
    # other module judges a pair or raises the accuracy error itself
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    hits = set()
    for path in sorted(Path(specfun.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and name(node) == "_converged":
                hits.add((path.name, "_converged"))
            if isinstance(node, ast.Raise) and node.exc is not None \
                    and name(node.exc) == "QuadratureConvergenceError":
                hits.add((path.name, "raise"))
    assert hits == {("specfun.py", "_converged"), ("specfun.py", "raise")}


class TestQuadrature:
    def test_midpoint_rule(self):
        rule = make_rule("legendre", 1, interval=(-1.0, 1.0))
        assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert rule.weights[0] == pytest.approx(2.0, abs=1e-14)

    def test_legendre_monomial(self):
        rule = make_rule("legendre", 16, interval=(0.0, 1.0))
        assert rule.weights @ rule.nodes**5 == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_legendre_polynomial_exactness(self):
        n = 12
        rule = make_rule("legendre", n, interval=(-0.5, 2.0))
        for deg in (0, 7, 2 * n - 1):
            got = rule.weights @ rule.nodes**deg
            want = (2.0 ** (deg + 1) - (-0.5) ** (deg + 1)) / (deg + 1)
            assert abs(got - want) < 1e-13 * max(1.0, abs(want))

    # the Gauss rule in u = 2 r^2/w_z^2 for the weight u^a e^(-u) (lgmode._gauss_u):
    # its weights lam carry the weight function, so sums take e^(-u) u^a explicitly
    def test_laguerre_moments(self):
        for a in (0, 3):
            u, lam = _gauss_u(20, a)
            for k in range(40):  # up to 2m - 1
                want = math.gamma(k + a + 1)
                assert abs(np.sum(lam * np.exp(-u) * u ** (k + a)) - want) < 1e-12 * want, (a, k)

    def test_invariants(self):
        rule = make_rule("legendre", 31, interval=(0.0, 4.0))
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        for a in (0, 3):
            u, lam = _gauss_u(31, a)
            assert np.all(np.diff(u) > 0) and u[0] > 0
            assert np.all(lam > 0)

    def test_doubling_convergence(self):
        f = lambda x: np.exp(-x) * np.cos(3 * x)
        a, b = (rule.weights @ f(rule.nodes)
                for rule in (make_rule("legendre", m, interval=(0.0, 6.0)) for m in (48, 96)))
        assert abs(a - b) < 1e-12
        g = lambda x: x**3 / (1 + 0.1 * x)
        a, b = (np.sum(lam * np.exp(-u) * g(u)) for u, lam in (_gauss_u(48, 0), _gauss_u(96, 0)))
        assert abs(a - b) < 1e-12 * max(1.0, abs(b))

    def test_roots_are_cached_read_only(self):
        for rule, args in ((_roots, (37,)), (_gauss_u, (37, 2))):
            x, w = rule(*args)
            assert rule(*args)[0] is x
            assert not (x.flags.writeable or w.flags.writeable)
            assert rule.cache_info().maxsize == 64

    def test_bad_arguments(self):
        with pytest.raises(DiagnosticError):
            make_rule("legendre", 0, interval=(0, 1))
        with pytest.raises(DiagnosticError):
            make_rule("legendre", 4, interval=(1, 1))
        for interval in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (-1e308, 1e308)):
            with pytest.raises(DiagnosticError, match="interval must be finite"):
                make_rule("legendre", 4, interval=interval)
        with pytest.raises(DiagnosticError):
            make_rule("chebyshev", 4, interval=(0, 1))

    @pytest.mark.parametrize("order", [2.5, math.nan, True, 4.0, "4"])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(DiagnosticError):
            make_rule("legendre", order, interval=(0, 1))

    def test_numpy_integer_order_accepted(self):
        rule = make_rule("legendre", np.int64(5), interval=(0, 1))
        assert len(rule.nodes) == 5

    def test_rule_is_a_read_only_pair(self):
        rule = make_rule("legendre", 8, interval=(0.0, 2.0))
        nodes, weights = rule
        assert type(rule) is QuadratureRule and rule._fields == ("nodes", "weights")
        assert nodes is rule.nodes and weights is rule.weights
        for v in rule:
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 0.0
        with pytest.raises(AttributeError):
            rule.nodes = np.zeros(8)
        assert type(_gauss_u(8, 0)) is QuadratureRule

    def test_interval_too_narrow_for_distinct_nodes(self):
        # finite and nonempty, but 4 nodes in 4 units at 1e16 round onto each other
        with pytest.raises(DiagnosticError, match="too narrow"):
            make_rule("legendre", 4, interval=(1e16, 1e16 + 4))


def _mp_legendre(n, x):
    """P_n(x) and P_{n-1}(x) by the three-term recurrence, in mpmath arithmetic."""
    p_prev, p = mpmath.mpf(1), x
    for k in range(1, n):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p, p_prev


def _mp_node_and_weight(n, x0):
    """The root of P_n nearest x0 and its weight 2 (1 - x^2) / (n P_{n-1})^2, at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        for _ in range(2):  # from a double, two steps reach 1e-64
            p, p_prev = _mp_legendre(n, x)
            x -= p * (x * x - 1) / (n * (x * p - p_prev))
        p_prev = _mp_legendre(n, x)[1]
        return x, 2 * (1 - x * x) / (n * p_prev) ** 2


class TestGaussLegendre:
    # one unit in the last place of a double in [0.5, 1)
    ULP = 2.0**-53

    @pytest.mark.parametrize("orders", [range(1, 201), (256, 416, 2576)],
                             ids=["1-200", "256-2576"])
    def test_nodes_match_scipy(self, orders):
        # scipy's own nodes are up to 1.5 ulp from the true roots (n = 61,
        # 118, 121, 130), so even correctly rounded nodes are 2 ulp off them
        for n in orders:
            x = _gauss_legendre(n)[0]
            assert np.max(np.abs(x - roots_legendre(n)[0])) <= 2 * self.ULP, n

    @pytest.mark.parametrize("n", [61, 130])
    def test_nodes_within_one_ulp_of_mpmath(self, n):
        x = _gauss_legendre(n)[0]
        for xi in x[n // 2:]:
            root = _mp_node_and_weight(n, xi)[0]
            assert abs(mpmath.mpf(xi) - root) <= self.ULP, (n, xi)

    @pytest.mark.parametrize("n", [192, 2576])
    def test_weights_against_mpmath(self, n):
        # scipy misses 1e-10 at the edge node: 1.2e-10 at 192, 1.2e-7 at 2576
        x, w = _gauss_legendre(n)
        for i in (n - 1, n - 1 - n // 4, n // 2):  # edge, quarter and centre
            root, weight = _mp_node_and_weight(n, x[i])
            assert abs(w[i] / float(weight) - 1) <= 1e-10, (n, i)
            assert abs(mpmath.mpf(x[i]) - root) <= self.ULP, (n, i)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 160, 191, 192, 2576])
    def test_symmetric_increasing_and_normalized(self, n):
        x, w = _gauss_legendre(n)
        assert len(x) == len(w) == n
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        assert abs(np.sum(w) - 2.0) <= 1e-14
        if n % 2:
            assert x[n // 2] == 0.0

    def test_no_convergence_is_a_diagnostic_error(self, monkeypatch):
        monkeypatch.setattr(specfun, "_NEWTON_STEPS", 1)
        with pytest.raises(DiagnosticError, match="did not converge"):
            _gauss_legendre(50)
