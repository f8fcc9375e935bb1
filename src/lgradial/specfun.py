"""Special functions and Gaussian quadrature used throughout the package.

Generalized Laguerre polynomials (`laguerre`) are evaluated by the upward three-term
recurrence; they serve the tests and the benchmark, and the library calls none: its
Laguerre values, real or complex, come from `lgmode._lg_rows`.

Gauss-Legendre rules (`make_rule`: Newton's method on the Legendre recurrence from
Tricomi's guesses) serve the tests and the benchmark; the library calls none.  The
library's Gauss rule in u = 2 r^2/w_z^2 is `lgmode._gauss_u`, built on the radial table.

Bessel functions of the first kind J_0..J_M come from one numpy pass,
`_bessel_jn`, which sorts x and gives each element one method:

- x <= 5: the power series, as matrix-vector products.  It is relative-accurate,
  which matters because J_m ~ x^m.
- x > max(M, 5): J_0 and J_1, then upward recurrence, which is stable for
  m < x.  J_0 and J_1 come from the 60-point periodic trapezoid rule on
  Bessel's integral up to x = 25, and from Hankel's expansion above.  The
  expansion's phase x - nu pi/2 - pi/4 is never formed in floating point: it
  is folded into the coefficients, so only cos x and sin x reduce x.
- 5 < x <= M: Miller's backward recurrence, normalized by
  J_0 + 2 sum J_2k = 1, with an exact power-of-two rescaling of each element
  at every step.

Measured against mpmath over orders |m| <= 300 and 0 <= x <= 1e4, the error
is at most 4e-14 of sqrt(2/(pi x)) where x > |m| + 1 and of |J_m(x)| where
x <= |m| + 1.  The worst case is the upward recurrence near x = m = 300.
The integer reflection J_{-m} = (-1)^m J_m is applied explicitly.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DiagnosticError, QuadratureConvergenceError, _check_int, _check_order

__all__ = [
    "laguerre",
    "bessel_j",
    "QuadratureRule",
    "make_rule",
]


def _converged(a, b, rtol, atol):
    """True when a, b are finite and |a - b| <= max(atol, rtol |b|): NaN and inf never pass."""
    a, b = np.asarray(a), np.asarray(b)
    finite = np.all(np.isfinite(a)) and np.all(np.isfinite(b))
    return bool(finite and np.all(np.abs(a - b) <= np.maximum(atol, rtol * np.abs(b))))


def _inaccurate(stage, detail):
    """Raise the package's one accuracy error: `stage` missed its accuracy contract."""
    raise QuadratureConvergenceError(f"{stage}: {detail}")


def _converge(stage, evaluate, orders, rtol, atol):
    """The one convergence gate: evaluate(order) -> (value, scale, result) for each of
    `orders` until a pair passes `_converged(coarse, fine, rtol, atol * scale)`, scale
    from the finer evaluation; returns that finer result, else raises via `_inaccurate`.
    """
    value = evaluate(orders[0])[0]
    for order in orders[1:]:
        prev, (value, scale, result) = value, evaluate(order)
        if _converged(prev, value, rtol, atol * scale):
            return result
    change = np.max(np.abs(value - prev))
    _inaccurate(stage, f"not converged at orders {list(orders)}, last change {change:.3g}")


def laguerre(n, alpha, x):
    """L_n^alpha(x), n >= 0, alpha >= 0, by the upward recurrence, shaped like x (a scalar
    for a scalar x).  It serves the tests and the benchmark: the library calls none."""
    if n < 0:
        raise DiagnosticError(f"laguerre order must be >= 0, got {n}")
    x = np.asarray(x)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev[()]
    p = 1.0 + alpha - x
    for j in range(1, n):
        p, p_prev = ((2 * j + 1 + alpha - x) * p - (j + alpha) * p_prev) / (j + 1), p
    return p[()]


# Bessel J_0..J_M (see the module docstring): x is sorted, so each method works
# on one contiguous slice.  The numpy calls are chosen for the library code they
# page in as well as for speed, since a Bessel call is often the only one that
# needs it: the tables are built in Python arithmetic (numpy's complex loops, run
# at import, would page in 0.3 MiB), the regime boundaries are counted with
# `count_nonzero` (searchsorted would page in 64 KiB), and `_matvecs` stands in
# for a matrix product (gemm would page in 0.19 MiB).
_J_SERIES_X = 5.0     # x <= 5: the power series
_J_SERIES_TERMS = 20  # the first term left out is 1.5e-21 at x = 5
_J_HANKEL_X = 25.0    # x > max(M, 25): Hankel's expansion for J_0, J_1, then upward
_J_HANKEL_TERMS = 20  # enough down to x = 20
_J_TRAPEZOID_N = 60   # max(M, 5) < x <= 25: the N-point trapezoid rule, error 2 J_N(x) < 2e-17


def _hankel_coefficients():
    """(4, terms) matrix R with J_nu(x) = ((R @ x^-k)_nu cos x - (R @ x^-k)_(nu+2) sin x)
    / sqrt(x), nu = 0, 1: rows 0, 1 are Re c_k(nu) and rows 2, 3 are Im c_k(nu).

    This is Hankel's H_nu^(1)(x) = sqrt(2/(pi x)) e^(i(x - nu pi/2 - pi/4)) sum_k
    i^k a_k(nu) x^-k with the constant phase folded into c_k, so the phase of a large
    x is never formed: cos x and sin x reduce x exactly.
    """
    rows = []
    for nu in (0, 1):
        c = (1 - 1j) * (-1j) ** nu / math.sqrt(math.pi)  # sqrt(2/pi) e^(-i(2 nu+1) pi/4)
        rows.append([c])
        for k in range(1, _J_HANKEL_TERMS):
            c *= 1j * (4 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k)
            rows[-1].append(c)
    return np.array([[c.real for c in r] for r in rows] + [[c.imag for c in r] for r in rows])


_HANKEL = _hankel_coefficients()


def _trapezoid_table():
    """Rows sin(theta_j) over the quarter period 0 <= j <= N/4 and the weights of
    J_0 = <cos(x sin theta)> and of J_1 = <sin theta sin(x sin theta)>, which fold the
    four quarters of the N-point periodic trapezoid rule onto it."""
    q = _J_TRAPEZOID_N // 4
    sin = [math.sin(0.5 * math.pi * j / q) for j in range(q + 1)]
    w = [(2.0 if j in (0, q) else 4.0) / _J_TRAPEZOID_N for j in range(q + 1)]
    return np.array([sin, w, [wj * sj for wj, sj in zip(w, sin)]])


_TRAPEZOID = _trapezoid_table()


def _series_matrix(M):
    """(M+1, terms) matrix C with J_m(x) = (x/5)^m sum_k C[m, k] (x/5)^(2k): the terms
    (-1)^k (x/2)^(m+2k) / (k! (m+k)!) of the power series with 5^(m+2k) folded into
    each coefficient, which keeps it finite wherever J_m(5) is, even where (m+k)! is not.
    """
    rows, lead = [], 1.0
    for m in range(M + 1):
        lead *= 2.5 / m if m else 1.0
        rows.append([lead])
        for k in range(1, _J_SERIES_TERMS):
            rows[-1].append(rows[-1][-1] * -6.25 / (k * (m + k)))
    return np.array(rows)


_SERIES_J01 = _series_matrix(1)  # J_0, J_1: the orders asked for most
_POWERS = np.array([[float(k)] for k in range(max(_J_SERIES_TERMS, _J_HANKEL_TERMS))])


def _matvecs(c, p):
    """c @ p for a (rows, terms) c and a (terms, n) p, as a stack of matrix-vector
    products, which numpy hands to BLAS gemv rather than gemm."""
    return (p.T @ c[:, :, None])[..., 0]


def _j_series(M, x):
    """J_0..J_M by the power series, as one `_matvecs` product."""
    y = 0.2 * x
    c = _SERIES_J01[:M + 1] if M <= 1 else _series_matrix(M)
    j = _matvecs(c, (y * y) ** _POWERS[:_J_SERIES_TERMS])
    if M:
        j[1:] *= y ** np.arange(1.0, M + 1)[:, None]
    return j


def _j01_trapezoid(x):
    """J_0, J_1 by the periodic trapezoid rule on Bessel's integral."""
    sx = _TRAPEZOID[0, :, None] * x
    return _TRAPEZOID[1] @ np.cos(sx), _TRAPEZOID[2] @ np.sin(sx)


def _j01_hankel(x):
    """J_0, J_1 by Hankel's expansion (see `_hankel_coefficients`)."""
    w = 1.0 / x
    h = _matvecs(_HANKEL, w ** _POWERS[:_J_HANKEL_TERMS])
    return (h[:2] * np.cos(x) - h[2:] * np.sin(x)) * np.sqrt(w)


def _j_miller(M, x):
    """J_0..J_M for x <= M by Miller's backward recurrence, normalized by
    J_0 + 2 sum J_2k = 1.

    It starts at J_(s+1) = 0, J_s = 1 with s = M + 9 M^(1/3) + 10, past the Airy layer
    above m = x, where J_s/Y_s is negligible, and rescales each element by a power of
    two at every step, so no element overflows and no scaling rounds.
    """
    out = np.empty((M + 1, x.size))
    exps = np.empty((M + 1, x.size), dtype=int)
    above, j, norm = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    scale = np.zeros(x.size, dtype=int)  # log2 of the factor taken out so far
    step = 2.0 / x
    for k in range(math.ceil(M + 9.0 * M ** (1.0 / 3.0) + 10.0), 0, -1):
        below = (k * step) * j - above
        e = np.frexp(np.maximum(np.abs(j), np.abs(below)))[1]
        above, j, norm = np.ldexp(j, -e), np.ldexp(below, -e), np.ldexp(norm, -e)
        scale += e
        if k % 2:
            norm += j if k == 1 else 2.0 * j
        if k <= M + 1:
            out[k - 1], exps[k - 1] = j, scale
    return np.ldexp(out, exps - scale) / norm


def _bessel_jn(M, x):
    """J_0(x), ..., J_M(x) for finite real x >= 0 of any shape, stacked on a new first
    axis; each element takes the method of its regime (see the module docstring)."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    order = flat.argsort()  # NaN sorts last
    xs = flat.take(order)
    if xs.size and not (xs[0] >= 0.0 and xs[-1] < np.inf):
        bad = xs[0] if xs[0] < 0.0 else xs[-1]
        raise DiagnosticError(f"Bessel J needs finite x >= 0, got {bad}")
    a, b, c = (np.count_nonzero(xs <= t)
               for t in (_J_SERIES_X, max(M, _J_SERIES_X), max(M, _J_HANKEL_X)))
    j = np.empty((max(M, 1) + 1, xs.size))
    if a:
        j[:M + 1, :a] = _j_series(M, xs[:a])
    if b > a:
        j[:M + 1, a:b] = _j_miller(M, xs[a:b])
    if c > b:
        j[0, b:c], j[1, b:c] = _j01_trapezoid(xs[b:c])
    if xs.size > c:
        j[:2, c:] = _j01_hankel(xs[c:])
    if xs.size > b and M > 1:
        step = 2.0 / xs[b:]
        for m in range(1, M):
            j[m + 1, b:] = (m * step) * j[m, b:] - j[m - 1, b:]
    return j[:M + 1].take(order.argsort(), axis=1).reshape((M + 1,) + x.shape)


def bessel_j(m, x):
    """Bessel function of the first kind J_m(x) for integer order m, real x >= 0.

    Negative orders use the reflection J_{-m}(x) = (-1)^m J_m(x).  Matches the
    shape and scalar-ness of `x`.
    """
    m = _check_int(m, "Bessel order")
    j = _bessel_jn(abs(m), x)[-1]
    return (-j if m < 0 and m % 2 else j)[()]


def _bessel_j_and_derivative(m, x):
    """(J_m(x), J_m'(x)) from one `_bessel_jn(|m|+1, x)`: J_m' = (J_{m-1} - J_{m+1}) / 2."""
    m = _check_int(m, "Bessel order")
    a = abs(m)
    j = _bessel_jn(a + 1, x)
    jm, jp = j[a], 0.5 * ((j[a - 1] if a else -j[1]) - j[a + 1])
    if m < 0 and a % 2:
        jm, jp = -jm, -jp
    return jm[()], jp[()]


class QuadratureRule(NamedTuple):
    """A Gauss rule as read-only arrays: sum_j weights_j f(nodes_j) approximates its integral."""

    nodes: np.ndarray
    weights: np.ndarray


# Newton steps allowed per Gauss-Legendre rule; Tricomi's guesses need 3 or 4
_NEWTON_STEPS = 12


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n, evaluated by the three-term recurrence, runs on
    the nodes in [0, 1) at once; the other half is their mirror image, so the
    rule is exactly symmetric.  The weights are 2 / ((1 - x^2) P_n'(x)^2) with
    P_n' from the last Newton step.
    """
    # Tricomi: x_k ~ (1 - (n-1)/(8 n^3)) cos(pi (4k-1)/(4n+2)), written as a
    # sine so that the centre node of an odd rule is exactly 0 from the start
    x = (1 - (n - 1) / (8 * n**3)) * np.sin(np.pi * np.arange(1 - n % 2, n, 2) / (2 * n + 1))
    for _ in range(_NEWTON_STEPS):
        p_prev, p = np.ones_like(x), x
        for k in range(1, n):
            p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
        dp = n * (x * p - p_prev) / (x * x - 1)
        dx = p / dp
        x = x - dx
        # a NaN step fails this test, so it runs into the cap below
        if np.max(np.abs(dx)) <= 4 * np.finfo(float).eps:
            break
    else:
        raise DiagnosticError(f"Gauss-Legendre nodes of order {n} did not converge "
                              f"in {_NEWTON_STEPS} Newton steps")
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    half = n // 2  # the mirrored half leaves out the centre node of an odd rule
    return np.concatenate((-x[::-1][:half], x)), np.concatenate((w[::-1][:half], w))


@functools.lru_cache(maxsize=64)
def _roots(order):
    # read-only, because every caller shares the cached arrays
    x, w = _gauss_legendre(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def make_rule(kind, order, *, interval):
    """The Gauss-Legendre rule of `order` >= 1 nodes on `interval` = (a, b), as read-only arrays.

    "legendre" is the one `kind`; it stays a positional argument so that callers written
    as make_rule("legendre", order, interval=...) keep working.  A finite, nonempty
    interval too narrow for `order` distinct nodes raises DiagnosticError.
    """
    order = _check_order(order)
    if kind != "legendre":
        raise DiagnosticError(f"unknown quadrature kind {kind!r}")
    a, b = float(interval[0]), float(interval[1])
    if not 0.0 < b - a < math.inf:  # also false for a NaN or infinite end
        raise DiagnosticError(f"interval must be finite and nonempty, got ({a}, {b})")
    x, w = _roots(order)
    nodes = 0.5 * (b - a) * x + 0.5 * (b + a)
    if np.any(np.diff(nodes) <= 0):
        raise DiagnosticError(f"interval ({a}, {b}) is too narrow for {order} distinct nodes")
    weights = 0.5 * (b - a) * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights)
