"""Special functions and Gaussian quadrature used throughout the package.

Generalized Laguerre polynomials are evaluated by the upward three-term
recurrence, which is well conditioned for the argument ranges that occur
inside a Gaussian envelope (x of order a few times 2n+alpha+1).  The same
recurrence is reused verbatim over complex arithmetic, which is needed for
the complex-beam-parameter arguments of the exact wave solutions.

Gauss-Legendre rules are computed here with numpy: Newton's method on the
Legendre three-term recurrence, from Tricomi's initial guesses.  (The Gauss
rule in u = 2 r^2/w_z^2 for Laguerre-type integrals is `lgmode._gauss_u`,
built on the radial table.)

Bessel functions of the first kind (series / continued-fraction evaluation,
accurate to ~1e-15) are delegated to scipy; the integer reflection
J_{-m} = (-1)^m J_m is applied explicitly.  Only the exact-wave module calls
them, so scipy is imported on the first Bessel J call, not with the package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticError, QuadratureConvergenceError, _check_order

__all__ = [
    "laguerre",
    "bessel_j",
    "bessel_j_derivative",
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
    """Evaluate the generalized Laguerre polynomial L_n^alpha(x).

    Parameters
    ----------
    n : int
        Polynomial order, n >= 0.
    alpha : float
        Degree parameter, alpha >= 0.
    x : scalar or ndarray, real or complex
        Evaluation point(s).

    Returns
    -------
    Value(s) of L_n^alpha(x), matching the shape and scalar-ness of `x`.
    """
    if n < 0:
        raise DiagnosticError(f"laguerre order must be >= 0, got {n}")
    x = np.asarray(x)
    scalar = x.ndim == 0
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev[()] if scalar else p_prev
    p = 1.0 + alpha - x
    for j in range(1, n):
        p, p_prev = ((2 * j + 1 + alpha - x) * p - (j + alpha) * p_prev) / (j + 1), p
    return p[()] if scalar else p


def bessel_j(m, x):
    """Bessel function of the first kind J_m(x) for integer order m, x >= 0.

    Negative orders use the reflection J_{-m}(x) = (-1)^m J_m(x).
    """
    from scipy.special import jv

    m = int(m)
    if m < 0:
        sign = -1.0 if (-m) % 2 else 1.0
        return sign * jv(-m, x)
    return jv(m, x)


def bessel_j_derivative(m, x):
    """dJ_m/dx via the identity J_m' = (J_{m-1} - J_{m+1}) / 2."""
    from scipy.special import jvp

    m = int(m)
    if m < 0:
        sign = -1.0 if (-m) % 2 else 1.0
        return sign * jvp(-m, x)
    return jvp(m, x)


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable Gauss-Legendre rule: integrates f over the finite interval `interval`."""

    kind: str
    order: int
    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        if np.any(np.diff(self.nodes) <= 0):
            raise DiagnosticError("quadrature nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise DiagnosticError("quadrature weights must be positive")

    def integrate(self, f):
        """Integrate a callable or an array of node values."""
        values = f(self.nodes) if callable(f) else np.asarray(f)
        return np.sum(self.weights * values, axis=-1)


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


def make_rule(kind, order, *, interval=None):
    """Construct a Gauss-Legendre rule of `order` >= 1 nodes on `interval` = (a, b).

    `kind` must be "legendre", the one kind.
    """
    order = _check_order(order)
    if kind != "legendre":
        raise DiagnosticError(f"unknown quadrature kind {kind!r}")
    if interval is None:
        raise DiagnosticError("legendre rule requires an interval")
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise DiagnosticError(f"empty interval ({a}, {b})")
    x, w = _roots(order)
    nodes = 0.5 * (b - a) * x + 0.5 * (b + a)
    weights = 0.5 * (b - a) * w
    return QuadratureRule("legendre", order, nodes, weights, interval=(a, b))
