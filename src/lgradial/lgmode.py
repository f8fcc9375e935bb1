"""Closed-form paraxial Laguerre-Gauss fields and their analytic derivatives.

A mode is fixed by four numbers: radial index n, azimuthal index l,
wavenumber k and focal waist w0.  Fields here are pure spatial mode
functions (the carrier exp(i(kz - w t)) is stripped); time dependence only
exists in the exact-solution module.

Sign conventions, fixed once and used everywhere:
  * azimuthal phase  exp(+i l phi)
  * curvature phase  exp(+i k r^2 / (2 R_z)), stored as inverse curvature
    so the focal plane is regular
  * Gouy factor      exp(-i (2n+|l|+1) arctan(z/z_R))
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticError, GridError, _check_int, _check_order
from .specfun import QuadratureRule

__all__ = [
    "LGParams",
    "BeamGeometry",
    "PolarGrid",
    "FieldGrid",
    "beam_geometry",
    "lg_field",
    "sample",
    "norm",
    "inner",
    "lg_partials",
    "quadrature_polar_grid",
    "uniform_polar_grid",
]


@dataclass(frozen=True)
class LGParams:
    """The four numbers defining a paraxial Laguerre-Gauss mode."""

    n: int       # radial index, >= 0
    l: int       # azimuthal index (orbital angular momentum), any integer
    k: float     # wavenumber, rad/m
    w0: float    # waist at z = 0, m

    def __post_init__(self):
        _check_int(self.n, "n", 0)
        _check_int(self.l, "l")
        if not (0 < self.k < math.inf and 0 < self.w0 < math.inf):
            raise DiagnosticError(f"k and w0 must be finite and > 0, got {self.k}, {self.w0}")

    @property
    def rayleigh_range(self):
        return self.k * self.w0**2 / 2

    @property
    def paraxiality(self):
        """k*w0; the small-angle assumption is strained when this is small."""
        return self.k * self.w0

    @property
    def paraxial_strained(self):
        return self.paraxiality < 20.0


@dataclass(frozen=True)
class BeamGeometry:
    """Derived beam geometry at a plane z."""

    w_z: float       # waist at z, m
    inv_R_z: float   # inverse radius of curvature, 1/m (0 at focus)
    phi_g: float     # Gouy phase, rad
    z: float         # m


# x^2 is a finite, normal float exactly when _SQ_MIN <= |x| < _SQ_MAX
_SQ_MIN, _SQ_MAX = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)


def _check_square(name, value):
    """value, when its square is a finite, normal float; else DiagnosticError naming it."""
    if not _SQ_MIN <= abs(value) < _SQ_MAX:
        raise DiagnosticError(f"{name} must lie in [{_SQ_MIN:.4g}, {_SQ_MAX:.4g}), got {value}")
    return value


def beam_geometry(params: LGParams, z: float) -> BeamGeometry:
    """Waist, inverse curvature and Gouy phase at propagation distance z.

    Callers square w0, zR, w_z, z and z/zR, so the squares of w0, zR and w_z must be
    finite, normal floats and those of z and z/zR finite: anything else raises
    DiagnosticError before it is squared.
    """
    _check_square("w0", params.w0)
    zr = _check_square("zR", params.rayleigh_range)
    if not (abs(z) < _SQ_MAX and abs(z / zr) < _SQ_MAX):
        raise DiagnosticError(f"plane z must be finite, with |z| and |z|/zR below "
                              f"{_SQ_MAX:.4g}, got z = {z} for zR = {zr}")
    w_z = _check_square("w_z", params.w0 * math.sqrt(1.0 + (z / zr) ** 2))
    inv_r = z / (z * z + zr * zr)
    phi_g = math.atan2(z, zr)
    return BeamGeometry(w_z=w_z, inv_R_z=inv_r, phi_g=phi_g, z=z)


@dataclass(frozen=True)
class PolarGrid:
    """Polar sampling of a transverse plane at fixed z.

    r_nodes must be finite, positive and strictly increasing; phi_nodes one uniform
    period phi0 + 2 pi j / nphi, j < nphi, to 1e-12 (1 + |phi0|), as the full-turn
    integrals of norms, inner products and phi derivatives need (GridError otherwise).
    r_weights, when present, are finite quadrature weights for integrals in dr (the r of
    the area measure r dr dphi is applied by the norm/inner routines, not folded in).
    """

    r_nodes: np.ndarray
    phi_nodes: np.ndarray
    z: float = 0.0
    r_weights: np.ndarray | None = None

    def __post_init__(self):
        r, p = (np.asarray(v, dtype=float) for v in (self.r_nodes, self.phi_nodes))
        w = None if self.r_weights is None else np.asarray(self.r_weights, dtype=float)
        for name, v in (("r_nodes", r), ("phi_nodes", p), ("r_weights", w)):
            object.__setattr__(self, name, v)
            if v is not None:
                v.setflags(write=False)
        if r.ndim != 1 or p.ndim != 1 or not (r.size and p.size):
            raise GridError("grid node arrays must be 1-D and nonempty")
        if not (np.isfinite(r).all() and (r > 0).all() and (np.diff(r) > 0).all()):
            raise GridError("r_nodes must be finite, positive and strictly increasing")
        period = p[0] + np.arange(len(p)) * (2.0 * math.pi / len(p))
        if not np.max(np.abs(p - period)) <= 1e-12 * (1.0 + abs(p[0])):  # false for a NaN node
            raise GridError("phi_nodes must be one uniform period phi0 + 2 pi j / nphi")
        if w is not None and (w.shape != r.shape or not np.isfinite(w).all()):
            raise GridError("r_weights must be finite, one per r_node")

    @property
    def shape(self):
        return (len(self.r_nodes), len(self.phi_nodes))

    @property
    def dphi(self):
        return 2.0 * math.pi / len(self.phi_nodes)

    def mesh(self):
        return np.meshgrid(self.r_nodes, self.phi_nodes, indexing="ij")


@dataclass(frozen=True)
class FieldGrid:
    """Complex scalar field sampled on a PolarGrid, indexed [r, phi]."""

    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.shape:
            raise GridError(f"values shape {v.shape} does not match grid {self.grid.shape}")


_RESCALE = 2.0**600  # no recurrence step carries a mantissa below this past 1e308
_LOG_TINY = math.log(np.finfo(float).tiny)  # below this, exp gives a subnormal or 0
_GAUSS_U_MAX_ORDER = 1024  # a dense m x m eigenproblem; twice the largest order any caller passes


def _top(v):
    """max of v (0 when empty); a 0-d v is its own max, which spares a ~2 us numpy reduction."""
    return v.max(initial=0.0) if v.ndim else v


def _scale_rows(rows, log_scale):
    """rows *= exp(log_scale), in two halves where exp alone would underflow or overflow."""
    split = abs(log_scale.real) > -_LOG_TINY
    halves = _top(split)
    scale = np.exp(np.where(split, 0.5 * log_scale, log_scale) if halves else log_scale)
    rows *= scale
    if halves:
        rows *= np.where(split, scale, 1.0)


def _lg_rows(n_max, a, u, log_scale):
    """Rows exp(log_scale) phi_n(u), n = 0..n_max, over a numpy u (real, or complex with Re u >= 0).

    phi_n(u) = sqrt(n!/(n+a)!) u^(a/2) e^(-u/2) L_n^a(u), by the recurrence phi_(n+1) =
    ((2n+1+a-u) phi_n - sqrt(n(n+a)) phi_(n-1)) / sqrt((n+1)(n+1+a)) on a mantissa.  phi_0 and
    log_scale make a per-node log scale that takes over exact powers of two whenever a mantissa
    passes _RESCALE in modulus, applied in one exp: only the values themselves over- or
    underflow.  At u = 0, a > 0 it is -inf (value 0); callers silence numpy's divide warning.
    """
    log_u = np.log(u) if a else 0.0
    log_scale = log_scale - 0.5 * math.lgamma(a + 1) - 0.5 * u + 0.5 * a * log_u.real
    if a and u.dtype.kind == "c":  # Im apart: in a complex product, -inf * 0 at u = 0 is NaN
        log_scale = log_scale + 0.5j * a * log_u.imag
    table = np.empty((n_max + 1,) + u.shape, u.dtype)
    table[0] = 1.0
    p_prev, p = 0.0, table[0]
    u_abs = _top(abs(u))  # |c - u| <= hypot(c, |u|) for Re u >= 0
    done, bound = 0, 1.0  # rows done.. hold mantissas, all below bound
    for n in range(n_max):
        c, b, s = 2 * n + 1 + a, math.sqrt(n * (n + a)), math.sqrt((n + 1) * (n + 1 + a))
        table[n + 1] = row = ((c - u) * p - b * p_prev) / s
        p_prev, p = p, row
        bound *= max(1.0, (math.hypot(c, u_abs) + b) / s)
        if bound > _RESCALE:  # only then look at the mantissas themselves
            bound = max(_top(abs(p)), _top(abs(p_prev)))
        if bound > _RESCALE:
            _, e = np.frexp(np.maximum(abs(p), abs(p_prev)))
            p, p_prev = p * np.ldexp(1.0, -e), p_prev * np.ldexp(1.0, -e)
            _scale_rows(table[done:n + 2], log_scale)
            log_scale = log_scale + e * math.log(2.0)
            done, bound = n + 2, 1.0
    _scale_rows(table[done:], log_scale)
    return table


def _radial_profiles(n_max, l, k, w0, z, r):
    """(table, curvature, gouy) of the modes n = 0..n_max of fixed l at plane z, in one pass:
    mode n along phi = 0 is table[n] * curvature * gouy[n], and the real table[n] is
    sqrt(2/pi)/w_z times phi_n(u) of `_lg_rows`, a = |l|, u = 2 r^2/w_z^2."""
    geo = beam_geometry(LGParams(0, l, k, w0), z)
    a, r = abs(l), np.asarray(r, dtype=float)
    u = 2.0 * r**2 / geo.w_z**2
    with np.errstate(divide="ignore"):  # u = 0, a > 0: log 0 = -inf, value 0
        table = _lg_rows(n_max, a, u, 0.5 * math.log(2.0 / math.pi) - math.log(geo.w_z))
    curvature = np.exp(0.5j * k * geo.inv_R_z * r**2)
    gouy = np.exp(-1j * (2 * np.arange(n_max + 1) + a + 1) * geo.phi_g)
    return table, curvature, gouy


@functools.lru_cache(maxsize=64)
def _gauss_u(m, a):
    """The m-node Gauss rule in u on (0, inf) for the weight u^a e^(-u), as the rule (u, lam).

    sum_j lam_j F(u_j) = int F du exactly when F is u^a e^(-u) times a polynomial of
    degree <= 2m-1 (Golub & Welsch): the nodes are the eigenvalues of the Jacobi
    matrix (diagonal 2j+a+1, off-diagonal sqrt(j(j+a))), and lam_j = 1/sum_(k<m)
    phi_k(u_j)^2 are the Christoffel weights with the weight function folded in, read
    off the overflow-safe `_lg_rows` table at the nodes.
    The arrays are read-only (every caller shares them); m > _GAUSS_U_MAX_ORDER raises.
    """
    if m > _GAUSS_U_MAX_ORDER:
        raise DiagnosticError(f"Gauss rule order {m} exceeds the cap of {_GAUSS_U_MAX_ORDER}")
    jacobi = np.zeros((m, m))
    j = np.arange(m, dtype=float)
    jacobi.flat[::m + 1] = 2 * j + a + 1
    jacobi.flat[m::m + 1] = np.sqrt(j[1:] * (j[1:] + a))  # the lower triangle is read
    u = np.linalg.eigvalsh(jacobi)
    lam = 1.0 / np.sum(_lg_rows(m - 1, a, u, 0.0) ** 2, axis=0)
    u.setflags(write=False)
    lam.setflags(write=False)
    return QuadratureRule(u, lam)


def lg_field(params: LGParams, r, phi, z):
    """Complex LG amplitude at (r, phi, z); r and phi broadcast as arrays.

    Includes the normalization prefactor, so the mode has unit L2 norm under
    the transverse measure r dr dphi at every z.
    """
    # 0-d inputs go 1-d: a point value takes `sample`'s array arithmetic, bit for bit
    r, phi = np.asarray(r, dtype=float), np.asarray(phi, dtype=float)
    table, curvature, gouy = _radial_profiles(params.n, params.l, params.k, params.w0, z,
                                              np.atleast_1d(r))
    out = table[-1] * curvature * gouy[-1] * np.exp(1j * params.l * np.atleast_1d(phi))
    return out[0] if r.ndim == phi.ndim == 0 else out


def sample(params: LGParams, grid: PolarGrid) -> FieldGrid:
    """Sample a mode on a grid: its radial profile times exp(i l phi)."""
    values = lg_field(params, grid.r_nodes[:, None], grid.phi_nodes[None, :], grid.z)
    return FieldGrid(grid=grid, values=values)


def _require_weights(grid: PolarGrid):
    if grid.r_weights is None:
        raise GridError("grid carries no radial quadrature weights; "
                        "build it with quadrature_polar_grid or uniform_polar_grid")
    return grid.r_weights


def inner(a: FieldGrid, b: FieldGrid) -> complex:
    """<a|b> = integral of conj(a) b under r dr dphi on a's grid."""
    w = _require_weights(a.grid)
    rad = np.sum(np.conj(a.values) * b.values, axis=1) * a.grid.dphi
    return complex(np.sum(w * a.grid.r_nodes * rad))


def norm(field: FieldGrid) -> float:
    """sqrt of the field's squared L2 norm under r dr dphi."""
    w = _require_weights(field.grid)
    rad = np.sum(np.abs(field.values) ** 2, axis=1) * field.grid.dphi
    return float(np.sqrt(np.sum(w * field.grid.r_nodes * rad)))


def _mode_derivatives(params: LGParams, z, r):
    """The mode along phi = 0 and its r-derivatives (f, d_r f, d2_r f) on nodes r > 0.

    Read off the radial table p_m = table[m], a = |l|, u = 2 r^2/w_z^2.  With
    L_n^a' = -sum_{k<n} L_k^a, r d_r p_n = a p_n + e_n, e_n = -u (p_n + 2 s_n),
    s_n = sum_{k<n} sqrt(n! (k+a)! / ((n+a)! k!)) p_k; applying r d_r to the
    row identity r d_r p_n = (2n+a-u) p_n - 2 sqrt(n(n+a)) p_(n-1) once more
    gives r^2 d2_r p_n = a(a-1) p_n + (2n+2a-1-u) e_n - 2u p_n
    - 2 sqrt(n(n+a)) e_(n-1).  No term cancels as u -> 0.  The curvature
    factor C has r d_r C = t C, t = i k r^2 / R_z.
    """
    table, curvature, gouy = _radial_profiles(params.n, params.l, params.k, params.w0, z, r)
    geo = beam_geometry(params, z)
    n, a = params.n, abs(params.l)
    u = 2.0 * r**2 / geo.w_z**2
    s_prev = s = 0.0
    for m in range(1, n + 1):
        s_prev, s = s, math.sqrt(m / (m + a)) * (s + table[m - 1])
    p = table[n]
    e = -u * (p + 2.0 * s)
    rp = a * p + e
    r2pp = a * (a - 1) * p + (2 * n + 2 * a - 1 - u) * e - 2.0 * u * p
    if n:
        r2pp += 2.0 * math.sqrt(n * (n + a)) * u * (table[n - 1] + 2.0 * s_prev)
    t = 1j * params.k * geo.inv_R_z * r**2
    phase = curvature * gouy[n]
    f = p * curvature * gouy[n]  # lg_field's order of products, bit for bit
    d_r = (rp + t * p) * phase / r
    d2_r = (r2pp + t * (2.0 * rp + p) + t * t * p) * phase / r**2
    return f, d_r, d2_r


def lg_partials(params: LGParams, r, phi, z):
    """Analytic partial derivatives (d_r, d2_r, d_phi, d2_phi) of the mode.

    Valid for r > 0 only; the operator modules never touch the origin.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DiagnosticError("lg_partials requires r > 0")
    f, d_r, d2_r = (v.reshape(r.shape) for v in _mode_derivatives(params, z, np.atleast_1d(r)))
    azimuthal = np.exp(1j * params.l * np.asarray(phi, dtype=float))
    value = f * azimuthal
    return d_r * azimuthal, d2_r * azimuthal, 1j * params.l * value, -(params.l ** 2) * value


def _family_bounds(params: LGParams, n_max, l_max):
    """A grid's mode family (n_max, l_max), the mode's own (n, l) by default, with n_max >= 0."""
    return (_check_int(params.n if n_max is None else n_max, "n_max", 0),
            _check_int(params.l if l_max is None else l_max, "l_max"))


def quadrature_polar_grid(params: LGParams, z=0.0, *, n_max=None, l_max=None,
                          nphi=32, order=None):
    """Polar grid on the Gauss rule in u = 2 r^2/w_z^2, exact for modes up to (n_max, l_max).

    For modes f, g of this grid's (k, w0) at plane z up to (n_max, l_max) and
    transverse operators A, B, conj(A f) B g r dr is e^(-u) times a polynomial of
    degree <= 2 n_max + |l_max| + 2 in u, so the default order n_max + 2 + |l_max|//2
    integrates <A f, B g> exactly.  Nodes r = w_z sqrt(u/2), dr-weights w_z^2 lam/(4 r).
    """
    n_max, l_max = _family_bounds(params, n_max, l_max)
    nphi = _check_order(nphi, "nphi")
    u, lam = _gauss_u(_check_order(n_max + 2 + abs(l_max) // 2 if order is None else order), 0)
    w_z = beam_geometry(params, z).w_z
    r = w_z * np.sqrt(0.5 * u)
    phi = np.arange(nphi) * (2.0 * math.pi / nphi)
    return PolarGrid(r, phi, z=z, r_weights=w_z**2 * lam / (4.0 * r))


def uniform_polar_grid(params: LGParams, z=0.0, *, n_max=None, l_max=None, nr=768, nphi=32):
    """Uniform radial grid (origin excluded) with midpoint weights.

    Suited to finite-difference operator application; the first node sits at
    half a step so 1/r terms stay bounded.  The midpoint rule is second
    order, ample for the norm ratios the FD paths need.
    """
    n_max, l_max = _family_bounds(params, n_max, l_max)
    nr, nphi = _check_order(nr, "nr"), _check_order(nphi, "nphi")
    # 1.5x the classical turning radius, floored at 4.5 w_z so the Gaussian
    # tail beyond the edge stays below 1e-17 even for the lowest modes
    turning = math.sqrt(2.0 * (2 * n_max + abs(l_max) + 1))
    rmax = beam_geometry(params, z).w_z * max(1.5 * turning, 4.5)
    h = rmax / nr
    r = (np.arange(nr) + 0.5) * h
    w = np.full(nr, h)
    phi = np.arange(nphi) * (2.0 * math.pi / nphi)
    return PolarGrid(r, phi, z=z, r_weights=w)
