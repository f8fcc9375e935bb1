"""Differential operators on the transverse plane in polar coordinates.

Implements the orbital angular momentum operator Lz = -i d/dphi, the
transverse Laplacian, the hyperbolic momentum PH = -i (r d/dr + 1) that
generates dilations, and the radial-index operators N0 (focal plane) and Nz
(any plane), with hbar = 1 throughout.

Every operator commutes with Lz, so on each azimuthal number m it is one radial
operator A = a d2_r + b(r) d_r + c(r, m) (Trefethen, Spectral Methods in MATLAB,
SIAM 2000, ch. 11), defined once by `_coefficients`; two paths evaluate it and
return a FieldGrid.  The analytic path takes A at m = l on a closed-form mode,
with the radial derivatives read off the overflow-safe radial table on the
radial nodes only.  The fd path takes a sampled field to its phi spectrum by one
forward FFT and takes A at the FFT wavenumbers: 7-point banded stencils in r
(N x 7 closed barycentric weights, built once per public call; a c2 + b c1 is
one weight set) plus c s.  FD norms and inner products are taken on the
spectrum, where Parseval holds exactly for the uniform phi rule; only
apply_to_field transforms back.  A pure mode's spectrum is one radial column, so
the FD eigen_residual takes A on that column alone, with no sampled grid and no FFT.
N0 and Lz are both diagonal in m, so the FD [N0, Lz] of a sampled pure mode is
zero but for FFT roundoff at m != l (about 1e-28).

Sign policy for negative azimuthal index: the operators as written act on
exp(i l phi) through -Lz/2 and return eigenvalue n + (|l|-l)/2, i.e. n only
for l >= 0.  The default "symmetrized" policy replaces -Lz/2 by -|Lz|/2
(spectral |m| multiplier), restoring eigenvalue n for every l; the
"verbatim" policy keeps the printed form.  Both are first-class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DiagnosticError, GridError
from .lgmode import (FieldGrid, LGParams, PolarGrid, _mode_derivatives,
                     _require_weights, beam_geometry, lg_field)
from .specfun import make_rule

__all__ = [
    "Operator",
    "apply_to_field",
    "apply_to_mode",
    "expected_eigenvalue",
    "eigen_residual",
    "DilationCheck",
    "dilation_check",
    "commutator_residual",
]

OPERATOR_KINDS = ("Lz", "laplacian_t", "PH", "N0", "Nz", "curvature_term")
SIGN_POLICIES = ("symmetrized", "verbatim")


@dataclass(frozen=True)
class Operator:
    """Tag plus the context a transverse operator needs.

    N0, Nz and the curvature term need the beam context (k, w0) via
    `params`; Nz and the curvature term additionally need the plane z.
    """

    kind: str
    params: LGParams | None = None
    z: float | None = None
    sign_policy: str = "symmetrized"

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise DiagnosticError(f"unknown operator kind {self.kind!r}")
        _angular_number(0, self.sign_policy)  # raises for an unknown policy
        if self.kind in ("N0", "Nz", "curvature_term") and self.params is None:
            raise DiagnosticError(f"{self.kind} requires beam params for (k, w0)")
        if self.kind in ("Nz", "curvature_term") and self.z is None:
            raise DiagnosticError(f"{self.kind} requires a plane z")


def _angular_number(l, sign_policy):
    """The l that -Lz/2 sees: l under the "verbatim" sign policy, |l| under "symmetrized"."""
    if sign_policy not in SIGN_POLICIES:
        raise DiagnosticError(f"unknown sign policy {sign_policy!r}")
    return l if sign_policy == "verbatim" else abs(l)


def _radial_eigenvalue(n, l, sign_policy):
    """The eigenvalue of N0, Nz and N_k on mode (n, l): n + (|l| - l)/2 verbatim, n symmetrized."""
    return n + (abs(l) - _angular_number(l, sign_policy)) / 2


# ---------------------------------------------------------------------------
# operator definitions, shared by both paths

def _coefficients(op: Operator, z, r, m, lz):
    """(a, b, c_r, c_m) with A = a d2_r + b d_r + c_r + c_m on radial nodes r, for a field at z.

    c_m(r, m) holds the Laplacian's -m^2/r^2 and the Lz or |Lz| part; lz is Lz at m (0 at
    an FFT's Nyquist mode, where an odd derivative is undefined).  N0 (z = 0) and Nz are
    -(w_z^2/8) lap - lz/2 (|m|/2 symmetrized) + (r^2/w0^2 - 1)/2, plus off focus the
    curvature term (i z/(k w0^2)) (1 + r d_r).
    """
    if op.kind == "Lz":
        return 0.0, 0.0, 0.0, lz
    if op.kind == "PH":
        return 0.0, -1j * r, -1j, 0.0
    if op.kind == "curvature_term":
        kappa = 1j * op.z / (op.params.k * op.params.w0**2)
        return 0.0, kappa * r, kappa, 0.0
    if op.kind == "laplacian_t":
        return 1.0, 1.0 / r, 0.0, -(m**2) / r**2
    z_op = 0.0 if op.kind == "N0" else op.z
    if not math.isclose(z, z_op, rel_tol=0, abs_tol=1e-12 * (1 + abs(z_op))):
        raise GridError(f"field at z={z} but operator built for z={z_op}")
    params = op.params
    s = (beam_geometry(params, z_op).w_z if z_op != 0.0 else params.w0) ** 2 / 8.0
    b, c_r = -s / r, 0.5 * (r**2 / params.w0**2 - 1.0)
    if z_op != 0.0:
        _, b_z, c_z, _ = _coefficients(Operator("curvature_term", params, z_op), z, r, m, lz)
        b, c_r = b + b_z, c_r + c_z
    c_m = s * m**2 / r**2
    c_m -= 0.5 * (lz if op.sign_policy == "verbatim" else abs(m))
    return -s, b, c_r, c_m


# ---------------------------------------------------------------------------
# finite-difference machinery

def _stencils(nodes, m):
    """Banded 7-point finite-difference weights of derivative orders 0..m <= 2 on sorted nodes.

    Returns (idx, c): N x 7 stencil indices and (m+1) x N x 7 weights with
    f^(s)(nodes[i]) ~= sum_j c[s, i, j] f(nodes[idx[i, j]]).  Each row is centred on its
    node, and the rows near either end are one-sided.  The weights are the derivatives at
    the row's node x_p of the Lagrange interpolant through its stencil nodes x_j, in closed
    barycentric form (Berrut & Trefethen, SIAM Rev. 46, 501, 2004): with P_j = prod_(k!=j)
    (x_j - x_k), c[1, j] = (P_p/P_j)/(x_p - x_j) and c[2, j] = 2 c[1, j] (c[1, p] -
    1/(x_p - x_j)) for j != p; the own-node entries make each row sum to 0.  All rows at
    once, on any nodes, with 7 x N temporaries only.
    """
    x = np.asarray(nodes, dtype=float)
    n = len(x)
    if n < 7:
        raise GridError(f"need at least 7 radial nodes, got {n}")
    rows, lo = np.arange(n), np.clip(np.arange(n) - 3, 0, n - 7)
    p = rows - lo  # each row's own node within its stencil
    xs = x[lo + np.arange(7)[:, None]]  # [j, row], rows contiguous
    prod, d = np.ones_like(xs), np.empty_like(xs)
    for k in range(7):
        np.subtract(xs, xs[k], out=d)
        d[k] = 1.0  # the product runs over j != k
        prod *= d
    inv = np.subtract(x, xs, out=xs)
    inv[p, rows] = np.inf
    np.divide(1.0, inv, out=inv)  # 1/(x_p - x_j), 0 at j = p
    c = np.zeros((m + 1, 7, n))
    np.divide(prod[p, rows], prod, out=c[1])
    c[1] *= inv  # 0 at j = p, as inv is
    if m == 2:  # minus the row sum is c[1, p]
        np.subtract(-c[1].sum(axis=0), inv, out=c[2])
        c[2] *= 2.0 * c[1]
    c[0, p, rows] = 1.0
    c[1:, p, rows] = -c[1:].sum(axis=1)  # each derivative row sums to 0
    return lo[:, None] + np.arange(7), c.transpose(0, 2, 1)


def _wavenumbers(nphi):
    """The FFT's azimuthal numbers m, and Lz on them: m with the Nyquist mode at 0."""
    m = np.fft.fftfreq(nphi, d=1.0 / nphi)
    return m, np.where(m == -nphi / 2, 0.0, m)


def _spectrum(field: FieldGrid, needs):
    """The field's phi spectrum, by one forward FFT; a non-finite field raises first."""
    if not np.isfinite(field.values).all():
        raise DiagnosticError(f"{needs}, got a non-finite value")
    return np.fft.fft(field.values, axis=1)


def _spectral_sq(s, w):
    """sum_i w_i sum_phi |f_i|^2 from the phi spectrum s of f: Parseval, on s's float view."""
    v = np.ascontiguousarray(s).view(float)  # an F-ordered field gives an F-ordered spectrum
    return float(np.einsum("ij,ij->i", v, v) @ w) / s.shape[1]


def _fd_terms(grid: PolarGrid, *ops, cols=slice(None)):
    """(w, c_r, c_m) per op at the FFT's wavenumbers cols: w = a c2 + b c1, one stencil build."""
    if len(grid.phi_nodes) < 8 or not grid.phi_uniform_period:
        raise GridError("phi derivatives need >= 8 phi nodes uniformly covering a period")
    st = None if all(op.kind == "Lz" for op in ops) else _stencils(grid.r_nodes, 2)[1]
    r, terms = grid.r_nodes[:, None], []
    m, lz = (k[cols] for k in _wavenumbers(len(grid.phi_nodes)))
    for op in ops:
        a, b, c_r, c_m = _coefficients(op, grid.z, r, m, lz)
        w = None if op.kind == "Lz" else b * st[1]
        if a:
            w += a * st[2]
        terms.append((w, c_r, c_m))
    return terms


def _fd_apply(w, c_r, c_m, s):
    """The operator on a phi spectrum s (rows r, columns m): w contracted with s, plus c s.

    One batched matmul reads the 7-row windows of s in place (row i takes window
    clip(i - 3, 0, N - 7)); (c_r + c_m) s is then added into the same output in row blocks.
    """
    if w is None:
        return (c_r + c_m) * s
    n, out = len(s), np.empty(s.shape, dtype=complex)
    np.matmul(w[:3], s[:7], out=out[:3])
    np.matmul(w[3:n - 3, None, :], sliding_window_view(s, 7, axis=0).swapaxes(1, 2),
              out=out[3:n - 3, None, :])
    np.matmul(w[n - 3:], s[n - 7:], out=out[n - 3:])
    c_r, c_m = np.broadcast_to(c_r, (n, 1)), np.broadcast_to(c_m, s.shape)
    step = max(1, 2048 // s.shape[1])  # 32 KiB temporaries
    for i in range(0, n, step):
        out[i:i + step] += (c_r[i:i + step] + c_m[i:i + step]) * s[i:i + step]
    return out


def apply_to_field(op: Operator, field: FieldGrid) -> FieldGrid:
    """Apply an operator to a sampled field: 7-point stencils in r on its phi spectrum."""
    s = _spectrum(field, "apply_to_field needs a finite field")
    out = _fd_apply(*_fd_terms(field.grid, op)[0], s)
    return FieldGrid(field.grid, np.fft.ifft(out, axis=1))


def _mode_apply(op: Operator, params: LGParams, z, r):
    """(f, A f) for the closed-form mode along phi = 0, on radial nodes r only."""
    f, d_r, d2_r = _mode_derivatives(params, z, r)
    a, b, c_r, c_m = _coefficients(op, z, r, params.l, params.l)
    return f, a * d2_r + b * d_r + (c_r + c_m) * f


def apply_to_mode(op: Operator, params: LGParams, grid: PolarGrid) -> FieldGrid:
    """Apply an operator to the closed-form mode: its radial result times exp(i l phi)."""
    out = _mode_apply(op, params, grid.z, grid.r_nodes)[1]
    return FieldGrid(grid, out[:, None] * np.exp(1j * params.l * grid.phi_nodes)[None, :])


def expected_eigenvalue(op: Operator, params: LGParams) -> float:
    """Eigenvalue the operator should return on the given mode."""
    if op.kind == "Lz":
        return float(params.l)
    if op.kind in ("N0", "Nz"):
        return float(_radial_eigenvalue(params.n, params.l, op.sign_policy))
    raise DiagnosticError(f"{op.kind} has no mode eigenvalue")


def eigen_residual(params: LGParams, op: Operator, grid: PolarGrid, method="analytic") -> float:
    """|| A f - a f || / || f || for the expected eigenvalue a.

    The analytic path integrates the radial factor with the grid's weights (the phi
    integral cancels); the fd path applies A - a to the mode's radial profile as the one
    column l mod nphi of its phi spectrum (an |l| >= nphi/2 aliases as on a sampled grid).
    """
    if method not in ("analytic", "fd"):
        raise DiagnosticError(f'unknown method {method!r}; use "analytic" or "fd"')
    a, w_r = expected_eigenvalue(op, params), _require_weights(grid) * grid.r_nodes
    if method == "analytic":
        f, out = _mode_apply(op, params, grid.z, grid.r_nodes)
        return math.sqrt(np.sum(w_r * np.abs(out - a * f) ** 2) / np.sum(w_r * np.abs(f) ** 2))
    (w, c_r, c_m), = _fd_terms(grid, op, cols=[params.l % len(grid.phi_nodes)])
    f = lg_field(params, grid.r_nodes[:, None], 0.0, grid.z)
    return math.sqrt(_spectral_sq(_fd_apply(w, c_r - a, c_m, f), w_r) / _spectral_sq(f, w_r))


# ---------------------------------------------------------------------------
# dilations generated by the hyperbolic momentum

@dataclass(frozen=True)
class DilationCheck:
    """Numbers returned by dilation_check; see that function."""

    gamma: float
    unitarity_ratio: float
    identity_defect: float
    generator_defect: float


def _norm_ratio(rule, values, ref):
    """||values|| / ||ref|| under r dr; a non-finite norm or a zero ||ref|| raises."""
    num, den = (math.sqrt(float(rule.integrate(np.abs(v) ** 2 * rule.nodes)))
                for v in (values, ref))
    if not (math.isfinite(num) and 0.0 < den < math.inf):
        raise DiagnosticError(f"dilation_check needs finite norms and a nonzero reference norm, "
                              f"got {num} over {den}")
    return num / den


def dilation_check(f, gamma) -> DilationCheck:
    """Check the dilation family (D_g f)(r) = e^g f(e^g r) on a radial function.

    Verifies on a 384-node Gauss-Legendre rule over (0, 32) that D_g is unitary
    under r dr, that D_0 is the identity, and that the central difference
    (D_d f - D_{-d} f) / (2 d), d = 1e-4, matches the generator (r d/dr + 1) f,
    i.e. i PH f with hbar = 1.  A gamma that is not finite or beyond +-700, a
    non-finite norm or a zero denominator norm raises DiagnosticError.
    """
    if not abs(gamma) <= 700.0:  # e^gamma stays a finite float
        raise DiagnosticError(f"dilation_check needs a finite gamma, |gamma| <= 700, got {gamma}")
    rule, delta = make_rule("legendre", 384, interval=(0.0, 32.0)), 1e-4
    r = rule.nodes
    base = np.asarray(f(r), dtype=complex)
    dilated = math.exp(gamma) * np.asarray(f(math.exp(gamma) * r), dtype=complex)
    unitarity = _norm_ratio(rule, dilated, base)
    identity_defect = _norm_ratio(rule, dilated - base, base)

    cd = (math.exp(delta) * np.asarray(f(math.exp(delta) * r), dtype=complex)
          - math.exp(-delta) * np.asarray(f(math.exp(-delta) * r), dtype=complex)) / (2.0 * delta)
    h = 1e-4 * float(rule.interval[1])
    offsets = np.arange(-3, 4)
    w = _stencils(offsets * h, 1)[1][1, 3]
    fprime = sum(wj * np.asarray(f(r + oj * h), dtype=complex)
                 for wj, oj in zip(w, offsets))
    gen = r * fprime + base
    return DilationCheck(gamma=gamma, unitarity_ratio=unitarity,
                         identity_defect=identity_defect,
                         generator_defect=_norm_ratio(rule, cd - gen, gen))


# ---------------------------------------------------------------------------
# commutators

# [lap, PH] = -2i lap; every other pair is expected to commute
_EXPECTED_COMMUTATORS = {("laplacian_t", "PH"): -2j, ("PH", "laplacian_t"): 2j}


def commutator_residual(op_a: Operator, op_b: Operator, field: FieldGrid) -> float:
    """|| (AB - BA) f - C f || / || f || against the expected commutator C, on f's phi spectrum."""
    needs = "commutator_residual needs a nonzero, finite field"
    grid, s = field.grid, _spectrum(field, needs)
    w_r = _require_weights(grid) * grid.r_nodes * grid.dphi
    nf = math.sqrt(_spectral_sq(s, w_r))
    if not 0.0 < nf < math.inf:
        raise DiagnosticError(f"{needs}, got norm {nf}")
    coeff = _EXPECTED_COMMUTATORS.get((op_a.kind, op_b.kind))
    ta, tb, *lap = _fd_terms(grid, op_a, op_b, *([Operator("laplacian_t")] if coeff else []))
    comm = _fd_apply(*ta, _fd_apply(*tb, s))
    comm -= _fd_apply(*tb, _fd_apply(*ta, s))
    for w, c_r, c_m in lap:
        comm -= _fd_apply(coeff * w, coeff * c_r, coeff * c_m, s)
    return math.sqrt(_spectral_sq(comm, w_r)) / nf
