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
Off focus the fd path takes Nz as C N0(w0 -> w_z) C^-1, C = exp(i k r^2 / (2 R_z)), so its
stencils see a mode's envelope, not its chirp, and its error is the focal plane's at every z.
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

from .constants import SIGN_POLICIES
from .errors import DiagnosticError, GridError
from .lgmode import (FieldGrid, LGParams, PolarGrid, _mode_derivatives,
                     _require_weights, beam_geometry, lg_field)
from .specfun import _converge

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

def _coefficients(op: Operator, z, r, m, lz, gauged=False):
    """(a, b, c_r, c_m) with A = a d2_r + b d_r + c_r + c_m on radial nodes r, for a field at z.

    c_m(r, m) holds the Laplacian's -m^2/r^2 and the Lz or |Lz| part; lz is Lz at m (0 at
    an FFT's Nyquist mode, where an odd derivative is undefined).  N0 (z = 0) and Nz are
    -(w_z^2/8) lap - lz/2 (|m|/2 symmetrized) + (r^2/w0^2 - 1)/2, plus off focus the
    curvature term (i z/(k w0^2)) (1 + r d_r); gauged, Nz is C^-1 Nz C = N0(w_z) instead.
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
    w = beam_geometry(params, z_op).w_z if z_op != 0.0 else params.w0
    s = w**2 / 8.0
    b, c_r = -s / r, 0.5 * (r**2 / (w if gauged else params.w0) ** 2 - 1.0)
    if z_op != 0.0 and not gauged:
        _, b_z, c_z, _ = _coefficients(Operator("curvature_term", params, z_op), z, r, m, lz)
        b, c_r = b + b_z, c_r + c_z
    c_m = s * m**2 / r**2
    c_m -= 0.5 * (lz if op.sign_policy == "verbatim" else abs(m))
    return -s, b, c_r, c_m


# ---------------------------------------------------------------------------
# finite-difference machinery

def _stencils(nodes):
    """Banded 7-point finite-difference weights of derivative orders 1 and 2 on sorted nodes.

    Returns the 2 x N x 7 weights c with f^(s)(nodes[i]) ~= sum_j c[s-1, i, j]
    f(nodes[clip(i - 3, 0, N - 7) + j]).  Each row is centred on its node, and the rows
    near either end are one-sided.  The weights are the derivatives at the row's node x_p
    of the Lagrange interpolant through its stencil nodes x_j, in closed barycentric form
    (Berrut & Trefethen, SIAM Rev. 46, 501, 2004): with P_j = prod_(k!=j) (x_j - x_k),
    c1_j = (P_p/P_j)/(x_p - x_j) and c2_j = 2 c1_j (c1_p - 1/(x_p - x_j)) for j != p; the
    own-node entries make each row sum to 0.  P_p/P_j is scale-free, so it is taken on each
    stencil rescaled to [0, 1], where no spacing underflows; all rows at once, 7 x N temporaries.
    """
    x = np.asarray(nodes, dtype=float)
    n = len(x)
    if n < 7:
        raise GridError(f"need at least 7 radial nodes, got {n}")
    rows, lo = np.arange(n), np.clip(np.arange(n) - 3, 0, n - 7)
    p = rows - lo  # each row's own node within its stencil
    xs = x[lo + np.arange(7)[:, None]]  # [j, row], rows contiguous
    t = (xs - xs[0]) / (xs[6] - xs[0])
    prod, d = np.ones_like(xs), np.empty_like(xs)
    for k in range(7):
        np.subtract(t, t[k], out=d)
        d[k] = 1.0  # the product runs over j != k
        prod *= d
    inv = np.subtract(x, xs, out=xs)
    inv[p, rows] = np.inf
    np.divide(1.0, inv, out=inv)  # 1/(x_p - x_j), 0 at j = p
    c = np.zeros((2, 7, n))
    np.divide(prod[p, rows], prod, out=c[0])
    c[0] *= inv  # 0 at j = p, as inv is
    np.subtract(-c[0].sum(axis=0), inv, out=c[1])  # minus the row sum is c[0, p]
    c[1] *= 2.0 * c[0]
    c[:, p, rows] = -c.sum(axis=1)  # each derivative row sums to 0
    return c.transpose(0, 2, 1)


def _wavenumbers(nphi):
    """The FFT's azimuthal numbers m, and Lz on them: m with the Nyquist mode at 0."""
    m = np.fft.fftfreq(nphi, d=1.0 / nphi)
    return m, np.where(m == -nphi / 2, 0.0, m)


def _spectrum(values, needs):
    """The phi spectrum of values [r, phi], by one forward FFT; a non-finite value raises first."""
    if not np.isfinite(values).all():
        raise DiagnosticError(f"{needs}, got a non-finite value")
    return np.fft.fft(values, axis=1)


def _spectral_sq(s, w):
    """sum_i w_i sum_phi |f_i|^2 from the phi spectrum s of f: Parseval, on s's float view."""
    v = np.ascontiguousarray(s).view(float)  # an F-ordered field gives an F-ordered spectrum
    return float(np.einsum("ij,ij->i", v, v) @ w) / s.shape[1]


def _broadcast(values, shape, name):
    """values as a complex array of `shape`; values that do not broadcast to it raise."""
    try:
        return np.broadcast_to(np.asarray(values, dtype=complex), shape)
    except ValueError:
        raise DiagnosticError(f"{name} returned shape {np.shape(values)}, not {shape}") from None


def _require_decay(sq, s, needs, var):
    """Raise DiagnosticError unless |F| = sqrt(sq) is below 2e-9 of its peak at both ends of s:
    above that dilation_check's defect stops converging to 1e-10 (from about 1.2e-8), and a
    Gaussian psi leaves 1e-9 at hermiticity_defect's lower end, e^-24 min(kt_max, 16/w)."""
    if np.any(sq[..., [0, -1]] > 4e-18 * sq.max(axis=-1, keepdims=True)):
        raise DiagnosticError(f"{needs} negligible at both ends of {var} = {s[0]:.1f}..{s[-1]:.1f}")


def _fd_terms(grid: PolarGrid, *ops, cols=slice(None)):
    """(w, c_r, c_m) per op at the FFT's wavenumbers cols: w = a c2 + b c1, one stencil build;
    an off-focus Nz is C N0(w_z) C^-1, so its row i weighs node j by w_ij C_i / C_j."""
    if len(grid.phi_nodes) < 8:
        raise GridError("phi derivatives need >= 8 phi nodes")
    st = None if all(op.kind == "Lz" for op in ops) else _stencils(grid.r_nodes)
    r, terms = grid.r_nodes[:, None], []
    m, lz = (k[cols] for k in _wavenumbers(len(grid.phi_nodes)))
    for op in ops:
        gauged = op.kind == "Nz" and op.z != 0.0
        a, b, c_r, c_m = _coefficients(op, grid.z, r, m, lz, gauged)
        w = None if op.kind == "Lz" else b * st[0]
        if a:
            w += a * st[1]
        if gauged:  # C_i / C_j from (r_i - r_j)(r_i + r_j), exact at any distance; in place
            x = grid.r_nodes[np.clip(np.arange(len(r)) - 3, 0, len(r) - 7)[:, None] + np.arange(7)]
            phase = np.subtract(r, x) * (0.5j * op.params.k * beam_geometry(op.params, op.z).inv_R_z)
            phase *= np.add(r, x, out=x)
            w = np.multiply(np.exp(phase, out=phase), w, out=phase)
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
    s = _spectrum(field.values, "apply_to_field needs a finite field")
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
    generator_defect: float


def dilation_check(f, gamma) -> DilationCheck:
    """Check the dilation family (D_g f)(r) = e^g f(e^g r) on a radial function.

    In s = ln r, D_g shifts F = f e^s by g, and ||f||^2 under r dr is a trapezoid sum of |F|^2 on
    a uniform grid that g does not move, refined to 1e-10 (geometric for a smooth, decaying
    integrand: Trefethen & Weideman, SIAM Rev. 56, 385, 2014).  Checks that D_g is unitary and
    that (D_d f - D_-d f)/(2 d), d = 1e-4, matches (r d/dr + 1) f = i PH f = F' e^-s, F' by FFT
    of F less the line through its end values (the slope added back), so the wrap has no jump.
    f is called 4 times per sampled grid: the first two steps share one (the coarse grid is the
    fine one's even points), and a third samples its own.
    A |g| > 289.9, a norm not finite or 0, or |f r| not negligible at an end raises DiagnosticError.
    """
    span = 612 * math.pi / 32  # |s| <= 60.1; steps pi/32, pi/64, pi/128 divide no rational g
    if not abs(gamma) <= 350.0 - span:  # every e^(s + g) and its square are finite doubles
        raise DiagnosticError(f"dilation_check needs a finite gamma, |gamma| <= 289.9, got {gamma}")

    def sample(n):  # s, then F(s + t) = D_t f e^s for F = f e^s at t = 0, gamma and +-1e-4
        s = np.arange(-n, n + 1) * (span / n)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm raises below
            return [s, *(math.exp(t) * _broadcast(f(np.exp(s + t)), s.shape, "dilation_check's f")
                         * np.exp(s) for t in (0, gamma, 1e-4, -1e-4))]

    # 612's grid is the even points of 1224's, RN(span/1224) 2j = RN(span/612) j, so f is
    # sampled once for both; a third level samples its own grid
    shared = sample(1224)

    def evaluate(n):
        s, base, moved, fwd, back = ([x[::2] for x in shared] if n == 612
                                     else shared if n == 1224 else sample(n))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm raises below
            slope = (base[-1] - base[0]) / (2.0 * span)  # F less this line wraps with no jump
            gen = slope + np.fft.ifft(2j * math.pi * np.fft.fftfreq(2 * n + 1, span / n)
                                      * np.fft.fft(base - slope * (s + span)))
            sq = np.abs(np.array([base, moved, (fwd - back) / 2e-4 - gen, gen])) ** 2
            norms = np.sqrt(sq.sum(axis=1) * (s[1] - s[0]))
        if not (np.isfinite(norms).all() and np.all(norms[[0, 1, 3]] > 0.0)):
            raise DiagnosticError("dilation_check needs finite norms and a nonzero reference "
                                  f"norm, got {norms} (f, D_gamma f, defect, generator)")
        _require_decay(sq[:2], s, "dilation_check needs |f r| of f and D_gamma f", "ln r")
        return norms, norms[0], DilationCheck(gamma, *(norms[[1, 2]] / norms[[0, 3]]).tolist())

    return _converge("dilation_check", evaluate, (612, 1224, 2448), 1e-10, 1e-10)


# ---------------------------------------------------------------------------
# commutators

# [lap, PH] = -2i lap; every other pair is expected to commute
_EXPECTED_COMMUTATORS = {("laplacian_t", "PH"): -2j, ("PH", "laplacian_t"): 2j}


def commutator_residual(op_a: Operator, op_b: Operator, field: FieldGrid) -> float:
    """|| (AB - BA) f - C f || / || f || against the expected commutator C, on f's phi spectrum."""
    needs = "commutator_residual needs a nonzero, finite field"
    grid, s = field.grid, _spectrum(field.values, needs)
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
