"""Expectation values and figure-level curves by quadrature; overlaps by algebra.

All integrals use the transverse area measure r dr dphi at fixed z, under
which the closed-form modes are exactly normalized.  Expectations (and the
hyperbolic-momentum curves made of them) are convergence-checked by doubling
the radial quadrature order; the curves carry fit diagnostics so figure-level
claims can be asserted directly.  Overlap matrices take no integral: they are
su(1,1) representation matrices, one real three-term recurrence in O(n_max^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DiagnosticError, QuadratureConvergenceError
from .lgmode import (_RESCALE, FieldGrid, LGParams, _radial_profiles, _require_weights,
                     beam_geometry, norm, quadrature_polar_grid)
from .paraxops import Operator, _mode_apply
from .specfun import _converged

__all__ = [
    "ExpectationSeries",
    "OverlapMatrix",
    "Decomposition",
    "raw_expectation",
    "expectation",
    "ph_vs_z",
    "ph_vs_w0",
    "overlap",
    "overlap_matrix",
    "decompose",
]


def _as_operator(op, params: LGParams, z: float) -> Operator:
    if isinstance(op, Operator):
        return op
    kwargs = {}
    if op in ("N0", "Nz", "curvature_term"):
        kwargs["params"] = params
    if op in ("Nz", "curvature_term"):
        kwargs["z"] = z
    return Operator(op, **kwargs)


def raw_expectation(op, params: LGParams, z=0.0, *, order=None) -> complex:
    """<f, A f> / <f, f> on the mode, as a raw complex number.

    A 1-D radial integral on the Gauss-Legendre rule of the mode's quadrature
    grid; the phi integral, 2 pi, cancels.
    """
    grid = quadrature_polar_grid(params, z, order=order or 192)
    f, out = _mode_apply(_as_operator(op, params, z), params, z, grid.r_nodes)
    w = grid.r_weights * grid.r_nodes
    return complex(np.sum(w * np.conj(f) * out) / np.sum(w * np.abs(f) ** 2))


_SELF_ADJOINT_KINDS = ("PH", "Lz", "N0", "Nz", "laplacian_t")


def expectation(op, params: LGParams, z=0.0) -> float:
    """Expectation value of a transverse operator on a mode at plane z.

    Restricted to operators that are self-adjoint on LG inputs.  The radial
    order max(160, 16 (n+1)) is doubled once and the run aborts if the value
    moved by more than 1e-7 max(1, |value|); the (tiny) imaginary residue of
    the hermitian expectation is discarded after the same check.
    """
    kind = op.kind if isinstance(op, Operator) else op
    if kind not in _SELF_ADJOINT_KINDS:
        raise DiagnosticError(f"expectation is defined for {_SELF_ADJOINT_KINDS}, got {kind!r}")
    m = max(160, 16 * (params.n + 1))
    v1 = raw_expectation(op, params, z, order=m)
    v2 = raw_expectation(op, params, z, order=2 * m)
    if not _converged(v1, v2, 1e-7, 1e-7):
        raise QuadratureConvergenceError(
            f"expectation not converged: {v1} vs {v2} at doubled order")
    if abs(v2.imag) > 1e-9 * max(1.0, abs(v2)):
        raise DiagnosticError(
            f"expectation of a hermitian operator has imaginary residue {v2.imag}")
    return float(v2.real)


@dataclass(frozen=True)
class ExpectationSeries:
    """A swept expectation value with fit diagnostics attached."""

    abscissa_kind: str          # "z" or "w0"
    abscissa: np.ndarray
    values: np.ndarray
    params: LGParams            # swept quantity at its base value
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "abscissa", np.asarray(self.abscissa, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def _linear_fit(x, y):
    A = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def ph_vs_z(params: LGParams, z_list) -> ExpectationSeries:
    """Hyperbolic-momentum expectation versus propagation distance.

    Attaches slope / intercept / r_squared of the linear fit; the curve is
    linear and passes through the origin for every radial index.
    """
    z_list = np.asarray(z_list, dtype=float)
    if z_list.size == 0:
        raise DiagnosticError("z_list must be nonempty")
    values = np.array([expectation("PH", params, z) for z in z_list])
    slope, intercept, r2 = _linear_fit(z_list, values)
    return ExpectationSeries("z", z_list, values, params,
                             {"slope": slope, "intercept": intercept, "r_squared": r2})


def ph_vs_w0(params: LGParams, w0_list, z: float) -> ExpectationSeries:
    """Hyperbolic-momentum expectation versus focal waist at fixed z > 0.

    Attaches monotonicity and log-log linearity diagnostics (the decay is a
    clean power law at fixed z).
    """
    w0_list = np.asarray(w0_list, dtype=float)
    if w0_list.size == 0 or np.any(w0_list <= 0) or np.any(np.diff(w0_list) <= 0):
        raise DiagnosticError("w0_list must be positive and increasing")
    values = np.array([expectation("PH", replace(params, w0=float(w0)), z) for w0 in w0_list])
    diag = {"monotone_decreasing": bool(np.all(np.diff(values) < 0))}
    if np.all(values > 0):
        ls, li, lr2 = _linear_fit(np.log(w0_list), np.log(values))
        diag.update({"loglog_slope": ls, "loglog_r_squared": lr2})
    return ExpectationSeries("w0", w0_list, values, params, diag)


# ---------------------------------------------------------------------------
# overlaps under propagation / waist mismatch

def overlap(params_a: LGParams, z_a: float, params_b: LGParams, z_b: float) -> complex:
    """<LG_a(z_a) | LG_b(z_b)> under r dr dphi; exactly 0 unless l_a = l_b.

    One entry of `overlap_matrix` for the two families up to max(n_a, n_b).
    """
    if params_a.k != params_b.k:
        raise DiagnosticError("overlap requires a shared wavenumber k")
    if params_a.l != params_b.l:
        return 0.0
    M = overlap_matrix(params_a.l, range(max(params_a.n, params_b.n) + 1), z_a, z_b,
                       params_a.w0, params_b.w0, params_a.k)
    return complex(M.entries[params_a.n, params_b.n])


@dataclass(frozen=True)
class OverlapMatrix:
    """Complex projections O[n][n'] between modes at mismatched z or w0."""

    l: int
    n_set: tuple
    z: float
    z_prime: float
    w0: float
    w0_prime: float
    k: float
    entries: np.ndarray

    def completeness(self):
        """Per column n': sum_n |O[n][n']|^2 over the whole basis."""
        return np.sum(np.abs(self.entries) ** 2, axis=0)

    def cumulative_completeness(self):
        """Partial sums over n <= n_max, shape (len(n_set), len(n_set))."""
        return np.cumsum(np.abs(self.entries) ** 2, axis=0)

    def min_modes(self, column=0, threshold=0.99):
        """Smallest basis size reaching the completeness threshold, else None."""
        sums = self.cumulative_completeness()[:, column]
        idx = np.nonzero(sums >= threshold)[0]
        return int(idx[0]) + 1 if idx.size else None


def _su11_magnitudes(n_max, a, rho):
    """sech^(a+1)(tau) r[n, m] for n <= m, 0 below, rho = tanh(tau) < 1: r[0, m] =
    sqrt(C(m+a, m)), sqrt((n+1)(n+a+1)) r[n+1, m] = ((m-n) - (a+1+m+n) rho^2) r[n, m]
    - rho^2 sqrt(n(n+a)) r[n-1, m], each column run only up to the diagonal, inside
    its growing region.  A per-column exponent takes over powers of two past _RESCALE.
    """
    m, rho2 = np.arange(n_max + 1), rho * rho
    t, e = np.zeros((n_max + 1, n_max + 1)), np.zeros(n_max + 1, dtype=int)
    t[0] = np.cumprod(np.sqrt(np.r_[1.0, (m[1:] + a) / m[1:]]))
    s = np.sqrt((m + 1.0) * (m + 1 + a))
    step = ((m - m[:, None]) - (a + 1 + m + m[:, None]) * rho2) / s[:, None]
    back = rho2 * np.sqrt(m * (m + a + 0.0)) / s
    for n in range(n_max):
        row = np.multiply(step[n, n + 1:], t[n, n + 1:], out=t[n + 1, n + 1:])
        row -= back[n] * t[n - 1, n + 1:]  # back[0] = 0
        if np.abs(row).max() > _RESCALE:
            _, x = np.frexp(np.maximum(np.abs(row), np.abs(t[n, n + 1:])))
            t[:n + 2, n + 1:] *= 2.0 ** -x
            e[n + 1:] += x
    half = math.exp(0.25 * (a + 1) * math.log1p(-rho2))  # sech^((a+1)/2)(tau)
    return t * np.ldexp(half, e // 2) * np.ldexp(half, e - e // 2)  # halves stay normal


def overlap_matrix(l, n_set, z, z_prime, w0, w0_prime, k) -> OverlapMatrix:
    """Full overlap matrix between two mode families of common l and k.

    Rows index the (z, w0) family, columns the (z', w0') family: one su(1,1)
    group element apart, so no integral.  With gamma = 1/w_z^2 - i k inv_R_z/2
    and Gouy angle phi per side, G = conj(gamma) + gamma', d = gamma - gamma',
    tanh(tau) = |d|/|G| and j = min(n, m), O[n, m] = t[j, max(n, m)] b^|n-m|
    exp(i (|l|+1+2j) (phi - phi' - arg G)), t = `_su11_magnitudes`, b = tanh(tau)
    exp(-i (arg d + arg G + 2 phi')) above the diagonal, -tanh(tau) exp(i (arg d
    - arg G + 2 phi)) below.  O(n_max^2); a non-finite entry raises DiagnosticError.
    """
    n_set = tuple(int(n) for n in n_set)
    if list(n_set) != list(range(len(n_set))):
        raise DiagnosticError("n_set must be contiguous from 0")
    n_max, m = max(n_set), np.arange(len(n_set))
    geo = beam_geometry(LGParams(0, l, k, w0), z)
    geo_p = beam_geometry(LGParams(0, l, k, w0_prime), z_prime)
    gamma, gamma_p = (complex(1.0 / g.w_z**2, -0.5 * k * g.inv_R_z) for g in (geo, geo_p))
    G, d = gamma.conjugate() + gamma_p, gamma - gamma_p
    theta, delta, rho = cmath.phase(G), cmath.phase(d), abs(d) / abs(G)
    rows = _su11_magnitudes(n_max, abs(l), rho) * np.exp(
        1j * (abs(l) + 1 + 2 * m[:, None]) * (geo.phi_g - geo_p.phi_g - theta))
    b = np.zeros((2, 2 * n_max + 1), complex)  # b^d for d >= 0 above and below
    b[:, n_max:] = rho ** m * np.exp(1j * np.outer(
        (-delta - theta - 2 * geo_p.phi_g, math.pi + delta - theta + 2 * geo.phi_g), m))
    above, below = sliding_window_view(b, n_max + 1, axis=1)[:, ::-1]  # Toeplitz views
    entries = rows * above + np.triu(rows * below, 1).T
    if not np.all(np.isfinite(entries)):
        raise DiagnosticError(f"overlap matrix not finite at l={l}, n_max={n_max}")
    return OverlapMatrix(l=l, n_set=n_set, z=z, z_prime=z_prime, w0=w0,
                         w0_prime=w0_prime, k=k, entries=entries)


# ---------------------------------------------------------------------------
# modal decomposition

@dataclass(frozen=True)
class Decomposition:
    n_set: tuple
    coefficients: np.ndarray
    reconstruction_residual: float


def decompose(field_grid: FieldGrid, l, n_set, z, w0, k) -> Decomposition:
    """Project a sampled field onto the radial family of fixed l at (z, w0).

    c_n = <LG_n | field> on the field's own quadrature grid: exp(i l phi)
    projection, then one radial table-vector product.  The reconstruction
    residual ||field - sum c_n LG_n|| / ||field|| is attached.
    """
    grid = field_grid.grid
    if not math.isclose(grid.z, z, rel_tol=0, abs_tol=1e-12 * (1 + abs(z))):
        raise DiagnosticError("field and basis must share the plane z")
    weights = _require_weights(grid)
    n_set = tuple(int(n) for n in n_set)
    table, curvature, gouy = _radial_profiles(max(n_set, default=0), l, k, w0, z, grid.r_nodes)
    basis = (table * curvature * gouy[:, None])[list(n_set)]
    azimuthal = np.exp(1j * l * grid.phi_nodes)
    projected = field_grid.values @ np.conj(azimuthal) * grid.dphi
    coeffs = np.conj(basis) @ (weights * grid.r_nodes * projected)
    recon = (coeffs @ basis)[:, None] * azimuthal[None, :]
    nf = norm(field_grid)
    resid = norm(FieldGrid(grid, field_grid.values - recon)) / nf if nf > 0 else 0.0
    return Decomposition(n_set=n_set, coefficients=coeffs, reconstruction_residual=float(resid))
