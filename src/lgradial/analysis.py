"""Expectation values and figure-level curves by exact quadrature; overlaps by algebra.

All integrals use the transverse area measure r dr dphi at fixed z, under
which the closed-form modes are exactly normalized.  An expectation on mode n
is one (n+1)-node Gauss rule in u = 2 r^2/w_z^2, exact for every transverse
operator; the hyperbolic-momentum curves made of them carry fit diagnostics
so figure-level claims can be asserted directly.  Overlap matrices take no integral: they are
su(1,1) representation matrices, one bounded recurrence per diagonal in O(n_max^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DiagnosticError, _check_int
from .lgmode import (FieldGrid, LGParams, _gauss_u, _radial_profiles, _require_weights,
                     beam_geometry, norm)
from .paraxops import Operator, _mode_apply
from .specfun import _inaccurate

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


def raw_expectation(op, params: LGParams, z=0.0) -> complex:
    """<f, A f> / <f, f> on the mode, as a raw complex number.

    With a = |l| and u = 2 r^2/w_z^2, conj(f) A f is u^a e^(-u) times a polynomial
    of degree <= 2n+1, which `_gauss_u(n+1, a)` integrates exactly; the constant
    factor between du and r dr dphi cancels in the ratio.
    """
    u, lam = _gauss_u(params.n + 1, abs(params.l))
    r = beam_geometry(params, z).w_z * np.sqrt(0.5 * u)
    op = op if isinstance(op, Operator) else Operator(op, params=params, z=z)
    f, out = _mode_apply(op, params, z, r)
    return complex(np.sum(lam * np.conj(f) * out) / np.sum(lam * np.abs(f) ** 2))


_SELF_ADJOINT_KINDS = ("PH", "Lz", "N0", "Nz", "laplacian_t")


def expectation(op, params: LGParams, z=0.0) -> float:
    """Expectation value of a transverse operator on a mode at plane z.

    Restricted to operators that are self-adjoint on LG inputs.  One exact `raw_expectation`;
    its imaginary residue must be below 1e-9 max(1, |value|) and is discarded.
    """
    kind = op.kind if isinstance(op, Operator) else op
    if kind not in _SELF_ADJOINT_KINDS:
        raise DiagnosticError(f"expectation is defined for {_SELF_ADJOINT_KINDS}, got {kind!r}")
    value = raw_expectation(op, params, z)
    if abs(value.imag) > 1e-9 * max(1.0, abs(value)):
        _inaccurate("expectation", f"hermitian operator has imaginary residue {value.imag}")
    return float(value.real)


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
        return 0j
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


def _su11_magnitudes(n_max, a, rho, sech2):
    """t[n, n+d] = sqrt(n! (n+d+a)! / ((n+d)! (n+a)!)) rho^d sech^(a+1)(tau) P_n^(d,a)(1 - 2 rho^2)
    for rho = tanh(tau), 0 below the diagonal: unitary matrix elements, so none exceeds 1.  One
    Jacobi recurrence in n runs on every diagonal d at once, exact at rho = 0: with s = 2n+d+a
    and y = 2 rho^2, E_(n+1) = b_n g_(n-1) E_n - y k_n v_n and v_(n+1) = g_n (v_n + E_(n+1))
    from v_0 = sqrt(C(d+a, d)) rho^d sech^(a+1)(tau), a sum of logs in extended precision where
    numpy has it.  sech2 = sech^2(tau) comes apart from 1 - rho^2, which loses it near rho = 1.
    """
    m = np.arange(n_max + 1)
    p = (m + 1.0) * (m + a + 1.0)  # (n+d+1)(n+d+a+1) on column M = n+d, (n+1)(n+a+1) at M = n
    sp, spm, s = np.sqrt(p), np.r_[0.0, np.sqrt(p[:-1])], np.arange(a, 2 * n_max + a + 1.0)
    hankel = np.add.outer(m, m)  # s = 2n+d+a = n+M+a is s[n+M]
    g = sp / sp[:, None]  # g_n on row n, column M: exactly 1 on the diagonal
    yk = (rho * rho * (s + 1) * (s + 2))[hankel] / p  # y k_n
    bg = np.outer(spm, spm / p) * ((s + 2) / np.maximum(s, 1))[hankel]  # b_n g_(n-1), b_0 = 0
    rho_x, t, e = np.longdouble(rho), np.zeros((n_max + 1, n_max + 1)), np.zeros(n_max + 1)
    with np.errstate(divide="ignore"):  # log 0 = -inf: rho = 0 or an underflowed sech2 gives zeros
        log_sech2 = np.log1p(-rho_x**2) if rho < 0.5 else np.log(np.longdouble(sech2))
        steps = 0.5 * np.log1p(np.longdouble(a) / m[1:]) + np.log(rho_x)  # rho sqrt((d+a)/d)
        t[0] = np.exp(np.cumsum(np.r_[0.5 * (a + 1) * log_sech2, steps]))
    for n in range(n_max):  # row n+1 from row n on the columns n..n_max-1
        e = bg[n, n:-1] * e[:-1] - yk[n, n:-1] * t[n, n:-1]
        t[n + 1, n + 1:] = g[n, n:-1] * (t[n, n:-1] + e)
    return t


def _radial_indices(n_set):
    """n_set as a tuple of ints; an entry that is not an integer >= 0 raises DiagnosticError."""
    n_set = tuple(n_set)
    try:
        return tuple(_check_int(n, "n", 0) for n in n_set)
    except DiagnosticError:
        raise DiagnosticError(
            f"n_set must hold integer radial indices n >= 0, got {n_set}") from None


def overlap_matrix(l, n_set, z, z_prime, w0, w0_prime, k) -> OverlapMatrix:
    """Full overlap matrix between two mode families of common l and k.

    Rows index the (z, w0) family, columns the (z', w0') family: one su(1,1)
    group element apart, so no integral.  With gamma = 1/w_z^2 - i k inv_R_z/2
    and Gouy angle phi per side, G = conj(gamma) + gamma', d = gamma - gamma',
    tanh(tau) = |d|/|G| and j = min(n, m), O[n, m] = t[j, max(n, m)] b^|n-m|
    exp(i (|l|+1+2j) (phi - phi' - arg G)), t = `_su11_magnitudes`, which carries
    tanh(tau)^|n-m|, so b is a pure phase: exp(-i (arg d + arg G + 2 phi')) above the
    diagonal, -exp(i (arg d - arg G + 2 phi)) below.  Each triangle's phase is a row
    vector times a column vector.  O(n_max^2); every entry is finite and at most 1.
    """
    n_set = _radial_indices(n_set)
    if not n_set or n_set != tuple(range(len(n_set))):
        raise DiagnosticError("n_set must be contiguous from 0")
    a, m = abs(l), np.arange(len(n_set))
    geo = beam_geometry(LGParams(0, l, k, w0), z)
    geo_p = beam_geometry(LGParams(0, l, k, w0_prime), z_prime)
    gamma, gamma_p = (complex(1.0 / g.w_z**2, -0.5 * k * g.inv_R_z) for g in (geo, geo_p))
    G, d = gamma.conjugate() + gamma_p, gamma - gamma_p
    theta, delta, rho = cmath.phase(G), cmath.phase(d), abs(d) / abs(G)
    t = _su11_magnitudes(m[-1], a, rho, 4 * (gamma.real / abs(G)) * (gamma_p.real / abs(G)))
    row = np.exp(1j * (a + 1 + 2 * m) * (geo.phi_g - geo_p.phi_g - theta))
    # b^(M-j) = conj(b^j) b^M: on the diagonal the two halves cancel exactly
    entries, below = (np.outer(row * np.conj(b), b) * t for b in (
        np.exp(1j * m * (-delta - theta - 2 * geo_p.phi_g)),
        np.exp(1j * m * (math.pi + delta - theta + 2 * geo.phi_g))))
    np.fill_diagonal(below, 0.0)  # t is 0 below the diagonal, so below.T is the lower triangle
    entries += below.T
    return OverlapMatrix(l=l, n_set=n_set, z=z, z_prime=z_prime, w0=w0, w0_prime=w0_prime,
                         k=k, entries=entries)


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
    residual ||field - sum c_n LG_n|| / ||field|| is attached; a field whose norm is
    zero or non-finite raises DiagnosticError.
    """
    grid = field_grid.grid
    if not math.isclose(grid.z, z, rel_tol=0, abs_tol=1e-12 * (1 + abs(z))):
        raise DiagnosticError("field and basis must share the plane z")
    weights = _require_weights(grid)
    n_set = _radial_indices(n_set)
    nf = norm(field_grid)
    if not 0.0 < nf < math.inf:
        raise DiagnosticError(f"decompose needs a nonzero, finite field, got norm {nf}")
    table, curvature, gouy = _radial_profiles(max(n_set, default=0), l, k, w0, z, grid.r_nodes)
    basis = (table * curvature * gouy[:, None])[list(n_set)]
    azimuthal = np.exp(1j * l * grid.phi_nodes)
    projected = field_grid.values @ np.conj(azimuthal) * grid.dphi
    coeffs = np.conj(basis) @ (weights * grid.r_nodes * projected)
    recon = (coeffs @ basis)[:, None] * azimuthal[None, :]
    resid = norm(FieldGrid(grid, field_grid.values - recon)) / nf
    return Decomposition(n_set=n_set, coefficients=coeffs, reconstruction_residual=float(resid))
