"""Momentum-space radial-index operators for exact and paraxial beams.

The exact beam family lives on the constraint surface k_plus = Omega/c
(k_pm = (k +- k_z)/2); the delta function enforcing it is handled
analytically and never discretized.  On that surface the wavefunction is

    psi(k_minus, k_phi) = exp(i sigma m k_phi) k_minus^(n+|m|/2)
                          exp(-(w^2 Omega / c) k_minus) (k_plus + k_minus)

and the radial momentum operator N_k returns the radial index n pointwise.
The paraxial limit replaces k_minus by k_t^2/(4 k_z) and yields the
simpler N'_k = (k_t d/dk_t + (i/sigma) d/dk_phi + w^2 k_t^2) / 2.

The m < 0 sign policy mirrors the position-space module: "verbatim" keeps
the printed angular term (eigenvalue n + (|m|-m)/2), "symmetrized" (the
default) replaces it by its |m| counterpart so the eigenvalue is n for
every m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .errors import DiagnosticError, _check_helicity, _check_int
from .paraxops import (_angular_number, _fd_apply, _radial_eigenvalue, _spectral_sq, _spectrum,
                       _stencils, _wavenumbers)
from .specfun import _converge, make_rule

__all__ = [
    "ExactMomentumParams",
    "polar_to_plusminus",
    "plusminus_to_polar",
    "psi_exact",
    "apply_nk",
    "nk_eigen_residual",
    "nk_polar",
    "psi_paraxial",
    "apply_nk_paraxial",
    "paraxial_norm_sq",
    "HermiticityDefect",
    "hermiticity_defect",
]


@dataclass(frozen=True)
class ExactMomentumParams:
    """Mode numbers and scales of an exact momentum-space LG wavefunction."""

    n: int        # radial index, >= 0
    m: int        # angular momentum number
    sigma: int    # helicity, +1 or -1
    Omega: float  # rad/s; fixes the constraint k_plus = Omega/c
    w: float      # m; width parameter of the exponential factor

    def __post_init__(self):
        _check_int(self.n, "n", 0)
        _check_int(self.m, "m")
        _check_helicity(self.sigma)
        if not (0 < self.Omega < math.inf and 0 < self.w < math.inf):
            raise DiagnosticError(f"Omega and w must be finite and > 0, got {self.Omega}, {self.w}")

    @property
    def k_plus(self):
        return self.Omega / C_LIGHT

    @property
    def beta(self):
        """Decay rate w^2 Omega / c of the exponential factor in k_minus."""
        return self.w**2 * self.Omega / C_LIGHT


def polar_to_plusminus(k_t, k_z):
    """(k_t, k_z) -> (k_plus, k_minus); cancellation-free for small k_t."""
    k_t = np.asarray(k_t, dtype=float)
    k_z = np.asarray(k_z, dtype=float)
    k = np.hypot(k_t, k_z)
    # the smaller of k_pm is recovered from k_t^2 to avoid k - |k_z| cancellation
    k_plus = np.where(k_z >= 0, 0.5 * (k + k_z), 0.5 * k_t**2 / np.where(k - k_z > 0, k - k_z, 1.0))
    k_minus = np.where(k_z >= 0, 0.5 * k_t**2 / np.where(k + k_z > 0, k + k_z, 1.0), 0.5 * (k - k_z))
    both_zero = k == 0
    k_plus = np.where(both_zero, 0.0, k_plus)
    k_minus = np.where(both_zero, 0.0, k_minus)
    return k_plus[()], k_minus[()]


def plusminus_to_polar(k_plus, k_minus):
    """(k_plus, k_minus) -> (k_t, k_z)."""
    k_plus = np.asarray(k_plus, dtype=float)
    k_minus = np.asarray(k_minus, dtype=float)
    if np.any(k_plus < 0) or np.any(k_minus < 0):
        raise DiagnosticError("k_plus and k_minus must be >= 0")
    k_t = 2.0 * np.sqrt(k_plus * k_minus)
    k_z = k_plus - k_minus
    return k_t[()], k_z[()]


def psi_exact(params: ExactMomentumParams, k_minus, k_phi):
    """Exact momentum-space wavefunction on the constraint surface.

    Unnormalized, as printed; the trailing factor is the total wavenumber
    k = k_plus + k_minus.
    """
    k_minus = np.asarray(k_minus, dtype=float)
    k_phi = np.asarray(k_phi, dtype=float)
    p = params.n + abs(params.m) / 2.0
    out = (np.exp(1j * params.sigma * params.m * k_phi)
           * k_minus**p * np.exp(-params.beta * k_minus)
           * (params.k_plus + k_minus))
    return out[()] if np.ndim(out) == 0 else out


def _dpsi_dkminus(params, k_minus, k_phi):
    """Analytic d psi / d k_minus; requires k_minus > 0."""
    k_minus = np.asarray(k_minus, dtype=float)
    if np.any(k_minus <= 0):
        raise DiagnosticError("derivative path requires k_minus > 0")
    p = params.n + abs(params.m) / 2.0
    psi = psi_exact(params, k_minus, k_phi)
    return psi * (p / k_minus - params.beta + 1.0 / (params.k_plus + k_minus))


def _angular_eigenterm(params, psi, sign_policy):
    """(i / 2 sigma) d/dk_phi acting on exp(i sigma m k_phi), or its |m| variant."""
    return -0.5 * _angular_number(params.m, sign_policy) * psi


def apply_nk(params: ExactMomentumParams, k_minus, k_phi, sign_policy="symmetrized"):
    """Apply the non-paraxial radial momentum operator to psi_exact.

    N_k = k_minus d/dk_minus + (i / 2 sigma) d/dk_phi - k_minus / k
          + (w^2 Omega / c) k_minus,   with k = k_plus + k_minus.
    """
    k_minus = np.asarray(k_minus, dtype=float)
    psi = psi_exact(params, k_minus, k_phi)
    k = params.k_plus + k_minus
    out = (k_minus * _dpsi_dkminus(params, k_minus, k_phi)
           + _angular_eigenterm(params, psi, sign_policy)
           - (k_minus / k) * psi
           + params.beta * k_minus * psi)
    return out[()] if np.ndim(out) == 0 else out


def nk_eigen_residual(params: ExactMomentumParams, k_minus, k_phi,
                      sign_policy="symmetrized") -> float:
    """max |N_k psi - n psi| / |psi| over the sample points."""
    psi = psi_exact(params, k_minus, k_phi)
    out = apply_nk(params, k_minus, k_phi, sign_policy)
    expected = _radial_eigenvalue(params.n, params.m, sign_policy)
    return float(np.max(np.abs(out - expected * psi) / np.abs(psi)))


def nk_polar(params: ExactMomentumParams, k_t, k_z, k_phi, sign_policy="symmetrized"):
    """Polar form of N_k applied to psi_exact on the constraint surface.

    N_k = (1/2) [ k_t d/dk_t + (i/sigma) d/dk_phi
                  - (k - k_z) (d/dk_z + 1/k - w^2 Omega / c) ]

    d/dk_t and d/dk_z act through k_minus at fixed k_plus (the delta
    constraint pins k_plus, so these are the only well-defined derivatives).
    """
    k_t = np.asarray(k_t, dtype=float)
    k_z = np.asarray(k_z, dtype=float)
    k = np.hypot(k_t, k_z)
    _, k_minus = polar_to_plusminus(k_t, k_z)
    psi = psi_exact(params, k_minus, k_phi)
    dpsi = _dpsi_dkminus(params, k_minus, k_phi)
    radial = k_t * (k_t / (2.0 * k)) * dpsi                    # k_t d/dk_t
    angular = 2.0 * _angular_eigenterm(params, psi, sign_policy)  # (i/sigma) d/dk_phi
    dkz = -(k_minus / k) * dpsi                                 # d/dk_z through k_minus
    # k - k_z = 2 k_minus identically; the cancellation-free form matters
    # when k_t << k_z
    last = 2.0 * k_minus * (dkz + (1.0 / k - params.beta) * psi)
    out = 0.5 * (radial + angular - last)
    return out[()] if np.ndim(out) == 0 else out


def psi_paraxial(params: ExactMomentumParams, k_t, k_phi):
    """Paraxial momentum wavefunction: separable, real radial factor."""
    k_t = np.asarray(k_t, dtype=float)
    k_phi = np.asarray(k_phi, dtype=float)
    out = (np.exp(1j * params.sigma * params.m * k_phi)
           * k_t ** (2 * params.n + abs(params.m))
           * np.exp(-0.5 * params.w**2 * k_t**2))
    return out[()] if np.ndim(out) == 0 else out


def apply_nk_paraxial(params: ExactMomentumParams, k_t, k_phi, sign_policy="symmetrized"):
    """Apply N'_k = (k_t d/dk_t + (i/sigma) d/dk_phi + w^2 k_t^2) / 2."""
    k_t = np.asarray(k_t, dtype=float)
    psi = psi_paraxial(params, k_t, k_phi)
    kt_dpsi = psi * (2 * params.n + abs(params.m) - params.w**2 * k_t**2)
    angular = 2.0 * _angular_eigenterm(params, psi, sign_policy)
    out = 0.5 * (kt_dpsi + angular + params.w**2 * k_t**2 * psi)
    return out[()] if np.ndim(out) == 0 else out


def paraxial_norm_sq(params: ExactMomentumParams) -> float:
    """Squared L2 norm of psi_paraxial under k_t dk_t dk_phi (closed form); DiagnosticError
    where it is not a finite, nonzero double (large 2n+|m| at a small or a large w)."""
    # integral of k_t^(2(2n+|m|)) e^{-w^2 k_t^2} k_t dk_t = Gamma(2n+|m|+1) / (2 w^(2(2n+|m|+1)))
    p = 2 * params.n + abs(params.m)
    try:
        value = 2.0 * math.pi * math.exp(math.lgamma(p + 1)) / (2.0 * params.w ** (2 * (p + 1)))
    except (OverflowError, ZeroDivisionError):  # Gamma, w^(2(p+1)) or the quotient overflows
        value = math.nan
    if not 0.0 < value < math.inf:
        raise DiagnosticError(f"||psi_paraxial||^2 is not a finite, nonzero double at "
                              f"2n+|m| = {p}, w = {params.w} m")
    return value


@dataclass(frozen=True)
class HermiticityDefect:
    defect: complex      # <A psi, psi> - <psi, A psi> under k_t dk_t dk_phi
    norm_sq: float       # ||psi||^2 under the same measure


def hermiticity_defect(psi, operator="Nk_paraxial", *, w, sigma=1, kt_max) -> HermiticityDefect:
    """Hermiticity defect of a momentum operator on a sampled wavefunction.

    Gauss-Legendre in k_t on (0, kt_max) times 64 k_phi nodes; the defects at
    192 and 384 k_t nodes must agree to 1e-6 relative or 1e-6 ||psi||^2, each taken
    on psi's k_phi spectrum (Parseval) by one FFT and 7-point stencils in k_t.

    Parameters
    ----------
    psi : callable (k_t, k_phi) -> complex, broadcasting a k_t column and a k_phi row
    operator : "Nk_paraxial" for the full paraxial radial-momentum operator,
        "kt_ddkt" for its isolated (non-hermitian) first term k_t d/dk_t.
    w, sigma : operator context (w > 0 enters N'_k; sigma = +-1 scales the angular term)
    kt_max : radial cutoff of the quadrature, finite and > 0
    """
    if operator not in ("Nk_paraxial", "kt_ddkt"):
        raise DiagnosticError(f"unknown operator {operator!r}")
    sigma = _check_helicity(sigma)
    if not 0 < w < math.inf:
        raise DiagnosticError(f"w must be finite and > 0, got {w}")
    kphi = np.arange(64) * (2.0 * math.pi / 64)

    def evaluate(n_rad):
        rule = make_rule("legendre", n_rad, interval=(0.0, kt_max))
        kt = rule.nodes[:, None]  # psi takes a k_t column and the k_phi row, and broadcasts them
        s = _spectrum(np.broadcast_to(psi(kt, kphi), (n_rad, 64)),
                      "hermiticity_defect needs a finite psi")
        b, c_r, c_m = ((0.5 * kt, 0.5 * w**2 * kt**2, -0.5 / sigma * _wavenumbers(64)[1])
                       if operator == "Nk_paraxial" else (kt, 0.0, 0.0))
        a_s = _fd_apply(b * _stencils(rule.nodes, 1)[0], c_r, c_m, s)
        mu = rule.weights * rule.nodes * (2.0 * math.pi / 64)
        a_s *= mu[:, None] / 64  # Parseval: sum over k_phi = (1/64) sum over the spectrum
        inner, nrm = complex(np.vdot(s, a_s)), _spectral_sq(s, mu)  # <psi, A psi>, ||psi||^2
        defect = inner.conjugate() - inner
        if nrm == 0.0:
            raise DiagnosticError("hermiticity_defect needs a psi that is not identically zero")
        return defect, nrm, HermiticityDefect(defect=defect, norm_sq=nrm)

    return _converge("hermiticity defect", evaluate, (192, 384), 1e-6, 1e-6)
