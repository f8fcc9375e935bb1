"""Momentum-space radial-index operators for exact and paraxial beams.

The exact beam family lives on the constraint surface k_plus = Omega/c
(k_pm = (k +- k_z)/2); the delta function enforcing it is handled
analytically and never discretized.  On that surface the wavefunction is

    psi(k_minus, k_phi) = exp(i sigma m k_phi) k_minus^(n+|m|/2)
                          exp(-(w^2 Omega / c) k_minus) (k_plus + k_minus)

and the radial momentum operator N_k returns the radial index n pointwise.
The paraxial limit replaces k_minus by k_t^2/(4 k_z) and yields the
simpler N'_k = (k_t d/dk_t + (i/sigma) d/dk_phi + w^2 k_t^2) / 2.

Each operator is defined once (`_coefficients`) as A = b x d/dx + c_r + c_m on each
azimuthal number m, in its own radial variable x (k_minus for N_k, k_t for N'_k).  Its
x d/dx comes from the closed form g = x d/dx log psi (A psi = (b g + c_r + c_m) psi
pointwise) or, on a sampled psi, is d/ds in s = ln x by FFT (`hermiticity_defect`, N'_k's k_t term).
`_exponents` is the one definition of psi_exact's and psi_paraxial's radial factors x^P e^(-D) T:
`_closed_form` evaluates them as one exp(P log x - D) times T, finite, 0 on underflow, or an
error (`exactwave.synthesize_lg` uses it), and `_apply` reads g off the same P, D and T.

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
from .paraxops import (_angular_number, _broadcast, _radial_eigenvalue, _require_decay, _spectrum,
                       _wavenumbers)
from .specfun import _converge

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
    """(k_t, k_z) -> (k_plus, k_minus), finite and free of cancellation; else DiagnosticError."""
    k_t, k_z = np.asarray(k_t, dtype=float), np.asarray(k_z, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        larger = np.hypot(0.5 * k_t, 0.5 * k_z) + 0.5 * np.abs(k_z)  # (k + |k_z|)/2, halved first
        # the smaller is k_t^2 / (4 larger): no k - |k_z| cancellation, and no k_t^2 to overflow
        smaller = 0.25 * k_t * (k_t / np.where(larger > 0, larger, 1.0))
    if not np.isfinite(larger).all():
        raise DiagnosticError("k_t and k_z must be finite, with finite k_plus and k_minus")
    return np.where(k_z >= 0, larger, smaller)[()], np.where(k_z >= 0, smaller, larger)[()]


def plusminus_to_polar(k_plus, k_minus):
    """(k_plus, k_minus) -> finite (k_t, k_z) for finite k_pm >= 0; else DiagnosticError."""
    k_plus, k_minus = np.asarray(k_plus, dtype=float), np.asarray(k_minus, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN or inf for every bad input
        k_t = 2.0 * np.sqrt(k_plus) * np.sqrt(k_minus)
    if not np.isfinite(k_t).all():
        raise DiagnosticError("k_plus and k_minus must be finite and >= 0, with a finite k_t")
    return k_t[()], (k_plus - k_minus)[()]


def _coefficients(op, x, m, w, k_plus=None):
    """(b, c_r, c_m) with A = b x d/dx + c_r + c_m on exp(i sigma m k_phi), where (i/sigma)
    d/dk_phi is -m, in x = k_minus for "Nk" and x = k_t for "Nk_paraxial"."""
    if op == "Nk":  # k_minus d/dk_minus + (i/2 sigma) d/dk_phi - k_minus/k + beta k_minus
        return 1.0, w**2 * k_plus * x - x / (k_plus + x), -0.5 * m
    if op == "Nk_paraxial":  # (k_t d/dk_t + (i/sigma) d/dk_phi + w^2 k_t^2) / 2
        return 0.5, 0.5 * w**2 * x**2, -0.5 * m
    raise DiagnosticError(f"unknown operator {op!r}")


def _closed_form(params, x, k_phi, paraxial):
    """psi of the exact (x = k_minus) or paraxial (x = k_t) wavefunction; a negative or
    non-finite x, or a psi that is not a finite double, raises DiagnosticError."""
    x, name = np.asarray(x, dtype=float), "k_t" if paraxial else "k_minus"
    if not (x.min(initial=math.inf) >= 0 and x.max(initial=0.0) < math.inf):  # NaN fails both
        raise DiagnosticError(f"{name} must be finite and >= 0")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # x^P e^(-D) in one exp
        power, decay, tail = _exponents(params, x, paraxial)
        radial = np.exp((power * np.log(x) if power else 0.0) - decay) * tail
        psi = np.exp(1j * params.sigma * params.m * np.asarray(k_phi, dtype=float)) * radial
    if not np.isfinite(psi).all():
        raise DiagnosticError(f"psi is not a finite double at these {name}")
    return psi[()]


def _exponents(params, x, paraxial):
    """(P, D, T) with psi's radial factor x^P e^(-D) T."""
    if paraxial:
        return 2 * params.n + abs(params.m), 0.5 * params.w**2 * x**2, 1.0
    # D = beta k_minus, as in _coefficients
    return params.n + abs(params.m) / 2.0, params.w**2 * params.k_plus * x, params.k_plus + x


def _apply(op, params, x, k_phi, sign_policy):
    """(psi, a, A psi) with A psi = a psi, a = b g + c_r + c_m, g = x d/dx log psi, on the
    closed-form psi."""
    paraxial = op == "Nk_paraxial"
    psi = _closed_form(params, x, k_phi, paraxial)
    m, x = _angular_number(params.m, sign_policy), np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        power, decay, tail = _exponents(params, x, paraxial)
        g = power - 2.0 * decay if paraxial else power - decay + x / tail
        b, c_r, c_m = _coefficients(op, x, m, params.w, params.k_plus)
        a = b * g + c_r + c_m
        out = a * psi
    if not np.isfinite(out).all():
        raise DiagnosticError(f"{op} psi is not a finite double at these points")
    return psi, a, out[()]


def psi_exact(params: ExactMomentumParams, k_minus, k_phi):
    """Exact momentum-space wavefunction on the constraint surface: unnormalized, as printed,
    with the total wavenumber k = k_plus + k_minus as its trailing factor."""
    return _closed_form(params, k_minus, k_phi, paraxial=False)


def apply_nk(params: ExactMomentumParams, k_minus, k_phi, sign_policy="symmetrized"):
    """Apply the non-paraxial radial momentum operator to psi_exact.

    N_k = k_minus d/dk_minus + (i / 2 sigma) d/dk_phi - k_minus / k
          + (w^2 Omega / c) k_minus,   with k = k_plus + k_minus.
    """
    return _apply("Nk", params, k_minus, k_phi, sign_policy)[2]


def nk_eigen_residual(params: ExactMomentumParams, k_minus, k_phi,
                      sign_policy="symmetrized") -> float:
    """max |N_k psi - n psi| / |psi| over the sample points; a psi of 0 raises DiagnosticError."""
    psi, a, _ = _apply("Nk", params, k_minus, k_phi, sign_policy)  # N_k psi = a psi
    if np.any(psi == 0):  # k_minus = 0 with n + |m| > 0, or an underflow
        raise DiagnosticError("nk_eigen_residual needs psi != 0 at every sample point")
    return float(np.max(np.abs(a - _radial_eigenvalue(params.n, params.m, sign_policy))))


def nk_polar(params: ExactMomentumParams, k_t, k_z, k_phi, sign_policy="symmetrized"):
    """Polar form of N_k applied to psi_exact on the constraint surface.

    N_k = (1/2) [ k_t d/dk_t + (i/sigma) d/dk_phi
                  - (k - k_z) (d/dk_z + 1/k - w^2 Omega / c) ]

    d/dk_t and d/dk_z act through k_minus at fixed k_plus, which the delta constraint
    pins; so on the surface this is N_k at k_minus = (k - k_z)/2, and is evaluated as that.
    """
    return apply_nk(params, polar_to_plusminus(k_t, k_z)[1], k_phi, sign_policy)


def psi_paraxial(params: ExactMomentumParams, k_t, k_phi):
    """Paraxial momentum wavefunction: separable, real radial factor."""
    return _closed_form(params, k_t, k_phi, paraxial=True)


def apply_nk_paraxial(params: ExactMomentumParams, k_t, k_phi, sign_policy="symmetrized"):
    """Apply N'_k = (k_t d/dk_t + (i/sigma) d/dk_phi + w^2 k_t^2) / 2."""
    return _apply("Nk_paraxial", params, k_t, k_phi, sign_policy)[2]


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


def hermiticity_defect(psi, *, w, sigma=1, kt_max) -> HermiticityDefect:
    """Hermiticity defect of the paraxial radial-momentum operator N'_k on a sampled psi.

    Only N'_k's k_t d/dk_t / 2 can be non-hermitian (w^2 k_t^2 / 2 is real, and (i/sigma) d/dk_phi
    hermitian on a psi periodic in k_phi, so sigma, though checked, cannot change the defect): in
    s = ln k_t, with F = psi k_t, the defect -2i Im <psi, N'_k psi> is -i (h/n) sum kappa |F^|^2,
    F^ by one FFT in s of F's k_phi spectrum (Parseval).  s spans (ln k0, ln kt_max], at most 96,
    k0 = e^-24 min(kt_max, 16/w) (a Gaussian of width 1/w is 1e-9 of its peak |F| there), on
    n = 64 ceil(span/8), then 2n, nodes (192, 384 for kt_max <= 16/w) times 64 k_phi nodes; the
    two defects must agree to 1e-6 relative or 1e-6 ||psi||^2.  N'_k is hermitian exactly when
    psi's radial factor is real.  A psi that is zero, not finite or above 2e-9 of its peak |F| at
    an end, or a defect or norm not a finite double, raises DiagnosticError.

    Parameters
    ----------
    psi : callable (k_t, k_phi) -> complex, broadcasting a k_t column and a k_phi row
    w, sigma : operator context (w > 0 sets the window; sigma = +-1)
    kt_max : top of the k_t window, finite, > 0, with kt_max^2 a normal double
    """
    _check_helicity(sigma)
    if not 0 < w < math.inf:
        raise DiagnosticError(f"w must be finite and > 0, got {w}")
    k, wk = float(kt_max), float(w) * float(kt_max)  # Python floats: an overflow is inf, silently
    if not (0 < k and np.finfo(float).tiny <= k * k < math.inf):
        raise DiagnosticError(f"kt_max must be finite and > 0, with normal kt_max^2, got {kt_max}")
    span = min(24.0 + math.log(wk / 16.0), 96.0) if wk > 16.0 else 24.0
    kphi, nodes = np.arange(64) * (2.0 * math.pi / 64), 64 * math.ceil(span / 8.0)

    def evaluate(n):
        s = math.log(k) - (span / n) * np.arange(n - 1, -1, -1)
        kt, kappa = np.exp(s), _wavenumbers(n)[1] * (2.0 * math.pi / span)  # d/ds is i kappa
        f = _spectrum(_broadcast(psi(kt[:, None], kphi), (n, 64), "hermiticity_defect's psi"),
                      "hermiticity_defect needs a finite psi")
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            f *= kt[:, None]  # F; its |F|^2 sums are taken on float views, with no temporaries
            v, g = f.view(float), np.fft.fft(f, axis=0).view(float)  # F^ in s: F' is i kappa F^
            rows, scale = np.einsum("ij,ij->i", v, v), (span / n) * (2.0 * math.pi / 64) / 64
            defect = complex(0.0, -scale * ((1.0 / n) * np.einsum("i,ij,ij->", kappa, g, g)))
            nrm = scale * float(rows.sum())  # scale is h: the step, with Parseval's 1/64
        if not (0.0 < nrm < math.inf and np.isfinite(defect)):  # psi = 0, or an overflow
            raise DiagnosticError(f"hermiticity_defect needs a psi that is not identically zero, "
                                  f"and a finite defect and norm, got {defect}, {nrm}")
        _require_decay(rows, s, "hermiticity_defect needs |psi k_t|", "ln k_t")
        return defect, nrm, HermiticityDefect(defect=defect, norm_sq=nrm)

    return _converge("hermiticity defect", evaluate, (nodes, 2 * nodes), 1e-6, 1e-6)
