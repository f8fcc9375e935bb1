"""Exact solutions of Maxwell's equations in the Bessel-beam basis.

Contains the scalar Bessel modes chi (exact solutions of the full wave
equation), the Riemann-Silberstein vector field of a single Bessel mode,
finite-difference Maxwell/wave-equation residual checks, the closed-form
exact Laguerre-Gauss-type scalar field with complex beam parameter
a(t_plus) = w^2 + i sigma c^2 t_plus / Omega, and Gauss-rule synthesis of that
field from `momentum.psi_exact` (its radial factor is defined there only).

Every function takes a `SpacetimePoint` whose fields are floats or arrays of
one broadcastable shape, and evaluates a single point and a batch by the same
code: a batch returns values of the broadcast shape, a point a scalar.

`chi_closed_form` is the integral `synthesize_lg` computes, done in closed form.  With
A = |m|, b = r sqrt(k_plus), p = beta + i sigma c t_plus = k_plus a(t_plus) and
x = b^2/p = r^2/a(t_plus), the Laplace transform of a Laguerre-Bessel kernel (Re p > 0)

    int_0^inf k^(j+A/2) e^(-p k) J_A(2 b sqrt k) dk = T_j = j! b^A p^-(j+A+1) e^(-x) L_j^A(x)

taken on psi_exact = k_minus^(n+A/2) e^(-beta k_minus) (k_plus + k_minus) times the
kernel exp(-i sigma c k_minus t_plus) J_m(2 r sqrt(k_plus k_minus)) gives

    chi = (k_plus T_n + T_(n+1)) exp(-i sigma (Omega t_minus - m phi)),   t_pm = t -+/+ z/c,

negated for odd m < 0 (J_-m = (-1)^m J_m).  The closed form as printed,
r^A / a^(n+A+1) exp(-x) L_n^A(x) times the carrier, is k_plus T_n / (n! k_plus^-(n+A/2)):
it dropped the k_minus part of psi's trailing factor k = k_plus + k_minus, whose term T_(n+1)
is smaller by about n/(k w)^2.  So the closed form was the wrong side, not psi: the two terms
equal the synthesis pointwise, with no fitted scale.  The azimuthal phase multiplies m phi
alone (not Omega m phi, which would be dimensionally inconsistent).

Numerically, T_j = sqrt(j! (j+A)!) p^-(j+A/2+1) e^(-x/2) phi_j(x), with phi_j row j of the
Laguerre table `lgmode._lg_rows` at u = x, and b^A x^(-A/2) = p^(A/2) on the principal
branch.  So both terms are rows n and n+1 of one table: its starting log scale carries
log k_plus + log sqrt(n! (n+A)!) (by lgamma) - (n+A/2+1) log p - x/2, applied with the
table's own log scale in one exp, and T_(n+1) = row_(n+1) sqrt((n+1)(n+A+1)) / (k_plus p).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .errors import DiagnosticError, _check_helicity, _check_int, _check_order
from .lgmode import _gauss_u, _lg_rows, _top
from .momentum import ExactMomentumParams, psi_exact
from .specfun import _bessel_j_and_derivative, _converge, bessel_j

__all__ = [
    "BesselModeParams",
    "SpacetimePoint",
    "RSField",
    "chi_bessel",
    "rs_bessel_field",
    "MaxwellResidual",
    "maxwell_residual",
    "wave_residual",
    "chi_closed_form",
    "synthesize_lg",
    "fit_global_scale",
]


@dataclass(frozen=True)
class BesselModeParams:
    """One Bessel mode of the exact basis: azimuthal index, helicity, momenta."""

    m: int
    sigma: int
    k_t: float   # transverse wavenumber, rad/m, > 0
    k_z: float   # longitudinal wavenumber, rad/m

    def __post_init__(self):
        _check_int(self.m, "m")
        _check_helicity(self.sigma)
        if not (0 < self.k_t < math.inf and math.isfinite(self.k_z)):
            raise DiagnosticError(f"k_t must be finite > 0, k_z finite: {self.k_t}, {self.k_z}")

    @property
    def k(self):
        return math.hypot(self.k_t, self.k_z)

    @property
    def omega_k(self):
        return C_LIGHT * self.k


@dataclass(frozen=True)
class SpacetimePoint:
    """Cylindrical coordinates (r, phi, z) and time t, SI units.

    Each field is a float or an array; arrays must share one broadcastable
    shape, and the point is then the batch of that shape.
    """

    r: float
    phi: float
    z: float
    t: float = 0.0

    @property
    def t_plus(self):
        return self.t + self.z / C_LIGHT

    @property
    def t_minus(self):
        return self.t - self.z / C_LIGHT


@dataclass(frozen=True)
class RSField:
    """Cylindrical components of the Riemann-Silberstein vector at a point or a batch."""

    F_r: complex
    F_phi: complex
    F_z: complex


def chi_bessel(params: BesselModeParams, p: SpacetimePoint, k_phi=0.0):
    """Scalar Bessel-basis mode.

    (sigma i)^m / (k k_t sqrt 2) exp(sigma i (w_k t - k_z z - m (phi - k_phi)))
    J_m(k_t r);  the momentum azimuth k_phi defaults to 0 since synthesis
    folds it into the spectral weight.
    """
    s = params.sigma
    pref = (1j * s) ** params.m / (params.k * params.k_t * math.sqrt(2.0))
    phase = np.exp(1j * s * (params.omega_k * p.t - params.k_z * p.z
                             - params.m * (p.phi - k_phi)))
    return pref * phase * bessel_j(params.m, params.k_t * p.r)


def rs_bessel_field(params: BesselModeParams, p: SpacetimePoint) -> RSField:
    """Riemann-Silberstein vector of a single Bessel mode (beam-like gauge).

    Satisfies dF/dt = -i c curl F and div F = 0 exactly; helicity sigma.
    """
    if np.any(p.r <= 0):
        raise DiagnosticError("rs_bessel_field requires r > 0")
    s = params.sigma
    m, k, kt, kz = params.m, params.k, params.k_t, params.k_z
    u = kt * p.r
    J, Jp = _bessel_j_and_derivative(m, u)
    pref = ((1j * s) ** m / (k * math.sqrt(2.0))
            * np.exp(-1j * s * (params.omega_k * p.t - kz * p.z - m * p.phi)))
    F_r = pref * (1j * s * kz * Jp + 1j * (k * m / u) * J)
    F_phi = pref * (-s * k * Jp - (kz * m / u) * J)
    F_z = pref * kt * J
    return RSField(F_r=F_r, F_phi=F_phi, F_z=F_z)


# ---------------------------------------------------------------------------
# finite-difference residual checks

_D1_W = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0   # 4th-order first derivative
_D2_W = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # 4th-order second derivative
_OFFS = np.array([-2, -1, 0, 1, 2])
# FD step as a fraction of the wavelength (and of a turn in phi): it balances truncation
# against roundoff for 4th-order stencils in double precision (1e-4 of a wavelength
# is roundoff-dominated and fails its own halving check)
_STEP_FRACTION = 2e-3


def _stencil(sampler, p: SpacetimePoint, wavenumber, frac):
    """One sampler call on p shifted by -2..2 steps h along each of (r, phi, z, t): a
    (4, 5) batch, axis by offset, whose column 2 is p.  Returns (samples, h).

    The steps are `frac` of a wavelength (r, z), a turn (phi) and a period (t).
    """
    if not (math.isfinite(wavenumber) and wavenumber > 0):
        raise DiagnosticError(f"wavenumber must be finite and > 0, got {wavenumber}")
    lam = 2.0 * math.pi / wavenumber
    h = np.array([frac * lam, frac * 2.0 * math.pi, frac * lam, frac * lam / C_LIGHT])
    if not (p.r > 2.0 * h[0] and all(map(math.isfinite, (p.r, p.phi, p.z, p.t)))):
        raise DiagnosticError(f"need a finite point with r > 2 steps = {2.0 * h[0]:.3g} m, got {p}")
    shifts = np.eye(4)[:, :, None] * h[:, None] * _OFFS  # [axis, coordinate, offset]
    q = SpacetimePoint(*(x + shifts[:, i] for i, x in enumerate((p.r, p.phi, p.z, p.t))))
    return sampler(q), h


@dataclass(frozen=True)
class MaxwellResidual:
    curl_defect: float
    div_defect: float
    warning: str | None = None


def _maxwell_defects(sampler, p, wavenumber, frac):
    f, h = _stencil(sampler, p, wavenumber, frac)
    # [component, axis, offset]; a sampler may return scalars for a constant field
    st = np.array([np.broadcast_to(c, (4, 5)) for c in (f.F_r, f.F_phi, f.F_z)])
    dFdr, dFdphi, dFdz, dFdt = (st @ _D1_W / h).T
    F = st[:, 0, 2]  # center point components
    r = p.r
    curl_r = dFdphi[2] / r - dFdz[1]
    curl_phi = dFdz[0] - dFdr[2]
    curl_z = dFdr[1] + F[1] / r - dFdphi[0] / r
    curl = np.array([curl_r, curl_phi, curl_z])
    div = dFdr[0] + F[0] / r + dFdphi[1] / r + dFdz[2]
    norm_f = float(np.linalg.norm(F))
    if norm_f == 0.0:
        return 0.0, 0.0
    # d/dt F + i c curl F scales as c k ||F||; div F as k ||F||
    curl_defect = float(np.linalg.norm(dFdt + 1j * C_LIGHT * curl)) / (C_LIGHT * norm_f * wavenumber)
    div_defect = float(abs(div)) / (norm_f * wavenumber)
    return curl_defect, div_defect


def maxwell_residual(sampler, p: SpacetimePoint, *, wavenumber) -> MaxwellResidual:
    """Finite-difference Maxwell residuals of an RS field sampler at a single point p.

    Central 4th-order differences with steps of 2e-3 of the local wavelength;
    the result is confirmed by step halving and a warning is attached when
    halving does not decrease the defect.  The sampler is called once per step
    size, on an array-valued `SpacetimePoint` (the (4, 5) stencil), and must
    broadcast: it returns an `RSField` of that shape (or of scalars).  Unless `wavenumber`
    is finite and > 0 and p is finite with p.r beyond two radial steps, `DiagnosticError`.
    """
    c1, d1 = _maxwell_defects(sampler, p, wavenumber, _STEP_FRACTION)
    c2, d2 = _maxwell_defects(sampler, p, wavenumber, 0.5 * _STEP_FRACTION)
    warning = None
    floor = 1e-9
    if (c2 > c1 and c2 > floor) or (d2 > d1 and d2 > floor):
        warning = ("defect did not decrease under step halving; "
                   "step may be too large or the field is not a solution")
    return MaxwellResidual(curl_defect=c2, div_defect=d2, warning=warning)


def wave_residual(sampler, p: SpacetimePoint, *, wavenumber) -> float:
    """Relative residual of (1/c^2) d^2/dt^2 chi - laplacian chi at a single point p.

    The sampler is called once, on the stencil of `maxwell_residual`, and must
    broadcast over it; the same checks on `wavenumber` and p apply.
    """
    s, h = _stencil(sampler, p, wavenumber, _STEP_FRACTION)
    s = np.broadcast_to(s, (4, 5))
    d1, d2 = s @ _D1_W / h, s @ _D2_W / h**2
    chi = s[0, 2]
    lap = d2[0] + d1[0] / p.r + d2[1] / p.r**2 + d2[2]
    dtt = d2[3] / C_LIGHT**2
    scale = max(abs(dtt), wavenumber**2 * abs(chi))
    if scale == 0.0:
        return 0.0
    return float(abs(dtt - lap)) / scale


# ---------------------------------------------------------------------------
# closed form and synthesis

def chi_closed_form(params: ExactMomentumParams, p: SpacetimePoint):
    """The exact field that `synthesize_lg` integrates, in closed form (module docstring):
    finite, 0 where it underflows, or DiagnosticError where it exceeds the largest double."""
    n, am, k_plus = params.n, abs(params.m), params.k_plus
    # numpy complex at a point too (the table takes x's shape and dtype), with no 0-d arrays
    a = np.complex128(params.w**2 + 1j * params.sigma * C_LIGHT**2 / params.Omega * p.t_plus)
    x = p.r**2 / a
    # the rows hold 2^-10 of each term: row n+1 can exceed chi (by up to ~20x over the
    # envelope) and must not overflow first, and a subnormal row still keeps 11 digits
    log_scale = (math.log(k_plus / 1024.0) + 0.5 * (math.lgamma(n + 1) + math.lgamma(n + am + 1))
                 - (n + 0.5 * am + 1) * np.log(k_plus * a) - 0.5 * x)
    with np.errstate(all="ignore"):  # a value that is not finite raises below
        rows = _lg_rows(n + 1, am, x, log_scale)
        chi = ((-1024.0 if params.m < 0 and am % 2 else 1024.0)
               * (rows[n] + math.sqrt((n + 1) * (n + am + 1)) / (k_plus**2 * a) * rows[n + 1])
               * np.exp(-1j * params.sigma * (params.Omega * p.t_minus - params.m * p.phi)))
    if not _top(abs(chi)) < math.inf:  # NaN fails too
        raise DiagnosticError(f"chi_closed_form is not a finite double at n = {n}, "
                              f"|m| = {am}, w = {params.w} m")
    return chi


@functools.lru_cache(maxsize=64)
def _synthesis_rule(params: ExactMomentumParams, order):
    """(k_minus, weight, sqrt(k_plus k_minus)) on the order-point Gauss rule in u = beta k_minus:
    weight is (lam/beta) psi_exact, whose e^(-u) is the rule's.  They depend on (params, order)
    alone, so every synthesis call shares them; the arrays are read-only, and a psi that raises
    is not cached."""
    u, lam = _gauss_u(order, 0)
    km = u / params.beta
    with np.errstate(over="ignore", invalid="ignore"):  # a mass that is not finite raises later
        rule = km, lam / params.beta * psi_exact(params, km, 0.0), np.sqrt(params.k_plus * km)
    for x in rule:
        x.setflags(write=False)
    return rule


def _synthesis_radial(params: ExactMomentumParams, p: SpacetimePoint, order):
    # points x nodes: the rule's weight, the t_plus phase, J_m
    km, weight, root = _synthesis_rule(params, order)
    t_plus, r = (np.asarray(x)[..., None] for x in (p.t_plus, p.r))
    with np.errstate(over="ignore", invalid="ignore"):  # a mass that is not finite raises below
        weighted = (weight * np.exp(-1j * params.sigma * C_LIGHT * t_plus * km)
                    * bessel_j(params.m, 2.0 * r * root))
        value, mass = weighted.sum(axis=-1), np.abs(weighted).sum(axis=-1)
    if not np.isfinite(mass).all():
        raise DiagnosticError(f"synthesis sum is not a finite double at n = {params.n}")
    return value, mass, value  # value, integrand mass, result


def synthesize_lg(params: ExactMomentumParams, p: SpacetimePoint,
                  quad_order=128, *, check_convergence=True):
    """Position-space field synthesized from the momentum-space wavefunction psi_exact.

    Evaluates int_0^inf dk_minus psi(k_minus) exp(-i sigma c (k_plus t_minus
    + k_minus t_plus)) J_m(2 r sqrt(k_plus k_minus)) on the constraint
    surface, psi = `momentum.psi_exact`, by the Gauss rule in u = beta k_minus for
    the weight e^(-u) (`lgmode._gauss_u`), which psi's e^(-beta k_minus) supplies,
    so no truncation radius is ever chosen; the nodes and psi's weights on them depend on
    (params, order) alone and are built once (`_synthesis_rule`).  The azimuthal integral
    is resolved analytically to the exp(i sigma m phi) term.  `quad_order` is an integer >= 8.
    With `check_convergence`, orders q and 2q must agree at every point of p
    to 1e-8 relative or 1e-11 of that point's integrand mass (in oscillatory
    tails far above the value).  A psi or a sum beyond the largest double raises DiagnosticError.
    """
    if _check_order(quad_order) < 8:
        raise DiagnosticError("quad_order must be >= 8")
    val = (_converge("synthesis integral", lambda q: _synthesis_radial(params, p, q),
                     (quad_order, 2 * quad_order), 1e-8, 1e-11) if check_convergence
           else _synthesis_radial(params, p, quad_order)[0])
    return np.exp(-1j * params.sigma * (params.Omega * p.t_minus - params.m * p.phi)) * val


def fit_global_scale(reference, values):
    """Least-squares complex scale s minimizing ||values - s reference||.

    Returns (scale, relative L2 residual of the fit).  Samples of different
    sizes, non-finite samples and an identically zero reference or `values`
    raise `DiagnosticError`.
    """
    reference = np.asarray(reference, dtype=complex).ravel()
    values = np.asarray(values, dtype=complex).ravel()
    if reference.size != values.size:
        raise DiagnosticError(f"reference has {reference.size} samples, values {values.size}")
    if not (np.all(np.isfinite(reference)) and np.all(np.isfinite(values))):
        raise DiagnosticError("samples must be finite")
    denom = np.vdot(reference, reference)
    if denom == 0:
        raise DiagnosticError("reference sample is identically zero")
    norm = np.linalg.norm(values)
    if norm == 0:
        raise DiagnosticError("values are identically zero")
    scale = complex(np.vdot(reference, values) / denom)
    resid = np.linalg.norm(values - scale * reference) / norm
    return scale, float(resid)
