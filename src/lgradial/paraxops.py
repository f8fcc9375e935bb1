"""Differential operators on the transverse plane in polar coordinates.

Implements the orbital angular momentum operator Lz = -i d/dphi, the
transverse Laplacian, the hyperbolic momentum PH = -i (r d/dr + 1) that
generates dilations, and the radial-index operators N0 (focal plane) and Nz
(any plane), with hbar = 1 throughout.

Every operator has two application paths:

  * analytic  - exact partial derivatives of a closed-form LG mode;
  * fd        - 7-point banded stencils in r (N x 7 weights, no dense
                matrix) and spectral (Fourier) differentiation in the
                periodic phi direction, for arbitrary sampled fields.

Both paths feed their derivatives to one definition of each operator.

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

from .errors import DiagnosticError, GridError
from .lgmode import (FieldGrid, LGParams, PolarGrid, beam_geometry, inner,
                     lg_partials, norm, sample)
from .specfun import make_rule

__all__ = [
    "Operator",
    "AppliedField",
    "phi_derivative",
    "phi_abs_multiplier",
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
        if self.sign_policy not in SIGN_POLICIES:
            raise DiagnosticError(f"unknown sign policy {self.sign_policy!r}")
        if self.kind in ("N0", "Nz", "curvature_term") and self.params is None:
            raise DiagnosticError(f"{self.kind} requires beam params for (k, w0)")
        if self.kind in ("Nz", "curvature_term") and self.z is None:
            raise DiagnosticError(f"{self.kind} requires a plane z")


@dataclass(frozen=True)
class AppliedField:
    input: FieldGrid
    output: FieldGrid
    operator: Operator
    method: str


# ---------------------------------------------------------------------------
# finite-difference machinery

def _stencils(nodes, m):
    """Banded 7-point finite-difference weights of derivative order m on sorted nodes.

    Returns (idx, w), two N x 7 arrays with f^(m)(nodes[i]) ~= sum_j
    w[i, j] f(nodes[idx[i, j]]).  Each row is centred on its node, and the
    rows near either end are one-sided.  Fornberg's recurrence (Math. Comp.
    51, 699, 1988) runs on all N rows at once, so it also serves non-uniform
    nodes.
    """
    npts = 7
    x = np.asarray(nodes, dtype=float)
    n = len(x)
    if n < npts:
        raise GridError(f"need at least {npts} radial nodes, got {n}")
    lo = np.clip(np.arange(n) - npts // 2, 0, n - npts)
    idx = lo[:, None] + np.arange(npts)
    xs = x[idx]
    c = np.zeros((m + 1, n, npts))
    c[0, :, 0] = 1.0
    c1 = np.ones(n)
    c4 = xs[:, 0] - x
    for i in range(1, npts):
        c2 = np.ones(n)
        c5 = c4
        c4 = xs[:, i] - x
        for j in range(i):
            c3 = xs[:, i] - xs[:, j]
            c2 = c2 * c3
            if j == i - 1:
                for s in range(min(i, m), 0, -1):
                    c[s, :, i] = c1 * (s * c[s - 1, :, i - 1] - c5 * c[s, :, i - 1]) / c2
                c[0, :, i] = -c1 * c5 * c[0, :, i - 1] / c2
            for s in range(min(i, m), 0, -1):
                c[s, :, j] = (c4 * c[s, :, j] - s * c[s - 1, :, j]) / c3
            c[0, :, j] = c4 * c[0, :, j] / c3
        c1 = c2
    return idx, c[m]


def _radial_derivative(nodes, values, m):
    """d^m/dr^m along axis 0 of `values` sampled on `nodes`, by 7-point stencils."""
    idx, w = _stencils(nodes, m)
    return np.einsum("ij,ij...->i...", w, values[idx])


def _check_phi(grid: PolarGrid, minimum=8):
    if len(grid.phi_nodes) < minimum:
        raise GridError(f"spectral phi derivatives need >= {minimum} nodes")
    if not grid.phi_uniform_period:
        raise GridError("phi nodes must uniformly cover a full period")


def _phi_wavenumbers(nphi):
    return np.fft.fftfreq(nphi, d=1.0 / nphi)


def phi_derivative(values, order):
    """Spectral d^order/dphi^order along axis 1 of an (r, phi) array."""
    nphi = values.shape[1]
    m = _phi_wavenumbers(nphi)
    mult = (1j * m) ** order
    if order % 2 == 1 and nphi % 2 == 0:
        mult[nphi // 2] = 0.0  # odd derivative has no well-defined Nyquist mode
    return np.fft.ifft(np.fft.fft(values, axis=1) * mult, axis=1)


def phi_abs_multiplier(values):
    """Apply |Lz| spectrally: multiply each azimuthal harmonic m by |m|."""
    nphi = values.shape[1]
    m = np.abs(_phi_wavenumbers(nphi))
    return np.fft.ifft(np.fft.fft(values, axis=1) * m, axis=1)


# ---------------------------------------------------------------------------
# operator definitions, shared by both paths

def _laplacian(r, d_r, d2_r, d2_phi):
    return d2_r + d_r / r + d2_phi / r**2


def _curvature_term(params: LGParams, z, r, f, d_r):
    """(i z / (k w0^2)) d/dr (r f) = -(z / (k w0^2)) PH f."""
    coeff = z / (params.k * params.w0**2)
    if coeff == 0.0:
        return np.zeros_like(f)
    return 1j * coeff * (f + r * d_r)


def _radial_index_op(params: LGParams, z, r, f, d_r, d2_r, d2_phi, lz_part):
    """N0 (z = 0) or Nz on f, given its derivatives.

    -(w_z^2/8) lap f - lz_part/2 + (r^2/w0^2 - 1) f/2, plus the curvature
    term off focus; lz_part is Lz f ("verbatim") or |Lz| f ("symmetrized").
    """
    w_eff = beam_geometry(params, z).w_z if z != 0.0 else params.w0
    out = -(w_eff**2 / 8.0) * _laplacian(r, d_r, d2_r, d2_phi)
    out -= 0.5 * lz_part
    out += 0.5 * (r**2 / params.w0**2 - 1.0) * f
    if z != 0.0:
        out += _curvature_term(params, z, r, f, d_r)
    return out


# ---------------------------------------------------------------------------
# FD application path

def _fd_laplacian(field: FieldGrid):
    _check_phi(field.grid)
    nodes, f = field.grid.r_nodes, field.values
    return _laplacian(nodes[:, None], _radial_derivative(nodes, f, 1),
                      _radial_derivative(nodes, f, 2), phi_derivative(f, 2))


def apply_to_field(op: Operator, field: FieldGrid) -> AppliedField:
    """Apply an operator to a sampled field by finite differences."""
    f, nodes = field.values, field.grid.r_nodes
    r = nodes[:, None]
    if op.kind == "Lz":
        _check_phi(field.grid)
        out = -1j * phi_derivative(f, 1)
    elif op.kind == "laplacian_t":
        out = _fd_laplacian(field)
    elif op.kind == "PH":
        out = -1j * (r * _radial_derivative(nodes, f, 1) + f)
    elif op.kind == "curvature_term":
        out = _curvature_term(op.params, op.z, r, f, _radial_derivative(nodes, f, 1))
    elif op.kind in ("N0", "Nz"):
        z = 0.0 if op.kind == "N0" else op.z
        if not math.isclose(field.grid.z, z, rel_tol=0, abs_tol=1e-12 * (1 + abs(z))):
            raise GridError(f"field sampled at z={field.grid.z} but operator built for z={z}")
        if np.any(nodes == 0.0):
            raise GridError("radial-index operators are undefined on the origin node")
        _check_phi(field.grid)
        lz_part = (-1j * phi_derivative(f, 1) if op.sign_policy == "verbatim"
                   else phi_abs_multiplier(f))
        out = _radial_index_op(op.params, z, r, f, _radial_derivative(nodes, f, 1),
                               _radial_derivative(nodes, f, 2), phi_derivative(f, 2), lz_part)
    else:  # pragma: no cover - guarded by Operator validation
        raise DiagnosticError(op.kind)
    return AppliedField(input=field, output=FieldGrid(field.grid, out), operator=op, method="fd")


# ---------------------------------------------------------------------------
# analytic application path

def apply_to_mode(op: Operator, params: LGParams, grid: PolarGrid) -> AppliedField:
    """Apply an operator to the closed-form mode via its analytic partials."""
    r, phi = grid.mesh()
    field = FieldGrid(grid, sample(params, grid).values)
    z = grid.z
    if op.kind == "Nz":
        if op.z is None or not math.isclose(z, op.z, rel_tol=0, abs_tol=1e-12 * (1 + abs(op.z))):
            raise GridError(f"grid at z={z} does not match operator z={op.z}")
    if op.kind == "N0" and z != 0.0:
        raise GridError("the focal-plane operator applies to z = 0 fields only")
    d_r, d2_r, d_phi, d2_phi = lg_partials(params, r, phi, z)
    f = field.values

    if op.kind == "Lz":
        out = -1j * d_phi
    elif op.kind == "laplacian_t":
        out = _laplacian(r, d_r, d2_r, d2_phi)
    elif op.kind == "PH":
        out = -1j * (r * d_r + f)
    elif op.kind == "curvature_term":
        out = _curvature_term(op.params or params, op.z, r, f, d_r)
    elif op.kind in ("N0", "Nz"):
        z_op = 0.0 if op.kind == "N0" else op.z
        lz_part = -1j * d_phi if op.sign_policy == "verbatim" else abs(params.l) * f
        out = _radial_index_op(op.params or params, z_op, r, f, d_r, d2_r, d2_phi, lz_part)
    else:  # pragma: no cover
        raise DiagnosticError(op.kind)
    return AppliedField(input=field, output=FieldGrid(grid, out), operator=op, method="analytic")


def expected_eigenvalue(op: Operator, params: LGParams) -> float:
    """Eigenvalue the operator should return on the given mode."""
    if op.kind == "Lz":
        return float(params.l)
    if op.kind in ("N0", "Nz"):
        if op.sign_policy == "verbatim":
            return float(params.n + (abs(params.l) - params.l) / 2)
        return float(params.n)
    raise DiagnosticError(f"{op.kind} has no mode eigenvalue")


def eigen_residual(params: LGParams, op: Operator, grid: PolarGrid, method="analytic") -> float:
    """|| A f - a f || / || f || for the expected eigenvalue a."""
    a = expected_eigenvalue(op, params)
    if method == "analytic":
        applied = apply_to_mode(op, params, grid)
    else:
        applied = apply_to_field(op, sample(params, grid))
    f = applied.input
    resid = FieldGrid(grid, applied.output.values - a * f.values)
    return norm(resid) / norm(f)


# ---------------------------------------------------------------------------
# dilations generated by the hyperbolic momentum

@dataclass(frozen=True)
class DilationCheck:
    """Numbers returned by dilation_check; see that function."""

    gamma: float
    unitarity_ratio: float
    identity_defect: float
    generator_defect: float


def _radial_norm(rule, values):
    return math.sqrt(float(rule.integrate(np.abs(values) ** 2 * rule.nodes)))


def dilation_check(f, gamma, *, delta=1e-4, rule=None) -> DilationCheck:
    """Check the dilation family (D_g f)(r) = e^g f(e^g r) on a radial function.

    Verifies that D_g is unitary under the measure r dr, that D_0 is the
    identity, and that the central difference (D_d f - D_{-d} f) / (2 d)
    matches the generator (r d/dr + 1) f, i.e. i PH f with hbar = 1.
    """
    if rule is None:
        rule = make_rule("legendre", 384, interval=(0.0, 32.0))
    r = rule.nodes
    base = np.asarray(f(r), dtype=complex)
    nf = _radial_norm(rule, base)
    if nf == 0.0:
        raise DiagnosticError("dilation_check requires a nonzero test function")

    dilated = math.exp(gamma) * np.asarray(f(math.exp(gamma) * r), dtype=complex)
    unitarity = _radial_norm(rule, dilated) / nf
    identity_defect = _radial_norm(rule, dilated - base) / nf

    cd = (math.exp(delta) * np.asarray(f(math.exp(delta) * r), dtype=complex)
          - math.exp(-delta) * np.asarray(f(math.exp(-delta) * r), dtype=complex)) / (2.0 * delta)
    h = 1e-4 * float(rule.interval[1])
    offsets = np.arange(-3, 4)
    w = _stencils(offsets * h, 1)[1][3]
    fprime = sum(wj * np.asarray(f(r + oj * h), dtype=complex)
                 for wj, oj in zip(w, offsets))
    gen = r * fprime + base
    denom = _radial_norm(rule, gen)
    generator_defect = _radial_norm(rule, cd - gen) / denom if denom > 0 else 0.0
    return DilationCheck(gamma=gamma, unitarity_ratio=unitarity,
                         identity_defect=identity_defect,
                         generator_defect=generator_defect)


# ---------------------------------------------------------------------------
# commutators

_EXPECTED_COMMUTATORS = {
    ("N0", "Lz"): "zero",
    ("Lz", "N0"): "zero",
    ("Lz", "Lz"): "zero",
    ("laplacian_t", "PH"): "lap_scaled",   # [lap, PH] = -2i lap
    ("PH", "laplacian_t"): "lap_scaled_neg",
}


def commutator_residual(op_a: Operator, op_b: Operator, field: FieldGrid) -> float:
    """|| (AB - BA) f - C f || / || f || against the expected commutator C."""
    ab = apply_to_field(op_a, apply_to_field(op_b, field).output).output.values
    ba = apply_to_field(op_b, apply_to_field(op_a, field).output).output.values
    comm = ab - ba
    tag = _EXPECTED_COMMUTATORS.get((op_a.kind, op_b.kind), "zero")
    if tag == "lap_scaled":
        comm -= -2j * _fd_laplacian(field)
    elif tag == "lap_scaled_neg":
        comm -= 2j * _fd_laplacian(field)
    return norm(FieldGrid(field.grid, comm)) / norm(field)
