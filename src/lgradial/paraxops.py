"""Differential operators on the transverse plane in polar coordinates.

Implements the orbital angular momentum operator Lz = -i d/dphi, the
transverse Laplacian, the hyperbolic momentum PH = -i (r d/dr + 1) that
generates dilations, and the radial-index operators N0 (focal plane) and Nz
(any plane), with hbar = 1 throughout.

Every operator has two application paths, and both return a FieldGrid:

  * analytic  - a closed-form LG mode is its radial profile times
                exp(i l phi): the radial derivatives are read off the
                overflow-safe radial table on the radial nodes only, and
                the phi parts are exact (Lz -> l, d2_phi -> -l^2, |Lz| -> |l|);
  * fd        - 7-point banded stencils in r (N x 7 weights in closed
                barycentric form; real batched matmuls contract both radial
                orders at once with 7-row windows of the field, read in
                place) and one forward FFT shared by the spectral phi parts,
                for arbitrary sampled fields.

Both paths only supply the derivatives; one dispatch defines every operator.

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
                     _require_weights, beam_geometry, norm, sample)
from .specfun import make_rule

__all__ = [
    "Operator",
    "phi_derivative",
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
# finite-difference machinery

def _stencils(nodes, m):
    """Banded 7-point finite-difference weights of derivative orders 0..m <= 2 on sorted nodes.

    Returns (idx, c): N x 7 stencil indices and (m+1) x N x 7 weights with
    f^(s)(nodes[i]) ~= sum_j c[s, i, j] f(nodes[idx[i, j]]).  Each row is
    centred on its node, and the rows near either end are one-sided.  The
    weights are the derivatives at the row's node x_p of the Lagrange
    interpolant through its stencil nodes x_j, in closed barycentric form
    (Berrut & Trefethen, SIAM Rev. 46, 501, 2004): with lam_j = 1/prod_(k!=j)
    (x_j - x_k), c[1, j] = (lam_j/lam_p)/(x_p - x_j) and c[2, j] =
    2 c[1, j] (c[1, p] - 1/(x_p - x_j)) for j != p; the own-node entries make
    each row sum to 0.  All rows at once, on any nodes; c[s] does not depend on m.
    """
    npts = 7
    x = np.asarray(nodes, dtype=float)
    n = len(x)
    if n < npts:
        raise GridError(f"need at least {npts} radial nodes, got {n}")
    rows = np.arange(n)
    lo = np.clip(rows - npts // 2, 0, n - npts)
    idx = lo[:, None] + np.arange(npts)
    p = rows - lo  # each row's own node within its stencil
    xs = x[lo + np.arange(npts)[:, None]]  # idx.T, rows contiguous
    diff = xs[:, None] - xs  # x_j - x_k as [j, k, row]
    diff.reshape(npts * npts, n)[::npts + 1] = 1.0  # k = j: the product runs over k != j
    lam = 1.0 / diff.prod(axis=1)
    dx = x - xs
    dx[p, rows] = np.inf
    inv = 1.0 / dx  # 1/(x_p - x_j), 0 at j = p
    c = np.zeros((3, npts, n))
    c[1] = lam / lam[p, rows] * inv  # 0 at j = p, as inv is
    c[2] = 2.0 * c[1] * (-c[1].sum(axis=0) - inv)  # minus the row sum is c[1] at j = p
    c[0, p, rows] = 1.0
    c[1:, p, rows] = -c[1:].sum(axis=1)  # each derivative row sums to 0
    return idx, c[:m + 1].transpose(0, 2, 1)


def _radial_derivatives(nodes, values, m):
    """d^s/dr^s along axis 0 of `values` on `nodes` for s = 1..m, stacked on a new axis 0.

    One stencil build serves every order.  Real matmuls, batched over orders and rows,
    contract the weights with 7-row windows of `values` (complex ones through their float
    view), read in place rather than gathered, and write into the float view of the
    result.  Row i's stencil is window clip(i - 3, 0, N - 7): the interior rows take the
    windows in order, and the three rows at either end share the first or the last one.
    """
    values = np.ascontiguousarray(values, dtype=complex if np.iscomplexobj(values) else float)
    c, n = _stencils(nodes, m)[1], len(values)
    out = np.empty((m,) + values.shape, dtype=values.dtype)
    v, o = values.reshape(n, -1).view(float), out.reshape(m, n, 1, -1).view(float)
    win = sliding_window_view(v, 7, axis=0).swapaxes(1, 2)  # win[i] = v[i:i + 7]
    np.matmul(c[1:, :3, None, :], win[0], out=o[:, :3])
    np.matmul(c[1:, 3:n - 3, None, :], win, out=o[:, 3:n - 3])
    np.matmul(c[1:, n - 3:, None, :], win[-1], out=o[:, n - 3:])
    return out


def _phi_multiplier(nphi, part):
    """Real spectral multiplier of d2_phi, Lz = -i d/dphi or |Lz| ("d2_phi", "lz", "abs_lz")."""
    m = np.fft.fftfreq(nphi, d=1.0 / nphi)
    if part == "lz" and nphi % 2 == 0:
        m[nphi // 2] = 0.0  # odd derivative has no well-defined Nyquist mode
    return {"d2_phi": -(m**2), "lz": m, "abs_lz": np.abs(m)}[part]


def phi_derivative(values, order):
    """Spectral d^order/dphi^order along axis 1 of an (r, phi) array."""
    m = _phi_multiplier(values.shape[1], "lz" if order % 2 else "abs_lz")  # |m|^2k = m^2k
    return np.fft.ifft(np.fft.fft(values, axis=1) * (1j * m) ** order, axis=1)


# ---------------------------------------------------------------------------
# operator definitions, shared by both paths

def _curvature_term(params: LGParams, z, r, f, d_r):
    """(i z / (k w0^2)) d/dr (r f) = -(z / (k w0^2)) PH f."""
    coeff = z / (params.k * params.w0**2)
    if coeff == 0.0:
        return np.zeros_like(f)
    return 1j * coeff * (f + r * d_r)


def _apply(op: Operator, z, r, f, radial, azimuthal):
    """The operator on a field f at plane z, given its derivatives.

    radial() returns (d_r f, d2_r f); azimuthal(part) returns d2_phi f, Lz f
    or |Lz| f for part "d2_phi", "lz" or "abs_lz".  N0 (z = 0) and Nz are
    -(w_z^2/8) lap f - lz_part/2 + (r^2/w0^2 - 1) f/2, plus the curvature term
    off focus; lz_part is Lz f ("verbatim") or |Lz| f ("symmetrized").
    """
    if op.kind == "Lz":
        return azimuthal("lz")
    d_r, d2_r = radial()
    if op.kind == "PH":
        return -1j * (r * d_r + f)
    if op.kind == "curvature_term":
        return _curvature_term(op.params, op.z, r, f, d_r)
    lap = d2_r + d_r / r + azimuthal("d2_phi") / r**2
    if op.kind == "laplacian_t":
        return lap
    z_op = 0.0 if op.kind == "N0" else op.z
    if not math.isclose(z, z_op, rel_tol=0, abs_tol=1e-12 * (1 + abs(z_op))):
        raise GridError(f"field at z={z} but operator built for z={z_op}")
    params = op.params
    w_eff = beam_geometry(params, z_op).w_z if z_op != 0.0 else params.w0
    out = -(w_eff**2 / 8.0) * lap
    out -= 0.5 * azimuthal("lz" if op.sign_policy == "verbatim" else "abs_lz")
    out += 0.5 * (r**2 / params.w0**2 - 1.0) * f
    if z_op != 0.0:
        out += _curvature_term(params, z_op, r, f, d_r)
    return out


def apply_to_field(op: Operator, field: FieldGrid) -> FieldGrid:
    """Apply an operator to a sampled field: 7-point stencils in r, FFT in phi."""
    grid, f = field.grid, field.values
    spectrum = None

    def azimuthal(part):  # one phi check and one forward FFT per apply
        nonlocal spectrum
        if spectrum is None:
            if len(grid.phi_nodes) < 8 or not grid.phi_uniform_period:
                raise GridError("phi derivatives need >= 8 phi nodes uniformly covering a period")
            spectrum = np.fft.fft(f, axis=1)
        return np.fft.ifft(spectrum * _phi_multiplier(f.shape[1], part), axis=1)

    return FieldGrid(grid, _apply(op, grid.z, grid.r_nodes[:, None], f,
                                  lambda: _radial_derivatives(grid.r_nodes, f, 2), azimuthal))


def _mode_apply(op: Operator, params: LGParams, z, r):
    """(f, A f) for the closed-form mode along phi = 0, on radial nodes r only."""
    f, d_r, d2_r = _mode_derivatives(params, z, r)
    l = params.l
    parts = {"d2_phi": -(l**2) * f, "lz": l * f, "abs_lz": abs(l) * f}
    return f, _apply(op, z, r, f, lambda: (d_r, d2_r), parts.__getitem__)


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

    The analytic path integrates the radial factor with the grid's weights
    (the phi integral, 2 pi, cancels); the fd path works on the sampled grid.
    """
    a = expected_eigenvalue(op, params)
    if method == "analytic":
        f, out = _mode_apply(op, params, grid.z, grid.r_nodes)
        w = _require_weights(grid) * grid.r_nodes
        return math.sqrt(np.sum(w * np.abs(out - a * f) ** 2) / np.sum(w * np.abs(f) ** 2))
    f = sample(params, grid)
    return norm(FieldGrid(grid, apply_to_field(op, f).values - a * f.values)) / norm(f)


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
    """|| (AB - BA) f - C f || / || f || against the expected commutator C."""
    nf = norm(field)
    if not 0.0 < nf < math.inf:
        raise DiagnosticError(f"commutator_residual needs a nonzero, finite field, got norm {nf}")
    ab = apply_to_field(op_a, apply_to_field(op_b, field)).values
    ba = apply_to_field(op_b, apply_to_field(op_a, field)).values
    comm = ab - ba
    coeff = _EXPECTED_COMMUTATORS.get((op_a.kind, op_b.kind))
    if coeff:
        comm -= coeff * apply_to_field(Operator("laplacian_t"), field).values
    return norm(FieldGrid(field.grid, comm)) / nf
