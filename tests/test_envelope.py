"""Property tests over the documented envelope n, |l| <= 300, |z| <= 2 zR, w0 in [5 um, 5 mm].

Inside the envelope every analytic result is finite and matches its closed
form; the derivative tables are checked against mpmath, and the algebraic
overlap matrices against converged quadrature.  The momentum family (n, |m| <= 300,
w in [5 um, 5 mm], any finite k >= 0) is finite or raises DiagnosticError, and so is
synthesize_lg over the same modes and waists at r <= 3 w, |z| <= 2 w and |t| <= 0.4 w^2
Omega/c^2.  There, at wavelengths from 100 nm to 10 um, chi_closed_form matches its
40-digit two-term oracle wherever that is a normal double and raises where it overflows.
Dilations of Gaussian and ring profiles of width 1e-3..1e3 at |gamma| <= 20 are unitary
to 1e-10, with PH generating them to 1e-6.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgradial.analysis import expectation, overlap_matrix, raw_expectation
from lgradial.constants import C_LIGHT
from lgradial.errors import DiagnosticError, QuadratureConvergenceError
from lgradial.exactwave import SpacetimePoint, chi_closed_form, synthesize_lg
from lgradial.lgmode import LGParams, beam_geometry, lg_partials
from lgradial.momentum import (ExactMomentumParams, apply_nk, apply_nk_paraxial, hermiticity_defect,
                               nk_eigen_residual, nk_polar, psi_exact, psi_paraxial)
from lgradial.paraxops import Operator, dilation_check

from conftest import ENVELOPE, K, OMEGA, W0, ZR
from oracles import chi_two_term_mpmath, hermiticity_defect_closed_form, overlap_matrix_quadrature


@ENVELOPE
@given(n=st.integers(0, 300), l=st.integers(-300, 300), z_over_zr=st.floats(-2.0, 2.0),
       w0=st.floats(5e-6, 5e-3))
@example(n=200, l=50, z_over_zr=1.3, w0=W0)
@example(n=0, l=300, z_over_zr=-2.0, w0=W0)
@example(n=300, l=300, z_over_zr=0.7, w0=5e-6)
def test_expectations_match_closed_forms(n, l, z_over_zr, w0):
    p = LGParams(n, l, K, w0)
    z = z_over_zr * p.rayleigh_range
    mode_order = 2 * n + abs(l) + 1
    cases = ((expectation, Operator("N0", params=p), 0.0, n),
             (expectation, Operator("N0", params=p, sign_policy="verbatim"), 0.0,
              n + (abs(l) - l) / 2),
             (expectation, Operator("Nz", params=p, z=z), z, n),
             (expectation, "PH", z, mode_order * z_over_zr),
             (expectation, "Lz", z, l),
             (expectation, "laplacian_t", z, -2 * mode_order / w0**2),
             (raw_expectation, Operator("curvature_term", params=p, z=z), z,
              -mode_order * z_over_zr**2 / 2))
    for mean, op, plane, want in cases:
        got = mean(op, p, plane)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (op, got, want)


@ENVELOPE
@given(l=st.integers(-300, 300), n_max=st.integers(0, 300), z_over_zr=st.floats(-2.0, 2.0),
       zp_over_zr=st.floats(-2.0, 2.0), ratio=st.floats(0.8, 1.25))
@example(l=150, n_max=40, z_over_zr=0.0, zp_over_zr=1.3, ratio=1.0)
@example(l=300, n_max=300, z_over_zr=2.0, zp_over_zr=-2.0, ratio=1.25)
@example(l=0, n_max=300, z_over_zr=0.5, zp_over_zr=-1.5, ratio=0.8)
@example(l=300, n_max=300, z_over_zr=0.3, zp_over_zr=0.3 + 1e-6, ratio=1.0)  # dz = 1e-6 zR
@example(l=-7, n_max=120, z_over_zr=0.7, zp_over_zr=0.7, ratio=1.0)  # the exact identity
@example(l=300, n_max=60, z_over_zr=-2.0, zp_over_zr=2.0, ratio=0.8)  # opposite curvatures
def test_overlap_matrix_matches_quadrature(l, n_max, z_over_zr, zp_over_zr, ratio):
    z, z_prime, w0_prime = z_over_zr * ZR, zp_over_zr * ZR, ratio * W0
    got = overlap_matrix(l, range(n_max + 1), z, z_prime, W0, w0_prime, K).entries
    want = overlap_matrix_quadrature(l, n_max, z, z_prime, W0, w0_prime, K)
    assert np.max(np.abs(got - want)) <= 1e-12


_FINITE = dict(allow_nan=False, allow_infinity=False)


@settings(ENVELOPE, max_examples=200)  # about 1 ms an example
@given(n=st.integers(0, 300), m=st.integers(-300, 300), sigma=st.sampled_from([1, -1]),
       w=st.floats(5e-6, 5e-3), k=st.floats(min_value=0.0, **_FINITE),
       k_z=st.floats(min_value=0.0, **_FINITE), k_phi=st.floats(**_FINITE),
       policy=st.sampled_from(["symmetrized", "verbatim"]))
@example(n=50, m=3, sigma=1, w=W0, k=1e6, k_z=K, k_phi=0.3, policy="symmetrized")  # underflows
@example(n=50, m=3, sigma=1, w=W0, k=-1.0, k_z=K, k_phi=0.3, policy="symmetrized")
@example(n=50, m=3, sigma=1, w=W0, k=math.inf, k_z=K, k_phi=0.3, policy="symmetrized")
@example(n=200, m=3, sigma=1, w=W0, k=1e3, k_z=K, k_phi=0.3, policy="symmetrized")  # ~1e1209
@example(n=300, m=-300, sigma=-1, w=5e-6, k=0.0, k_z=0.0, k_phi=0.0, policy="verbatim")  # origin
def test_momentum_values_are_finite_or_raise(n, m, sigma, w, k, k_z, k_phi, policy):
    # the first four examples once gave nan with a numpy RuntimeWarning (an error in tier-1)
    p = ExactMomentumParams(n, m, sigma, OMEGA, w)
    for f, args in ((psi_exact, (k, k_phi)), (psi_paraxial, (k, k_phi)),
                    (apply_nk, (k, k_phi, policy)), (apply_nk_paraxial, (k, k_phi, policy)),
                    (nk_polar, (k, k_z, k_phi, policy)), (nk_eigen_residual, (k, k_phi, policy))):
        try:
            value = f(p, *args)
        except DiagnosticError:
            continue
        assert np.isfinite(value), (f.__name__, args, value)


def unit_paraxial(n, m, w):
    """psi_paraxial(n, m) normalized under k_t dk_t dk_phi, as one exp: it is a finite double
    at every w, where paraxial_norm_sq overflows at small w and 2n + |m| near 30."""
    p = 2 * n + abs(m)
    log_c = math.log(w) - 0.5 * (math.log(math.pi) + math.lgamma(p + 1))
    return lambda kt, kphi: np.exp(p * np.log(w * kt) - 0.5 * (w * kt) ** 2 + log_c + 1j * m * kphi)


@settings(ENVELOPE, max_examples=100)  # about 5 ms an example
@given(n=st.integers(0, 10), m=st.integers(-10, 10), w=st.floats(5e-6, 5e-3),
       top=st.sampled_from(["14+2n", 30.0, 60.0, 1e3, 1e6]), a=st.sampled_from([0.0, 1.0]))
@example(n=0, m=0, w=W0, top=30.0, a=0.0)  # the Gaussian: "negligible at both ends" from 30/w, once
@example(n=0, m=0, w=5e-6, top=1e6, a=0.0)
@example(n=10, m=-10, w=5e-6, top="14+2n", a=0.0)
@example(n=10, m=10, w=5e-3, top=1e6, a=0.0)
def test_hermiticity_defect_at_every_kt_max(n, m, w, top, a):
    # the window's lower end follows w, not kt_max: e^-24 min(kt_max, 16/w); a real radial
    # factor (a = 0) passes everywhere, and the chirp e^(i a w k_t) is right or not converged
    kt_max = ((14.0 + 2 * n) if top == "14+2n" else top) / w
    psi = unit_paraxial(n, m, w)
    try:
        hd = hermiticity_defect(lambda kt, kphi: psi(kt, kphi) * np.exp(1j * a * w * kt), w=w,
                                sigma=1, kt_max=kt_max)
    except QuadratureConvergenceError:
        assert a, (n, m, w, kt_max)
        return
    want = hermiticity_defect_closed_form(n, m, a * w, w)
    assert abs(hd.norm_sq - 1.0) <= 1e-12
    assert abs(hd.defect / hd.norm_sq - want) <= 1e-12 * max(abs(want), 1.0), (n, m, w, kt_max)


_POINT = st.tuples(st.floats(0.05, 3.0), st.floats(-2.0, 2.0), st.floats(-0.4, 0.4))


@settings(ENVELOPE, max_examples=100)  # about 10 ms an example; |m| near 300 is the slowest
@given(n=st.integers(0, 300), m=st.integers(-300, 300), sigma=st.sampled_from([1, -1]),
       w=st.floats(5e-6, 5e-3), points=st.lists(_POINT, min_size=1, max_size=6))
@example(n=200, m=0, sigma=1, w=W0, points=[(0.5, 0.0, 0.0)])  # 4.54e180
@example(n=201, m=183, sigma=1, w=1.758e-4, points=[(0.5, 0.0, 0.0)])  # psi overflows
def test_synthesis_is_finite_or_raises(n, m, sigma, w, points):
    # both examples once raised numpy's "overflow encountered in power" from k_minus^(n+|m|/2)
    r, z, t = np.array(points).T
    p = ExactMomentumParams(n, m, sigma, OMEGA, w)
    q = SpacetimePoint(r * w, 0.3, z * w, t * w**2 * OMEGA / C_LIGHT**2)
    try:
        value = synthesize_lg(p, q, 96)
    except DiagnosticError:
        return
    assert np.isfinite(value).all(), (n, m, sigma, w, points, value)


@settings(ENVELOPE, max_examples=200)  # about 1 ms an example
@given(n=st.integers(0, 300), m=st.integers(-300, 300), sigma=st.sampled_from([1, -1]),
       w=st.floats(5e-6, 5e-3), wavelength=st.floats(1e-7, 1e-5), point=_POINT)
@example(n=100, m=1, sigma=1, w=W0, wavelength=633e-9, point=(1.0, 0.0, 0.0))  # 3.1e63
@example(n=60, m=1, sigma=1, w=5e-6, wavelength=633e-9, point=(1.0, 0.0, 0.0))  # 3.3e310
def test_closed_form_matches_two_term_oracle(n, m, sigma, w, wavelength, point):
    # the first example once raised: the one-term form's a^(n+|m|+1) underflowed
    omega = 2.0 * math.pi * C_LIGHT / wavelength
    r, z, t = point
    p = ExactMomentumParams(n, m, sigma, omega, w)
    q = SpacetimePoint(r * w, 0.3, z * w, t * w**2 * omega / C_LIGHT**2)
    want = chi_two_term_mpmath(p, q.r, q.t_plus)
    if abs(want) > sys.float_info.max:
        with pytest.raises(DiagnosticError, match="not a finite double"):
            chi_closed_form(p, q)
        return
    got = chi_closed_form(p, q) / np.exp(-1j * sigma * (omega * q.t_minus - m * 0.3))
    if abs(want) < sys.float_info.min:  # an underflow: 0 or a subnormal
        assert abs(got) <= 2.0 * sys.float_info.min
    else:
        assert abs(got - complex(want)) <= 1e-9 * abs(want), (complex(want), got)


def test_synthesis_raises_where_psi_overflows():
    p = ExactMomentumParams(201, 183, 1, OMEGA, 1.758e-4)
    with pytest.raises(DiagnosticError, match="psi is not a finite double"):
        synthesize_lg(p, SpacetimePoint(0.5 * p.w, 0.0, 0.0, 0.0), 96)


_PROFILES = {"gaussian": lambda x: np.exp(-x * x), "ring": lambda x: x * x * np.exp(-x * x)}


@settings(ENVELOPE, max_examples=60)  # about 1 ms an example
@given(width=st.floats(-3.0, 3.0).map(lambda e: 10.0**e), gamma=st.floats(-20.0, 20.0),
       profile=st.sampled_from(sorted(_PROFILES)))
@example(width=1e-3, gamma=0.3, profile="gaussian")  # LG (0, 0) at 1 mm: ratio 1.21, defect 1.02
@example(width=1.0, gamma=-5.0, profile="gaussian")  # ratio 0.298
@example(width=1.0, gamma=8.0, profile="gaussian")  # ratio 1.25
@example(width=1.0, gamma=12.0, profile="gaussian")  # ratio 0.0
@example(width=20.0, gamma=1.0, profile="gaussian")  # ratio 1.003
@example(width=1e3, gamma=-20.0, profile="ring")  # ratio 8.8e-27
@example(width=1e-3, gamma=20.0, profile="ring")  # ratio 0.0, defect 1.22
def test_dilations_are_unitary_and_generated_by_ph(width, gamma, profile):
    # the examples are the wrong numbers the fixed Legendre rule on (0, 32) once returned
    dc = dilation_check(lambda r: _PROFILES[profile](r / width), gamma)
    assert abs(dc.unitarity_ratio - 1.0) <= 1e-10, dc
    assert dc.generator_defect <= 1e-6, dc


def _mode_mp(n, l, z, r):
    """The LG mode along phi = 0 at (r, z), in mpmath arithmetic."""
    a = abs(l)
    zr = mpmath.mpf(K) * mpmath.mpf(W0) ** 2 / 2
    z = mpmath.mpf(z)
    wz = mpmath.mpf(W0) * mpmath.sqrt(1 + (z / zr) ** 2)
    u = 2 * r**2 / wz**2
    amp = mpmath.sqrt(2 / mpmath.pi * mpmath.factorial(n) / mpmath.factorial(n + a)) / wz
    phase = 0.5j * mpmath.mpf(K) * z / (z**2 + zr**2) * r**2 - 1j * (2 * n + a + 1) * mpmath.atan2(z, zr)
    return amp * mpmath.sqrt(u) ** a * mpmath.laguerre(n, a, u) * mpmath.exp(-u / 2 + phase)


def _check_partials(n, l, z, r):
    d_r, d2_r, _, _ = lg_partials(LGParams(n, l, K, W0), r, 0.0, z)
    with mpmath.workdps(50):
        f = lambda x: _mode_mp(n, l, z, x)
        want = [complex(mpmath.diff(f, mpmath.mpf(r), m)) for m in (1, 2)]
    for got, ref in zip((d_r, d2_r), want):
        assert abs(got - ref) <= 1e-11 * abs(ref), (n, l, z, r, got, ref)


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(mode=st.sampled_from([(200, 50), (0, 300)]), frac=st.floats(0.3, 1.05),
       z_over_zr=st.floats(-2.0, 2.0))
def test_partials_of_high_modes_against_mpmath(mode, frac, z_over_zr):
    n, l = mode
    z = z_over_zr * ZR
    turning = beam_geometry(LGParams(n, l, K, W0), z).w_z * math.sqrt((2 * n + abs(l) + 1) / 2)
    _check_partials(n, l, z, frac * turning)


def test_partials_near_the_axis_against_mpmath():
    # r d_r p_n and r^2 d2_r p_n are O(u) or carry a(a-1) exactly: no term
    # cancels as u -> 0, so the relative accuracy holds down to r ~ 1e-4 w0
    for n, l in ((0, 0), (5, 0), (12, 0), (7, 1), (7, -2), (20, 3)):
        for r in (1e-4 * W0, 3e-3 * W0, 0.05 * W0):
            for z in (0.0, 0.8 * ZR):
                _check_partials(n, l, z, r)


def test_partials_keep_the_shape_of_their_inputs():
    p = LGParams(3, 2, K, W0)
    assert np.ndim(lg_partials(p, 0.5 * W0, 0.2, 0.0)[0]) == 0
    r = np.linspace(0.1, 2.0, 5)[:, None] * W0
    phi = np.linspace(0.0, 3.0, 4)[None, :]
    assert all(v.shape == (5, 4) for v in lg_partials(p, r, phi, ZR))
