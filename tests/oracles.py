"""Independent reference implementations used only as test oracles.

Everything here deliberately avoids the library's own code paths: Laguerre
values come from the explicit monomial expansion, Bessel values from the
defining power series, LG fields from a symbol-by-symbol reassembly on top
of scipy, and overlaps from a dense midpoint Riemann sum.  The one
exception is `overlap_matrix_quadrature`, which integrates the library's
radial table on its Gauss-Legendre rule: it shares only that table and the
rule with the library, and test_lgmode checks the table (test_specfun the
rule) against mpmath.  The library's own overlap matrices take no integral.
Finite-difference weights come from one Vandermonde solve per row, not from
the library's closed barycentric formulas.  The polar form of N_k is applied
term by term in 40-digit mpmath, with mpmath.diff for every derivative.  The
hermiticity defect of N'_k on a chirped paraxial wavefunction is a closed-form
moment, with no grid at all.  The
exact-wave synthesis integral is a 60-digit mpmath quadrature of psi_exact as
printed, with no Gauss rule, and its closed form is the two Laguerre terms summed in
40-digit mpmath, with mpmath's own Laguerre function and powers.
"""

import math

import mpmath
import numpy as np
from scipy.special import binom, eval_genlaguerre

from lgradial.constants import C_LIGHT
from lgradial.lgmode import LGParams, _radial_profiles, beam_geometry
from lgradial.specfun import make_rule


def laguerre_monomial(n, alpha, x):
    """L_n^alpha(x) = sum_j (-1)^j C(n+alpha, n-j) x^j / j!."""
    total = 0.0 * (x if not np.isscalar(x) else 0.0)
    for j in range(n, -1, -1):
        total = total + (-1) ** j * binom(n + alpha, n - j) * x**j / math.factorial(j)
    return total


def bessel_series(m, x, terms=None):
    """J_m(x) by its power series; adequate for |x| up to ~30."""
    m = abs(int(m))
    if terms is None:
        terms = max(40, int(3 * abs(x)))
    half = x / 2.0
    term = half**m / math.factorial(m)
    total = term
    for j in range(1, terms):
        term = -term * half * half / (j * (m + j))
        total += term
    return total


def lg_reference(n, l, k, w0, r, phi, z):
    """Paraxial LG amplitude reassembled independently, symbol by symbol."""
    zr = k * w0**2 / 2.0
    wz = w0 * math.sqrt(1.0 + (z / zr) ** 2)
    al = abs(l)
    amp = (math.sqrt(2.0 * math.factorial(n) / (math.pi * math.factorial(n + al)))
           / wz * (math.sqrt(2.0) * r / wz) ** al
           * eval_genlaguerre(n, al, 2.0 * r**2 / wz**2))
    if z == 0.0:
        curvature = 0.0
    else:
        R_z = z + (k**2 * w0**4) / (4.0 * z)
        curvature = k * r**2 / (2.0 * R_z)
    gouy = math.atan(2.0 * z / (k * w0**2))
    return amp * np.exp(-(r**2) / wz**2
                        + 1j * (l * phi + curvature - (2 * n + al + 1) * gouy))


def overlap_riemann(na, nb, l, k, w0a, w0b, za, zb, rmax, nr=4000):
    """Dense midpoint Riemann-sum overlap integral (radial x analytic 2 pi)."""
    h = rmax / nr
    r = (np.arange(nr) + 0.5) * h
    fa = lg_reference(na, l, k, w0a, r, 0.0, za)
    fb = lg_reference(nb, l, k, w0b, r, 0.0, zb)
    return 2.0 * math.pi * np.sum(np.conj(fa) * fb * r) * h


def overlap_matrix_quadrature(l, n_max, z, z_prime, w0, w0_prime, k, atol=1e-13):
    """Overlap matrix of the families n = 0..n_max at (z, w0) and (z', w0') by quadrature.

    The radial integral is a real product A diag(c) B^T of the two radial
    tables on one Gauss-Legendre rule, with the curvature phases in the
    weights c and the Gouy phases as an outer product.  The extent reaches
    4 w_z past 1.5 turning radii, so even the n_max = 0 Gaussian tail is
    below 1e-30.  The order starts at max(192, 16 (n_max+1)) and doubles
    until two successive orders agree within atol: opposite wavefront
    curvatures (z = -2 zR against z' = 2 zR at |l| = 300) need four times
    the starting order.
    """
    w_max = max(beam_geometry(LGParams(0, l, k, w0), z).w_z,
                beam_geometry(LGParams(0, l, k, w0_prime), z_prime).w_z)
    rmax = w_max * (1.5 * math.sqrt(2.0 * (2 * n_max + abs(l) + 1)) + 4.0)

    def matrix(m):
        rule = make_rule("legendre", m, interval=(0.0, rmax))
        A, curv_a, gouy_a = _radial_profiles(n_max, l, k, w0, z, rule.nodes)
        B, curv_b, gouy_b = _radial_profiles(n_max, l, k, w0_prime, z_prime, rule.nodes)
        # past the last node where both top rows exceed 1e-100 of their peaks,
        # every row of one table is smaller still: the products there are
        # negligible, and their subnormal results would slow the matmuls
        top_a, top_b = np.abs(A[-1]), np.abs(B[-1])
        big = (top_a > 1e-100 * top_a.max()) & (top_b > 1e-100 * top_b.max())
        A[:, len(big) - np.argmax(big[::-1]):] = 0.0
        c = 2.0 * math.pi * rule.weights * rule.nodes * np.conj(curv_a) * curv_b
        radial = (A * c.real) @ B.T + 1j * ((A * c.imag) @ B.T)
        return np.conj(gouy_a)[:, None] * radial * gouy_b[None, :]

    m = max(192, 16 * (n_max + 1))
    prev = matrix(m)
    for _ in range(4):
        m *= 2
        cur = matrix(m)
        if np.max(np.abs(cur - prev)) <= atol:
            return cur
        prev = cur
    raise AssertionError(f"quadrature overlap not converged at order {m}")


def fd_matrix_vandermonde(nodes, m, width=7):
    """Dense N x N matrix of d^m/dx^m by `width`-point stencils, one linear solve per row.

    Row i uses the `width` nodes centred on node i (one-sided near either end,
    like the library's stencils).  Its weights w solve sum_j w_j d_j^k = m! delta_km,
    k = 0..width-1, with d_j the node offsets from node i scaled to [-1, 1].
    """
    x = np.asarray(nodes, dtype=float)
    n = len(x)
    rhs = np.zeros(width)
    rhs[m] = math.factorial(m)
    out = np.zeros((n, n))
    for i in range(n):
        lo = min(max(i - width // 2, 0), n - width)
        d = x[lo:lo + width] - x[i]
        scale = np.max(np.abs(d))
        vander = (d / scale)[None, :] ** np.arange(width)[:, None]
        out[i, lo:lo + width] = np.linalg.solve(vander, rhs) / scale**m
    return out


def nk_polar_mpmath(params, k_t, k_z, k_phi, dps=40):
    """The printed polar N_k on psi_exact at (k_t, k_z, k_phi), in `dps`-digit mpmath.

    N_k = (1/2) [k_t d/dk_t + (i/sigma) d/dk_phi - (k - k_z)(d/dk_z + 1/k - beta)], with
    psi a function of (k_t, k_z, k_phi) through k_minus = (hypot(k_t, k_z) - k_z)/2 and
    k_plus held at params.k_plus, the constraint surface's value.
    """
    n, m, sigma = params.n, params.m, params.sigma
    with mpmath.workdps(dps):
        k_plus, beta = mpmath.mpf(params.k_plus), mpmath.mpf(params.beta)

        def psi(t, z, ph):
            km = (mpmath.hypot(t, z) - z) / 2
            return (mpmath.expj(sigma * m * ph) * km ** (n + mpmath.mpf(abs(m)) / 2)
                    * mpmath.exp(-beta * km) * (k_plus + km))

        t, z, ph = (mpmath.mpf(float(v)) for v in (k_t, k_z, k_phi))
        k, f = mpmath.hypot(t, z), psi(t, z, ph)
        d_t = mpmath.diff(lambda v: psi(v, z, ph), t)
        d_z = mpmath.diff(lambda v: psi(t, v, ph), z)
        d_phi = mpmath.diff(lambda v: psi(t, z, v), ph)
        return complex((t * d_t + 1j / sigma * d_phi - (k - z) * (d_z + f / k - beta * f)) / 2)


def hermiticity_defect_closed_form(n, m, a, w):
    """defect / ||psi||^2 of N'_k on psi = psi_paraxial(n, m) e^(i a k_t), exactly.

    Only k_t d/dk_t of the phase is not hermitian: the defect is -2i Im <psi, A psi> =
    -i a <k_t> ||psi||^2, and <k_t> under k_t^(2p+1) e^(-w^2 k_t^2) dk_t, p = 2n+|m|, is
    Gamma(p+3/2) / (w Gamma(p+1)).
    """
    p = 2 * n + abs(m)
    with mpmath.workdps(30):
        return -1j * float(a * mpmath.gamma(p + 1.5) / (w * mpmath.gamma(p + 1)))


def synthesis_mpmath(params, r, phi=0.0, t_plus=0.0, t_minus=0.0, dps=60):
    """synthesize_lg's integral at one point, by `dps`-digit tanh-sinh quadrature.

    exp(-i sigma (Omega t_minus - m phi)) int_0^inf dk_minus psi(k_minus)
    exp(-i sigma c k_minus t_plus) J_m(2 r sqrt(k_plus k_minus)), with psi =
    k_minus^(n+|m|/2) e^(-beta k_minus) (k_plus + k_minus), split at multiples of its peak.
    """
    n, m, sigma = params.n, params.m, params.sigma
    with mpmath.workdps(dps):
        k_plus, beta, c = (mpmath.mpf(v) for v in (params.k_plus, params.beta, C_LIGHT))
        r, t_plus = mpmath.mpf(r), mpmath.mpf(t_plus)

        def integrand(km):
            psi = km ** (n + mpmath.mpf(abs(m)) / 2) * mpmath.exp(-beta * km) * (k_plus + km)
            return (psi * mpmath.expj(-sigma * c * t_plus * km)
                    * mpmath.besselj(m, 2 * r * mpmath.sqrt(k_plus * km)))

        peak = (n + mpmath.mpf(abs(m)) / 2 + 1) / beta
        value = mpmath.quad(integrand, [0, peak / 2, peak, 2 * peak, 4 * peak, mpmath.inf])
        omega_t = mpmath.mpf(params.Omega) * mpmath.mpf(t_minus)
        return complex(mpmath.expj(-sigma * (omega_t - m * mpmath.mpf(phi))) * value)


def chi_two_term_mpmath(params, r, t_plus, dps=40):
    """chi_closed_form at (r, t_plus) without its carrier exp(-i sigma (Omega t_minus - m phi)).

    k_plus T_n + T_(n+1), negated for odd m < 0, in `dps`-digit mpmath: T_j = j! b^A
    p^-(j+A+1) e^(-x) L_j^A(x), A = |m|, b = r sqrt(k_plus), p = beta + i sigma c t_plus,
    x = b^2/p, from the double inputs (Omega, w, r, t_plus) taken as exact.  Returns an mpc,
    so a value beyond the double range can be compared as it is.
    """
    n, a, sigma = params.n, abs(params.m), params.sigma
    with mpmath.workdps(dps):
        c = mpmath.mpf(C_LIGHT)
        k_plus = mpmath.mpf(params.Omega) / c
        p = mpmath.mpf(params.w) ** 2 * k_plus + 1j * sigma * c * mpmath.mpf(t_plus)
        b = mpmath.mpf(r) * mpmath.sqrt(k_plus)
        x = b**2 / p
        terms = [mpmath.factorial(j) * b**a * p ** -(j + a + 1) * mpmath.exp(-x)
                 * mpmath.laguerre(j, a, x) for j in (n, n + 1)]
        value = k_plus * terms[0] + terms[1]
        return -value if params.m < 0 and a % 2 else +value
