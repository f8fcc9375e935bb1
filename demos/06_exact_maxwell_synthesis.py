"""Exact Maxwell solutions and the momentum-space synthesis of LG fields.

Three checks at full-Maxwell (non-paraxial) rigor:

  1. the Riemann-Silberstein field of a single Bessel mode satisfies
     dF/dt = -i c curl F and div F = 0 to finite-difference accuracy;
  2. the closed-form LG-type scalar chi (complex beam parameter a(t+))
     satisfies the scalar wave equation;
  3. integrating the momentum-space wavefunction psi_exact against the Bessel
     kernel with a Gauss-Laguerre rule reproduces chi point by point, with no
     fitted constant, and stays finite at a high radial index.

Every exact-wave function evaluates a batch of points in one call: the 60
sample points below are one `SpacetimePoint` of arrays.
"""

import math

import numpy as np

from lgradial import (BesselModeParams, ExactMomentumParams, SpacetimePoint,
                      chi_closed_form, maxwell_residual, rs_bessel_field,
                      synthesize_lg, wave_residual)
from lgradial.constants import C_LIGHT, DEFAULT_WAIST as W0, DEFAULT_WAVENUMBER as K

OMEGA = C_LIGHT * K
LAM = 2 * math.pi / K
T_RAY = W0**2 * OMEGA / C_LIGHT**2

bp = BesselModeParams(m=2, sigma=1, k_t=0.1 * K, k_z=math.sqrt(1 - 0.01) * K)
pt = SpacetimePoint(r=0.4e-3, phi=0.7, z=5 * LAM, t=3.0 / bp.omega_k)
res = maxwell_residual(lambda q: rs_bessel_field(bp, q), pt, wavenumber=bp.k)
print(f"RS Bessel mode (m=2, 0.1 rad tilt):")
print(f"  curl residual {res.curl_defect:.2e}, divergence residual {res.div_defect:.2e}")

p = ExactMomentumParams(2, 1, 1, OMEGA, W0)
wr = wave_residual(lambda q: chi_closed_form(p, q),
                   SpacetimePoint(r=0.7e-3, phi=0.3, z=8 * LAM, t=5.0 / OMEGA),
                   wavenumber=K)
print(f"\nclosed-form chi (n=2, m=1): wave-equation residual {wr:.2e}")

rng = np.random.default_rng(2)
pts = SpacetimePoint(r=rng.uniform(0.05, 2.5, 60) * W0, phi=rng.uniform(0, 2 * np.pi, 60),
                     z=rng.uniform(-2, 2, 60) * W0, t=rng.choice([0.0, 0.5, -0.5], 60) * T_RAY)
print("\nGauss-Laguerre synthesis vs closed form (60 points, no fitted constant):")
for (n, m, sigma) in [(0, 0, 1), (1, 2, 1), (3, 3, -1)]:
    p = ExactMomentumParams(n, m, sigma, OMEGA, W0)
    chi = chi_closed_form(p, pts)
    diff = np.max(np.abs(synthesize_lg(p, pts, 128) - chi) / np.abs(chi))
    print(f"  n={n} m={m} sigma={sigma:+d}: max pointwise |synth - chi| / |chi| {diff:.2e}")

p = ExactMomentumParams(200, 0, 1, OMEGA, W0)
value = synthesize_lg(p, SpacetimePoint(r=0.5 * W0, phi=0.0, z=0.0, t=0.0), 96)
print(f"\nsynthesis at n=200 m=0, r = 0.5 w, z = t = 0: {value.real:.6e} (real there)")
