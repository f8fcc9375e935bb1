"""Radial momentum operators in momentum space.

The exact wavefunction lives on the constraint surface k_plus = Omega/c and
the non-paraxial operator N_k returns the radial index pointwise, as does
its paraxial simplification N'_k.  The catch: N'_k is hermitian only on
wavefunctions that separate into a real radial factor times an azimuthal
phase, which is exactly the Laguerre-Gauss (and Bessel) family.
"""

import numpy as np

from lgradial import ExactMomentumParams, apply_nk, apply_nk_paraxial
from lgradial.constants import C_LIGHT, DEFAULT_WAIST as W0, DEFAULT_WAVENUMBER as K
from lgradial.momentum import (hermiticity_defect, paraxial_norm_sq,
                               psi_exact, psi_paraxial)

OMEGA = C_LIGHT * K

print("pointwise eigenvalues of the radial momentum operators")
rng = np.random.default_rng(1)
for (n, m, sigma) in [(0, 0, 1), (2, 1, 1), (3, 2, -1), (5, 4, -1)]:
    p = ExactMomentumParams(n, m, sigma, OMEGA, W0)
    km = rng.uniform(0.1, 15.0, 200) / p.beta
    kphi = rng.uniform(0, 2 * np.pi, 200)
    exact = np.max(np.abs(apply_nk(p, km, kphi) / psi_exact(p, km, kphi) - n))
    kt = rng.uniform(0.1, 6.0, 200) / W0
    parax = np.max(np.abs(apply_nk_paraxial(p, kt, kphi) / psi_paraxial(p, kt, kphi) - n))
    print(f"  n={n} m={m} sigma={sigma:+d}: max |N_k psi/psi - n| = {exact:.1e}, "
          f"paraxial {parax:.1e}")

print("\nhermiticity is restricted to real-radial-factor wavefunctions:")
p = ExactMomentumParams(1, 2, 1, OMEGA, W0)
nrm = np.sqrt(paraxial_norm_sq(p))
good = lambda kt, kphi: psi_paraxial(p, kt, kphi) / nrm
bad = lambda kt, kphi: good(kt, kphi) * np.exp(1j * kt * W0)
# a unit-norm Gaussian: the window's lower end follows w, so kt_max may sit far beyond its decay
gauss = lambda kt, kphi: np.exp(-0.5 * (W0 * kt) ** 2) * W0 / np.sqrt(np.pi) + 0 * kphi
for name, psi, top in (("LG momentum wavefunction", good, 14.0),
                       ("same with exp(i w k_t) radial phase", bad, 14.0),
                       ("Gaussian, window up to kt_max = 60/w", gauss, 60.0)):
    hd = hermiticity_defect(psi, w=W0, sigma=1, kt_max=top / W0)
    print(f"  {name:40s} |<Npsi,psi>-<psi,Npsi>| / ||psi||^2 = "
          f"{abs(hd.defect) / hd.norm_sq:.2e}")
