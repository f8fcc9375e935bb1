"""Hyperbolic momentum of a propagating beam.

The dilation generator P_H = -i (r d/dr + 1) measures how fast the beam is
scaling.  Its expectation is zero at the focus (the beam is momentarily
neither expanding nor contracting), grows linearly with propagation
distance with a slope that steps up with the radial index, and dies off
as 1/w0^2 when the beam is made more collimated.  P_H generates the
dilations f(r) -> e^g f(e^g r), which preserve the norm of every mode.
"""

import numpy as np

from lgradial import LGParams, dilation_check, lg_field, ph_vs_w0, ph_vs_z
from lgradial.constants import DEFAULT_WAIST as W0, DEFAULT_WAVENUMBER as K

ZR = K * W0**2 / 2

print(f"Rayleigh range at 633 nm, w0 = 1 mm: {ZR:.3f} m\n")
print("<P_H>(z): linear through the origin, one line per radial index")
z_list = np.linspace(-3 * ZR, 3 * ZR, 13)
for n in range(5):
    s = ph_vs_z(LGParams(n, 0, K, W0), z_list)
    d = s.diagnostics
    print(f"  n={n}: slope = {d['slope']:.6f} /m "
          f"(analytic (2n+|l|+1)/zR = {(2 * n + 1) / ZR:.6f}), "
          f"intercept = {d['intercept']:+.1e}, R^2 = {d['r_squared']:.9f}")

print("\n<P_H>(w0) at z = 1 m: monotone power-law decay")
w0_list = np.geomspace(0.2e-3, 2e-3, 7)
s = ph_vs_w0(LGParams(2, 0, K, W0), w0_list, z=1.0)
for w0, v in zip(s.abscissa, s.values):
    print(f"  w0 = {w0 * 1e3:5.2f} mm   <P_H> = {v:9.4f}")
print(f"  log-log slope = {s.diagnostics['loglog_slope']:.4f}  "
      f"(pure 1/w0^2 would be -2)")

print("\nDilations of the focal profile: unitary, generated by P_H (SI units, w0 = 1 mm)")
for n, l in ((0, 0), (2, 1)):
    profile = lambda r, p=LGParams(n, l, K, W0): lg_field(p, r, 0.0, 0.0)
    for g in (0.3, -1.0):
        dc = dilation_check(profile, g)
        print(f"  LG({n},{l}) gamma = {g:+.1f}: |ratio - 1| = {abs(dc.unitarity_ratio - 1):.1e}, "
              f"generator defect = {dc.generator_defect:.1e}")
