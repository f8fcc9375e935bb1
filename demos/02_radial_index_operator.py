"""The radial-index operator in action.

Applies the focal-plane operator N0 and its any-plane generalization Nz to
closed-form modes and prints the measured eigenvalues.  Also shows the
negative-l subtlety: the operator as printed returns n + |l| on l < 0 modes,
while the symmetrized variant returns n for every l.
"""

import numpy as np

from lgradial import LGParams, Operator, quadrature_polar_grid, sample
from lgradial.constants import DEFAULT_WAIST as W0, DEFAULT_WAVENUMBER as K
from lgradial.lgmode import FieldGrid, inner, norm
from lgradial.paraxops import apply_to_mode

ZR = K * W0**2 / 2

print("eigenvalues of the radial-index operator (hbar = 1)")
print(f"{'mode':>12} {'plane':>10} {'<N>':>10} {'residual':>10}")
for (n, l) in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 3)]:
    p = LGParams(n, l, K, W0)
    for z in (0.0, ZR, 2 * ZR):
        g = quadrature_polar_grid(p, z, n_max=5, l_max=4, order=224)
        op = Operator("N0", params=p) if z == 0 else Operator("Nz", params=p, z=z)
        applied = apply_to_mode(op, p, g)
        f = sample(p, g)
        value = (inner(f, applied) / inner(f, f)).real
        resid = norm(FieldGrid(g, applied.values - n * f.values)) / norm(f)
        print(f"  LG({n},{l:+d}) {z / ZR:>8.1f}zR {value:>10.6f} {resid:>10.1e}")

print("\nnegative azimuthal index: verbatim vs symmetrized")
for (n, l) in [(0, -1), (1, -2)]:
    p = LGParams(n, l, K, W0)
    g = quadrature_polar_grid(p, 0.0, n_max=2, l_max=2, order=160)
    for policy in ("verbatim", "symmetrized"):
        applied = apply_to_mode(Operator("N0", params=p, sign_policy=policy), p, g)
        f = sample(p, g)
        value = (inner(f, applied) / inner(f, f)).real
        print(f"  LG({n},{l:+d}) {policy:>12}: <N0> = {value:.6f}"
              f"   (n = {n}, n + |l| = {n + abs(l)})")
