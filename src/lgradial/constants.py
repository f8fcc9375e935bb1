"""Physical constants and default desk-scale beam parameters.

The library is unit-agnostic (SI throughout, hbar = 1 for mode operators).
The defaults below fix a concrete optical scale for fixtures and demos; they
are configuration, not physics.
"""

import math

C_LIGHT = 299_792_458.0  # m/s

DEFAULT_WAVELENGTH = 633e-9          # m, HeNe line
DEFAULT_WAVENUMBER = 2.0 * math.pi / DEFAULT_WAVELENGTH  # rad/m
DEFAULT_WAIST = 1e-3                 # m

# how the radial-index operators treat l < 0 (see paraxops._angular_number)
SIGN_POLICIES = ("symmetrized", "verbatim")
