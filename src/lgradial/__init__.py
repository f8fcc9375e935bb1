"""Radial-index operator toolkit for Laguerre-Gauss beams.

Subpackages by capability:

  specfun   - Bessel J; Laguerre polynomials, Gauss-Legendre rules (tests, benchmark)
  lgmode    - closed-form paraxial LG fields, beam geometry, grids, norms, partial
              derivatives, the one Laguerre recurrence (real or complex argument),
              the Gauss rule in u = 2 r^2/w_z^2 behind exact grids and expectations
  paraxops  - transverse operators (Lz, Laplacian, hyperbolic momentum,
              radial-index operators), dilations, commutators
  analysis  - expectation values, figure-level curves, overlap/crosstalk
              matrices, modal decomposition
  momentum  - exact and paraxial momentum-space wavefunctions and the
              radial momentum operators, hermiticity analysis
  exactwave - Bessel-basis exact Maxwell solutions, Riemann-Silberstein fields,
              residual checks, closed-form chi equal to its synthesis
  cli       - `lg-radial` command line front end

`import lgradial` loads the position-space core only: `constants`, `errors`
and `lgmode` (with numpy and `specfun`).  `paraxops`, `analysis`, `momentum`
and `exactwave`, and every name exported from them, load on first use
(PEP 562), and the result is bound here, so later lookups are plain reads.
"""

from importlib import import_module as _import_module

from .constants import C_LIGHT, DEFAULT_WAIST, DEFAULT_WAVELENGTH, DEFAULT_WAVENUMBER
from .errors import DiagnosticError, GridError, QuadratureConvergenceError
from .lgmode import (BeamGeometry, FieldGrid, LGParams, PolarGrid,
                     beam_geometry, lg_field, lg_partials, norm,
                     quadrature_polar_grid, sample, uniform_polar_grid)

__version__ = "0.1.0"

_LAZY = {
    "paraxops": ("Operator", "apply_to_field", "apply_to_mode", "commutator_residual",
                 "dilation_check", "eigen_residual"),
    "analysis": ("Decomposition", "ExpectationSeries", "OverlapMatrix", "decompose",
                 "expectation", "overlap", "overlap_matrix", "ph_vs_w0", "ph_vs_z"),
    "momentum": ("ExactMomentumParams", "apply_nk", "apply_nk_paraxial", "hermiticity_defect",
                 "nk_polar", "plusminus_to_polar", "polar_to_plusminus", "psi_exact",
                 "psi_paraxial"),
    "exactwave": ("BesselModeParams", "RSField", "SpacetimePoint", "chi_bessel",
                  "chi_closed_form", "fit_global_scale", "maxwell_residual",
                  "rs_bessel_field", "synthesize_lg", "wave_residual"),
}
# name -> the module that defines it; a module name maps to itself
_OWNER = {name: module for module, names in _LAZY.items() for name in (module, *names)}

# the core's public names (its modules included) and every lazy one
__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_OWNER))


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
