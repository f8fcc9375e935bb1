"""Independent reference values for the benchmark's checks.

Nothing here calls lgradial: the Laguerre-Gauss mode is rebuilt from its
closed form on `scipy.special.eval_genlaguerre`, and overlaps come from a
midpoint rule in s = ln r, which converges spectrally for these smooth
integrands that vanish fast at both ends. Conventions follow the library's
README: azimuthal phase exp(+i l phi), curvature phase exp(+i k r^2 / 2R),
Gouy factor exp(-i (2n+|l|+1) arctan(z/zR)), unit norm under r dr dphi.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_genlaguerre

C_LIGHT = 299_792_458.0
K = 2.0 * math.pi / 633e-9   # wavenumber of the README's 633 nm beam, rad/m
W0 = 1e-3                    # README waist, m
ZR = K * W0**2 / 2.0         # Rayleigh range, m
OMEGA = C_LIGHT * K          # exact-mode frequency used by `lg-radial verify`


def waist(k, w0, z):
    return w0 * math.sqrt(1.0 + (z / (k * w0**2 / 2.0)) ** 2)


def lg_mode(n, l, k, w0, z, r, phi=0.0):
    """Normalized paraxial LG mode at (r, phi, z)."""
    zr = k * w0**2 / 2.0
    wz = waist(k, w0, z)
    al = abs(l)
    r = np.asarray(r, dtype=float)
    x = 2.0 * r**2 / wz**2
    norm = math.sqrt(2.0 / math.pi * math.exp(math.lgamma(n + 1) - math.lgamma(n + al + 1)))
    radial = norm / wz * x ** (al / 2.0) * eval_genlaguerre(n, al, x) * np.exp(-x / 2.0)
    phase = (l * np.asarray(phi, dtype=float) + 0.5 * k * r**2 * z / (z * z + zr * zr)
             - (2 * n + al + 1) * math.atan2(z, zr))
    return radial * np.exp(1j * phase)


def overlap(n, n_prime, l, k, w0, z, w0_prime, z_prime, step=0.01):
    """<LG_n(z, w0) | LG_n'(z', w0')> under r dr dphi, for low n and n'."""
    wa, wb = waist(k, w0, z), waist(k, w0_prime, z_prime)
    s = np.arange(math.log(min(wa, wb)) - 25.0, math.log(12.0 * max(wa, wb)), step) + step / 2
    r = np.exp(s)
    fa = lg_mode(n, l, k, w0, z, r)
    fb = lg_mode(n_prime, l, k, w0_prime, z_prime, r)
    return 2.0 * math.pi * step * complex(np.sum(np.conj(fa) * fb * r * r))


def ph_expectation(n, l, k, w0, z):
    """Closed form <PH> = (2n+|l|+1) z / zR: linear in z, through the origin."""
    return (2 * n + abs(l) + 1) * z / (k * w0**2 / 2.0)


def paraxial_wavefunction(n, m, w, sigma=1):
    """Unit-norm paraxial momentum wavefunction, as a vectorized psi(k_t, k_phi)."""
    p = 2 * n + abs(m)
    norm = math.sqrt(2.0 * math.pi * math.exp(math.lgamma(p + 1)) / (2.0 * w ** (2 * (p + 1))))

    def psi(kt, kphi):
        return np.exp(1j * sigma * m * kphi) * kt**p * np.exp(-0.5 * w**2 * kt**2) / norm
    return psi


def fit_residual(reference, values):
    """Relative residual of the least-squares fit values ~ s * reference."""
    reference = np.asarray(reference, dtype=complex)
    values = np.asarray(values, dtype=complex)
    scale = np.vdot(reference, values) / np.vdot(reference, reference)
    return float(np.linalg.norm(values - scale * reference) / np.linalg.norm(values))


def render_images(n, l, k, w0, z, pixels, window):
    """Intensity and phase images (uint8) of a mode over a square window.

    Pixels sample their centres, row 0 at the top, intensity scaled so the
    peak is 255 and phase mapped from [-pi, pi] to [0, 255], as the
    README's `render` command documents.
    """
    half = 0.5 * window
    axis = (np.arange(pixels) + 0.5) / pixels * window - half
    x, y = np.meshgrid(axis, -axis, indexing="xy")
    field = lg_mode(n, l, k, w0, z, np.hypot(x, y), np.arctan2(y, x))
    intensity = np.abs(field) ** 2
    img_i = np.rint(255.0 * intensity / intensity.max())
    img_p = np.clip(np.rint((np.angle(field) + math.pi) / (2 * math.pi) * 255.0), 0, 255)
    return img_i, img_p, intensity / intensity.max()


def read_pgm(path):
    """Binary PGM as `render` writes it ("P5\\nW H\\n255\\n" + bytes) -> uint8 [row, col].

    Returns None when the file does not have that form.
    """
    parts = path.read_bytes().split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        return None
    w, h = (int(v) for v in parts[1].split())
    if len(parts[3]) != w * h:
        return None
    return np.frombuffer(parts[3], dtype=np.uint8).reshape(h, w)
