import math

import numpy as np
import pytest
from hypothesis import settings

from lgradial import LGParams
from lgradial.constants import C_LIGHT

# fixture scale for every desk-level check: a 633 nm beam with a 1 mm focal
# waist (Rayleigh range ~4.96 m); figure-level sweeps additionally use
# z = 1 m with waists spanning 0.2-2 mm
K = 2.0 * math.pi / 633e-9   # rad/m
W0 = 1e-3                    # m
ZR = K * W0**2 / 2
OMEGA = C_LIGHT * K          # puts the exact-mode constraint at k_plus = K

# the envelope property tests: reproducible draws, no example database, no
# deadline (a single n = 300 example takes about a second)
settings.register_profile("envelope", derandomize=True, database=None, deadline=None,
                          max_examples=3)
ENVELOPE = settings.get_profile("envelope")


def count_calls(monkeypatch, stencils_owner):
    """Count np.fft.fft, np.fft.ifft and the `_stencils` builds seen by module `stencils_owner`."""
    calls = {"fft": 0, "ifft": 0, "_stencils": 0}
    for owner, name in ((np.fft, "fft"), (np.fft, "ifft"), (stencils_owner, "_stencils")):
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240613)


@pytest.fixture
def params00():
    return LGParams(0, 0, K, W0)


@pytest.fixture
def params21():
    return LGParams(2, 1, K, W0)
