"""Where the final two-level truncation holds: the analytic P_e against the Floquet reference.

Uniform combs j = 1, m = 0..N-1 with the top mode resonant (delta0 = N - 1)
and equal real couplings Omega, followed over two resonant periods
(tau up to 4 pi/Omega, 1000 points).  Each bound was set about 10 % above
the deviation measured when the test was written, before it was first run,
so a change that makes the analytic path less accurate fails here.  Never
loosen them.
"""

import math

import numpy as np
import pytest

from polyrabi import ModeConfig, factored_pe, floquet_evolve, run_cascade

# (N, Omega): bound on max |P_e(cascade) - P_e(reference)|  [measured]
BOUNDS = {
    (2, 1 / 15): 1.1e-4,  # 9.97e-5
    (2, 1 / 7): 1.7e-3,  # 1.51e-3
    (5, 1 / 15): 4.9e-4,  # 4.40e-4
    (5, 1 / 7): 7.4e-3,  # 6.66e-3
    (10, 1 / 15): 9.7e-4,  # 8.74e-4
    (10, 1 / 7): 1.52e-2,  # 1.38e-2
}


@pytest.mark.parametrize(
    "n, omega", list(BOUNDS), ids=[f"n{n}_omega1_{round(1 / om)}" for n, om in BOUNDS]
)
def test_uniform_comb_within_bound(n, omega):
    cfg = ModeConfig(j=1, m=tuple(range(n)), omega=(omega,) * n, delta0=n - 1)
    taus = np.linspace(0.0, 4.0 * math.pi / omega, 1000)
    reference = floquet_evolve(cfg, 200, taus)
    assert reference.valid
    deviation = np.max(np.abs(factored_pe(run_cascade(cfg), taus).values - reference.pe.values))
    assert deviation <= BOUNDS[n, omega]
