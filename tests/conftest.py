import math

import numpy as np
import pytest

from polyrabi import ModeConfig, build_hamiltonian, evolve


@pytest.fixture(scope="session")
def fig1_cfg():
    return ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)


@pytest.fixture(scope="session")
def taus_4pi():
    return np.linspace(0.0, 4.0 * math.pi, 1000)


@pytest.fixture(scope="session")
def fig1_oracle(fig1_cfg, taus_4pi):
    h, basis = build_hamiltonian(fig1_cfg, 200)
    return evolve(h, basis, taus_4pi, channels=[1, 3, -1])


def dominant_peak(tau, values):
    """Angular frequency of the largest nonzero-frequency Fourier line."""
    spec = np.abs(np.fft.rfft(values - np.mean(values)))
    k = int(np.argmax(spec[1:])) + 1
    width = 2.0 * math.pi / (tau[-1] - tau[0])
    return k * width, width


def termwise_dev(a, b):
    """Largest |amplitude difference| over the keys of either TermSum.

    Reads the stored amplitudes directly, so residues below the drop
    threshold of a canonicalized difference still count.
    """
    keys = {(t.halffreq, t.shift) for t in (*a, *b)}
    return max((abs(a.amp_at(f, s) - b.amp_at(f, s)) for f, s in keys), default=0.0)


def fsum_trace(ts, taus):
    """Reference trace: each point's addends summed by ``math.fsum``.

    The addends are computed as the evaluation computes them; the loop over
    points is the reference the vectorized exact sum must equal bit for bit.
    """
    amps = np.array([t.amp for t in ts])
    freqs = np.array([t.halffreq for t in ts])
    contrib = amps[None, :] * np.exp(0.5j * np.outer(taus, freqs))
    return np.array(
        [complex(math.fsum(r), math.fsum(i)) for r, i in zip(contrib.real, contrib.imag)],
        dtype=complex,
    ).reshape(len(taus))


def bits(x):
    """The float64 bit patterns of a real or complex array, for exact comparison."""
    return np.ascontiguousarray(x).view(np.int64)
