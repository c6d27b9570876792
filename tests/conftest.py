import math

import numpy as np
import pytest
from hypothesis import settings

from polyrabi import ModeConfig, build_hamiltonian, evolve
from polyrabi.terms import AMP_DROP_TOL, FREQ_MERGE_TOL, Term

# Every property test runs a fixed set of examples with no deadline, so a run
# repeats exactly and a slow shared host cannot time it out.
settings.register_profile("polyrabi", derandomize=True, deadline=None)
settings.load_profile("polyrabi")


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


# -- a pure-Python reference for the term algebra's merge ----------------------

# The spin basis (1, sigma_z, sigma_+, sigma_-) over (up, down): each basis
# element's nonzero entries (row, col, value), and the entries (row, col,
# weight) each component is read from.
BASIS = (((0, 0, 1.0), (1, 1, 1.0)), ((0, 0, 1.0), (1, 1, -1.0)), ((0, 1, 1.0),), ((1, 0, 1.0),))
READ = (((0, 0, 0.5), (1, 1, 0.5)), ((0, 0, 0.5), (1, 1, -0.5)), ((0, 1, 1.0),), ((1, 0, 1.0),))


def ref_canonical(raw):
    """Canonical terms of a raw (amp, halffreq, shift) list, one term at a time.

    Stable sort by (shift, halffreq); a group runs while the shift is equal
    and the half-frequency within FREQ_MERGE_TOL of the group's first, which
    keeps its half-frequency; a group of one keeps its amplitude untouched,
    a larger one is summed by ``math.fsum`` per part; moduli at or below
    AMP_DROP_TOL are dropped.
    """
    items = sorted(raw, key=lambda t: (t[2], t[1]))
    out, i = [], 0
    while i < len(items):
        amp, freq, shift = items[i]
        j = i + 1
        while j < len(items) and items[j][2] == shift and items[j][1] - freq <= FREQ_MERGE_TOL:
            j += 1
        if j > i + 1:
            group = items[i:j]
            amp = complex(math.fsum(t[0].real for t in group), math.fsum(t[0].imag for t in group))
        if abs(amp) > AMP_DROP_TOL:
            out.append(Term(amp, freq, shift))
        i = j
    return out


def ref_products(a, b, scale=None):
    """Raw products of every term of ``a`` with every term of ``b``, ``a`` outermost.

    A real ``scale`` multiplies as a complex number, ``scale + 0j``.
    """
    return [
        (
            (ta.amp if scale is None else complex(scale) * ta.amp) * tb.amp,
            ta.halffreq + tb.halffreq,
            ta.shift + tb.shift,
        )
        for ta in a
        for tb in b
    ]


def ref_mat_vec_row(row, v):
    """One entry of a matrix-vector product, canonicalized from all its raw products."""
    return ref_canonical([t for entry, comp in zip(row, v) for t in ref_products(entry, comp)])


def ref_sandwich_entry(a, b, i, j):
    """Component i of a.E_j.b, canonicalized from all its raw products w*e*ta*tb."""
    return ref_canonical(
        [
            t
            for p, q, w in READ[i]
            for r, c, e in BASIS[j]
            for t in ref_products(a[p][r], b[c][q], w * e)
        ]
    )


def term_bits(terms):
    """Terms as exact tokens: signed-zero-aware hex of every float, and the shift."""
    return [
        (complex(t[0]).real.hex(), complex(t[0]).imag.hex(), float(t[1]).hex(), int(t[2]))
        for t in terms
    ]
