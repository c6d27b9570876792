"""Coherent-field weight profile on the non-degenerate lattice.

A multimode coherent state decomposes over total-energy lattice levels with
weights that approach a Gaussian whose mean is sum_k k*|alpha_k|^2 and whose
variance is sum_k k^2*|alpha_k|^2 (for a single mode this reproduces the
Poissonian width of a coherent state, which is why the second moment is read
as a variance here).  The weighted excitation probability sums channel
amplitudes coherently within each final lattice level and incoherently
across levels.  Summed over the final levels, that is a quadratic form of
the channel amplitudes whose kernel is the autocorrelation of the level
profile; with flat weights it collapses to the plain traced probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .propagator import PeSeries, _channel_probs, _tau_grid
from .terms import AMP_DROP_TOL

__all__ = [
    "FieldWeights",
    "gamma_weights",
    "weighted_pe",
]


@dataclass(frozen=True)
class FieldWeights:
    """Normalized Gaussian level weights gamma^2 on an integer window."""

    mean: float
    sigma: float
    levels: np.ndarray  # integer lattice levels
    weights: np.ndarray  # gamma^2, sums to 1 on the window


def gamma_weights(alpha, window: int) -> FieldWeights:
    """Gaussian level-weight profile of a multimode coherent state.

    ``alpha`` lists the coherent amplitudes of modes 1..K; ``window`` is the
    halfwidth (in lattice levels) of the support, centered on the rounded
    mean.  Weights are renormalized on the window, so clipping distant tails
    keeps the total at exactly one.  Raises ValueError for a negative window,
    a variance that is zero or not finite (alphas all zero, NaN, or with
    squares that underflow or overflow) and levels past int64.
    """
    alpha = tuple(complex(a) for a in alpha)
    try:
        occupations = [abs(a) ** 2 for a in alpha]
        mean = math.fsum(k * occ for k, occ in enumerate(occupations, start=1))
        variance = math.fsum(k * k * occ for k, occ in enumerate(occupations, start=1))
    except OverflowError:  # a square or a sum past the float range
        mean = variance = math.inf
    if window < 0:
        raise ValueError(f"weight window {window} must be non-negative")
    if not 0.0 < variance < math.inf:
        raise ValueError(f"gaussian alphas must give a nonzero, finite variance, not {variance!r}")
    center = round(mean)
    if center + window >= 2**63:
        raise ValueError(f"weight level {center + window} must fit a signed 64-bit integer")
    levels = np.arange(center - window, center + window + 1)
    profile = np.exp(-((levels - mean) ** 2) / (2.0 * variance))
    profile /= profile.sum()
    return FieldWeights(
        mean=mean,
        sigma=math.sqrt(variance),
        levels=levels,
        weights=profile,
    )


def weighted_pe(source, weights: FieldWeights, taugrid: np.ndarray, channels=None) -> PeSeries:
    """Excitation probability under an explicit level-weight profile.

    With c_s the amplitude of shift s, read from ``source.shift_rows(taugrid)``
    (an analytic propagator, or an oracle run on its own grid),
    sum_N |sum_s gamma(N + s) c_s|^2 over the final levels N is
    Re sum_{s,s'} conj(c_s) A(s - s') c_{s'}, whose kernel
    A(d) = sum_M gamma(M) gamma(M + d) is the autocorrelation of the level
    profile.  A is zero from the window length L on and read only up to
    the smaller of L and the span of the shifts, so the memory does not
    depend on the weight window, and the time only through one dot product
    of its length per lag.  The result is the
    |Gamma(theta)|^2-weighted average over theta of flat runs with couplings
    rotated by exp(-i(j + m_k) theta), where
    Gamma(theta) = sum_M gamma(M) exp(iM theta).  Flat weights are the plain
    traced probability (:func:`~polyrabi.propagator.excitation_probability`,
    ``OracleRun.pe``).  The weights sum to one over the levels, so the
    probability of each channel does not depend on them: the requested
    ``channels`` are the flat split of ``excitation_probability``.  Rows at
    or below :data:`~polyrabi.terms.AMP_DROP_TOL` are left out of the
    weighting.  One set of shift amplitudes serves every initial level, so
    the weight window is independent of an oracle run's site window.
    """
    taugrid = _tau_grid(taugrid)
    shifts, rows = source.shift_rows(taugrid)
    chan = _channel_probs(shifts, rows, channels) if channels else None
    keep = np.max(np.abs(rows), axis=1, initial=0.0) > AMP_DROP_TOL
    shifts, rows = np.asarray(shifts, dtype=int)[keep], rows[keep]
    g, n = np.sqrt(weights.weights), len(weights.weights)
    lags = np.minimum(np.abs(np.subtract.outer(shifts, shifts)), n)
    # the profile autocorrelation A(d) up to the largest lag; a lag from n on reads
    # A(n), an empty dot product, 0.0
    autocorr = [g[: n - d] @ g[d:] for d in range(np.max(lags, initial=0) + 1)]
    values = np.sum((rows.conj() * (np.take(autocorr, lags) @ rows)).real, axis=0)
    return PeSeries(tau=taugrid, values=values, channels=chan)
