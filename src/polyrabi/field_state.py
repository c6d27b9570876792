"""Coherent-field weight profile on the non-degenerate lattice.

A multimode coherent state decomposes over total-energy lattice levels with
weights that approach a Gaussian whose mean is sum_k k*|alpha_k|^2 and whose
variance is sum_k k^2*|alpha_k|^2 (for a single mode this reproduces the
Poissonian width of a coherent state, which is why the second moment is read
as a variance here).  The weighted excitation probability sums channel
amplitudes coherently within each final lattice level and incoherently
across levels; with flat weights it collapses to the plain traced
probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import OracleRun
from .propagator import PeSeries, PropagatorComponents
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

    def gamma(self, level: np.ndarray | int) -> np.ndarray:
        """Amplitude weight gamma at the given level(s); 0 outside the window."""
        level = np.asarray(level)
        lo = int(self.levels[0])
        idx = level - lo
        ok = (idx >= 0) & (idx < len(self.levels))
        out = np.zeros(level.shape, dtype=float)
        out[ok] = np.sqrt(self.weights[idx[ok]])
        return out


def gamma_weights(alpha, window: int) -> FieldWeights:
    """Gaussian level-weight profile of a multimode coherent state.

    ``alpha`` lists the coherent amplitudes of modes 1..K; ``window`` is the
    halfwidth (in lattice levels) of the support, centered on the rounded
    mean.  Weights are renormalized on the window, so clipping distant tails
    keeps the total at exactly one.
    """
    alpha = tuple(complex(a) for a in alpha)
    if not alpha or all(a == 0 for a in alpha):
        raise ValueError("at least one mode amplitude must be nonzero")
    occupations = [abs(a) ** 2 for a in alpha]
    mean = math.fsum(k * occ for k, occ in enumerate(occupations, start=1))
    variance = math.fsum(k * k * occ for k, occ in enumerate(occupations, start=1))
    center = round(mean)
    levels = np.arange(center - window, center + window + 1)
    profile = np.exp(-((levels - mean) ** 2) / (2.0 * variance))
    profile /= profile.sum()
    return FieldWeights(
        mean=mean,
        sigma=math.sqrt(variance),
        levels=levels,
        weights=profile,
    )


def weighted_pe(
    source: PropagatorComponents | OracleRun,
    weights: FieldWeights,
    taugrid: np.ndarray,
) -> PeSeries:
    """Excitation probability under an explicit level-weight profile.

    For each final level N the channel amplitudes are summed weighted by
    gamma(N + shift) of the initial level they came from, and the per-level
    probabilities are added.  Flat weights are the plain traced probability
    (:func:`~polyrabi.propagator.excitation_probability`, ``OracleRun.pe``).
    The weights sum to one over the levels, so the probability of each
    channel does not depend on them: ``channels`` holds |c_s|^2 for every
    shift s present (every site row of an oracle run), from the same
    amplitudes.  An oracle run's rows at or below
    :data:`~polyrabi.terms.AMP_DROP_TOL` are left out of the weighting.
    One set of shift amplitudes serves every initial level, so the weight
    window is independent of an oracle run's site window.
    """
    taugrid = np.asarray(taugrid, dtype=float)
    if isinstance(source, OracleRun):
        if not np.array_equal(taugrid, source.tau):
            raise ValueError("taugrid must match the oracle run's grid")
        # every site row is a channel; only those above AMP_DROP_TOL are weighted
        shifts, rows = source.shift_rows()
        channels = dict(zip(shifts.tolist(), np.abs(rows) ** 2))
        keep = np.max(np.abs(rows), axis=1) > AMP_DROP_TOL
        shifts, rows = shifts[keep].tolist(), rows[keep]
    else:
        # every sigma_+ shift group, each row correctly rounded from its raw terms
        shifts, rows = source.sigma_plus.trace_by_shift(taugrid)
        channels = dict(zip(shifts, np.abs(rows) ** 2))
    reach = max((abs(s) for s in shifts), default=0)
    # Final levels extend one channel reach past the initial-level window.
    finals = np.arange(weights.levels[0] - reach, weights.levels[-1] + reach + 1)
    # gamma(N + s) for every final level N and every shift s.
    gam = weights.gamma(finals[:, None] + np.array(shifts, dtype=int))
    inner = gam @ rows  # (finals, tau)
    values = np.sum(np.abs(inner) ** 2, axis=0)
    return PeSeries(tau=taugrid, values=values, channels=channels)
