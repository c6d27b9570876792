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

__all__ = [
    "FieldWeights",
    "WindowOverflowError",
    "gamma_weights",
    "weighted_pe",
]


class WindowOverflowError(ValueError):
    """The weight window extends past the lattice the amplitudes live on."""


@dataclass(frozen=True)
class FieldWeights:
    """Normalized Gaussian level weights gamma^2 on an integer window."""

    alpha: tuple[complex, ...]
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
        alpha=alpha,
        mean=mean,
        sigma=math.sqrt(variance),
        levels=levels,
        weights=profile,
    )


def _shift_amplitudes(
    source: PropagatorComponents | OracleRun, taugrid: np.ndarray
) -> tuple[list[int], np.ndarray]:
    """Comb-frame channel amplitudes, one row per ladder shift.

    For a propagator, every sigma_+ shift group is traced in one pass
    (:meth:`~polyrabi.terms.TermSum.trace_by_shift`), each row correctly
    rounded from the group's raw terms.
    """
    if isinstance(source, PropagatorComponents):
        shifts, rows = source.sigma_plus.trace_by_shift(taugrid)
        return list(shifts), rows
    if not np.array_equal(np.asarray(taugrid, dtype=float), source.tau):
        raise ValueError("taugrid must match the oracle run's grid")
    shifts = [int(-n) for n in source.basis.sites[::-1]]
    rows = [source.shift_amplitude(s) for s in shifts]
    keep = [i for i, r in enumerate(rows) if np.max(np.abs(r)) > 1e-14]
    shifts = [shifts[i] for i in keep]
    rows = [rows[i] for i in keep]
    return shifts, np.array(rows) if rows else np.zeros((0, len(taugrid)), complex)


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
    shift s present, from the same amplitudes.
    """
    taugrid = np.asarray(taugrid, dtype=float)
    shifts, rows = _shift_amplitudes(source, taugrid)
    reach = max((abs(s) for s in shifts), default=0)
    if isinstance(source, OracleRun):
        if len(weights.levels) // 2 + reach > source.basis.halfwidth:
            raise WindowOverflowError(
                "weight window plus channel reach exceeds the oracle lattice"
            )
    if not shifts:
        return PeSeries(tau=taugrid, values=np.zeros(taugrid.shape), channels={})

    # Final levels extend one channel reach past the initial-level window.
    finals = np.arange(weights.levels[0] - reach, weights.levels[-1] + reach + 1)
    # gamma(N + s) for every final level N and every shift s.
    gam = np.stack([weights.gamma(finals + s) for s in shifts], axis=1)
    inner = gam @ rows  # (finals, tau)
    values = np.sum(np.abs(inner) ** 2, axis=0)
    channels = dict(zip(shifts, np.abs(rows) ** 2))
    return PeSeries(tau=taugrid, values=values, channels=channels)
