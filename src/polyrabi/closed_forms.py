"""Explicit closed-form propagators.

Three independent evaluators that double as cross-checks of the cascade
engine: the exact two-mode lab-frame propagator, the weak-field amplitude
for any comb (second order in coupling over the smallest offset gap), and
the textbook single-mode Rabi probability.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .cascade import ModeConfig
from .propagator import PeSeries, PropagatorComponents, _tau_grid
from .terms import TermSum

__all__ = [
    "WeakFieldWarning",
    "two_mode_u0",
    "resonant_lower_mode",
    "weak_field_uge",
    "single_mode_rabi",
]


class WeakFieldWarning(UserWarning):
    """Couplings are large relative to the smallest offset gap for the weak-field form."""


def two_mode_u0(cfg: ModeConfig) -> PropagatorComponents:
    """Exact lab-frame propagator entries for a two-mode drive.

    Built directly from the explicit two-mode solution (one dressing stage,
    one frame rotation, one undressing), with every trigonometric factor
    expanded into exponential term pairs.  Like the cascade, it dresses the
    mode farther from resonance first (offset order on a tie), onto the
    adiabatic branch, in that mode's frame, and rotates back to the lowest
    mode's frame at the end.  Returns the four entries (up-up, down-down,
    up-down, down-up), as :func:`polyrabi.propagator.undress` does, and
    agrees with it termwise on two-mode configs; the two code paths share
    only the term algebra.
    """
    if cfg.n_modes != 2:
        raise ValueError("two_mode_u0 requires exactly two modes")
    first, second = cfg.dressing_order
    ma = cfg.m[first]
    g = cfg.m[second] - ma      # signed gap to the mode dressed second
    ja = cfg.j + ma             # ladder shifts of the two modes
    jb = ja + g
    x1 = cfg.omega[first]
    om2 = cfg.omega[second]

    d1 = cfg.delta0 - ma
    r1 = math.hypot(d1, abs(x1))
    if r1 == 0.0:
        raise ValueError("first stage is degenerate (zero detuning and coupling)")
    e1 = -r1 if d1 < 0.0 else r1  # splitting on the adiabatic branch
    dn1 = d1 / e1
    xn1 = x1 / e1
    sp1 = 0.5 * (d1 + e1) / e1
    sm1 = 0.5 * (d1 - e1) / e1
    ph1 = x1 / x1.conjugate() if x1 != 0 else 1.0 + 0.0j

    d2 = e1 - g
    x2 = om2 * sp1
    r2 = math.hypot(d2, abs(x2))
    dn2 = d2 / r2 if r2 else 0.0
    xn2 = x2 / r2 if r2 else 0.0j

    cos_m = TermSum.cosine(g)    # cos(g*tau/2)
    sin_m = TermSum.sine(g)
    cos_x = TermSum.cosine(r2)   # cos(rabi2*tau/2)
    sin_x = TermSum.sine(r2)
    e_m = TermSum.single(1.0, -float(g), 0)  # exp(-i*g*tau/2)
    e_p = TermSum.single(1.0, +float(g), 0)

    f = sin_m * cos_x + dn2 * (cos_m * sin_x)
    u_id = cos_m * cos_x - dn2 * (sin_m * sin_x)

    f_z = (xn1.conjugate() * xn2) * e_m * TermSum.ladder(g) + (
        xn1 * xn2.conjugate()
    ) * e_p * TermSum.ladder(-g)
    u_z = -1j * (dn1 * f - 0.5 * (f_z * sin_x))

    f_plus = (sp1 * xn2) * e_m * TermSum.ladder(jb) + (
        sm1 * ph1 * xn2.conjugate()
    ) * e_p * TermSum.ladder(ja - g)
    u_plus = -1j * (xn1 * (TermSum.ladder(ja) * f) + f_plus * sin_x)

    f_minus = f_plus.conjugate_mirror()
    u_minus = -1j * (
        xn1.conjugate() * (TermSum.ladder(-ja) * f) + f_minus * sin_x
    )

    u = (u_id + u_z, u_id - u_z, u_plus, u_minus)
    if ma:
        # back to the lowest mode's frame: left product by exp(-i*ma*tau*sigma_z/2),
        # the phase exp(-+i*ma*tau/2) on the up and down rows
        up, down = TermSum.single(1.0, -float(ma), 0), TermSum.single(1.0, float(ma), 0)
        u = (up * u[0], down * u[1], up * u[2], down * u[3])
    return PropagatorComponents(u=u)


def _smallest_gap(cfg: ModeConfig) -> int:
    return min((b - a for a, b in zip(cfg.m, cfg.m[1:])), default=1)


def resonant_lower_mode(cfg: ModeConfig) -> int | None:
    """The first mode below the highest that :func:`weak_field_uge` cannot expand.

    Its 1-based index, when its detuning ``delta0 - m_k`` is under 1e-9x
    the smallest offset gap; otherwise None.
    """
    gap = _smallest_gap(cfg)
    for k, mk in enumerate(cfg.m[:-1], start=1):
        if abs(cfg.delta0 - mk) < 1e-9 * gap:
            return k
    return None


def weak_field_uge(cfg: ModeConfig, taugrid: np.ndarray) -> np.ndarray:
    """Up-down transition amplitude for a weak comb.

    Keeps the full two-level rotation on the last mode (detuning
    ``delta0 - m_N``, coupling ``omega_N``) and one first-order sideband for
    each other mode k (amplitude ``omega_k / (delta0 - m_k)``), so the
    probability is accurate to second order in coupling over the smallest
    offset gap.  Sideband k advances at half-frequency ``m_N - 2*m_k`` and
    the whole amplitude carries the phase ``exp(-i*m_N*tau/2)``; the
    relative exponents reduce exactly to the two-mode solution at N=2.
    Warns (:class:`WeakFieldWarning`) when a coupling exceeds 0.3x the
    smallest gap (1 for a single mode); a resonant lower mode
    (:func:`resonant_lower_mode`) is rejected.
    """
    taugrid = _tau_grid(taugrid)
    k = resonant_lower_mode(cfg)
    if k is not None:
        raise ValueError(
            f"mode {k} is resonant (detuning {cfg.delta0 - cfg.m[k - 1]:g}); the "
            "weak-field expansion requires off-resonant lower modes"
        )
    if max(abs(x) for x in cfg.omega) > 0.3 * _smallest_gap(cfg):
        warnings.warn(
            "mode couplings exceed 0.3x the smallest offset gap; the "
            "weak-field amplitude is only second-order accurate",
            WeakFieldWarning,
            stacklevel=2,
        )
    m_last = cfg.m[-1]
    d_last = cfg.delta0 - m_last
    chi_last = cfg.omega[-1]
    r = math.hypot(d_last, abs(chi_last))
    dn = d_last / r if r else 0.0
    xn = chi_last / r if r else 0.0j

    half = 0.5 * r * taugrid
    s = np.sin(half)
    c = np.cos(half)
    f_plus = c - 1j * dn * s
    f_minus = -c - 1j * dn * s
    theta_h = 0.5 * taugrid
    carrier = np.exp(-1j * m_last * theta_h)

    out = (-1j * xn) * carrier * s
    for mk, om in zip(cfg.m[:-1], cfg.omega[:-1]):
        d_k = cfg.delta0 - mk
        out = out + (0.5 * (om / d_k)) * (
            np.exp(1j * (m_last - 2 * mk) * theta_h) * f_minus + carrier * f_plus
        )
    return out


def single_mode_rabi(delta: float, omega: complex, taugrid: np.ndarray) -> PeSeries:
    """Textbook Rabi flopping P_e = (|w|^2/(d^2+|w|^2)) sin^2(sqrt(d^2+|w|^2) tau/2)."""
    taugrid = _tau_grid(taugrid)
    r2 = delta * delta + abs(omega) ** 2
    if r2 == 0.0:
        return PeSeries(tau=taugrid, values=np.zeros(taugrid.shape))
    values = (abs(omega) ** 2 / r2) * np.sin(0.5 * math.sqrt(r2) * taugrid) ** 2
    return PeSeries(tau=taugrid, values=values)
