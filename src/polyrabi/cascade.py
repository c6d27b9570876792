"""Progressive dressing of a spin-half by the modes of a frequency comb.

The driven two-level problem with mode offsets ``m_1 < ... < m_N`` (lowest
mode at ``j`` comb units, highest at ``j + m_N``) is reduced stage by stage:
each stage diagonalizes the coupling to one mode and rotates the frame so the
next mode's coupling becomes static.  The modes are dressed in resonance
order, the one farthest from the bare spin frequency first and the nearest
last (:attr:`ModeConfig.dressing_order`), and each stage dresses onto the
adiabatic branch, the one that stays connected to the bare up state as its
coupling vanishes (:attr:`StageParams.splitting`).  Each stage is one
unitary W = S R, the dressing S then the frame rotation R, written once as
a 2x2 matrix of :class:`~polyrabi.terms.TermSum` entries
(:func:`stage_unitary`).  The interaction is carried as a 3-vector of
coefficients over the spin basis ``(sigma_z, sigma_+, sigma_-)``; a stage
conjugates it by W (:func:`build_M`, derived through
:func:`~polyrabi.terms.sandwich`) and shifts the sigma_z entry by a
constant.  The undressing matrices of :mod:`polyrabi.propagator` are
derived from the same W.

After ``N-1`` stages the remaining static, resonant part is a plain two-level
interaction with detuning ``Delta_N`` and coupling ``chi_N`` of the nearest
mode; everything else is off-resonant and is reported (not silently
discarded) by :func:`run_cascade`.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .terms import (
    AMP_DROP_TOL, FREQ_MERGE_TOL, Term, TermSum, TermVector, TermMatrix, dagger, mat_vec, sandwich,
)

__all__ = [
    "ModeConfig",
    "StageParams",
    "CascadeResult",
    "TruncatedTerm",
    "DegenerateStageError",
    "ChiExtractionError",
    "ResonanceOrderWarning",
    "stage_zero",
    "stage_unitary",
    "build_M",
    "next_stage",
    "run_cascade",
]

_COMPONENT_NAMES = ("sigma_z", "sigma_plus", "sigma_minus")


class DegenerateStageError(ValueError):
    """A dressing stage with vanishing generalized Rabi frequency was requested."""


class ChiExtractionError(ValueError):
    """The static resonant coupling expected at the next mode is missing."""


class ResonanceOrderWarning(UserWarning):
    """The spin is closer to resonance with a lower mode than with the highest.

    The cascade then dresses the modes out of offset order, nearest mode
    last, so its ``stages`` are out of offset order and open with a frame
    anchor (see :class:`CascadeResult`).  Accuracy is not degraded by this.
    """


@dataclass(frozen=True)
class ModeConfig:
    """Problem statement for an N-mode comb drive.

    Frequencies and times are dimensionless (comb units): mode k sits at
    ``(j + m[k]) * omega_f`` and ``delta0 = omega_0 - j*omega_f`` is the bare
    detuning from the lowest mode.  ``omega`` holds the complex Rabi
    amplitude of each mode.  A config whose modes are dressed out of offset
    order warns (:class:`ResonanceOrderWarning`).
    """

    j: int
    m: tuple[int, ...]
    omega: tuple[complex, ...]
    delta0: float

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(x) for x in self.m))
        object.__setattr__(self, "omega", tuple(complex(x) for x in self.omega))
        object.__setattr__(self, "delta0", float(self.delta0))
        object.__setattr__(self, "j", int(self.j))
        if len(self.m) < 1 or len(self.m) != len(self.omega):
            raise ValueError("need one Rabi amplitude per mode offset, at least one mode")
        if not math.isfinite(self.delta0):
            raise ValueError(f"detuning delta0 must be finite, got {self.delta0!r}")
        if not all(cmath.isfinite(x) for x in self.omega):
            raise ValueError("Rabi amplitudes must be finite")
        if self.m[0] != 0:
            raise ValueError("mode offsets must start at 0")
        if any(b <= a for a, b in zip(self.m, self.m[1:])):
            raise ValueError("mode offsets must be strictly ascending")
        if self.dressing_order != tuple(range(self.n_modes)):
            warnings.warn(
                "spin is closer to resonance with a lower mode than with the "
                "highest; modes are dressed in resonance order, nearest last, "
                "so the cascade stages are out of offset order",
                ResonanceOrderWarning,
                stacklevel=3,  # past the generated __init__, at the caller
            )

    @property
    def n_modes(self) -> int:
        return len(self.m)

    @property
    def omega0(self) -> float:
        """Bare spin frequency in comb units."""
        return self.j + self.delta0

    @property
    def mode_shifts(self) -> tuple[int, ...]:
        """Ladder displacement carried by each mode's lowering operator."""
        return tuple(self.j + mk for mk in self.m)

    @cached_property
    def dressing_order(self) -> tuple[int, ...]:
        """Mode indices in the order the cascade dresses them.

        Offset order while the highest mode is nearest resonance (ties
        included).  Otherwise by decreasing distance ``|delta0 - m_k|``, ties
        in offset order, so that the nearest mode is dressed last.
        """
        dist = [abs(self.delta0 - mk) for mk in self.m]
        if min(dist) < dist[-1] - 1e-12:
            return tuple(sorted(range(len(dist)), key=lambda k: -dist[k]))
        return tuple(range(len(dist)))


@dataclass(frozen=True)
class StageParams:
    """Dressed quantities of one cascade stage.

    ``rabi`` is the generalized Rabi frequency sqrt(detuning^2 + |chi|^2) and
    ``splitting`` the same with the sign of the detuning; the ``*_norm``
    properties are quantities divided by the splitting (an uncoupled stage
    with zero detuning has no splitting and normalizes as undressed);
    ``detuning_norm`` and ``chi_norm`` define the stage's dressing
    (:func:`stage_unitary`).
    ``mode_shift`` is the ladder displacement of this stage's mode and
    ``dm_next`` the signed offset gap to the next mode dressed (0 at the
    final stage).
    """

    k: int
    detuning: float
    chi: complex
    mode_shift: int
    dm_next: int

    @property
    def rabi(self) -> float:
        return math.hypot(self.detuning, abs(self.chi))

    @property
    def splitting(self) -> float:
        """Dressed splitting on the adiabatic branch: rabi, signed as the detuning.

        Dressing onto this branch keeps the bare up state on the dressed up
        state as the coupling vanishes, whatever the sign of the detuning
        (zero detuning counts as positive).  The next stage's detuning is
        ``splitting - dm_next``.
        """
        return -self.rabi if self.detuning < 0.0 else self.rabi

    @property
    def detuning_norm(self) -> float:
        e = self.splitting
        return self.detuning / e if e else 1.0

    @property
    def chi_norm(self) -> complex:
        e = self.splitting
        return self.chi / e if e else 0.0j


@dataclass(frozen=True)
class TruncatedTerm:
    """One off-resonant term dropped by the final two-level truncation."""

    component: str
    halffreq: float
    shift: int
    magnitude: float
    relative: float


@dataclass(frozen=True)
class CascadeResult:
    """Stages, final interaction vector and the final-truncation inventory.

    ``stages`` is the undressing chain: the dressing stages in the order the
    modes were dressed, ``stages[-1]`` the final two-level stage.  A cascade
    dressed out of offset order opens the chain with its frame anchor, a
    stage ``k = 0`` at the lowest mode with zero coupling and gap ``m_a``,
    the offset of the first mode dressed.  It dresses nothing; undressing
    through it rotates the propagator from that mode's frame back to the
    lowest mode's.
    """

    config: ModeConfig
    stages: tuple[StageParams, ...]
    v_final: TermVector
    truncation_report: tuple[TruncatedTerm, ...]


def _offset(cfg: ModeConfig, k: int) -> int:
    """Offset of the k-th mode dressed (1-based)."""
    return cfg.m[cfg.dressing_order[k - 1]]


def _gap(cfg: ModeConfig, k: int) -> int:
    """Signed offset gap from the k-th mode dressed to the next (0 after the last)."""
    return _offset(cfg, k + 1) - _offset(cfg, k) if k < cfg.n_modes else 0


def stage_zero(cfg: ModeConfig) -> TermVector:
    """Interaction vector before any dressing, in the first dressed mode's frame.

    With ``m_a`` the offset of the first mode dressed (0 unless the comb is
    dressed out of offset order), the components over (sigma_z, sigma_+,
    sigma_-) are a constant (delta0 - m_a)/2 and, per mode, the comb-phased
    couplings ``(omega_k/2) e^{-i (m_k - m_a) tau} b_{j+m_k}`` plus their
    hermitian mirrors.
    """
    ma = _offset(cfg, 1)
    vz = TermSum.single(0.5 * (cfg.delta0 - ma))
    plus = TermSum(
        Term(0.5 * om, -2.0 * (mk - ma), cfg.j + mk) for mk, om in zip(cfg.m, cfg.omega)
    )
    return (vz, plus, plus.conjugate_mirror())


def stage_unitary(p: StageParams, halffreq: float) -> TermMatrix:
    """Dressing unitary of a stage, then the rotation exp(-i*halffreq*tau*sigma_z/2).

    A 2x2 matrix of TermSum entries, rows and columns (up, down)::

        ((c e-,           -x b_s e+),
         (conj(x) b_-s e-, c e+     ))

    with c = sqrt((1 + detuning_norm)/2), x = chi_norm/(2c) and
    e+- = exp(+-i*halffreq*tau/2).  ``halffreq = 0`` gives the dressing S,
    ``p.dm_next`` the stage unitary W = S R whose rotation R makes the next
    mode static, and ``p.splitting`` the final stage's evolution
    S exp(-i*splitting*tau*sigma_z/2).  On the adiabatic branch
    ``detuning_norm`` lies in [0, 1], so c >= sqrt(1/2).
    """
    c = math.sqrt(0.5 * (1.0 + p.detuning_norm))
    x = p.chi_norm / (2.0 * c)
    f = float(halffreq)
    s = p.mode_shift
    one = TermSum.single
    return (
        (one(c, -f, 0), one(-x, f, s)),
        (one(x.conjugate(), -f, -s), one(c, f, 0)),
    )


def build_M(p: StageParams) -> TermMatrix:
    """Transfer matrix of one dressing-plus-rotation stage.

    The conjugation X -> W^dag X W by the stage unitary W = S R
    (:func:`stage_unitary` at ``p.dm_next``) on the components
    (sigma_z, sigma_+, sigma_-); column j holds the image of the j-th.
    """
    if p.rabi == 0.0:
        raise DegenerateStageError(f"stage {p.k}: zero detuning and zero coupling")
    w = stage_unitary(p, p.dm_next)
    return sandwich(dagger(w), w, rows=range(1, 4), cols=range(1, 4))


def next_stage(
    p: StageParams, v_prev: TermVector, cfg: ModeConfig
) -> tuple[TermVector, StageParams]:
    """Advance the interaction vector one stage and read off the next coupling.

    The new static coupling is twice the amplitude sitting at zero
    half-frequency and ladder shift ``j + m`` of the next mode dressed in the
    sigma_+ component (the vector carries the conventional factor 1/2).  The
    next detuning is ``splitting_k - dm_next``.

    Each stage scales that term by at least 1/2 (the dressing's c^2), so
    the term of the k-th mode dressed outlives canonicalization whenever its
    coupling exceeds ``2**k * AMP_DROP_TOL``.  A weaker coupling whose term
    is gone is dressed as uncoupled (chi = 0); a missing term of a stronger
    one raises :class:`ChiExtractionError`.
    """
    k_next = p.k + 1
    if k_next > cfg.n_modes:
        raise ValueError("cascade already complete")
    m = build_M(p)
    v = mat_vec(m, v_prev)
    v = (v[0] + TermSum.single(-0.5 * p.dm_next), v[1], v[2])

    mode = cfg.dressing_order[k_next - 1]
    shift_next = cfg.j + cfg.m[mode]
    chi_next = 2.0 * v[1].amp_at(0.0, shift_next)
    if chi_next == 0 and abs(cfg.omega[mode]) > 2.0**k_next * AMP_DROP_TOL:
        raise ChiExtractionError(
            f"stage {k_next}: no static sigma_+ term at ladder shift {shift_next}"
        )
    p_next = StageParams(
        k=k_next,
        detuning=p.splitting - p.dm_next,
        chi=chi_next,
        mode_shift=shift_next,
        dm_next=_gap(cfg, k_next),
    )
    return v, p_next


def run_cascade(cfg: ModeConfig) -> CascadeResult:
    """Run all N-1 dressing stages and report the final truncation.

    The returned stages hold everything the propagator needs; ``v_final`` is
    the full last interaction vector, from which only the static two-level
    part (constant sigma_z plus the resonant sigma_+- pair at the shift of
    the last mode dressed) is kept downstream.  Every dropped term is listed
    with its magnitude relative to ``|chi_N|``.
    """
    first_mode = cfg.dressing_order[0]
    ma = cfg.m[first_mode]
    first = StageParams(
        k=1,
        detuning=cfg.delta0 - ma,
        chi=cfg.omega[first_mode],
        mode_shift=cfg.j + ma,
        dm_next=_gap(cfg, 1),
    )
    stages = [first]
    v = stage_zero(cfg)
    for _ in range(cfg.n_modes - 1):
        v, p = next_stage(stages[-1], v, cfg)
        stages.append(p)
    if ma:
        anchor = StageParams(k=0, detuning=cfg.delta0, chi=0j, mode_shift=cfg.j, dm_next=ma)
        stages.insert(0, anchor)

    final = stages[-1]
    chi_mag = abs(final.chi)
    # kept: the constant sigma_z term and the static sigma_+- pair of the final mode
    comp = np.repeat(np.arange(3), [len(c) for c in v])
    f = np.concatenate([c.halffreq for c in v])
    s = np.concatenate([c.shift for c in v])
    amp = np.concatenate([c.amp for c in v])
    kept_shift = np.array([0, final.mode_shift, -final.mode_shift])[comp]
    drop = (s != kept_shift) | (np.abs(f) > FREQ_MERGE_TOL)
    dropped = [
        TruncatedTerm(
            component=_COMPONENT_NAMES[idx],
            halffreq=hf,
            shift=sh,
            magnitude=mag,
            relative=mag / chi_mag if chi_mag else math.inf,
        )
        for idx, hf, sh, mag in zip(
            comp[drop].tolist(),
            f[drop].tolist(),
            s[drop].tolist(),
            np.hypot(amp.real, amp.imag)[drop].tolist(),
        )
    ]
    return CascadeResult(
        config=cfg,
        stages=tuple(stages),
        v_final=v,
        truncation_report=tuple(dropped),
    )
