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
(:func:`stage_unitary`).  The interaction is traceless and hermitian, so of
its four entries only the pair ``(sigma_z, sigma_+)``, its up-up and
up-down entries, is carried: the down-down entry is the negated sigma_z
and the down-up entry, sigma_-, the mirror of sigma_+
(:meth:`~polyrabi.terms.TermSum.conjugate_mirror`).  A stage conjugates
the interaction by W (:func:`build_M`, two rows of
:func:`~polyrabi.terms.sandwich`) and shifts the sigma_z entry by a
constant.  The undressing matrices of :mod:`polyrabi.propagator` are
derived from the same W.

After ``N-1`` stages the remaining static, resonant part is a plain two-level
interaction with detuning ``Delta_N`` and coupling ``chi_N`` of the nearest
mode; everything else is off-resonant and is reported (not silently
discarded) by :attr:`CascadeResult.truncation_report`.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .terms import (
    AMP_DROP_TOL, FREQ_MERGE_TOL, Term, TermSum, dagger, mat_vec, sandwich,
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
    "dressing_entries",
    "stage_unitary",
    "build_M",
    "next_stage",
    "run_cascade",
]

_COMPONENT_NAMES = ("sigma_z", "sigma_plus")


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
    order warns (:class:`ResonanceOrderWarning`).  Besides each part,
    2 * (|delta0| + sum_k |omega_k|) must be finite: with the offset span
    that sum bounds every stage's generalized Rabi frequency, and the term
    algebra takes differences of two half-frequencies.  A shift that dressing
    or undressing forms sums one mode shift s_k = j + m_k and at most two
    per stage, so 2 sum_k |s_k| + max_k |s_k| must stay below 2**62: every
    shift and every difference of two then fits a signed 64-bit integer.
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
        # hypot: abs() raises on a complex whose parts are finite but modulus is not
        rate = abs(self.delta0) + sum(math.hypot(x.real, x.imag) for x in self.omega)
        if not math.isfinite(2.0 * rate):
            raise ValueError(f"2 * (|delta0| + sum |omega_k|) must be finite, got 2 * {rate:g}")
        if self.m[0] != 0:
            raise ValueError("mode offsets must start at 0")
        if any(b <= a for a, b in zip(self.m, self.m[1:])):
            raise ValueError("mode offsets must be strictly ascending")
        reach = 2 * sum(map(abs, self.mode_shifts)) + max(map(abs, self.mode_shifts))
        if reach >= 2**62:
            raise ValueError(f"dressing forms ladder shifts up to {reach}, past 2**62")
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
    """One off-resonant sigma_z or sigma_+ term dropped by the final two-level truncation."""

    component: str
    halffreq: float
    shift: int
    magnitude: float
    relative: float


@dataclass(frozen=True)
class CascadeResult:
    """Stages and final (sigma_z, sigma_+) interaction; the final-truncation inventory on read.

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
    v_final: tuple[TermSum, TermSum]

    @cached_property
    def truncation_report(self) -> tuple[TruncatedTerm, ...]:
        """Every term of ``v_final`` the final two-level truncation drops, built on first read.

        All but the constant sigma_z term and the static sigma_+ term at the
        final mode's shift, each once, with its magnitude relative to
        ``|chi_N|``; a sigma_+ term stands for its sigma_- mirror as well.
        """
        final = self.stages[-1]
        chi_mag = abs(final.chi)
        v = self.v_final
        comp = np.repeat(np.arange(2), [len(c) for c in v])
        f = np.concatenate([c.halffreq for c in v])
        s = np.concatenate([c.shift for c in v])
        amp = np.concatenate([c.amp for c in v])
        kept_shift = np.array([0, final.mode_shift])[comp]
        drop = (s != kept_shift) | (np.abs(f) > FREQ_MERGE_TOL)
        return tuple(
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
        )


def _offset(cfg: ModeConfig, k: int) -> int:
    """Offset of the k-th mode dressed (1-based)."""
    return cfg.m[cfg.dressing_order[k - 1]]


def _gap(cfg: ModeConfig, k: int) -> int:
    """Signed offset gap from the k-th mode dressed to the next (0 after the last)."""
    return _offset(cfg, k + 1) - _offset(cfg, k) if k < cfg.n_modes else 0


def stage_zero(cfg: ModeConfig) -> tuple[TermSum, TermSum]:
    """Interaction before any dressing, in the first dressed mode's frame.

    With ``m_a`` the offset of the first mode dressed (0 unless the comb is
    dressed out of offset order), the (sigma_z, sigma_+) coefficients are a
    constant (delta0 - m_a)/2 and, per mode, the comb-phased couplings
    ``(omega_k/2) e^{-i (m_k - m_a) tau} b_{j+m_k}``.
    """
    ma = _offset(cfg, 1)
    vz = TermSum.single(0.5 * (cfg.delta0 - ma))
    plus = TermSum(
        Term(0.5 * om, -2.0 * (mk - ma), cfg.j + mk) for mk, om in zip(cfg.m, cfg.omega)
    )
    return vz, plus


def dressing_entries(p: StageParams) -> tuple[float, complex]:
    """The entries (c, x) of a stage's dressing S = ((c, -x b_s), (conj(x) b_-s, c)).

    c = sqrt((1 + detuning_norm)/2) and x = chi_norm/(2c), so that
    c^2 + |x|^2 = 1.  On the adiabatic branch ``detuning_norm`` lies in
    [0, 1], so c >= sqrt(1/2).
    """
    c = math.sqrt(0.5 * (1.0 + p.detuning_norm))
    return c, p.chi_norm / (2.0 * c)


def stage_unitary(p: StageParams, halffreq: float) -> tuple:
    """Dressing unitary of a stage, then the rotation exp(-i*halffreq*tau*sigma_z/2).

    A 2x2 matrix of TermSum entries, rows and columns (up, down)::

        ((c e-,           -x b_s e+),
         (conj(x) b_-s e-, c e+     ))

    with (c, x) the dressing's entries (:func:`dressing_entries`) and
    e+- = exp(+-i*halffreq*tau/2).  ``halffreq = 0`` gives the dressing S,
    ``p.dm_next`` the stage unitary W = S R whose rotation R makes the next
    mode static, and ``p.splitting`` the final stage's evolution
    S exp(-i*splitting*tau*sigma_z/2).
    """
    c, x = dressing_entries(p)
    f = float(halffreq)
    s = p.mode_shift
    one = TermSum.single
    return (
        (one(c, -f, 0), one(-x, f, s)),
        (one(x.conjugate(), -f, -s), one(c, f, 0)),
    )


def build_M(p: StageParams) -> tuple:
    """Transfer matrix of one dressing-plus-rotation stage.

    The up-up and up-down rows of the conjugation X -> W^dag X W by the
    stage unitary W = S R (:func:`stage_unitary` at ``p.dm_next``), over
    the four entries of X (:func:`~polyrabi.terms.sandwich`).  On a
    traceless hermitian X they give the image's (sigma_z, sigma_+); its
    other two entries are the negated sigma_z and the mirror of sigma_+.
    """
    if p.rabi == 0.0:
        raise DegenerateStageError(f"stage {p.k}: zero detuning and zero coupling")
    w = stage_unitary(p, p.dm_next)
    m = sandwich(dagger(w), w)
    return m[0], m[2]


def next_stage(p: StageParams, v_prev: tuple, cfg: ModeConfig) -> tuple[tuple, StageParams]:
    """Advance the (sigma_z, sigma_+) interaction one stage and read off the next coupling.

    The new static coupling is twice the amplitude sitting at zero
    half-frequency and ladder shift ``j + m`` of the next mode dressed in the
    sigma_+ component (the interaction carries the conventional factor 1/2).
    The next detuning is ``splitting_k - dm_next``.

    Each stage scales that term by at least 1/2 (the dressing's c^2), so
    the term of the k-th mode dressed outlives canonicalization whenever its
    coupling exceeds ``2**k * AMP_DROP_TOL``.  A weaker coupling whose term
    is gone is dressed as uncoupled (chi = 0); a missing term of a stronger
    one raises :class:`ChiExtractionError`.
    """
    k_next = p.k + 1
    if k_next > cfg.n_modes:
        raise ValueError("cascade already complete")
    vz, plus = v_prev
    vz, plus = mat_vec(build_M(p), (vz, -vz, plus, plus.conjugate_mirror()))
    v = (vz + TermSum.single(-0.5 * p.dm_next), plus)

    mode = cfg.dressing_order[k_next - 1]
    shift_next = cfg.j + cfg.m[mode]
    chi_next = 2.0 * plus.amp_at(0.0, shift_next)
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
    """Run all N-1 dressing stages.

    The returned stages hold everything the propagator needs; ``v_final`` is
    the last (sigma_z, sigma_+) interaction, from which only the static
    two-level part (constant sigma_z plus the resonant sigma_+ term at the
    shift of the last mode dressed) is kept downstream.  The terms it drops
    are listed by :attr:`CascadeResult.truncation_report` when it is read.
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
    return CascadeResult(config=cfg, stages=tuple(stages), v_final=v)
