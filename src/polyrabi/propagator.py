"""Assembly of the lab-frame propagator and excitation probabilities.

The fully dressed evolution is a bare two-level rotation at the final
generalized Rabi frequency.  It is held as its four entries, each a
:class:`~polyrabi.terms.TermSum`, in the order (up-up, down-down, up-down,
down-up), and pulled back to the lab frame by one 4x4 transfer matrix per
dressing stage, applied right-to-left; each product is canonicalized once
from all of its raw term products, so the term count stays bounded.  The
transfer matrices are not written out: each is the map U -> A U B of two
stage unitaries (:func:`~polyrabi.cascade.stage_unitary`), taken to the
four entries by :func:`~polyrabi.terms.sandwich`.  The final rotation is
the 2x2 product of two of them.

The excitation probability is the squared modulus of the sigma_+ component
after the equal-weight partial trace over the field lattice; grouping the
sigma_+ terms by ladder shift before tracing gives the per-channel
transition probabilities.  Every source of shift amplitudes hands them out
as ``shift_rows(taugrid)``, and every reader's requested channels are their
squared moduli, exactly zero at a shift without a row.

The term expansion is the analytic expression; it is not the cheapest way
to a number.  With every ladder displacement read as 1, the propagator at
one tau is a product of 2x2 stage unitaries, so :func:`factored_pe`
multiplies that chain out per grid point instead, closing it with the
adjugate of its own tau = 0 value so that P_e(0) == 0.0 still holds
exactly.  It gives the total only: the channels need the shifts that the
expansion keeps apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cascade import CascadeResult, StageParams, dressing_entries, stage_unitary
from .terms import TermSum, _cmul, dagger, mat_vec, sandwich

__all__ = [
    "PropagatorComponents",
    "PeSeries",
    "dressed_propagator",
    "build_T",
    "undress",
    "excitation_probability",
    "factored_pe",
]


@dataclass(frozen=True)
class PropagatorComponents:
    """Propagator entries (up-up, down-down, up-down, down-up).

    The up-down entry is the sigma_+ coefficient, the down-up one the
    sigma_- coefficient.  Any propagator produced here has unit determinant,
    which ties the sigma_- component to the sigma_+ one,
    ``u[3] == -mirror(u[2])``, and the down-down entry to the up-up one,
    ``u[1] == mirror(u[0])``, where mirror conjugates amplitudes and negates
    half-frequencies and shifts.
    :meth:`hermiticity_defect` measures violation of that identity (0.0 for
    every correctly assembled propagator).
    """

    u: tuple[TermSum, TermSum, TermSum, TermSum]

    @property
    def sigma_plus(self) -> TermSum:
        return self.u[2]

    def hermiticity_defect(self) -> float:
        """Largest amplitude of the canonical sum ``u[3] + mirror(u[2])``.

        Its resolution is the term algebra's: half-frequencies within
        ``FREQ_MERGE_TOL`` merge and amplitudes at or below ``AMP_DROP_TOL``
        drop, so a sigma_- half-frequency 4e-16 off its mirror reads 0.0.
        """
        return (self.u[3] + self.u[2].conjugate_mirror()).max_abs_amp()

    def shift_rows(self, taugrid: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
        """The sigma_+ shifts in ascending order and their traced amplitudes, one row each."""
        return self.sigma_plus.trace(taugrid)[1:]


@dataclass(frozen=True)
class PeSeries:
    """Excitation probability on a time grid, optionally split by channel.

    ``channels`` maps a ladder shift s to the probability of ending in the
    up state displaced by s lattice steps below the initial field state.
    """

    tau: np.ndarray
    values: np.ndarray
    channels: dict[int, np.ndarray] | None = field(default=None)


def _tau_grid(taugrid) -> np.ndarray:
    """``taugrid`` as a float array; a ValueError unless it is one-dimensional."""
    taugrid = np.asarray(taugrid, dtype=float)
    if taugrid.ndim != 1:
        raise ValueError(f"tau grid must be one-dimensional, got shape {taugrid.shape}")
    return taugrid


def _channel_probs(shifts, rows: np.ndarray, channels) -> dict[int, np.ndarray]:
    """|c_s|^2 of each requested shift s in order, c_s its row; exactly zero without a row."""
    row = dict(zip(np.asarray(shifts).tolist(), rows))
    return {int(s): np.abs(row.get(int(s), np.zeros(rows.shape[1]))) ** 2 for s in channels}


def dressed_propagator(p: StageParams) -> PropagatorComponents:
    """Two-level propagator of the final, fully dressed stage, in its lab frame.

    The matrix product W S^dag of W = S exp(-i*splitting*tau*sigma_z/2)
    and the stage's dressing S (:func:`~polyrabi.cascade.stage_unitary`),
    one column of S^dag at a time: exponential pairs at half-frequencies
    +-rabi, the ladder factors carrying the final mode's displacement.  A
    stage with zero rabi frequency evolves trivially (identity).
    """
    w, s_dag = stage_unitary(p, p.splitting), dagger(stage_unitary(p, 0.0))
    (uu, du), (ud, dd) = (mat_vec(w, (s_dag[0][q], s_dag[1][q])) for q in range(2))
    return PropagatorComponents(u=(uu, dd, ud, du))


def build_T(p: StageParams) -> tuple:
    """Undressing transfer matrix of one stage.

    The map U -> W U S^dag on the four propagator entries, with
    W = S R the stage unitary at ``p.dm_next`` and S = W(0) its dressing
    (:func:`~polyrabi.cascade.stage_unitary`).  A stage with zero coupling
    undresses as the left product by the frame rotation
    ``exp(-i*dm_next*tau*sigma_z/2)``.
    """
    return sandwich(stage_unitary(p, p.dm_next), dagger(stage_unitary(p, 0.0)))


def undress(cr: CascadeResult) -> PropagatorComponents:
    """Pull the dressed propagator back to the lab frame through all stages.

    The stages are undressed from the last to the first, each as a left
    product.  The result is in the frame of the lowest mode (sigma_z
    constant delta0/2) whatever order the modes were dressed in: a cascade
    dressed out of offset order ends on its frame-anchor stage, the rotation
    ``exp(-i*m_a*tau*sigma_z/2)`` out of the first dressed mode's frame.
    """
    u = dressed_propagator(cr.stages[-1]).u
    for p in reversed(cr.stages[:-1]):
        u = mat_vec(build_T(p), u)
    return PropagatorComponents(u=u)


def excitation_probability(
    u0: PropagatorComponents,
    taugrid: np.ndarray,
    channels: list[int] | tuple[int, ...] | None = None,
) -> PeSeries:
    """Upper-state population over a time grid.

    P_e(tau) = |trace(u_sigma_plus) evaluated at tau|^2.  With ``channels``
    a non-empty list of shifts, per-shift probabilities (zeros for absent
    shifts) come from the same evaluation of the terms; the total is the
    squared modulus of the coherent sum over channels.  Each traced value is
    its value at tau = 0, the ``math.fsum`` of its amplitudes, plus a part
    that vanishes there (:meth:`~polyrabi.terms.TermSum.trace`),
    so P_e(0) == 0.0 and every channel at tau = 0 is 0.0 wherever the
    amplitudes cancel exactly, as undressing leaves them.
    """
    taugrid = _tau_grid(taugrid)
    total, shifts, rows = u0.sigma_plus.trace(taugrid)
    chan = _channel_probs(shifts, rows, channels) if channels else None
    return PeSeries(tau=taugrid, values=np.abs(total) ** 2, channels=chan)


def _factored_plus(cr: CascadeResult, taugrid: np.ndarray) -> np.ndarray:
    """The traced sigma_+ amplitude of the undressed propagator, from its stage chain.

    U(tau) = W_1 ... W_f S_f^dag ... S_1^dag over ``cr.stages``, anchor
    included, with S a stage's dressing and W = S R its dressing then
    rotation at ``dm_next`` (at ``splitting`` for the final stage f), every
    ladder displacement read as 1.  The first row (alpha, beta) of
    W_1 ... W_f is carried across the grid, with tau = 0 in front.  There it
    is the first row (a, b) of the SU(2) product S_1 ... S_f, whose inverse,
    the closing factor, is its adjugate, so U[up, down] = beta a - alpha b.
    Every complex product is rounded part by part (``_cmul``), so beta a and
    alpha b agree bit for bit wherever tau = 0, and the amplitude is 0.0
    there exactly.
    """
    taus = np.concatenate(([0.0], taugrid))
    final = cr.stages[-1]
    phases = {}  # exp(-+i*h*tau/2) per rotation h; most stages share a gap
    alpha, beta = np.ones(taus.shape, dtype=complex), np.zeros(taus.shape, dtype=complex)
    for p in cr.stages:
        c, x = dressing_entries(p)
        h = final.splitting if p is final else p.dm_next
        if h not in phases:
            e = np.exp(-0.5j * h * taus)
            phases[h] = e, e.conj()
        down, up = phases[h]
        alpha, beta = (
            _cmul(c * alpha + _cmul(beta, x.conjugate()), down),
            _cmul(c * beta - _cmul(alpha, x), up),
        )
    return _cmul(beta[1:], alpha[0]) - _cmul(alpha[1:], beta[0])


def factored_pe(cr: CascadeResult, taugrid: np.ndarray) -> PeSeries:
    """Upper-state population over a time grid, from the stage chain multiplied out.

    The same P_e as ``excitation_probability(undress(cr), taugrid)`` to
    roundoff, without the term expansion: N small matrix products per
    point.  It gives no channels, since resolving the ladder shifts needs
    the expansion.  P_e(0) == 0.0 exactly.
    """
    taugrid = _tau_grid(taugrid)
    return PeSeries(tau=taugrid, values=np.abs(_factored_plus(cr, taugrid)) ** 2)
