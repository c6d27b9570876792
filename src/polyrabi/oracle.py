"""Reference solvers for the comb-driven spin: the exact field lattice and its period.

The mean-field comb Hamiltonian lives on lattice sites n in [-W, W] (energy
offsets from the initial field state) crossed with the two spin states.
That lattice is the Sambe (Floquet) form of the 2x2 Hamiltonian with period
2*pi (Shirley, Phys. Rev. 138, B979 (1965))::

    H(t) = (omega0/2) sigma_z + sum_k (Omega_k/2) (exp(-i s_k t) sigma_+ + h.c.)

with ``s_k`` the modes' ladder shifts, so it has two solvers that share no
code with the analytic machinery:

* :func:`floquet_evolve`, the one the CLI runs, propagates H(t) over one
  period with 4th-order Magnus steps (Blanes et al., Phys. Rep. 470, 151
  (2009)) and takes the Floquet modes of the period's monodromy as Fourier
  series: the comb-frame amplitude of site n is the n-th Fourier
  coefficient, over the drive phase theta, of ``U(theta + tau, theta)|down>``.
  P_e, the channels and the norm come from the modes' harmonics directly,
  and the site rows only when something reads them.
* :func:`build_hamiltonian` and :func:`evolve` diagonalize the truncated
  lattice exactly and evolve the state by eigenphase rotation.  They are
  grid-independent and exact to roundoff, and the tests hold the Floquet
  solver to them.

The lattice matrix is real (``float64``) when every coupling is real and
complex otherwise, so real combs take LAPACK's real symmetric eigensolver
and a single real matrix product for the eigenphase rotation.  Eigenvectors
whose overlap with the initial state is at most :data:`OVERLAP_CUT` are left
out of the rotation: the lattice eigenstates are localized, so most of them
have no weight on site 0, and the part of the state they carry has 2-norm at
most ``sqrt(dim) * OVERLAP_CUT`` at every time.

Both hand one constructor of the run record, :class:`OracleRun`, the same
reads of the comb-frame amplitudes ``exp(i n tau) <n, sigma|psi>`` (the
diagonal lattice energy rotated away): their coherent sum over the up sites,
the requested channels' probabilities, the squared norm and the population
past the leakage gate's boundary.  It alone turns these into P_e, the norm
defect, the leakage and ``valid``; its ``shift_rows`` hands out the up rows
as shift amplitudes, site n as shift -n.  All comparisons between the
analytic machinery and a reference go through :func:`compare`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .cascade import ModeConfig, StageParams, DegenerateStageError
from .propagator import PeSeries, _channel_probs, _tau_grid

__all__ = [
    "LEAKAGE_TOL",
    "NORM_TOL",
    "OVERLAP_CUT",
    "TruncatedBasis",
    "OracleRun",
    "SkVerification",
    "ComparisonReport",
    "BasisSizeError",
    "GridMismatchError",
    "min_halfwidth",
    "build_hamiltonian",
    "evolve",
    "floquet_evolve",
    "verify_Sk",
    "compare",
]

# Fraction of the initial population tolerated on the sites beyond 0.9 W
# before a run is flagged invalid.
LEAKAGE_TOL = 1e-8

# Largest departure of the state's norm from one before a run is flagged
# invalid.
NORM_TOL = 1e-10

# Eigenvectors with |<eigenvector|initial state>| at or below this are left
# out of the evolution.  The part of the state they carry has 2-norm at most
# sqrt(dim) * OVERLAP_CUT (about 1.4e-30 at dimension 802), far below any
# gate above.
OVERLAP_CUT = np.finfo(float).eps ** 2

# Magnus steps per period for each unit of the drive's fastest rate, the
# largest |shift| plus |omega0| plus the summed |Omega_k|.  At this density
# the period propagator matches the lattice to 1.4e-12 on the shipped
# presets; the error falls as the fourth power of the step.
STEPS_PER_RATE = 512

# Most Magnus steps a period may take (rate 512, |omega0| about 500 comb
# units); the period's arrays then stay under about 100 MB.
MAX_PERIOD_STEPS = 1 << 18

# Harmonics of the Floquet modes at or below this modulus are left out.
HARMONIC_CUT = 64 * np.finfo(float).eps

# Magnus steps between the samples the Floquet modes are first read from;
# the sampling gets finer while the modes' harmonics reach past a quarter of
# the samples.
SAMPLE_STRIDE = 16

# Complex entries of one tau block of the Floquet solver's harmonic phases,
# so its working arrays stay near 1 MB whatever the grid length.
BLOCK_SIZE = 1 << 16


class BasisSizeError(ValueError):
    """The truncated lattice is too small for the requested configuration."""


class GridMismatchError(ValueError):
    """Two series on different time grids cannot be compared."""


class TruncatedBasis:
    """Lattice sites [-W, W] crossed with spin down/up, row-indexed."""

    def __init__(self, halfwidth: int):
        if halfwidth < 1:
            raise ValueError("halfwidth must be positive")
        self.halfwidth = int(halfwidth)
        self.sites = np.arange(-self.halfwidth, self.halfwidth + 1)
        self.dim = 2 * (2 * self.halfwidth + 1)

    def index(self, n: int, up: bool) -> int:
        if abs(n) > self.halfwidth:
            raise IndexError(f"site {n} outside lattice of halfwidth {self.halfwidth}")
        return 2 * (n + self.halfwidth) + (1 if up else 0)

    def up_indices(self) -> np.ndarray:
        return 2 * (self.sites + self.halfwidth) + 1

    def down_indices(self) -> np.ndarray:
        return 2 * (self.sites + self.halfwidth)


def min_halfwidth(cfg: ModeConfig) -> int:
    """Bound a lattice halfwidth must exceed: four ladder reaches of ``cfg``."""
    reach = max(max(abs(s) for s in cfg.mode_shifts), abs(cfg.j), 1)
    return 4 * reach


def _check_halfwidth(cfg: ModeConfig, halfwidth: int) -> None:
    if halfwidth <= min_halfwidth(cfg):
        raise BasisSizeError(f"halfwidth {halfwidth} too small; need > {min_halfwidth(cfg)}")


def build_hamiltonian(cfg: ModeConfig, halfwidth: int) -> tuple[np.ndarray, TruncatedBasis]:
    """Hermitian comb Hamiltonian on the truncated lattice.

    Diagonal ``n + omega0*sigma/2``; each mode couples (n, down) to
    (n - shift, up) with amplitude omega_k/2.  Couplings falling outside the
    lattice are dropped (open boundary); validity is enforced downstream by
    the leakage gate, not by absorbing edges.  The matrix is ``float64``
    when every coupling has zero imaginary part, ``complex128`` otherwise.
    """
    _check_halfwidth(cfg, halfwidth)
    basis = TruncatedBasis(halfwidth)
    real = all(om.imag == 0.0 for om in cfg.omega)
    h = np.zeros((basis.dim, basis.dim), dtype=float if real else complex)
    down, up = basis.down_indices(), basis.up_indices()
    h[down, down] = basis.sites - 0.5 * cfg.omega0
    h[up, up] = basis.sites + 0.5 * cfg.omega0
    for shift, om in zip(cfg.mode_shifts, cfg.omega):
        # row of (n - shift, up) is 2*shift below the row of (n, up)
        inside = np.abs(basis.sites - shift) <= halfwidth
        rows, cols = up[inside] - 2 * shift, down[inside]
        amp = 0.5 * (om.real if real else om)
        h[rows, cols] = amp
        h[cols, rows] = np.conj(amp)
    return h, basis


@dataclass(frozen=True)
class OracleRun:
    """Reference evolution record from the initial state (site 0, spin down).

    ``up_amplitudes`` holds the comb-frame up-spin amplitudes
    exp(i n tau) <n, up|psi(tau)>, one row per site n = -R..R: R is the
    lattice halfwidth W, and for the Floquet solver the reach 2K of the
    modes' harmonics, whatever W is.  Sites beyond R carry no amplitude.
    The Floquet solver builds these rows only when they are first read.
    ``valid`` holds when ``leakage``, the largest population on the sites
    beyond 0.9 W, is at most :data:`LEAKAGE_TOL` and ``norm_defect`` at
    most :data:`NORM_TOL`.
    """

    tau: np.ndarray
    pe: PeSeries
    norm_defect: float
    leakage: float
    valid: bool
    _rows: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def up_amplitudes(self) -> np.ndarray:
        """(sites, tau), comb frame."""
        return self._rows()

    def shift_rows(self, taugrid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every shift -R..R and its amplitude on the run's grid: the site rows, reversed."""
        if not np.array_equal(_tau_grid(taugrid), self.tau):
            raise ValueError("taugrid must match the oracle run's grid")
        reach = len(self.up_amplitudes) // 2
        return np.arange(-reach, reach + 1), self.up_amplitudes[::-1]


def _oracle_run(taugrid, total, channels, norm, edge, rows) -> OracleRun:
    """The run record, from what a run reads of the state on ``taugrid``.

    ``total`` is the P_e amplitude, the coherent sum of the comb-frame up
    amplitudes over every site, and ``channels`` maps each requested shift
    to its probability (or is None).  ``norm`` is the squared norm of the
    state and ``edge`` its population on the sites beyond 0.9 W, the
    leakage gate's boundary.  ``rows`` returns the up amplitudes of sites
    -R..R (R may be smaller or larger than W) when they are first read.
    """
    norm_defect = float(np.max(np.abs(np.sqrt(norm) - 1.0)))
    leakage = float(np.max(edge))
    return OracleRun(
        tau=taugrid,
        pe=PeSeries(tau=taugrid, values=np.abs(total) ** 2, channels=channels),
        norm_defect=norm_defect,
        leakage=leakage,
        valid=leakage <= LEAKAGE_TOL and norm_defect <= NORM_TOL,
        _rows=rows,
    )


def evolve(
    h: np.ndarray,
    basis: TruncatedBasis,
    taugrid: np.ndarray,
    channels: list[int] | tuple[int, ...] | None = None,
) -> OracleRun:
    """Evolve (site 0, spin down) exactly on the lattice and collect probabilities.

    Uses the full eigendecomposition, so the result is grid-independent.
    Eigenvectors with overlap |c0_j| <= :data:`OVERLAP_CUT` with the initial
    state are skipped; what they would add to psi has 2-norm at most
    ``sqrt(dim) * OVERLAP_CUT`` at every tau.  For a real ``h`` the
    eigenvector-phase product is one real matrix product over the
    interleaved real/imaginary view of the phases.  The excitation
    probability is the squared coherent sum of the up-sector amplitudes
    with the per-site phase exp(i n tau) removed by the trace convention of
    the analytic series; channel s is site -s, exactly zero past W.
    """
    taugrid = _tau_grid(taugrid)
    evals, evecs = np.linalg.eigh(h)
    c0 = evecs[basis.index(0, False), :].conj()
    kept = np.abs(c0) > OVERLAP_CUT
    vecs = evecs[:, kept]
    coeffs = np.exp(-1j * np.outer(evals[kept], taugrid)) * c0[kept, None]
    if np.isrealobj(vecs):
        psi = (vecs @ coeffs.view(float)).view(complex)
    else:
        psi = vecs @ coeffs
    site_phase = np.exp(1j * np.outer(basis.sites, taugrid))
    up = site_phase * psi[basis.up_indices(), :]
    down = site_phase * psi[basis.down_indices(), :]
    pop = up.real**2 + up.imag**2 + down.real**2 + down.imag**2  # (sites, tau)
    edge = np.abs(basis.sites) > 0.9 * basis.halfwidth
    return _oracle_run(
        taugrid,
        np.sum(up, axis=0),
        None if channels is None else _channel_probs(basis.sites, up[::-1], channels),
        np.sum(pop, axis=0),
        np.sum(pop[edge], axis=0),
        partial(np.asarray, up),
    )


def _period_steps(cfg: ModeConfig) -> int:
    """Magnus steps per period: a power of two, :data:`STEPS_PER_RATE` per unit rate."""
    rate = (
        max(abs(s) for s in cfg.mode_shifts)
        + abs(cfg.omega0)
        + sum(abs(om) for om in cfg.omega)
    )
    need = STEPS_PER_RATE * rate
    # MAX_PERIOD_STEPS is a power of two, so the step count passes it exactly
    # when the need does; an infinite rate fails here, before any rounding
    if not need <= MAX_PERIOD_STEPS:
        raise ValueError(
            f"drive rate {rate:g} needs {need:g} Magnus steps per period; "
            f"the oracle takes at most {MAX_PERIOD_STEPS}"
        )
    return 1 << (math.ceil(need) - 1).bit_length()


def _compose(a1, b1, a2, b2):
    """Product of SU(2) matrices ((a, b), (-conj(b), conj(a))), first times second."""
    return a1 * a2 - b1 * b2.conj(), a1 * b2 + b1 * a2.conj()


def _magnus_steps(cfg: ModeConfig, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """U(t_k + h, t_k) at t_k = k*h, h = 2*pi/steps, k = 0..steps-1, as SU(2) pairs (a, b).

    Each step is the two-point Gauss Magnus exponent w.sigma of H(t),
    exponentiated in closed form, exp(-i w.sigma) = cos|w| - i sin|w|
    w.sigma/|w|.  The drive f at each node set is one FFT of the modes'
    couplings; the transverse part of w is the one complex number
    w_x - i w_y.
    """
    h = 2.0 * math.pi / steps
    shifts = np.array(cfg.mode_shifts)
    half = 0.5 * np.array(cfg.omega, dtype=complex)
    nodes = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
    # sum_k (Omega_k/2) exp(-i s_k (t_k + node*h)) at every step, per node
    coef = np.zeros((2, steps), dtype=complex)
    coef[:, shifts % steps] = half * np.exp(-1j * np.outer(nodes * h, shifts))
    f1, f2 = np.fft.fft(coef, axis=1)
    bare = 0.5 * cfg.omega0
    skew = (math.sqrt(3.0) / 6.0) * h * h  # weight of the commutator term
    wt = 0.5 * h * (f1 + f2) - 1j * (skew * bare) * (f1 - f2)
    wz = h * bare + skew * (f2 * f1.conj()).imag
    r = np.sqrt(wt.real**2 + wt.imag**2 + wz**2)
    s = np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0.0)
    return np.cos(r) - 1j * s * wz, -1j * s * wt


def _prefix(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The identity and every running product of the SU(2) factors (a, b), later ones left.

    An inclusive scan in log2(len(a)) batched rounds.
    """
    a = np.concatenate([[1.0 + 0.0j], a])
    b = np.concatenate([[0.0j], b])
    d = 1
    while d < len(a) - 1:
        a[d + 1 :], b[d + 1 :] = _compose(a[d + 1 :], b[d + 1 :], a[1:-d], b[1:-d])
        d *= 2
    return a, b


def _floquet_modes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quasienergies and the Fourier coefficients of the Floquet modes.

    ``(a, b)`` is U(t_k, 0) at L + 1 evenly spaced t_k = 2*pi*k/L.  The
    monodromy U_F = U(2*pi, 0) = cos(phi) - i sin(phi) n.sigma shares its
    eigenvectors with the Hermitian matrix i(U_F - U_F^dag)/2 = sin(phi)
    n.sigma, whose ``eigh`` stays orthonormal as phi nears 0 or pi (where
    ``np.linalg.eig`` does not).  Mode a, exp(i eps_a t) U(t, 0) v_a, is
    periodic; its coefficients come back as (spin, mode, harmonic), in FFT
    order of an L-point FFT, with quasienergies eps_a in [-1/2, 1/2).
    """
    samples = len(a) - 1
    u = np.array([[a, b], [-b.conj(), a.conj()]])  # (row, col, k)
    monodromy = u[:, :, -1]
    _, vecs = np.linalg.eigh(0.5j * (monodromy - monodromy.conj().T))
    eps = -np.angle(np.einsum("ia,ij,ja->a", vecs.conj(), monodromy, vecs)) / (2.0 * math.pi)
    t = 2.0 * math.pi / samples * np.arange(samples)
    modes = np.einsum("ijk,ja->iak", u[:, :, :-1], vecs) * np.exp(1j * np.outer(eps, t))
    return eps, np.fft.fft(modes, axis=-1) / samples


def _floquet_harmonics(
    cfg: ModeConfig, stride: int = SAMPLE_STRIDE
) -> tuple[np.ndarray, np.ndarray]:
    """Quasienergies and the harmonics c_{sigma,a,m}, |m| <= K, of the Floquet modes.

    The period's Magnus steps are multiplied pairwise into products of
    ``stride`` steps, and the modes are sampled at the L = steps/stride
    points between them.  While a harmonic above :data:`HARMONIC_CUT` lies
    past L/4, where a coarser sampling could alias it, L doubles, up to one
    sample per step.  K is the highest such harmonic; the coefficients come
    back as (spin, mode, m) with m = -K..K.
    """
    steps = _period_steps(cfg)
    levels = [_magnus_steps(cfg, steps)]  # products of 1, 2, 4, ... steps
    while len(levels[-1][0]) > steps // stride:
        a, b = levels[-1]
        levels.append(_compose(a[1::2], b[1::2], a[::2], b[::2]))
    while True:
        a, b = levels.pop()
        eps, coef = _floquet_modes(*_prefix(a, b))
        samples = len(a)
        freqs = np.rint(np.fft.fftfreq(samples, 1.0 / samples)).astype(int)
        reach = int(np.max(np.abs(freqs[np.max(np.abs(coef), axis=(0, 1)) > HARMONIC_CUT])))
        if 4 * reach <= samples or not levels:
            return eps, coef[:, :, np.arange(-reach, reach + 1) % samples]


def _phase_blocks(taugrid: np.ndarray, eps: np.ndarray, top: int):
    """Blocks of ``taugrid``: the slice, exp(i m tau) as (m, tau) for m = -top..top,
    and exp(-i eps_a tau) as (mode, tau).

    The phases of m = 1..top are built by doubling: those of 2^j..2^(j+1)-1
    are those of 0..2^j-1 times one ``exp`` of 2^j tau, so each is a
    product of at most log2(top) + 1 exponentials.  Negative m take the
    conjugates.
    """
    block = max(1, BLOCK_SIZE // (2 * top + 1))
    for i in range(0, len(taugrid), block):
        tau = taugrid[i : i + block]
        phase = np.empty((2 * top + 1, len(tau)), dtype=complex)
        pos = phase[top:]
        pos[0] = 1.0
        n = 1
        while n <= top:
            pos[n : 2 * n] = pos[: min(n, top + 1 - n)] * np.exp(1j * n * tau)
            n *= 2
        phase[:top] = pos[:0:-1].conj()
        yield slice(i, i + block), phase, np.exp(-1j * np.outer(eps, tau))


def _mode_sum(phase: np.ndarray, turn: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_a exp(-i eps_a tau) sum_m w_{(a,column),m} exp(i m tau), as (column, tau)."""
    x = (weights @ phase).reshape(2, -1, phase.shape[1])
    return x[0] * turn[0] + x[1] * turn[1]


def _site_weights(coef: np.ndarray, spins, sites) -> np.ndarray:
    """Weights c_{spin,a,m} conj(c_{down,a,m-n}) of sites n, as ((mode, spin, n), m).

    Zero where m - n is past the reach K.
    """
    reach = coef.shape[-1] // 2
    lag = np.arange(-reach, reach + 1) - np.asarray(sites, dtype=int)[:, None]  # (n, m)
    inside = np.abs(lag) <= reach
    start = coef[1].conj()[:, np.where(inside, lag + reach, 0)]  # (mode, n, m)
    start[:, ~inside] = 0.0
    weights = coef[list(spins)].transpose(1, 0, 2)[:, :, None, :] * start[:, None]
    return weights.reshape(-1, 2 * reach + 1)  # (mode, spin, n) rows


def _norm_weights(coef: np.ndarray) -> np.ndarray:
    """S_ab(d) R_ab(-d) for d = -2K..2K, as ((a, b), d).

    S_ab(d) = sum_{sigma,m} c_{sigma,a,m+d} conj(c_{sigma,b,m}) and
    R_ab(d) = sum_m c_{down,b,m+d} conj(c_{down,a,m}), so that by Parseval
    the squared norm summed over every site of both spins is
    sum_{a,b} exp(-i (eps_a - eps_b) tau) sum_d exp(i d tau) S_ab(d) R_ab(-d).
    """
    up, down = coef
    cols = []
    for a in (0, 1):
        for b in (0, 1):
            s = np.correlate(up[a], up[b], "full") + np.correlate(down[a], down[b], "full")
            cols.append(s * np.correlate(down[b], down[a], "full")[::-1])
    return np.stack(cols)


def _site_rows(eps: np.ndarray, coef: np.ndarray, taugrid: np.ndarray) -> np.ndarray:
    """Comb-frame up amplitudes G_n(tau) of every site |n| <= 2K, as (site, tau)."""
    reach = coef.shape[-1] // 2
    weights = _site_weights(coef, [0], np.arange(-2 * reach, 2 * reach + 1))
    rows = np.empty((len(weights) // 2, len(taugrid)), dtype=complex)
    for part, phase, turn in _phase_blocks(taugrid, eps, 2 * reach):
        rows[:, part] = _mode_sum(phase[reach : 3 * reach + 1], turn, weights)
    return rows


def floquet_evolve(
    cfg: ModeConfig,
    halfwidth: int,
    taugrid: np.ndarray,
    channels: list[int] | tuple[int, ...] | None = None,
) -> OracleRun:
    """Evolve (site 0, spin down) through the period propagator of H(t).

    The comb-frame amplitude of site n is the n-th Fourier coefficient over
    the drive phase theta of ``U(theta + tau, theta)|down>``, and
    ``U(theta + tau, theta) = sum_a exp(-i eps_a tau) phi_a(theta + tau)
    phi_a(theta)^dag`` with phi_a the Floquet modes
    (:func:`_floquet_harmonics`).  With c_a the modes' harmonics, that is::

        G_n(tau) = sum_{a,m} exp(i (m - eps_a) tau) c_{up,a,m} conj(c_{down,a,m-n})

    for every site |n| <= 2K the harmonics |m| <= K reach.  What a run
    reads is taken from the harmonics without building the sites: the P_e
    amplitude sum_n G_n is sum_a exp(-i eps_a tau) conj(phi_{a,down}(0))
    sum_m exp(i m tau) c_{up,a,m}; channel s is the one row n = -s, exactly
    zero past 2K; the norm comes by Parseval (:func:`_norm_weights`); and
    only the rows of both spins past 0.9 W are built, for the leakage gate.
    The P_e amplitude, the channels and those rows are row slices of one
    weight matrix, read by one product per block of tau.  The up rows of
    every site are built from the same harmonics when ``up_amplitudes`` is
    first read.  The solution is never cut: ``halfwidth`` W only bounds the
    leakage gate, and the norm defect measures the integration error alone.
    """
    _check_halfwidth(cfg, halfwidth)
    taugrid = _tau_grid(taugrid)
    eps, coef = _floquet_harmonics(cfg)
    reach = coef.shape[-1] // 2
    sites = np.arange(-2 * reach, 2 * reach + 1)
    edge = sites[np.abs(sites) > 0.9 * halfwidth]
    # a channel past the sites the harmonics reach reads as exactly zero
    shifts = [] if channels is None else [int(s) for s in channels if abs(int(s)) <= 2 * reach]
    # ((mode, row), m) weights of exp(i m tau): the P_e amplitude, the channels, the edge rows
    reads = [
        coef[0] * coef[1].sum(axis=1, keepdims=True).conj(),
        _site_weights(coef, [0], [-s for s in shifts]),
        _site_weights(coef, [0, 1], edge),
    ]
    width = coef.shape[-1]
    weights = np.concatenate([w.reshape(2, -1, width) for w in reads], axis=1).reshape(-1, width)
    norm_w = _norm_weights(coef)

    amps = np.empty((len(weights) // 2, len(taugrid)), dtype=complex)
    norm = np.empty(len(taugrid))
    for part, phase, turn in _phase_blocks(taugrid, eps, 2 * reach):
        amps[:, part] = _mode_sum(phase[reach : 3 * reach + 1], turn, weights)
        gram = (norm_w @ phase).reshape(2, 2, -1)
        norm[part] = np.einsum("at,bt,abt->t", turn, turn.conj(), gram).real
    total, chans, rows = amps[0], amps[1 : 1 + len(shifts)], amps[1 + len(shifts) :]
    return _oracle_run(
        taugrid,
        total,
        None if channels is None else _channel_probs(shifts, chans, channels),
        norm,
        np.sum(rows.real**2 + rows.imag**2, axis=0),
        partial(_site_rows, eps, coef, taugrid),
    )


@dataclass(frozen=True)
class SkVerification:
    """Residuals of one dressing unitary materialized on the lattice."""

    unitarity_defect: float
    diag_residual: float


def verify_Sk(p: StageParams, halfwidth: int) -> SkVerification:
    """Materialize a stage's dressing unitary and check it does its job.

    The unitary is the one the cascade dresses with, onto the adiabatic
    branch (:func:`~polyrabi.cascade.stage_unitary` at zero rotation, up to
    a global sign, which flips when the splitting is negative), built here
    independently from the stage's raw detuning and coupling on the
    lattice: checks S^dag S = 1 and that conjugating the stage's two-level
    block (detuning/2 sigma_z + coupling ladder terms) yields splitting/2
    sigma_z, away from the truncation edges (rows within twice the ladder
    reach of the boundary are excluded as expected artifacts of the open
    lattice).
    """
    if p.rabi == 0.0:
        raise DegenerateStageError("cannot materialize a stage with zero rabi frequency")
    e = p.splitting
    a = p.detuning + e  # shares the sign of e, so 2*e*a > 0
    basis = TruncatedBasis(halfwidth)
    s = p.mode_shift
    dim = basis.dim
    ladder_up = np.zeros((dim, dim), dtype=complex)  # b_s sigma_+: (n, down) -> (n - s, up)
    inside = np.abs(basis.sites - s) <= halfwidth
    ladder_up[basis.up_indices()[inside] - 2 * s, basis.down_indices()[inside]] = 1.0
    ladder_dn = ladder_up.conj().T

    sz = np.zeros((dim, dim), dtype=complex)
    sz[basis.up_indices(), basis.up_indices()] = 1.0
    sz[basis.down_indices(), basis.down_indices()] = -1.0

    norm = math.sqrt(2.0 * e * a)
    smat = (a * np.eye(dim) - p.chi * ladder_up + np.conj(p.chi) * ladder_dn) / norm
    block = 0.5 * p.detuning * sz + 0.5 * (p.chi * ladder_up + np.conj(p.chi) * ladder_dn)
    residual = smat.conj().T @ block @ smat - 0.5 * e * sz
    unit = smat.conj().T @ smat - np.eye(dim)

    margin = 2 * abs(s)
    interior = np.abs(basis.sites) <= halfwidth - margin
    rows = np.concatenate([basis.down_indices()[interior], basis.up_indices()[interior]])
    if rows.size == 0:
        raise BasisSizeError("lattice too small to leave an interior region")
    sub = np.ix_(rows, rows)
    return SkVerification(
        unitarity_defect=float(np.max(np.abs(unit[sub]))),
        diag_residual=float(np.max(np.abs(residual[sub]))),
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Deviation metrics between two probability series on one grid."""

    max_abs: float
    rms: float
    per_channel: dict[int, float] | None = field(default=None)

    def as_dict(self) -> dict:
        out = {"max_abs": self.max_abs, "rms": self.rms}
        if self.per_channel is not None:
            out["per_channel"] = {str(k): v for k, v in sorted(self.per_channel.items())}
        return out


def compare(analytic: PeSeries, reference: PeSeries) -> ComparisonReport:
    """Max-abs and RMS deviation of two series, plus per-channel deviations.

    Requires identical time grids.  Channels present in both series are
    compared by max-abs deviation.
    """
    if analytic.tau.shape != reference.tau.shape or not np.array_equal(
        analytic.tau, reference.tau
    ):
        raise GridMismatchError("series are not on the same time grid")
    diff = analytic.values - reference.values
    max_abs = float(np.max(np.abs(diff))) if diff.size else 0.0
    rms = float(np.sqrt(np.mean(diff**2))) if diff.size else 0.0
    per_channel = None
    if analytic.channels and reference.channels:
        common = set(analytic.channels) & set(reference.channels)
        per_channel = {
            s: float(np.max(np.abs(analytic.channels[s] - reference.channels[s])))
            for s in sorted(common)
        }
    return ComparisonReport(max_abs=max_abs, rms=rms, per_channel=per_channel)
