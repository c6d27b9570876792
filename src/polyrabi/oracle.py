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
  (2009)) and reads every site amplitude off the Floquet modes of the
  period's monodromy: the comb-frame amplitude of site n is the n-th
  Fourier coefficient, over the drive phase theta, of
  ``U(theta + tau, theta)|down>``.
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

Both record comb-frame amplitudes ``exp(i n tau) <n, up|psi>`` (the diagonal
lattice energy rotated away), whose coherent sum over sites is the
excitation amplitude.  All comparisons between the analytic machinery and a
reference go through :func:`compare`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cascade import ModeConfig, StageParams, DegenerateStageError
from .propagator import PeSeries

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

# Fraction of the initial population tolerated in the outer 10% of the
# lattice before a run is flagged invalid.
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

# Complex entries of one tau block of the Floquet solver's amplitudes, so its
# working arrays stay near 1 MB whatever the grid length.
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


def build_hamiltonian(cfg: ModeConfig, halfwidth: int) -> tuple[np.ndarray, TruncatedBasis]:
    """Hermitian comb Hamiltonian on the truncated lattice.

    Diagonal ``n + omega0*sigma/2``; each mode couples (n, down) to
    (n - shift, up) with amplitude omega_k/2.  Couplings falling outside the
    lattice are dropped (open boundary); validity is enforced downstream by
    the leakage gate, not by absorbing edges.  The matrix is ``float64``
    when every coupling has zero imaginary part, ``complex128`` otherwise.
    """
    if halfwidth <= min_halfwidth(cfg):
        raise BasisSizeError(
            f"halfwidth {halfwidth} too small; need > {min_halfwidth(cfg)}"
        )
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
    halfwidth W of ``basis`` on the lattice, and the Floquet solver stops
    short of W where the modes' harmonics end.  Sites beyond R carry no
    amplitude.  ``eigenvalues`` and ``eigenvectors`` are the spectrum the
    run was computed from: the lattice's full ``eigh``, or the two
    quasienergies and the Fourier coefficients (spin, mode, harmonic) of the
    Floquet modes.  ``valid`` holds when ``leakage``, the largest
    population on the outer 10% of the site window, is at most
    :data:`LEAKAGE_TOL` and ``norm_defect`` at most :data:`NORM_TOL`.
    """

    basis: TruncatedBasis
    tau: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    up_amplitudes: np.ndarray  # (sites, tau), comb frame
    pe: PeSeries
    norm_defect: float
    leakage: float
    valid: bool

    def shift_amplitude(self, shift: int) -> np.ndarray:
        """Comb-frame amplitude of the channel ending ``shift`` steps down.

        These are the amplitudes that sum coherently across channels; their
        coherent total reproduces ``pe.values``.
        """
        reach = len(self.up_amplitudes) // 2
        if abs(shift) > reach:
            return np.zeros(self.tau.shape, dtype=complex)
        return self.up_amplitudes[reach - shift]


def _oracle_run(basis, taugrid, spectrum, up, norm_defect, leakage, channels) -> OracleRun:
    """Record of a run from its comb-frame amplitudes and validity figures."""
    run = OracleRun(
        basis=basis,
        tau=taugrid,
        eigenvalues=spectrum[0],
        eigenvectors=spectrum[1],
        up_amplitudes=up,
        pe=PeSeries(tau=taugrid, values=np.abs(np.sum(up, axis=0)) ** 2),
        norm_defect=norm_defect,
        leakage=leakage,
        valid=leakage <= LEAKAGE_TOL and norm_defect <= NORM_TOL,
    )
    if channels is None:
        return run
    chan = {int(s): np.abs(run.shift_amplitude(int(s))) ** 2 for s in channels}
    return replace(run, pe=replace(run.pe, channels=chan))


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
    the analytic series.
    """
    taugrid = np.asarray(taugrid, dtype=float)
    evals, evecs = np.linalg.eigh(h)
    c0 = evecs[basis.index(0, False), :].conj()
    kept = np.abs(c0) > OVERLAP_CUT
    vecs = evecs[:, kept]
    coeffs = np.exp(-1j * np.outer(evals[kept], taugrid)) * c0[kept, None]
    if np.isrealobj(vecs):
        psi = (vecs @ coeffs.view(float)).view(complex)
    else:
        psi = vecs @ coeffs

    norms = np.linalg.norm(psi, axis=0)
    norm_defect = float(np.max(np.abs(norms - 1.0)))

    edge = np.abs(basis.sites) > 0.9 * basis.halfwidth
    edge_rows = np.concatenate(
        [basis.down_indices()[edge], basis.up_indices()[edge]]
    )
    leakage = float(np.max(np.sum(np.abs(psi[edge_rows, :]) ** 2, axis=0))) if edge_rows.size else 0.0

    site_phase = np.exp(1j * np.outer(basis.sites, taugrid))
    up = site_phase * psi[basis.up_indices(), :]
    return _oracle_run(basis, taugrid, (evals, evecs), up, norm_defect, leakage, channels)


def _period_steps(cfg: ModeConfig) -> int:
    """Magnus steps per period: a power of two, :data:`STEPS_PER_RATE` per unit rate."""
    rate = (
        max(abs(s) for s in cfg.mode_shifts)
        + abs(cfg.omega0)
        + sum(abs(om) for om in cfg.omega)
    )
    steps = 1 << (math.ceil(STEPS_PER_RATE * rate) - 1).bit_length()
    if steps > MAX_PERIOD_STEPS:
        raise ValueError(
            f"drive rate {rate:g} needs {steps} Magnus steps per period; "
            f"the oracle takes at most {MAX_PERIOD_STEPS}"
        )
    return steps


def _compose(a1, b1, a2, b2):
    """Product of SU(2) matrices ((a, b), (-conj(b), conj(a))), first times second."""
    return a1 * a2 - b1 * b2.conj(), a1 * b2 + b1 * a2.conj()


def _period_prefix(cfg: ModeConfig, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """U(t_k, 0) at t_k = 2*pi*k/steps, k = 0..steps, as SU(2) pairs (a, b).

    Each step is the two-point Gauss Magnus exponent of H(t), exponentiated
    in closed form, exp(-i w.sigma) = cos|w| - i sin|w| w.sigma/|w|.  The
    drive at each node set is one FFT of the modes' couplings, and the
    cumulative products are an inclusive scan in log2(steps) batched rounds.
    """
    h = 2.0 * math.pi / steps
    shifts = np.array(cfg.mode_shifts)
    half = 0.5 * np.array(cfg.omega, dtype=complex)
    fields = []
    for node in (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0):
        # sum_k (Omega_k/2) exp(-i s_k (t_k + node*h)) at every step
        coef = np.zeros(steps, dtype=complex)
        coef[shifts % steps] = half * np.exp(-1j * shifts * node * h)
        f = np.fft.fft(coef)
        fields.append(np.stack([f.real, -f.imag, np.full(steps, 0.5 * cfg.omega0)], axis=1))
    a1, a2 = fields
    w = 0.5 * h * (a1 + a2) + (math.sqrt(3.0) / 6.0) * h * h * np.cross(a2, a1)
    r = np.sqrt(np.sum(w * w, axis=1))
    sinc = np.sinc(r / math.pi)
    a = np.concatenate([[1.0 + 0.0j], np.cos(r) - 1j * sinc * w[:, 2]])
    b = np.concatenate([[0.0j], -sinc * (w[:, 1] + 1j * w[:, 0])])
    d = 1
    while d < steps:
        a[d + 1 :], b[d + 1 :] = _compose(a[d + 1 :], b[d + 1 :], a[1:-d], b[1:-d])
        d *= 2
    return a, b


def _floquet_modes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quasienergies and the Fourier coefficients of the Floquet modes.

    The monodromy U_F = U(2*pi, 0) = cos(phi) - i sin(phi) n.sigma shares its
    eigenvectors with the Hermitian matrix i(U_F - U_F^dag)/2 = sin(phi)
    n.sigma, whose ``eigh`` stays orthonormal as phi nears 0 or pi (where
    ``np.linalg.eig`` does not).  Mode a, exp(i eps_a t) U(t, 0) v_a, is
    periodic; its coefficients come back as (spin, mode, harmonic), in FFT
    order, with quasienergies eps_a in [-1/2, 1/2).
    """
    steps = len(a) - 1
    u = np.array([[a, b], [-b.conj(), a.conj()]])  # (row, col, k)
    monodromy = u[:, :, -1]
    _, vecs = np.linalg.eigh(0.5j * (monodromy - monodromy.conj().T))
    eps = -np.angle(np.einsum("ia,ij,ja->a", vecs.conj(), monodromy, vecs)) / (2.0 * math.pi)
    t = 2.0 * math.pi / steps * np.arange(steps)
    modes = np.einsum("ijk,ja->iak", u[:, :, :-1], vecs) * np.exp(1j * np.outer(eps, t))
    return eps, np.fft.fft(modes, axis=-1) / steps


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
    phi_a(theta)^dag`` with phi_a the Floquet modes (:func:`_floquet_modes`).
    With c_a the modes' coefficients, that is::

        G_n(tau) = sum_{a,m} exp(i (m - eps_a) tau) c_{a,m} conj(c_{a,m-n,down})

    one matrix product per block of tau over the harmonics |m| <= K that
    exceed :data:`HARMONIC_CUT`, for the sites |n| <= min(2K, W).
    ``halfwidth`` W keeps its lattice meaning: the site window, whose outer
    10% the leakage gate watches and beyond which no amplitude is kept, so
    the norm defect also counts what a too-narrow window loses.
    """
    if halfwidth <= min_halfwidth(cfg):
        raise BasisSizeError(
            f"halfwidth {halfwidth} too small; need > {min_halfwidth(cfg)}"
        )
    basis = TruncatedBasis(halfwidth)
    taugrid = np.asarray(taugrid, dtype=float)
    eps, coef = _floquet_modes(*_period_prefix(cfg, _period_steps(cfg)))
    steps = coef.shape[-1]
    freqs = np.rint(np.fft.fftfreq(steps, 1.0 / steps)).astype(int)
    reach = int(np.max(np.abs(freqs[np.max(np.abs(coef), axis=(0, 1)) > HARMONIC_CUT])))
    harmonics = np.arange(-reach, reach + 1)
    coef = coef[:, :, harmonics % steps]  # (spin, mode, harmonic)
    sites = np.arange(-min(halfwidth, 2 * reach), min(halfwidth, 2 * reach) + 1)

    # conj(c_{a,m-n,down}), zero where m - n is past the reach: (mode, m, n)
    lag = harmonics[:, None] - sites[None, :]
    inside = np.abs(lag) <= reach
    start = np.where(inside, np.conj(coef[1][:, np.where(inside, lag + reach, 0)]), 0.0)
    # rows (mode, m), columns (spin, n)
    product = coef[:, :, :, None] * start[None]
    product = product.transpose(1, 2, 0, 3).reshape(2 * len(harmonics), 2 * len(sites))
    rate = (harmonics[None, :] - eps[:, None]).ravel()

    edge = np.tile(np.abs(sites) > 0.9 * halfwidth, 2)
    up = np.empty((len(sites), len(taugrid)), dtype=complex)
    norms = np.empty(len(taugrid))
    edge_pop = np.empty(len(taugrid))
    block = max(1, BLOCK_SIZE // product.shape[1])
    for i in range(0, len(taugrid), block):
        amps = np.exp(1j * np.outer(taugrid[i : i + block], rate)) @ product
        pop = amps.real**2 + amps.imag**2
        up[:, i : i + block] = amps[:, : len(sites)].T
        norms[i : i + block] = np.sqrt(np.sum(pop, axis=1))
        edge_pop[i : i + block] = np.sum(pop[:, edge], axis=1)
    norm_defect = float(np.max(np.abs(norms - 1.0)))
    leakage = float(np.max(edge_pop))
    return _oracle_run(basis, taugrid, (eps, coef), up, norm_defect, leakage, channels)


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
    ladder_up = np.zeros((dim, dim), dtype=complex)  # b_s sigma_+
    for n in basis.sites:
        n_up = n - s
        if abs(n_up) <= halfwidth:
            ladder_up[basis.index(n_up, True), basis.index(n, False)] = 1.0
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
