"""Brute-force reference solver on a truncated field lattice.

The mean-field comb Hamiltonian lives on lattice sites n in [-W, W] (energy
offsets from the initial field state) crossed with the two spin states.  It
is diagonalized exactly and the state evolved by eigenphase rotation, which
is grid-independent and exact to roundoff at the sizes used here.

The lattice matrix is real (``float64``) when every coupling is real and
complex otherwise, so real combs take LAPACK's real symmetric eigensolver
and a single real matrix product for the eigenphase rotation.  Eigenvectors
whose overlap with the initial state is at most :data:`OVERLAP_CUT` are left
out of the rotation: the lattice eigenstates are localized, so most of them
have no weight on site 0, and the part of the state they carry has 2-norm at
most ``sqrt(dim) * OVERLAP_CUT`` at every time.

All comparisons between the analytic machinery and this solver go through
:func:`compare`; the coherent channel sum that turns lab-frame amplitudes
into the lattice-frame excitation probability carries the per-site phase
``exp(i n tau)`` (the diagonal lattice energy rotated away).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cascade import ModeConfig, StageParams, DegenerateStageError
from .propagator import PeSeries

__all__ = [
    "LEAKAGE_TOL",
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
    "verify_Sk",
    "compare",
]

# Fraction of the initial population tolerated in the outer 10% of the
# lattice before a run is flagged invalid.
LEAKAGE_TOL = 1e-8

# Eigenvectors with |<eigenvector|initial state>| at or below this are left
# out of the evolution.  The part of the state they carry has 2-norm at most
# sqrt(dim) * OVERLAP_CUT (about 1.4e-30 at dimension 802), far below any
# gate above.
OVERLAP_CUT = np.finfo(float).eps ** 2


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
    """Exact evolution record from the initial state (site 0, spin down)."""

    basis: TruncatedBasis
    tau: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    up_amplitudes: np.ndarray  # (sites, tau) lab-frame <n,up|psi>
    pe: PeSeries
    norm_defect: float
    leakage: float
    valid: bool = field(default=True)

    def channel_amplitude(self, shift: int) -> np.ndarray:
        """Lab-frame amplitude of the channel ending shift steps down."""
        n = -int(shift)
        if abs(n) > self.basis.halfwidth:
            return np.zeros(self.tau.shape, dtype=complex)
        row = int(np.where(self.basis.sites == n)[0][0])
        return self.up_amplitudes[row]

    def channel_probability(self, shift: int) -> np.ndarray:
        return np.abs(self.channel_amplitude(shift)) ** 2

    def shift_amplitude(self, shift: int) -> np.ndarray:
        """Channel amplitude in the comb-rotating frame (phase exp(-i*s*tau)).

        These are the amplitudes that sum coherently across channels; their
        coherent total reproduces ``pe.values``.
        """
        return np.exp(-1j * shift * self.tau) * self.channel_amplitude(shift)


def evolve(
    h: np.ndarray,
    basis: TruncatedBasis,
    taugrid: np.ndarray,
    channels: list[int] | tuple[int, ...] | None = None,
) -> OracleRun:
    """Evolve (site 0, spin down) exactly and collect probabilities.

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

    up = psi[basis.up_indices(), :]
    site_phase = np.exp(1j * np.outer(basis.sites, taugrid))
    coherent = np.sum(site_phase * up, axis=0)
    pe_values = np.abs(coherent) ** 2

    run = OracleRun(
        basis=basis,
        tau=taugrid,
        eigenvalues=evals,
        eigenvectors=evecs,
        up_amplitudes=up,
        pe=PeSeries(tau=taugrid, values=pe_values),
        norm_defect=norm_defect,
        leakage=leakage,
        valid=leakage <= LEAKAGE_TOL,
    )
    if channels is not None:
        chan = {int(s): run.channel_probability(int(s)) for s in channels}
        run = replace(run, pe=PeSeries(tau=taugrid, values=pe_values, channels=chan))
    return run


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
