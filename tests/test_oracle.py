import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyrabi.cascade import ModeConfig, ResonanceOrderWarning, StageParams, run_cascade
from polyrabi.cli import PRESETS, preset_experiments
from polyrabi.oracle import (
    LEAKAGE_TOL,
    NORM_TOL,
    OVERLAP_CUT,
    BasisSizeError,
    GridMismatchError,
    TruncatedBasis,
    build_hamiltonian,
    compare,
    evolve,
    floquet_evolve,
    min_halfwidth,
    verify_Sk,
)
from polyrabi.propagator import (
    PeSeries,
    PropagatorComponents,
    build_T,
    dressed_propagator,
    excitation_probability,
    undress,
)
from polyrabi.terms import mat_vec

from conftest import combs


def lattice(cfg, halfwidth, taus, channels=None):
    h, basis = build_hamiltonian(cfg, halfwidth)
    return evolve(h, basis, taus, channels=channels)


def amplitude_dev(a, b, halfwidth):
    """Largest comb-frame amplitude difference over the sites -halfwidth..halfwidth."""
    return max(
        float(np.max(np.abs(a.shift_amplitude(s) - b.shift_amplitude(s))))
        for s in range(-halfwidth, halfwidth + 1)
    )


def shipped_experiments():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceOrderWarning)
        return [exp for name in PRESETS for exp in preset_experiments(name)]


class TestBasis:
    def test_dimensions_and_bijection(self):
        b = TruncatedBasis(5)
        assert b.dim == 22
        seen = set()
        for n in range(-5, 6):
            for up in (False, True):
                seen.add(b.index(n, up))
        assert seen == set(range(22))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            TruncatedBasis(5).index(6, True)


class TestBuildHamiltonian:
    def test_w_too_small(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        with pytest.raises(BasisSizeError):
            build_hamiltonian(cfg, 10)

    def test_diagonal_when_undriven(self):
        cfg = ModeConfig(j=1, m=(0,), omega=(0.0,), delta0=0.5)
        h, basis = build_hamiltonian(cfg, 8)
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
        evals = np.sort(np.linalg.eigvalsh(h))
        expect = np.sort(
            np.concatenate(
                [basis.sites - 0.5 * cfg.omega0, basis.sites + 0.5 * cfg.omega0]
            )
        )
        assert np.allclose(evals, expect, atol=1e-14)

    def test_hermitian_exactly(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5 + 0.2j, 0.5), delta0=1.0)
        h, _ = build_hamiltonian(cfg, 20)
        assert np.array_equal(h, h.conj().T)

    def test_dressed_splitting_at_resonance(self):
        cfg = ModeConfig(j=1, m=(0,), omega=(0.4,), delta0=0.0)
        h, _ = build_hamiltonian(cfg, 8)
        evals = np.sort(np.linalg.eigvalsh(h))
        gaps = np.round(np.diff(evals), 10)
        # resonant pairs split by |omega| inside each unit lattice step
        assert set(gaps[1:-1]) == {0.4, 0.6}

    def test_negative_shift_modes(self):
        cfg = ModeConfig(j=-1, m=(0, 2), omega=(0.5, 0.5), delta0=2.0)
        h, basis = build_hamiltonian(cfg, 20)
        # counter-rotating mode couples (n, down) -> (n+1, up)
        assert h[basis.index(1, True), basis.index(0, False)] == 0.25
        assert h[basis.index(-1, True), basis.index(0, False)] == 0.25

    @staticmethod
    def per_element(cfg, halfwidth):
        """The lattice Hamiltonian written out one site at a time."""
        basis = TruncatedBasis(halfwidth)
        h = np.zeros((basis.dim, basis.dim), dtype=complex)
        for n in basis.sites:
            h[basis.index(n, False), basis.index(n, False)] = n - 0.5 * cfg.omega0
            h[basis.index(n, True), basis.index(n, True)] = n + 0.5 * cfg.omega0
        for shift, om in zip(cfg.mode_shifts, cfg.omega):
            for n in basis.sites:
                if abs(n - shift) <= halfwidth:
                    h[basis.index(n - shift, True), basis.index(n, False)] += 0.5 * om
                    h[basis.index(n, False), basis.index(n - shift, True)] += 0.5 * np.conj(om)
        return h

    @pytest.mark.parametrize(
        "omega, dtype",
        [((0.5, 0.3, 0.2), np.float64), ((0.5, 0.3j, 0.2 - 0.1j), np.complex128)],
    )
    def test_dtype_and_entries(self, omega, dtype):
        # shifts -2, -1 and 1: modes on both sides of the initial site
        cfg = ModeConfig(j=-2, m=(0, 1, 3), omega=omega, delta0=2.9)
        h, _ = build_hamiltonian(cfg, 15)
        assert h.dtype == dtype
        assert np.array_equal(h, self.per_element(cfg, 15))


class TestEvolve:
    def test_initial_state(self):
        cfg = ModeConfig(j=1, m=(0,), omega=(0.5,), delta0=1.0)
        h, basis = build_hamiltonian(cfg, 10)
        run = evolve(h, basis, np.array([0.0, 1.0]))
        assert run.pe.values[0] == pytest.approx(0.0, abs=1e-24)

    def test_undriven_stays_down(self):
        cfg = ModeConfig(j=1, m=(0,), omega=(0.0,), delta0=1.0)
        h, basis = build_hamiltonian(cfg, 10)
        run = evolve(h, basis, np.linspace(0, 20, 50))
        assert np.max(run.pe.values) < 1e-28

    def test_single_mode_matches_closed_form(self):
        cfg = ModeConfig(j=1, m=(0,), omega=(0.5,), delta0=0.0)
        h, basis = build_hamiltonian(cfg, 30)
        taus = np.linspace(0, 4 * math.pi, 200)
        run = evolve(h, basis, taus)
        expect = np.sin(0.25 * taus) ** 2
        assert np.max(np.abs(run.pe.values - expect)) < 1e-10

    def test_norm_conservation(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        h, basis = build_hamiltonian(cfg, 60)
        run = evolve(h, basis, np.linspace(0, 4 * math.pi, 100))
        assert run.norm_defect < 1e-10

    def test_common_coupling_phase_is_a_gauge(self, taus_4pi):
        # a common phase on every coupling forces the complex path and
        # changes only the phase of the up sector
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.3), delta0=1.0)
        phase = np.exp(0.7j)
        rotated = replace(cfg, omega=tuple(phase * om for om in cfg.omega))
        runs = []
        for c in (cfg, rotated):
            h, basis = build_hamiltonian(c, 80)
            runs.append(evolve(h, basis, taus_4pi, channels=[1, 3, -1]))
        real, cplx = runs
        assert real.eigenvectors.dtype == np.float64
        assert cplx.eigenvectors.dtype == np.complex128
        assert np.max(np.abs(real.pe.values - cplx.pe.values)) <= 1e-12
        for s in (1, 3, -1):
            assert np.max(np.abs(real.pe.channels[s] - cplx.pe.channels[s])) <= 1e-12

    def test_overlap_cut_matches_full_rotation(self, taus_4pi):
        cfg = ModeConfig(j=1, m=(0, 1, 2), omega=(1 / 7,) * 3, delta0=2.0)
        h, basis = build_hamiltonian(cfg, 200)
        run = evolve(h, basis, taus_4pi)

        evals, evecs = np.linalg.eigh(h)
        c0 = evecs[basis.index(0, False), :].conj()
        # the cut is in play: most lattice eigenstates miss site 0
        assert np.count_nonzero(np.abs(c0) > OVERLAP_CUT) < basis.dim // 2
        psi = evecs @ (np.exp(-1j * np.outer(evals, taus_4pi)) * c0[:, None])
        site_phase = np.exp(1j * np.outer(basis.sites, taus_4pi))
        pe = np.abs(np.sum(site_phase * psi[basis.up_indices(), :], axis=0)) ** 2
        assert np.max(np.abs(run.pe.values - pe)) <= 1e-14

    def test_oracle_series_in_unit_interval(self, fig1_oracle):
        assert fig1_oracle.pe.values.min() >= -1e-10
        assert fig1_oracle.pe.values.max() <= 1 + 1e-10

    def test_channel_amplitudes_recombine(self, fig1_oracle):
        # coherent channel sum reproduces the total probability
        run = fig1_oracle
        total = sum(run.shift_amplitude(int(-n)) for n in run.basis.sites)
        assert np.allclose(np.abs(total) ** 2, run.pe.values, atol=1e-20)


class TestFloquetEvolve:
    @pytest.mark.parametrize("exp", shipped_experiments(), ids=lambda exp: exp.name)
    def test_matches_lattice_on_presets(self, exp):
        taus = exp.taugrid()
        channels = sorted({*exp.config.mode_shifts, *(exp.channels or ())})
        run = floquet_evolve(exp.config, exp.window, taus, channels=channels)
        ref = lattice(exp.config, exp.window, taus, channels)
        assert run.valid and ref.valid
        assert np.max(np.abs(run.pe.values - ref.pe.values)) <= 1e-10
        for s in channels:
            assert np.max(np.abs(run.pe.channels[s] - ref.pe.channels[s])) <= 1e-10
        assert amplitude_dev(run, ref, exp.window) <= 1e-10

    @settings(max_examples=12)
    @given(cfg=combs(max_modes=5), real=st.booleans(), narrow=st.booleans())
    def test_matches_lattice_on_random_combs(self, cfg, real, narrow):
        # A window just above min_halfwidth holds the amplitudes it spans
        # exactly, but the excitation probability sums over the window and
        # converges only on a wide one (on either solver), so it is compared
        # there alone.  The W = 200 lattice is the reference for both.
        if real:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResonanceOrderWarning)
                cfg = replace(cfg, omega=tuple(complex(om.real) for om in cfg.omega))
        taus = np.linspace(0.0, 4.0 * math.pi, 64)
        channels = cfg.mode_shifts
        ref = lattice(cfg, 200, taus, channels)
        halfwidth = min_halfwidth(cfg) + 1 if narrow else 200
        run = floquet_evolve(cfg, halfwidth, taus, channels=channels)
        assert ref.valid
        assert amplitude_dev(run, ref, halfwidth) <= 1e-10
        for s in channels:
            assert np.max(np.abs(run.pe.channels[s] - ref.pe.channels[s])) <= 1e-10
        if not narrow:
            assert run.valid
            assert np.max(np.abs(run.pe.values - ref.pe.values)) <= 1e-10

    def test_single_mode_matches_closed_form(self):
        cfg = ModeConfig(j=1, m=(0,), omega=(0.5,), delta0=0.0)
        taus = np.linspace(0, 4 * math.pi, 200)
        run = floquet_evolve(cfg, 30, taus)
        assert np.max(np.abs(run.pe.values - np.sin(0.25 * taus) ** 2)) < 1e-10

    def test_thin_window_is_invalid(self):
        # strong drive on a thin window, the CLI's exit-3 example
        cfg = ModeConfig(j=2, m=(0, 1), omega=(3.0, 3.0), delta0=1.0)
        run = floquet_evolve(cfg, 13, np.linspace(0.0, 100.0, 40))
        assert not run.valid

    def test_norm_defect_flags_what_the_window_drops(self):
        # shifts -2 and 2 never reach the odd edge sites -9 and 9, so only the
        # norm sees the population that spreads past the window
        cfg = ModeConfig(j=-2, m=(0, 4), omega=(1.0, 1.0), delta0=4.0)
        run = floquet_evolve(cfg, 9, np.linspace(0.0, 4.0 * math.pi, 100))
        assert run.leakage <= LEAKAGE_TOL
        assert run.norm_defect > NORM_TOL
        assert not run.valid

    def test_window_too_small(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        with pytest.raises(BasisSizeError):
            floquet_evolve(cfg, 12, np.linspace(0.0, 1.0, 3))

    def test_drive_too_fast(self):
        # refused before the period's arrays are allocated
        cfg = ModeConfig(j=1, m=(0,), omega=(0.1,), delta0=600.0)
        with pytest.raises(ValueError, match="Magnus steps"):
            floquet_evolve(cfg, 10, np.linspace(0.0, 1.0, 3))


class TestVerifySk:
    def test_identity_when_uncoupled(self):
        p = StageParams(k=1, detuning=0.7, chi=0.0, mode_shift=1, dm_next=1)
        rep = verify_Sk(p, 20)
        assert rep.unitarity_defect == pytest.approx(0.0, abs=1e-14)
        assert rep.diag_residual == pytest.approx(0.0, abs=1e-14)

    def test_identity_when_uncoupled_below_resonance(self):
        # on the adiabatic branch a negative detuning needs no flip either
        p = StageParams(k=1, detuning=-0.7, chi=0.0, mode_shift=1, dm_next=1)
        rep = verify_Sk(p, 20)
        assert rep.unitarity_defect == pytest.approx(0.0, abs=1e-14)
        assert rep.diag_residual == pytest.approx(0.0, abs=1e-14)

    def test_fig1_stage1(self):
        p = StageParams(k=1, detuning=1.0, chi=0.5, mode_shift=1, dm_next=2)
        rep = verify_Sk(p, 60)
        assert rep.unitarity_defect <= 1e-10
        assert rep.diag_residual <= 1e-10

    def test_random_draws(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            chi = rng.uniform(0.05, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            p = StageParams(
                k=1,
                detuning=float(rng.uniform(-3, 3)),
                chi=complex(chi),
                mode_shift=int(rng.choice([-3, -2, -1, 1, 2, 3])),
                dm_next=1,
            )
            rep = verify_Sk(p, 30)
            assert rep.unitarity_defect <= 1e-10
            assert rep.diag_residual <= 1e-10


class TestCompare:
    def test_self_comparison_zero(self, fig1_oracle):
        rep = compare(fig1_oracle.pe, fig1_oracle.pe)
        assert rep.max_abs == 0.0
        assert rep.rms == 0.0

    def test_grid_mismatch(self):
        a = PeSeries(tau=np.linspace(0, 1, 5), values=np.zeros(5))
        b = PeSeries(tau=np.linspace(0, 2, 5), values=np.zeros(5))
        with pytest.raises(GridMismatchError):
            compare(a, b)

    def test_per_channel(self):
        tau = np.linspace(0, 1, 4)
        a = PeSeries(tau=tau, values=np.zeros(4), channels={1: np.full(4, 0.5)})
        b = PeSeries(
            tau=tau, values=np.ones(4), channels={1: np.full(4, 0.1), 2: np.zeros(4)}
        )
        rep = compare(a, b)
        assert rep.max_abs == 1.0
        assert rep.per_channel == {1: pytest.approx(0.4)}

    def test_discriminates_wrong_frame_sign(self, taus_4pi):
        # flipping the frame-rotation sign must blow up the comparison;
        # this is the mutation the comparator exists to catch
        cfg = ModeConfig(j=1, m=(0, 1, 2), omega=(1 / 7,) * 3, delta0=2.0)
        h, basis = build_hamiltonian(cfg, 120)
        reference = evolve(h, basis, taus_4pi).pe
        cr = run_cascade(cfg)
        good = excitation_probability(undress(cr), taus_4pi)
        good_dev = compare(good, reference).max_abs

        mutated = [replace(p, dm_next=-p.dm_next) for p in cr.stages[:-1]]
        u = dressed_propagator(cr.stages[-1]).u
        for p in reversed(mutated):
            u = mat_vec(build_T(p), u)
        bad = excitation_probability(PropagatorComponents(u=u), taus_4pi)
        bad_dev = compare(bad, reference).max_abs
        assert bad_dev > 10 * good_dev
        assert bad_dev > 0.05
