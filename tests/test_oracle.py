import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyrabi import oracle
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

from conftest import bits, combs


def lattice(cfg, halfwidth, taus, channels=None):
    h, basis = build_hamiltonian(cfg, halfwidth)
    return evolve(h, basis, taus, channels=channels)


def shift_table(run, halfwidth):
    """A run's shift amplitudes over the shifts -halfwidth..halfwidth, zero past its rows."""
    shifts, rows = run.shift_rows()
    table = np.zeros((2 * halfwidth + 1, len(run.tau)), dtype=complex)
    inside = np.abs(shifts) <= halfwidth
    table[shifts[inside] + halfwidth] = rows[inside]
    return table


def amplitude_dev(a, b, halfwidth):
    """Largest comb-frame amplitude difference over the sites -halfwidth..halfwidth."""
    return float(np.max(np.abs(shift_table(a, halfwidth) - shift_table(b, halfwidth))))


def assert_window_free(cfg, taus, channels):
    """Floquet P_e and channels are bit-identical on the narrowest window and at W = 200."""
    narrow = floquet_evolve(cfg, min_halfwidth(cfg) + 1, taus, channels=channels)
    wide = floquet_evolve(cfg, 200, taus, channels=channels)
    assert bits(narrow.pe.values).tolist() == bits(wide.pe.values).tolist()
    assert list(narrow.pe.channels) == list(wide.pe.channels)
    for s in channels:
        assert bits(narrow.pe.channels[s]).tolist() == bits(wide.pe.channels[s]).tolist()


def harmonic_rows(eps, coef, taus):
    """Comb-frame rows G_n of both spins on every site |n| <= 2K, term by term.

    G_n(tau) = sum_{a,m} exp(i (m - eps_a) tau) c_{spin,a,m} conj(c_{down,a,m-n}),
    as (spin, site, tau), from quasienergies and harmonics (spin, mode, m = -K..K).
    """
    reach = coef.shape[-1] // 2
    m = np.arange(-reach, reach + 1)
    sites = np.arange(-2 * reach, 2 * reach + 1)
    phase = np.exp(1j * (m[None, None, :] - eps[None, :, None]) * taus[:, None, None])
    down = np.pad(coef[1], ((0, 0), (2 * reach, 2 * reach)))  # harmonic k at k + 3K
    lagged = down[:, m[:, None] - sites[None, :] + 3 * reach].conj()  # (mode, m, n)
    return np.einsum("tam,sam,amn->snt", phase, coef, lagged, optimize=True)


def harmonics_run(cfg, halfwidth, taus, channels, cut=None):
    """A Floquet run and the harmonics it read, zero outside -cut <= m <= cut + 2 if given.

    The window is lopsided on purpose: the two modes of an SU(2) propagator
    are mirror images, c_{up,b,m} = -conj(c_{down,a,-m}) up to a phase, so a cut symmetric
    in m keeps them orthogonal at every time and leaves the norm's cross
    terms a != b zero.
    """
    full, seen = oracle._floquet_harmonics, []

    def harmonics(cfg):
        eps, coef = full(cfg)
        if cut is not None:
            reach = coef.shape[-1] // 2
            m = np.arange(-reach, reach + 1)
            coef = np.where((m >= -cut) & (m <= cut + 2), coef, 0.0)
        seen.append((eps, coef))
        return eps, coef

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_floquet_harmonics", harmonics)
        run = floquet_evolve(cfg, halfwidth, taus, channels=channels)
    return run, *seen[0]


def assert_reads_rows(cfg, halfwidth, taus, channels, cut=None):
    """What a Floquet run reads from its harmonics equals the sums over its site rows."""
    run, eps, coef = harmonics_run(cfg, halfwidth, taus, channels, cut)
    reach = coef.shape[-1] // 2
    up, down = harmonic_rows(eps, coef, taus)
    pop = np.abs(up) ** 2 + np.abs(down) ** 2
    norm = np.sum(pop, axis=0)
    # Parseval: the norm over every site from the harmonics' correlations
    d = np.arange(-2 * reach, 2 * reach + 1)
    turn = np.exp(-1j * np.outer(taus, eps))
    gram = oracle._norm_weights(coef).reshape(2, 2, -1)
    parseval = np.einsum(
        "ta,tb,td,abd->t", turn, turn.conj(), np.exp(1j * np.outer(taus, d)), gram
    ).real
    assert np.max(np.abs(parseval - norm)) <= 1e-14
    assert abs(run.norm_defect - np.max(np.abs(np.sqrt(norm) - 1.0))) <= 1e-14
    edge = np.abs(np.arange(-2 * reach, 2 * reach + 1)) > 0.9 * halfwidth
    assert abs(run.leakage - np.max(np.sum(pop[edge], axis=0))) <= 1e-14
    assert np.max(np.abs(run.pe.values - np.abs(np.sum(up, axis=0)) ** 2)) <= 1e-14
    for s in channels:
        row = up[2 * reach - s] if abs(s) <= 2 * reach else 0.0
        assert np.max(np.abs(run.pe.channels[s] - np.abs(row) ** 2)) <= 1e-14
    # the rows built on demand, and their coherent sum, the P_e amplitude
    assert np.max(np.abs(run.up_amplitudes - up)) <= 1e-14
    assert np.max(np.abs(np.abs(np.sum(run.up_amplitudes, axis=0)) ** 2 - run.pe.values)) <= 1e-14
    return run


def assert_sampling_exact(cfg):
    """Floquet harmonics sampled every SAMPLE_STRIDE steps equal those read at every step."""
    eps, coef = oracle._floquet_harmonics(cfg)
    eps_full, coef_full = oracle._floquet_harmonics(cfg, stride=1)
    reach = max(coef.shape[-1], coef_full.shape[-1]) // 2

    def padded(c):
        pad = reach - c.shape[-1] // 2
        return np.pad(c, ((0, 0), (0, 0), (pad, pad)))

    assert np.max(np.abs(eps - eps_full)) <= 1e-13
    assert np.max(np.abs(padded(coef) - padded(coef_full))) <= 1e-13


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
        total = run.shift_rows()[1].sum(axis=0)
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
        # The W = 200 lattice is the reference for both windows.  A window
        # just above min_halfwidth may flag leakage, but it cuts nothing.
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
        assert np.max(np.abs(run.pe.values - ref.pe.values)) <= 1e-10
        if not narrow:
            assert run.valid

    @pytest.mark.parametrize("exp", shipped_experiments(), ids=lambda exp: exp.name)
    def test_window_never_cuts_presets(self, exp):
        channels = sorted({*exp.config.mode_shifts, *(exp.channels or ())})
        assert_window_free(exp.config, exp.taugrid(), channels)

    @settings(max_examples=8)
    @given(cfg=combs())
    def test_window_never_cuts_random_combs(self, cfg):
        assert_window_free(cfg, np.linspace(0.0, 4.0 * math.pi, 64), cfg.mode_shifts)

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

    def test_leakage_flags_a_narrow_window(self):
        # shifts -2 and 2 never reach the odd edge sites -9 and 9, but the
        # solution is not cut at the window: the population past 0.9 W shows
        # as leakage, the norm stays whole and P_e stays exact
        cfg = ModeConfig(j=-2, m=(0, 4), omega=(1.0, 1.0), delta0=4.0)
        taus = np.linspace(0.0, 4.0 * math.pi, 100)
        run = floquet_evolve(cfg, 9, taus)
        assert run.leakage > LEAKAGE_TOL
        assert run.norm_defect <= NORM_TOL
        assert not run.valid
        assert np.max(np.abs(run.pe.values - lattice(cfg, 200, taus).pe.values)) <= 1e-12

    def test_valid_narrow_window_matches_wide_lattice(self):
        cfg = ModeConfig(j=-2, m=(0, 4), omega=(0.5, 0.5), delta0=2.5)
        taus = np.linspace(0.0, 4.0 * math.pi, 100)
        run = floquet_evolve(cfg, 9, taus)
        assert run.valid
        assert np.max(np.abs(run.pe.values - lattice(cfg, 200, taus).pe.values)) <= 1e-12

    def test_window_too_small(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        with pytest.raises(BasisSizeError):
            floquet_evolve(cfg, 12, np.linspace(0.0, 1.0, 3))

    def test_drive_too_fast(self):
        # refused before the period's arrays are allocated
        cfg = ModeConfig(j=1, m=(0,), omega=(0.1,), delta0=600.0)
        with pytest.raises(ValueError, match="Magnus steps"):
            floquet_evolve(cfg, 10, np.linspace(0.0, 1.0, 3))

    def test_rows_built_only_when_read(self, fig1_cfg, taus_4pi):
        built = []
        rows = oracle._site_rows

        def counted(*args):
            built.append(args)
            return rows(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_site_rows", counted)
            run = floquet_evolve(fig1_cfg, 200, taus_4pi, channels=(1, 3, -1))
            assert set(run.pe.channels) == {1, 3, -1}
            assert not built
            first = run.up_amplitudes
            assert len(built) == 1
            assert run.up_amplitudes is first and len(built) == 1

    def test_large_bare_frequency_matches_lattice(self):
        # K is about |omega0|/2 here, so the modes' site reach 2K passes W
        cfg = ModeConfig(j=1, m=(0,), omega=(0.1,), delta0=480.0)
        taus = np.linspace(0.0, 4.0 * math.pi, 64)
        run = floquet_evolve(cfg, 200, taus)
        assert run.valid
        assert np.max(np.abs(run.pe.values - lattice(cfg, 200, taus).pe.values)) <= 1e-12


class TestFloquetHarmonics:
    """The Floquet solver's sampled period and its reads from the modes' harmonics."""

    @pytest.mark.parametrize("exp", shipped_experiments(), ids=lambda exp: exp.name)
    def test_sampled_period_on_presets(self, exp):
        assert_sampling_exact(exp.config)

    @settings(max_examples=10)
    @given(cfg=combs())
    def test_sampled_period_on_random_combs(self, cfg):
        assert_sampling_exact(cfg)

    def test_aliased_sampling_refines(self, fig1_cfg):
        # start from 8 samples, too few for fig1's harmonics: the sampling
        # doubles until the reach K is within a quarter of the samples
        sampled = []
        modes = oracle._floquet_modes

        def counted(a, b):
            sampled.append(len(a) - 1)
            return modes(a, b)

        steps = oracle._period_steps(fig1_cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_floquet_modes", counted)
            eps, coef = oracle._floquet_harmonics(fig1_cfg, stride=steps // 8)
        reach = coef.shape[-1] // 2
        assert sampled == [8 << k for k in range(len(sampled))]
        assert len(sampled) > 1 and 4 * reach <= sampled[-1] and 4 * reach > sampled[-2]
        eps_full, coef_full = oracle._floquet_harmonics(fig1_cfg, stride=1)
        assert coef_full.shape == coef.shape
        assert np.max(np.abs(eps - eps_full)) <= 1e-13
        assert np.max(np.abs(coef - coef_full)) <= 1e-13

    @pytest.mark.parametrize("exp", shipped_experiments(), ids=lambda exp: exp.name)
    def test_reads_equal_row_sums_on_presets(self, exp):
        # over 4 pi: on the presets' longer grids the rounding of the phase
        # arguments (m - eps) tau alone moves the rows by a few 1e-14
        channels = sorted({*exp.config.mode_shifts, *(exp.channels or ()), 0, 99})
        taus = np.linspace(0.0, 4.0 * math.pi, 64)
        assert_reads_rows(exp.config, exp.window, taus, channels)

    @settings(max_examples=8)
    @given(cfg=combs())
    def test_reads_equal_row_sums_on_random_combs(self, cfg):
        # the narrowest window, so that the leakage rows are in play
        taus = np.linspace(0.0, 4.0 * math.pi, 48)
        assert_reads_rows(cfg, min_halfwidth(cfg) + 1, taus, cfg.mode_shifts)

    @pytest.mark.parametrize("cut", [4, 7, 10])
    def test_reads_equal_row_sums_on_cut_harmonics(self, cut):
        # fig3b's modes cut to a few harmonics lose norm; the reads still
        # equal the sums over the rows
        cfg = next(e.config for e in preset_experiments("fig3bcd") if e.name == "fig3b")
        taus = np.linspace(0.0, 4.0 * math.pi, 64)
        run = assert_reads_rows(cfg, min_halfwidth(cfg) + 1, taus, cfg.mode_shifts, cut=cut)
        assert run.norm_defect > NORM_TOL


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
