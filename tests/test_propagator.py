import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from polyrabi.cascade import ModeConfig, ResonanceOrderWarning, StageParams, run_cascade
from polyrabi.cli import PRESETS, preset_experiments
from polyrabi.closed_forms import single_mode_rabi, weak_field_uge
from polyrabi.field_state import gamma_weights, weighted_pe
from polyrabi.oracle import build_hamiltonian, evolve, floquet_evolve
from polyrabi.propagator import (
    _factored_plus,
    build_T,
    dressed_propagator,
    excitation_probability,
    factored_pe,
    undress,
)
from polyrabi.terms import TermSum, mat_vec

from conftest import (
    assert_traced,
    bits,
    combs,
    dominant_peak,
    stage_chain_plus,
    termwise_dev,
)

CHAIN_TAUS = np.linspace(0.0, 4.0 * math.pi, 64)
# tau = 0 inside the grid, and a signed zero as its last point
ZEROS_INSIDE = np.concatenate((-CHAIN_TAUS[:0:-1], CHAIN_TAUS, [-0.0]))

with warnings.catch_warnings():
    warnings.simplefilter("ignore", ResonanceOrderWarning)  # fig3a's 6/7 detuning
    PRESET_EXPERIMENTS = [e for p in PRESETS for e in preset_experiments(p)]


def fig1_stages():
    return run_cascade(ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)).stages


class TestDressedPropagator:
    def test_no_coupling(self):
        p = StageParams(k=1, detuning=-0.8, chi=0.0, mode_shift=2, dm_next=0)
        u = dressed_propagator(p)
        taus = np.linspace(0, 5, 7)
        up = u.u[0].trace(taus)[0]
        down = u.u[1].trace(taus)[0]
        # identity and sigma_z parts, half the sum and half the difference
        assert np.allclose(0.5 * (up + down), np.cos(0.5 * 0.8 * taus))
        assert np.allclose(0.5 * (up - down), -1j * np.sign(-0.8) * np.sin(0.5 * 0.8 * taus))
        assert u.u[2].max_abs_amp() == 0.0
        assert u.u[3].max_abs_amp() == 0.0

    def test_identity_at_zero(self):
        p = fig1_stages()[-1]
        u = dressed_propagator(p)
        vals = [c.trace(np.array([0.0]))[0][0] for c in u.u]
        assert vals[0] == pytest.approx(1.0)
        # no sigma_z part: the diagonal entries agree exactly
        assert vals[1] == vals[0]
        assert vals[2] == 0.0
        assert vals[3] == 0.0

    def test_fig1_final_stage_amplitudes(self):
        # -i*chi_norm*sin(rabi*tau/2) splits into amplitudes -+chi_norm/2
        p = fig1_stages()[-1]
        u = dressed_propagator(p)
        rabi = p.rabi
        assert rabi == pytest.approx(1.0010831353466154)
        plus = u.u[2]
        assert plus.amp_at(rabi, 3) == pytest.approx(-0.5 * 0.47309482462199505)
        assert plus.amp_at(-rabi, 3) == pytest.approx(0.5 * 0.47309482462199505)

    def test_degenerate_stage_is_free_evolution(self):
        p = StageParams(k=1, detuning=0.0, chi=0.0, mode_shift=1, dm_next=0)
        u = dressed_propagator(p)
        assert u.u[0] == TermSum.single(1.0)
        assert u.u[1] == TermSum.single(1.0)


class TestBuildT:
    def test_trivial_stage_is_identity(self):
        p = StageParams(k=1, detuning=0.9, chi=0.0, mode_shift=1, dm_next=0)
        t = build_T(p)
        for i in range(4):
            for j in range(4):
                if i == j:
                    assert t[i][j] == TermSum.single(1.0)
                else:
                    assert t[i][j].max_abs_amp() == 0.0

    def test_fig1_stage1_entries(self):
        p = fig1_stages()[0]
        t = build_T(p)
        # dressed-to-lab sigma_+ diagonal carries exp(-i*tau) and weight ~0.9472
        assert t[2][2].amp_at(-2.0, 0) == pytest.approx(0.9472135954999579)
        # the counter-rotating entry is double-displaced with weight ~-0.0528
        assert t[2][3].amp_at(2.0, 2) == pytest.approx(-0.05278640450004204)

    def test_fig1_stage1_entries_negative_detuning(self):
        # the twin below resonance dresses onto the other branch with the same weights
        p = StageParams(k=1, detuning=-1.0, chi=0.5, mode_shift=1, dm_next=2)
        t = build_T(p)
        assert t[2][2].amp_at(-2.0, 0) == pytest.approx(0.9472135954999579)
        assert t[2][3].amp_at(2.0, 2) == pytest.approx(-0.05278640450004204)

    def test_rows_are_mirror_paired(self):
        p = fig1_stages()[0]
        t = build_T(p)
        # columns (up-up, down-down, up-down, down-up): the mirror swaps up and down
        assert t[3][0] == -(t[2][1].conjugate_mirror())
        assert t[3][1] == -(t[2][0].conjugate_mirror())
        assert t[3][2] == t[2][3].conjugate_mirror()
        assert t[3][3] == t[2][2].conjugate_mirror()


class TestUndress:
    def test_single_mode_is_dressed_propagator(self):
        cr = run_cascade(ModeConfig(j=1, m=(0,), omega=(0.5,), delta0=1.0))
        uA = undress(cr)
        uB = dressed_propagator(cr.stages[0])
        for a, b in zip(uA.u, uB.u):
            assert a == b

    def test_hermiticity_structure_exact(self):
        cr = run_cascade(ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0))
        u0 = undress(cr)
        assert u0.hermiticity_defect() == 0.0

    def test_identity_at_zero(self):
        cr = run_cascade(ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0))
        vals = [c.trace(np.array([0.0]))[0][0] for c in undress(cr).u]
        # identity and sigma_z parts, half the sum and half the difference
        assert 0.5 * (vals[0] + vals[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(0.5 * (vals[0] - vals[1])) < 1e-12
        assert abs(vals[2]) < 1e-12
        assert abs(vals[3]) < 1e-12

    @pytest.mark.parametrize("delta0", [0.0, 0.5, -0.7])
    def test_silent_first_mode_anchor(self, delta0):
        # the silent mode at m=2 is farthest from resonance, so it is dressed
        # first and anchors the frame; undressing must rotate back to the
        # lowest mode's frame and give the single-mode propagator exactly
        with pytest.warns(ResonanceOrderWarning):
            cfg = ModeConfig(j=1, m=(0, 2), omega=(0.4, 0.0), delta0=delta0)
        cr = run_cascade(cfg)
        assert cr.stages[0].k == 0 and cr.stages[0].dm_next == 2
        single = undress(run_cascade(ModeConfig(j=1, m=(0,), omega=(0.4,), delta0=delta0)))
        for a, b in zip(undress(cr).u, single.u):
            assert termwise_dev(a, b) <= 1e-15

    @settings(max_examples=150)
    @given(combs())
    def test_exact_gates_on_random_combs(self, cfg):
        # P_e(0) and the mirror defect are exactly zero, not merely small
        u0 = undress(run_cascade(cfg))
        assert excitation_probability(u0, np.array([0.0])).values[0] == 0.0
        assert u0.hermiticity_defect() == 0.0

    @pytest.mark.parametrize("n", [12, 20])
    def test_exact_gates_on_uniform_combs(self, n):
        # thousands of terms, every merged group summed exactly
        cfg = ModeConfig(j=1, m=tuple(range(n)), omega=(1 / 15,) * n, delta0=n - 1)
        u0 = undress(run_cascade(cfg))
        pe = excitation_probability(u0, np.array([0.0, 1.0]), channels=cfg.mode_shifts)
        assert pe.values[0] == 0.0
        assert all(c[0] == 0.0 for c in pe.channels.values())
        assert u0.hermiticity_defect() == 0.0

    @settings(max_examples=120)
    @given(combs(max_modes=8))
    def test_trace_matches_stage_chain(self, cfg):
        # the 2x2 stage chain, multiplied out per tau, checks the term algebra
        # to roundoff rather than to the truncation error
        cr = run_cascade(cfg)
        got = undress(cr).sigma_plus.trace(CHAIN_TAUS)[0]
        assert np.max(np.abs(got - stage_chain_plus(cr, CHAIN_TAUS)[0])) <= 1e-12

    @settings(max_examples=40)
    @given(combs(max_modes=8))
    def test_shift_rows_match_stage_chain(self, cfg):
        # one inverse FFT over the phase theta of b_s = exp(-i s theta) splits
        # the chain by shift; more phases than twice the reach leave no alias
        cr = run_cascade(cfg)
        shifts, rows = undress(cr).shift_rows(CHAIN_TAUS)
        n = 1 << (2 * max(map(abs, shifts), default=0)).bit_length()
        thetas = 2.0 * math.pi * np.arange(n) / n
        want = np.fft.ifft(stage_chain_plus(cr, CHAIN_TAUS, thetas), axis=0)
        rows_at = np.array(shifts, dtype=int) % n
        assert np.max(np.abs(rows - want[rows_at]), initial=0.0) <= 1e-12
        assert np.max(np.abs(np.delete(want, rows_at, axis=0)), initial=0.0) <= 1e-12

    @staticmethod
    def check_replay(cfg):
        # undress is the public chain: the final stage's propagator, then one
        # transfer matrix per stage; its down-down entry mirrors its up-up one
        cr = run_cascade(cfg)
        u0 = undress(cr)
        u = dressed_propagator(cr.stages[-1]).u
        for p in reversed(cr.stages[:-1]):
            u = mat_vec(build_T(p), u)
        assert len(u) == len(u0.u) == 4
        assert all(a == b for a, b in zip(u, u0.u))
        assert (u0.u[1] - u0.u[0].conjugate_mirror()).max_abs_amp() == 0.0

    @pytest.mark.parametrize("exp", PRESET_EXPERIMENTS, ids=lambda e: e.name)
    def test_replay_equals_undress_on_presets(self, exp):
        self.check_replay(exp.config)

    def test_replay_equals_undress_on_a_uniform_comb(self):
        self.check_replay(ModeConfig(j=1, m=tuple(range(20)), omega=(1 / 15,) * 20, delta0=19.0))

    @settings(max_examples=100)
    @given(combs())
    def test_replay_equals_undress_on_random_combs(self, cfg):
        self.check_replay(cfg)

    def test_three_mode_term_inventory(self):
        cfg = ModeConfig(j=1, m=(0, 1, 2), omega=(1 / 7,) * 3, delta0=2.0)
        cr = run_cascade(cfg)
        u0 = undress(cr)
        rabi = cr.stages[-1].rabi
        shifts = u0.u[2].shifts()
        assert cr.stages[-1].mode_shift in shifts
        # every sigma_+ frequency is the resonant pair plus an integer comb offset
        for t in u0.u[2]:
            dp = t.halffreq - rabi
            dm = t.halffreq + rabi
            assert min(abs(dp - round(dp)), abs(dm - round(dm))) < 1e-9

        # resonant pair present at the final mode shift, riding the lab comb
        # phase exp(-i*m_N*tau/2)
        group = u0.u[2].by_shift()[cr.stages[-1].mode_shift]
        anchor = -float(cfg.m[-1])
        assert abs(group.amp_at(anchor + rabi, cr.stages[-1].mode_shift)) > 0.01
        assert abs(group.amp_at(anchor - rabi, cr.stages[-1].mode_shift)) > 0.01


class TestExcitationProbability:
    def test_zero_at_zero_exactly(self):
        cr = run_cascade(ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0))
        pe = excitation_probability(undress(cr), np.linspace(0, 1, 5))
        assert pe.values[0] == 0.0

    def test_resonant_single_mode(self):
        cr = run_cascade(ModeConfig(j=1, m=(0,), omega=(1.0,), delta0=0.0))
        taus = np.linspace(0, 2 * math.pi, 200)
        pe = excitation_probability(undress(cr), taus)
        assert np.allclose(pe.values, np.sin(0.5 * taus) ** 2, atol=1e-12)

    def test_channel_breakdown_coherent_sum(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        u0 = undress(run_cascade(cfg))
        taus = np.linspace(0, 4 * math.pi, 300)
        groups = u0.sigma_plus.by_shift()
        pe = excitation_probability(u0, taus, channels=sorted(groups))
        # per-shift amplitudes must recombine coherently into the total
        amps = {s: g.trace(taus)[0] for s, g in groups.items()}
        total = sum(amps.values())
        assert np.allclose(np.abs(total) ** 2, pe.values, atol=1e-14)
        for s, a in amps.items():
            assert np.array_equal(pe.channels[s], np.abs(a) ** 2)

    @pytest.mark.parametrize(
        "cfg",
        [
            ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0),
            ModeConfig(j=2, m=(0, 1, 2, 3), omega=(0.1, 0.12 + 0.05j, -0.08j, 0.1), delta0=3.3),
        ],
        ids=["fig1", "n4_complex"],
    )
    def test_one_pass_equals_fsum_of_each_group(self, cfg):
        # the total and every channel come from the same values as the two
        # public views, each held to its group's fsum: exactly at tau = 0,
        # within a few ulps per term elsewhere
        u0 = undress(run_cascade(cfg))
        plus = u0.sigma_plus
        taus = np.linspace(0, 4 * math.pi, 257)
        groups = plus.by_shift()
        pe = excitation_probability(u0, taus, channels=[*groups, 99])
        total = plus.trace(taus)[0]
        assert_traced(plus, taus, total)
        assert np.array_equal(bits(pe.values), bits(np.abs(total) ** 2))
        assert pe.values[0] == 0.0
        shifts, rows = u0.shift_rows(taus)
        assert shifts == tuple(groups)
        for s, row in zip(shifts, rows):
            assert_traced(groups[s], taus, row)
            assert np.array_equal(bits(pe.channels[s]), bits(np.abs(row) ** 2))
        assert np.array_equal(pe.channels[99], np.zeros(len(taus)))

    @staticmethod
    def assert_zero_at_zero(cfg):
        # every channel, not only the total, is exactly 0.0 wherever tau is 0
        u0 = undress(run_cascade(cfg))
        pe = excitation_probability(u0, ZEROS_INSIDE, channels=u0.sigma_plus.shifts())
        zero = ZEROS_INSIDE == 0.0
        assert bits(pe.values[zero]).tolist() == [0] * 2
        for row in pe.channels.values():
            assert bits(row[zero]).tolist() == [0] * 2

    @pytest.mark.filterwarnings("ignore::UserWarning")  # fig3a's 6/7 detuning
    @pytest.mark.parametrize("exp", PRESET_EXPERIMENTS, ids=lambda e: e.name)
    def test_every_channel_zero_at_zero_on_presets(self, exp):
        self.assert_zero_at_zero(exp.config)

    @settings(max_examples=100)
    @given(combs(max_modes=8))
    def test_every_channel_zero_at_zero_on_random_combs(self, cfg):
        self.assert_zero_at_zero(cfg)

    def test_channel_list_and_missing_channel(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        u0 = undress(run_cascade(cfg))
        taus = np.linspace(0, 1, 4)
        pe = excitation_probability(u0, taus, channels=[3, 99])
        assert set(pe.channels) == {3, 99}
        assert np.all(pe.channels[99] == 0.0)

    def test_analytic_series_in_band(self, taus_4pi):
        cfg = ModeConfig(j=1, m=(0, 1, 2), omega=(1 / 7,) * 3, delta0=2.0)
        pe = excitation_probability(undress(run_cascade(cfg)), taus_4pi)
        assert pe.values.min() >= -0.05
        assert pe.values.max() <= 1.05

    def test_fig1_spectrum_contains_dressed_rabi_line(self):
        # the dressed splitting appears as a spectral line of the probability;
        # for these parameters the comb beat at freq 2 carries more weight
        # (cross-channel cancellation suppresses the resonant line), so the
        # assertion is on presence, not dominance.
        cr = run_cascade(ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0))
        rabi = cr.stages[-1].rabi
        T = 100 * math.pi
        taus = np.linspace(0, T, 8000)
        pe = excitation_probability(undress(cr), taus)
        spec = np.abs(np.fft.rfft(pe.values - pe.values.mean()))
        freqs = 2 * math.pi * np.arange(len(spec)) / T
        k = int(np.argmin(np.abs(freqs - rabi)))
        window = spec[max(k - 2, 1) : k + 3].max()
        assert window > 10 * np.median(spec)

    def test_fig3a_dominant_peak_at_final_rabi(self):
        cfg = ModeConfig(j=1, m=(0, 1, 2), omega=(1 / 7,) * 3, delta0=2.0)
        cr = run_cascade(cfg)
        rabi = cr.stages[-1].rabi
        taus = np.linspace(0, 20 * 2 * math.pi / rabi, 4000)
        pe = excitation_probability(undress(cr), taus)
        peak, width = dominant_peak(taus, pe.values)
        assert abs(peak - rabi) <= width


class TestFactoredPe:
    def assert_matches_both_references(self, cr, taus):
        pe = factored_pe(cr, taus)
        want = excitation_probability(undress(cr), taus).values
        assert np.max(np.abs(pe.values - want)) <= 1e-12
        amp = _factored_plus(cr, taus)
        assert np.max(np.abs(amp - stage_chain_plus(cr, taus)[0])) <= 1e-12
        assert np.array_equal(pe.values, np.abs(amp) ** 2)
        assert pe.channels is None and np.array_equal(pe.tau, taus)
        return pe

    @pytest.mark.parametrize("exp", PRESET_EXPERIMENTS, ids=lambda e: e.name)
    def test_presets_match_the_term_path(self, exp):
        pe = self.assert_matches_both_references(run_cascade(exp.config), exp.taugrid())
        assert pe.values[0] == 0.0

    @settings(max_examples=100)
    @given(combs(max_modes=8))
    def test_random_combs_match_the_term_path(self, cfg):
        # anchored (out-of-order) combs, j <= 0 and complex couplings included
        pe = self.assert_matches_both_references(run_cascade(cfg), ZEROS_INSIDE)
        assert (pe.values[ZEROS_INSIDE == 0.0] == 0.0).all()


class TestCopying:
    @pytest.mark.parametrize(
        "clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_round_trip(self, clone):
        cr = run_cascade(ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5 + 0.1j), delta0=1.0))
        u0 = undress(cr)
        for obj in (u0.sigma_plus, u0, cr):
            again = clone(obj)
            assert again == obj
        again = clone(u0.sigma_plus)
        assert bits(again.amp).tolist() == bits(u0.sigma_plus.amp).tolist()
        assert again.halffreq.tolist() == u0.sigma_plus.halffreq.tolist()
        assert again.shift.tolist() == u0.sigma_plus.shift.tolist()


GRID_4X5 = np.linspace(0.0, 1.0, 20).reshape(4, 5)
FIG1 = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)


# every public reader of a tau grid, called on a 4x5 grid
GRID_READERS = {
    "TermSum.trace": lambda g: undress(run_cascade(FIG1)).sigma_plus.trace(g),
    "shift_rows": lambda g: undress(run_cascade(FIG1)).shift_rows(g),
    "excitation_probability": lambda g: excitation_probability(
        undress(run_cascade(FIG1)), g, channels=[1, 3, -1]
    ),
    "factored_pe": lambda g: factored_pe(run_cascade(FIG1), g),
    "weighted_pe": lambda g: weighted_pe(undress(run_cascade(FIG1)), gamma_weights([3.0], 30), g),
    "weak_field_uge": lambda g: weak_field_uge(FIG1, g),
    "single_mode_rabi": lambda g: single_mode_rabi(1.0, 0.5, g),
    "evolve": lambda g: evolve(*build_hamiltonian(FIG1, 40), g),
    "floquet_evolve": lambda g: floquet_evolve(FIG1, 40, g),
    "OracleRun.shift_rows": lambda g: floquet_evolve(FIG1, 40, g[0]).shift_rows(g),
}


class TestTauGridContract:
    @pytest.mark.parametrize("reader", GRID_READERS.values(), ids=GRID_READERS.keys())
    def test_two_dimensional_grid_rejected(self, reader):
        with pytest.raises(ValueError, match="one-dimensional"):
            reader(GRID_4X5)
