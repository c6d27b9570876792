import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyrabi.cascade import ModeConfig, run_cascade
from polyrabi.cli import Experiment, read_series_csv, run
from polyrabi.field_state import gamma_weights, weighted_pe
from polyrabi.oracle import build_hamiltonian, evolve, floquet_evolve
from polyrabi.propagator import excitation_probability, factored_pe, undress
from polyrabi.terms import AMP_DROP_TOL

from conftest import assert_traced, bits, combs, stage_chain_plus


@pytest.fixture(scope="module")
def fig1_u0():
    return undress(run_cascade(ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)))


class TestGammaWeights:
    def test_single_mode_poissonian(self):
        w = gamma_weights([10.0], 60)
        assert w.mean == pytest.approx(100.0)
        assert w.sigma**2 == pytest.approx(100.0)

    def test_two_mode_moments(self):
        w = gamma_weights([math.sqrt(50), math.sqrt(50)], 90)
        assert w.mean == pytest.approx(150.0)
        assert w.sigma**2 == pytest.approx(250.0)

    def test_normalized_even_when_clipped(self):
        w = gamma_weights([10.0], 15)  # window well inside +-5 sigma
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_about_integer_mean(self):
        w = gamma_weights([10.0], 30)
        assert np.allclose(w.weights, w.weights[::-1], atol=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            gamma_weights([0.0, 0.0], 10)


class TestWeightedPe:
    def test_flat_identical_to_plain(self, fig1_u0, tmp_path):
        # flat weights are the plain traced probability, bit for bit: with
        # channels from the term path, without them from the stage chain
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        exp = Experiment(
            name="flat", config=cfg, engine="cascade", tau=(0.0, 4 * math.pi, 300),
            channels=(1, 3, -1),
        )
        run(exp, tmp_path)
        plain = excitation_probability(fig1_u0, exp.taugrid())
        flat = read_series_csv(tmp_path / "flat_cascade.csv")
        assert np.array_equal(bits(plain.values), bits(flat.values))
        run(replace(exp, name="bare", channels=None), tmp_path)
        factored = factored_pe(run_cascade(cfg), exp.taugrid())
        bare = read_series_csv(tmp_path / "bare_cascade.csv")
        assert bare.channels is None
        assert np.array_equal(bits(factored.values), bits(bare.values))

    def test_shift_rows_equal_fsum_of_each_group(self):
        # one pass over every shift group holds each row to the group's own
        # fsum: exactly at tau = 0, within a few ulps per term elsewhere
        cfg = ModeConfig(j=1, m=(0, 1, 2), omega=(0.1, 0.07 - 0.1j, 0.15j), delta0=2.2)
        u0 = undress(run_cascade(cfg))
        taus = np.linspace(0, 4 * math.pi, 301)
        shifts, rows = u0.shift_rows(taus)
        groups = u0.sigma_plus.by_shift()
        assert list(shifts) == sorted(groups)
        for s, row in zip(shifts, rows):
            assert_traced(groups[s], taus, row)
        # the channels come from the same rows, so they equal the flat split
        got = weighted_pe(u0, gamma_weights([3.0, 1.5j], 40), taus, channels=shifts)
        flat = excitation_probability(u0, taus, channels=shifts)
        assert got.channels.keys() == flat.channels.keys()
        for s in shifts:
            assert np.array_equal(bits(got.channels[s]), bits(flat.channels[s]))

    def test_wide_gaussian_converges_to_flat(self, fig1_u0):
        taus = np.linspace(0, 4 * math.pi, 300)
        plain = excitation_probability(fig1_u0, taus).values
        # max channel shift is 3; sigma = 100x that
        w = gamma_weights([300.0], 800)
        got = weighted_pe(fig1_u0, w, taus).values
        assert np.max(np.abs(got - plain)) < 1e-3

    def test_deviation_shrinks_with_sigma(self, fig1_u0):
        taus = np.linspace(0, 4 * math.pi, 200)
        plain = excitation_probability(fig1_u0, taus).values
        devs = []
        for amp in (10.0, 30.0, 100.0):
            w = gamma_weights([amp], int(6 * amp) + 20)
            devs.append(np.max(np.abs(weighted_pe(fig1_u0, w, taus).values - plain)))
        assert devs[0] > devs[1] > devs[2]

    def test_narrow_distribution_visibly_deviates(self, fig1_u0):
        taus = np.linspace(0, 4 * math.pi, 200)
        plain = excitation_probability(fig1_u0, taus).values
        w = gamma_weights([2.0], 20)  # sigma = 2, comparable to the shifts
        dev = np.max(np.abs(weighted_pe(fig1_u0, w, taus).values - plain))
        assert dev > 1e-3  # reported sensitivity, not an error

    def test_far_shifts_weigh_incoherently(self):
        # shifts farther apart than the weight window share no level, so the
        # weighted P_e is the sum of the channels; the kernel stops at the
        # window length instead of running out to the 2e6 lag
        with pytest.warns(UserWarning):  # the lower mode is nearer resonance
            cfg = ModeConfig(j=1, m=(0, 10**6), omega=(0.5, 0.5), delta0=1.0)
        u0 = undress(run_cascade(cfg))
        taus = np.linspace(0, 4 * math.pi, 200)
        shifts = u0.sigma_plus.shifts()
        assert min(np.diff(shifts)) == 10**6
        tracemalloc.start()
        try:
            got = weighted_pe(u0, gamma_weights([3.0], 20), taus).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        flat = excitation_probability(u0, taus, channels=shifts).channels
        assert np.max(np.abs(got - sum(flat.values()))) <= 1e-15
        assert peak < 1e6

    def test_oracle_source_matches_analytic_weighting(self, fig1_u0):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        taus = np.linspace(0, 4 * math.pi, 200)
        w = gamma_weights([12.0], 80)
        h, basis = build_hamiltonian(cfg, 200)
        run = evolve(h, basis, taus)
        got = weighted_pe(run, w, taus).values
        expect = weighted_pe(fig1_u0, w, taus).values
        assert np.max(np.abs(got - expect)) < 3e-2

    def test_weight_window_may_pass_the_site_window(self, fig1_cfg, taus_4pi, fig1_oracle):
        # one set of shift amplitudes serves every initial level, so a weight
        # window wider than the oracle's site window weights correctly
        w = gamma_weights([5.0], 40)
        want = weighted_pe(fig1_oracle, w, taus_4pi).values  # the W = 200 lattice
        narrow = evolve(*build_hamiltonian(fig1_cfg, 20), taus_4pi)
        for run in (narrow, floquet_evolve(fig1_cfg, 13, taus_4pi)):
            assert np.max(np.abs(weighted_pe(run, w, taus_4pi).values - want)) <= 1e-12


class TestRequestedChannels:
    """Every reader returns the requested channels in order, zero where a shift has no row."""

    def test_term_path(self, fig1_u0, taus_4pi):
        w = gamma_weights([3.0], 20)
        for pe in (
            lambda channels: excitation_probability(fig1_u0, taus_4pi, channels=channels),
            lambda channels: weighted_pe(fig1_u0, w, taus_4pi, channels=channels),
        ):
            got = pe((3, 99, -1, 1))
            assert list(got.channels) == [3, 99, -1, 1]
            assert np.array_equal(bits(got.channels[99]), bits(np.zeros(len(taus_4pi))))
            assert all(np.max(got.channels[s]) > 0.0 for s in (3, -1, 1))
            assert pe(()).channels is None and pe(None).channels is None

    def test_floquet_weighted(self, fig1_cfg, taus_4pi):
        run = floquet_evolve(fig1_cfg, 60, taus_4pi)
        assert np.max(np.abs(run.shift_rows(taus_4pi)[0])) < 99  # no row at 99
        w = gamma_weights([3.0], 20)
        got = weighted_pe(run, w, taus_4pi, channels=(3, 99, -1, 1))
        assert list(got.channels) == [3, 99, -1, 1]
        assert np.array_equal(bits(got.channels[99]), bits(np.zeros(len(taus_4pi))))
        assert all(np.max(got.channels[s]) > 0.0 for s in (3, -1, 1))
        assert weighted_pe(run, w, taus_4pi, channels=()).channels is None
        with pytest.raises(ValueError, match="grid"):
            weighted_pe(run, w, taus_4pi[:-1])

    def test_lattice_zero_past_the_halfwidth(self, fig1_cfg, taus_4pi):
        h, basis = build_hamiltonian(fig1_cfg, 20)
        got = evolve(h, basis, taus_4pi, channels=(3, 21, -1, -21)).pe
        assert list(got.channels) == [3, 21, -1, -21]
        for s in (21, -21):
            assert np.array_equal(bits(got.channels[s]), bits(np.zeros(len(taus_4pi))))
        assert np.max(got.channels[3]) > 0.0 and np.max(got.channels[-1]) > 0.0
        assert evolve(h, basis, taus_4pi, channels=()).pe.channels == {}


def phase_average(weights, thetas, flat_pe):
    """(1/M) sum_j |Gamma(theta_j)|^2 flat_pe[j] over M uniform phases theta_j.

    Gamma(theta) = sum_M gamma(M) exp(iM theta) is the profile's Fourier
    series.  By Parseval the average is the level-weighted P_e once M is
    above the trigonometric degree of |Gamma|^2 times the flat P_e, which
    is 2 * window plus the span of the shifts.
    """
    gamma = np.sqrt(weights.weights) @ np.exp(1j * np.outer(weights.levels, thetas))
    return (np.abs(gamma) ** 2) @ flat_pe / len(thetas)


def uniform_phases(degree):
    m = 1 << int(degree).bit_length()  # a power of two above the degree
    return 2.0 * math.pi * np.arange(m) / m


class TestPhaseAverage:
    """The weighting against flat runs averaged over the drive's start phase."""

    @settings(max_examples=25)
    @given(
        cfg=combs(max_modes=4),
        alpha=st.lists(
            st.complex_numbers(min_magnitude=0.3, max_magnitude=3.0), min_size=1, max_size=3
        ),
        window=st.sampled_from((0, 1, 3, 12)),
    )
    def test_cascade_equals_stage_chain_phase_average(self, cfg, alpha, window):
        # windows 0 and 1 leave every lag past the window, where the kernel is 0
        cr = run_cascade(cfg)
        u0 = undress(cr)
        taus = np.linspace(0.0, 4.0 * math.pi, 101)
        w = gamma_weights(alpha, window)
        got = weighted_pe(u0, w, taus).values
        shifts = u0.sigma_plus.shifts()
        thetas = uniform_phases(2 * window + max(shifts) - min(shifts))
        flat = np.abs(stage_chain_plus(cr, taus, thetas)) ** 2
        assert np.max(np.abs(got - phase_average(w, thetas, flat))) <= 1e-13
        assert got[0] == 0.0

    @pytest.mark.parametrize(
        "cfg",
        [
            ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0),
            ModeConfig(j=1, m=(0, 1, 3), omega=(0.2, 0.1 - 0.15j, 0.12j), delta0=2.4),
        ],
        ids=["fig1", "complex_three_mode"],
    )
    def test_oracle_equals_rotated_coupling_phase_average(self, cfg):
        # the flat run at phase theta drives mode k with Omega_k exp(-i(j + m_k) theta)
        taus = np.linspace(0.0, 4.0 * math.pi, 101)
        w = gamma_weights([1.5, 0.7j], 3)
        weighted = floquet_evolve(cfg, 60, taus)
        got = weighted_pe(weighted, w, taus).values
        shifts, rows = weighted.shift_rows(taus)
        present = shifts[np.max(np.abs(rows), axis=1) > AMP_DROP_TOL]  # the weighted rows
        thetas = uniform_phases(2 * 3 + present.max() - present.min())
        rotate = np.exp(-1j * np.outer(thetas, cfg.mode_shifts))
        flat = [
            floquet_evolve(replace(cfg, omega=tuple(cfg.omega * r)), 60, taus).pe.values
            for r in rotate
        ]
        assert np.max(np.abs(got - phase_average(w, thetas, np.array(flat)))) <= 1e-13

    def test_memory_does_not_grow_with_the_window(self, fig1_u0):
        # the kernel is read at the shift lags only, never over the final levels
        taus = np.linspace(0, 4 * math.pi, 1000)
        w = gamma_weights([10.0], 6000)
        tracemalloc.start()
        try:
            weighted_pe(fig1_u0, w, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
