import math
from dataclasses import replace

import numpy as np
import pytest

from polyrabi.cascade import ModeConfig, run_cascade
from polyrabi.cli import Experiment, read_series_csv, run
from polyrabi.field_state import gamma_weights, weighted_pe
from polyrabi.oracle import build_hamiltonian, evolve, floquet_evolve
from polyrabi.propagator import excitation_probability, factored_pe, undress

from conftest import bits, fsum_trace


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
        # one pass over every shift group equals the group-by-group fsum
        cfg = ModeConfig(j=1, m=(0, 1, 2), omega=(0.1, 0.07 - 0.1j, 0.15j), delta0=2.2)
        u0 = undress(run_cascade(cfg))
        taus = np.linspace(0, 4 * math.pi, 301)
        shifts, rows = u0.sigma_plus.trace_by_shift(taus)
        groups = u0.sigma_plus.by_shift()
        assert list(shifts) == sorted(groups)
        for s, row in zip(shifts, rows):
            assert np.array_equal(bits(row), bits(fsum_trace(groups[s], taus)))
        # the channels come from the same rows, so they equal the flat split
        got = weighted_pe(u0, gamma_weights([3.0, 1.5j], 40), taus)
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
