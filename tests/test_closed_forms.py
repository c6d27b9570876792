import math
import warnings

import numpy as np
import pytest

from polyrabi.cascade import ModeConfig, ResonanceOrderWarning, run_cascade
from polyrabi.closed_forms import (
    WeakFieldWarning,
    single_mode_rabi,
    two_mode_u0,
    weak_field_uge,
)
from polyrabi.oracle import build_hamiltonian, evolve
from polyrabi.propagator import excitation_probability, undress


class TestSingleModeRabi:
    def test_pi_pulse(self):
        pe = single_mode_rabi(0.0, 1.0, np.array([math.pi]))
        assert pe.values[0] == pytest.approx(1.0)

    def test_no_drive(self):
        pe = single_mode_rabi(1.0, 0.0, np.linspace(0, 10, 11))
        assert np.all(pe.values == 0.0)

    def test_no_drive_at_resonance(self):
        # zero detuning and zero coupling: no Rabi frequency to divide by
        pe = single_mode_rabi(0.0, 0.0, np.linspace(0, 10, 11))
        assert np.all(pe.values == 0.0)

    def test_detuned_value(self):
        pe = single_mode_rabi(1.0, 0.5, np.array([math.pi]))
        expect = (0.25 / 1.25) * math.sin(0.5 * math.sqrt(1.25) * math.pi) ** 2
        assert pe.values[0] == pytest.approx(expect, abs=1e-15)


class TestTwoModeU0:
    def test_requires_two_modes(self):
        with pytest.raises(ValueError):
            two_mode_u0(ModeConfig(j=1, m=(0,), omega=(0.5,), delta0=1.0))

    def test_identity_at_zero(self):
        u = two_mode_u0(ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0))
        vals = [c.trace(np.array([0.0]))[0][0] for c in u.u]
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(vals[2]) < 1e-12

    def test_matches_cascade_termwise_fig1(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        a = two_mode_u0(cfg)
        b = undress(run_cascade(cfg))
        for x, y in zip(a.u, b.u):
            assert (x - y).max_abs_amp() < 1e-12

    def test_matches_cascade_termwise_lower_mode_nearest(self):
        # nearer the lower mode: the upper mode is dressed first, on the
        # adiabatic branch of its negative detuning, then rotated back
        with pytest.warns(ResonanceOrderWarning):
            cfg = ModeConfig(j=1, m=(0, 2), omega=(0.3 + 0.1j, 0.2 - 0.15j), delta0=0.3)
        a = two_mode_u0(cfg)
        b = undress(run_cascade(cfg))
        for x, y in zip(a.u, b.u):
            assert (x - y).max_abs_amp() < 1e-12
        assert a.hermiticity_defect() == 0.0

    def test_resonant_channel_period(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        cr = run_cascade(cfg)
        rabi2 = cr.stages[-1].rabi
        u = two_mode_u0(cfg)
        period = 2 * math.pi / rabi2
        taus = np.array([0.3, 0.9, 2.2])
        pe_a = excitation_probability(u, taus, channels=[3])
        pe_b = excitation_probability(u, taus + period, channels=[3])
        assert np.allclose(pe_a.channels[3], pe_b.channels[3], atol=1e-12)

    def test_silent_second_mode_reduces_to_dressed_single(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.0), delta0=1.0)
        u = two_mode_u0(cfg)
        taus = np.linspace(0, 4 * math.pi, 300)
        pe = excitation_probability(u, taus)
        r1 = math.sqrt(1.25)
        expect = (0.25 / 1.25) * np.sin(0.5 * r1 * taus) ** 2
        assert np.allclose(pe.values, expect, atol=1e-12)

    def test_hermiticity_exact(self):
        cfg = ModeConfig(j=2, m=(0, 3), omega=(0.4 + 0.1j, 0.3 - 0.2j), delta0=2.6)
        assert two_mode_u0(cfg).hermiticity_defect() == 0.0


class TestWeakFieldUge:
    def test_single_mode_bare_rabi(self):
        cfg = ModeConfig(j=1, m=(0,), omega=(0.1,), delta0=0.3)
        taus = np.linspace(0, 20, 50)
        got = weak_field_uge(cfg, taus)
        r = math.hypot(0.3, 0.1)
        expect = -1j * (0.1 / r) * np.sin(0.5 * r * taus)
        assert np.allclose(got, expect, atol=1e-14)

    def test_strong_coupling_warns(self):
        # the bound is 0.3x the smallest offset gap, 1 for a single mode
        taus = np.linspace(0, 1, 5)
        with pytest.warns(WeakFieldWarning):
            weak_field_uge(ModeConfig(j=1, m=(0, 1), omega=(0.5, 0.5), delta0=1.0), taus)
        with pytest.warns(WeakFieldWarning):
            weak_field_uge(ModeConfig(j=1, m=(0, 3, 4), omega=(0.35,) * 3, delta0=4.0), taus)
        with pytest.warns(WeakFieldWarning):
            weak_field_uge(ModeConfig(j=1, m=(0,), omega=(0.35,), delta0=0.0), taus)
        with warnings.catch_warnings():
            warnings.simplefilter("error", WeakFieldWarning)
            weak_field_uge(ModeConfig(j=1, m=(0, 2), omega=(0.35, 0.35), delta0=2.0), taus)

    def test_reduces_to_two_mode_at_small_coupling(self):
        om = 0.01
        cfg = ModeConfig(j=1, m=(0, 1), omega=(om, om), delta0=1.0)
        taus = np.linspace(0, 2 * math.pi / om / 4, 400)
        amp = weak_field_uge(cfg, taus)
        pe_exact = excitation_probability(two_mode_u0(cfg), taus)
        dev = np.max(np.abs(np.abs(amp) ** 2 - pe_exact.values))
        assert dev < 5e-4  # second order in coupling/spacing

    def test_second_order_deviation_scaling(self):
        # halving every coupling must shrink the error by at least 3.5x
        devs = {}
        for om in (0.1, 0.05):
            cfg = ModeConfig(j=1, m=(0, 1), omega=(om, om), delta0=1.0)
            taus = np.linspace(0, 2 * math.pi / om / 4, 400)
            amp = weak_field_uge(cfg, taus)
            pe_exact = excitation_probability(two_mode_u0(cfg), taus)
            devs[om] = np.max(np.abs(np.abs(amp) ** 2 - pe_exact.values))
        assert devs[0.05] <= devs[0.1] / 3.5

    @pytest.mark.parametrize(
        "m, delta0", [((0, 1, 3), 3.0), ((0, 1, 4, 5), 5.0)], ids=["m013", "m0145"]
    )
    def test_second_order_on_nonuniform_comb(self, m, delta0):
        # against the lattice oracle over one resonant cycle, halving every
        # coupling must shrink the deviation by at least 3.5x
        devs = {}
        for om in (0.05, 0.025):
            cfg = ModeConfig(j=1, m=m, omega=(om,) * len(m), delta0=delta0)
            taus = np.linspace(0, 2 * math.pi / om, 400)
            h, basis = build_hamiltonian(cfg, 200)
            ref = evolve(h, basis, taus)
            assert ref.valid
            amp = weak_field_uge(cfg, taus)
            devs[om] = np.max(np.abs(np.abs(amp) ** 2 - ref.pe.values))
        assert devs[0.025] <= devs[0.05] / 3.5

    def test_offsets_and_time_scale_together(self):
        # doubling offsets, detuning and couplings while halving time is exact
        cfg = ModeConfig(j=1, m=(0, 1, 3), omega=(0.04, 0.03 - 0.02j, 0.05), delta0=3.1)
        wide = ModeConfig(
            j=1, m=(0, 2, 6), omega=tuple(2 * x for x in cfg.omega), delta0=6.2
        )
        taus = np.linspace(0, 60, 101)
        assert np.array_equal(weak_field_uge(wide, taus / 2), weak_field_uge(cfg, taus))

    def test_converges_to_single_mode_as_others_vanish(self):
        taus = np.linspace(0, 30, 200)
        ref = single_mode_rabi(0.05, 0.1, taus).values
        for eps in (1e-3, 1e-5):
            cfg = ModeConfig(j=1, m=(0, 1, 2), omega=(eps, eps, 0.1), delta0=2.05)
            got = np.abs(weak_field_uge(cfg, taus)) ** 2
            assert np.max(np.abs(got - ref)) < 40 * eps

    def test_resonant_lower_mode_rejected(self):
        for m, delta0 in (((0, 1, 2), 1.0), ((0, 2, 3), 2.0)):
            with pytest.warns(ResonanceOrderWarning):
                cfg = ModeConfig(j=1, m=m, omega=(0.05,) * 3, delta0=delta0)
            with pytest.raises(ValueError, match="resonant"):
                weak_field_uge(cfg, np.linspace(0, 1, 5))

    def test_midcycle_unit_transfer_ten_modes(self):
        om = 1 / 7
        cfg = ModeConfig(j=1, m=tuple(range(10)), omega=(om,) * 10, delta0=9.0)
        taus = np.array([math.pi / om])  # half a resonant rotation
        assert abs(weak_field_uge(cfg, taus)[0]) ** 2 == pytest.approx(1.0, abs=1e-12)
