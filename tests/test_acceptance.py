"""Acceptance gates for the analytic comb-drive solver.

One test per criterion; each prints a single pass/fail line with the
measured figure of merit so the suite run doubles as the acceptance report.
All tolerances are fixed here, not configurable.
"""

import math
import time
import warnings

import numpy as np
import pytest

from polyrabi.cascade import ModeConfig, StageParams, run_cascade
from polyrabi.closed_forms import single_mode_rabi, two_mode_u0, weak_field_uge
from polyrabi.oracle import build_hamiltonian, compare, evolve, verify_Sk
from polyrabi.propagator import excitation_probability, undress

from conftest import dominant_peak


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")


def _analytic(cfg, taus, channels=None):
    return excitation_probability(undress(run_cascade(cfg)), taus, channels=channels)


def _oracle(cfg, taus, halfwidth=200, channels=None):
    h, basis = build_hamiltonian(cfg, halfwidth)
    return evolve(h, basis, taus, channels=channels)


class TestCriterion1:
    def test_single_mode_exactness(self):
        t0 = time.monotonic()
        cfg = ModeConfig(j=1, m=(0,), omega=(0.5,), delta0=1.0)
        taus = np.linspace(0.0, 4.0 * math.pi, 1000)
        pe_cascade = _analytic(cfg, taus).values
        pe_closed = single_mode_rabi(1.0, 0.5, taus).values
        pe_oracle = _oracle(cfg, taus).pe.values
        dev = max(
            np.max(np.abs(pe_cascade - pe_closed)),
            np.max(np.abs(pe_cascade - pe_oracle)),
            np.max(np.abs(pe_closed - pe_oracle)),
        )
        elapsed = time.monotonic() - t0
        ok = dev <= 1e-9 and elapsed < 5.0
        _report("criterion 1", ok, f"pairwise max dev {dev:.3e}, {elapsed:.2f}s")
        assert dev <= 1e-9
        assert elapsed < 5.0


class TestCriterion2:
    def test_two_mode_termwise_equality(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(20240400)
        worst = 0.0
        for _ in range(100):
            m2 = int(rng.integers(1, 4))
            mags = rng.uniform(0.05, 0.6, size=2)
            phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
            omega = tuple(m * np.exp(1j * p) for m, p in zip(mags, phases))
            delta0 = float(rng.uniform(m2 - 0.45, m2 + 0.45))
            j = int(rng.integers(-1, 3))
            cfg = ModeConfig(j=j, m=(0, m2), omega=omega, delta0=delta0)
            a = undress(run_cascade(cfg))
            b = two_mode_u0(cfg)
            for x, y in zip(a.u, b.u):
                worst = max(worst, (x - y).max_abs_amp())
        elapsed = time.monotonic() - t0
        ok = worst <= 1e-12 and elapsed < 10.0
        _report("criterion 2", ok, f"worst termwise dev {worst:.3e}, {elapsed:.2f}s")
        assert worst <= 1e-12
        assert elapsed < 10.0


class TestCriterion3:
    def test_fig1_reproduction(self):
        t0 = time.monotonic()
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        taus = np.linspace(0.0, 4.0 * math.pi, 1000)
        channels = [1, 3, -1]
        analytic = _analytic(cfg, taus, channels=channels)
        reference = _oracle(cfg, taus, 200, channels=channels)
        rep = compare(analytic, reference.pe)
        oracle_peak = float(np.max(reference.pe.channels[-1]))
        analytic_peak = float(np.max(analytic.channels[-1]))
        elapsed = time.monotonic() - t0
        ok = (
            rep.max_abs <= 2e-2
            and rep.rms <= 1e-2
            and oracle_peak <= 5e-4
            and oracle_peak / 2 <= analytic_peak <= 2 * oracle_peak
            and elapsed < 30.0
        )
        _report(
            "criterion 3",
            ok,
            f"max {rep.max_abs:.3e} rms {rep.rms:.3e} "
            f"offres peak oracle {oracle_peak:.2e} analytic {analytic_peak:.2e}, "
            f"{elapsed:.1f}s",
        )
        assert rep.max_abs <= 2e-2
        assert rep.rms <= 1e-2
        assert oracle_peak <= 5e-4
        assert oracle_peak / 2 <= analytic_peak <= 2 * oracle_peak
        assert elapsed < 30.0


FIG3A_DETUNINGS = (2.0, 13.0 / 7.0, 6.0 / 7.0)


class TestCriterion4:
    @pytest.mark.parametrize("delta0", FIG3A_DETUNINGS)
    def test_fig3a_deviation(self, delta0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ModeConfig(j=1, m=(0, 1, 2), omega=(1 / 7,) * 3, delta0=delta0)
        taus = np.linspace(0.0, 4.0 * math.pi, 1000)
        rep = compare(_analytic(cfg, taus), _oracle(cfg, taus).pe)
        ok = rep.max_abs <= 5e-3
        _report(
            "criterion 4", ok, f"delta0={delta0:.4f} max dev {rep.max_abs:.3e}"
        )
        assert rep.max_abs <= 5e-3

    def test_fig3a_dominant_fourier_peak(self):
        cfg = ModeConfig(j=1, m=(0, 1, 2), omega=(1 / 7,) * 3, delta0=2.0)
        cr = run_cascade(cfg)
        rabi = cr.stages[-1].rabi
        taus = np.linspace(0.0, 20.0 * 2.0 * math.pi / rabi, 4000)
        pe = excitation_probability(undress(cr), taus)
        peak, width = dominant_peak(taus, pe.values)
        ok = abs(peak - rabi) <= width
        _report(
            "criterion 4 (peak)",
            ok,
            f"fourier peak {peak:.5f} vs final rabi {rabi:.5f} (bin {width:.5f})",
        )
        assert abs(peak - rabi) <= width


class TestCriterion5:
    def test_weak_field_scaling(self):
        couplings = (1 / 7, 1 / 11, 1 / 15)
        devs = {}
        peaks = {}
        for om in couplings:
            cfg = ModeConfig(j=1, m=tuple(range(10)), omega=(om,) * 10, delta0=9.0)
            taus = np.linspace(0.0, 2.0 * math.pi / om, 1000)
            amp = weak_field_uge(cfg, taus)
            run = _oracle(cfg, taus)
            assert run.valid
            devs[om] = float(np.max(np.abs(np.abs(amp) ** 2 - run.pe.values)))
            peaks[om] = (float(np.max(run.pe.values)), float(np.max(np.abs(amp) ** 2)))
        monotone = devs[1 / 7] > devs[1 / 11] > devs[1 / 15]
        ratio = devs[1 / 15] / devs[1 / 7]
        gate = (7.0 / 15.0) ** 2 * 2.0
        midcycle = peaks[1 / 7][0] >= 0.99 and peaks[1 / 7][1] >= 0.99
        ok = monotone and ratio <= gate and midcycle
        _report(
            "criterion 5",
            ok,
            f"devs {devs[1/7]:.3e}/{devs[1/11]:.3e}/{devs[1/15]:.3e} "
            f"ratio {ratio:.3f} (<= {gate:.3f}) midcycle peaks "
            f"{peaks[1/7][0]:.4f}/{peaks[1/7][1]:.4f}",
        )
        assert monotone
        assert ratio <= gate
        assert midcycle


class TestCriterion6:
    def test_dressing_unitary_residuals(self):
        rng = np.random.default_rng(61803)
        worst_unit = 0.0
        worst_diag = 0.0
        for _ in range(200):
            mag = float(rng.uniform(0.05, 2.0))
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            p = StageParams(
                k=1,
                detuning=float(rng.uniform(-3.0, 3.0)),
                chi=mag * complex(math.cos(phase), math.sin(phase)),
                mode_shift=int(rng.choice([-3, -2, -1, 1, 2, 3])),
                dm_next=1,
            )
            rep = verify_Sk(p, 40)
            worst_unit = max(worst_unit, rep.unitarity_defect)
            worst_diag = max(worst_diag, rep.diag_residual)
        ok = worst_unit <= 1e-10 and worst_diag <= 1e-10
        _report(
            "criterion 6", ok, f"unitarity {worst_unit:.2e} diagonalization {worst_diag:.2e}"
        )
        assert worst_unit <= 1e-10
        assert worst_diag <= 1e-10


class TestCriterion7:
    def test_beyond_rwa_symmetric_modes(self):
        cfg = ModeConfig(j=-1, m=(0, 2), omega=(0.5, 0.5), delta0=2.0)
        taus = np.linspace(0.0, 4.0 * math.pi, 1000)
        rep = compare(_analytic(cfg, taus), _oracle(cfg, taus).pe)
        ok = rep.max_abs <= 2e-2
        _report("criterion 7", ok, f"max dev {rep.max_abs:.3e}")
        assert rep.max_abs <= 2e-2


class TestCriterion8:
    def test_invariance_suite(self):
        taus = np.linspace(0.0, 4.0 * math.pi, 600)

        # shipped presets at desk scale
        fig1 = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        fig3a = ModeConfig(j=1, m=(0, 1, 2), omega=(1 / 7,) * 3, delta0=2.0)
        fig3b = ModeConfig(j=1, m=tuple(range(10)), omega=(1 / 7,) * 10, delta0=9.0)

        # lattice anchor invariance: same detuning, shifted base index
        fig1_j2 = ModeConfig(j=2, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)
        run_j1 = _oracle(fig1, taus)
        run_j2 = _oracle(fig1_j2, taus)
        j_dev = float(np.max(np.abs(run_j1.pe.values - run_j2.pe.values)))

        # truncation stability and norm conservation per preset
        w_dev = 0.0
        norm_defect = max(run_j1.norm_defect, run_j2.norm_defect)
        for cfg in (fig1, fig3a, fig3b):
            grid = taus if cfg is not fig3b else np.linspace(0.0, 14.0 * math.pi, 600)
            a = _oracle(cfg, grid, 200)
            b = _oracle(cfg, grid, 250)
            w_dev = max(w_dev, float(np.max(np.abs(a.pe.values - b.pe.values))))
            norm_defect = max(norm_defect, a.norm_defect, b.norm_defect)

        # analytic structure: exact zero at tau=0 and exact hermitian mirror
        zero_exact = True
        mirror_exact = True
        for cfg in (fig1, fig3a, fig3b):
            u0 = undress(run_cascade(cfg))
            pe = excitation_probability(u0, np.linspace(0.0, 1.0, 3))
            zero_exact = zero_exact and pe.values[0] == 0.0
            mirror_exact = mirror_exact and u0.hermiticity_defect() == 0.0

        ok = (
            j_dev <= 1e-8
            and w_dev <= 1e-8
            and norm_defect <= 1e-10
            and zero_exact
            and mirror_exact
        )
        _report(
            "criterion 8",
            ok,
            f"j-shift {j_dev:.2e} truncation {w_dev:.2e} norm {norm_defect:.2e} "
            f"Pe(0)==0 {zero_exact} mirror exact {mirror_exact}",
        )
        assert j_dev <= 1e-8
        assert w_dev <= 1e-8
        assert norm_defect <= 1e-10
        assert zero_exact
        assert mirror_exact
