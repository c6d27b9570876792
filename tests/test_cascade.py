import cmath
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from polyrabi import cascade, cli
from polyrabi.cascade import (
    ModeConfig,
    StageParams,
    ChiExtractionError,
    DegenerateStageError,
    ResonanceOrderWarning,
    TruncatedTerm,
    stage_zero,
    stage_unitary,
    build_M,
    next_stage,
    run_cascade,
)
from polyrabi.cli import PRESETS, Experiment, preset_experiments
from polyrabi.propagator import excitation_probability, undress
from polyrabi.terms import Term, TermSum, dagger, mat_vec, sandwich

from conftest import combs, ref_cascade_chain, ref_truncation_report, termwise_dev

SQ125 = math.sqrt(1.25)


def fig1():
    return ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)


class TestModeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModeConfig(j=1, m=(1, 2), omega=(0.1, 0.1), delta0=1.0)
        with pytest.raises(ValueError):
            ModeConfig(j=1, m=(0, 2), omega=(0.1,), delta0=1.0)
        with pytest.raises(ValueError):
            ModeConfig(j=1, m=(0, 2, 2), omega=(0.1,) * 3, delta0=1.0)

    @pytest.mark.parametrize(
        "omega, delta0",
        [
            ((math.nan, 0.5), 1.0),
            ((0.5, complex(0.1, math.inf)), 1.0),
            ((0.5, 0.5), math.nan),
            ((0.5, 0.5), -math.inf),
            # finite parts whose rate overflows when doubled: one coupling's
            # modulus, two couplings, a coupling plus |delta0|
            ((complex(1e308, 1e308), 0.5), 1.0),
            ((1e308, 1e308), 1.0),
            ((1.7e308, 0.5), 1.7e308),
        ],
    )
    def test_non_finite_rejected(self, omega, delta0):
        with pytest.raises(ValueError, match="finite"):
            ModeConfig(j=1, m=(0, 2), omega=omega, delta0=delta0)

    def test_resonance_order_warning(self):
        with pytest.warns(ResonanceOrderWarning) as caught:
            ModeConfig(j=1, m=(0, 1, 2), omega=(1 / 7,) * 3, delta0=6 / 7)
        # reported at the line that built the config, not in the dataclass
        assert caught[0].filename == __file__

    def test_tie_does_not_warn(self, recwarn):
        # fig1 detuning sits exactly between both modes
        fig1()
        assert not any(isinstance(w.message, ResonanceOrderWarning) for w in recwarn)

    def test_derived(self):
        cfg = fig1()
        assert cfg.omega0 == 2.0
        assert cfg.mode_shifts == (1, 3)

    def test_dressing_order(self):
        # farthest mode first, nearest last; ties stay in offset order
        assert fig1().dressing_order == (0, 1)
        with pytest.warns(ResonanceOrderWarning):
            cfg = ModeConfig(j=1, m=(0, 1, 2), omega=(1 / 7,) * 3, delta0=6 / 7)
        assert cfg.dressing_order == (2, 0, 1)
        with pytest.warns(ResonanceOrderWarning):
            cfg = ModeConfig(j=1, m=(0, 1, 3, 4), omega=(0.1,) * 4, delta0=2.0)
        assert cfg.dressing_order == (0, 3, 1, 2)

    def test_warning_fires_exactly_when_order_changes(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            m = (0, *np.cumsum(rng.integers(1, 4, size=int(rng.integers(1, 4)))))
            delta0 = float(rng.uniform(-1.0, m[-1] + 1.0))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cfg = ModeConfig(j=1, m=m, omega=(0.1,) * len(m), delta0=delta0)
            warned = any(issubclass(w.category, ResonanceOrderWarning) for w in caught)
            assert warned == (cfg.dressing_order != tuple(range(len(m))))
            assert sorted(cfg.dressing_order) == list(range(len(m)))


class TestStageParams:
    def test_fig1_stage1(self):
        p = StageParams(k=1, detuning=1.0, chi=0.5, mode_shift=1, dm_next=2)
        assert p.rabi == pytest.approx(SQ125)
        assert p.splitting == p.rabi
        assert p.detuning_norm == pytest.approx(0.894427190999916)
        assert p.chi_norm == pytest.approx(0.4472135954999579)

    def test_invariants_random(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            chi = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            p = StageParams(
                k=1, detuning=rng.uniform(-4, 4), chi=chi, mode_shift=1, dm_next=1
            )
            if p.rabi == 0:
                continue
            assert p.rabi >= abs(p.detuning) - 1e-15
            assert p.rabi >= abs(p.chi) - 1e-15
            # on the adiabatic branch, so stage_unitary's c = sqrt((1 + dn)/2) >= sqrt(1/2)
            assert 0.0 <= p.detuning_norm <= 1.0
            assert p.detuning_norm**2 + abs(p.chi_norm) ** 2 == pytest.approx(
                1.0, abs=1e-12
            )

    def test_splitting_on_adiabatic_branch(self):
        # a negative detuning dresses onto the branch that keeps bare up on
        # dressed up: the splitting takes the detuning's sign
        p = StageParams(k=1, detuning=-1.0, chi=0.5, mode_shift=1, dm_next=2)
        assert p.rabi == pytest.approx(SQ125)
        assert p.splitting == -p.rabi
        assert p.detuning_norm == pytest.approx(1 / SQ125)
        assert p.chi_norm == pytest.approx(-0.5 / SQ125)
        # an uncoupled stage is undressed whatever its detuning
        one, zero = TermSum.single(1.0), TermSum()
        for d in (-0.7, 0.0, 0.7):
            q = StageParams(k=1, detuning=d, chi=0.0, mode_shift=1, dm_next=1)
            assert (q.detuning_norm, q.chi_norm) == (1.0, 0.0)
            assert stage_unitary(q, 0.0) == ((one, zero), (zero, one))


def random_stage(rng):
    """Stage with either sign of detuning and a complex, real or zero coupling."""
    kind = rng.integers(4)
    chi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if kind == 1:
        chi = complex(chi.real)
    elif kind >= 2:
        chi = 0j
    detuning = 0.0 if kind == 3 else rng.uniform(-2, 2)
    return StageParams(
        k=1, detuning=detuning, chi=chi, mode_shift=int(rng.integers(-3, 4)), dm_next=1
    )


class TestStageUnitary:
    def test_dresses_random_stages(self):
        # S^dag S = 1 and S^dag (detuning/2 sz + chi/2 b_s s+ + h.c.) S = splitting/2 sz,
        # over the entries (up-up, down-down, up-down, down-up)
        rng = np.random.default_rng(15)
        zero = TermSum()
        one = TermSum.single(1.0)
        for _ in range(200):
            p = random_stage(rng)
            s = stage_unitary(p, 0.0)
            conj = sandwich(dagger(s), s)
            unit = mat_vec(conj, (one, one, zero, zero))
            block = (
                TermSum.single(0.5 * p.detuning),
                TermSum.single(-0.5 * p.detuning),
                TermSum.single(0.5 * p.chi, 0.0, p.mode_shift),
                TermSum.single(0.5 * p.chi.conjugate(), 0.0, -p.mode_shift),
            )
            dressed = mat_vec(conj, block)
            expect_unit = (one, one, zero, zero)
            half = 0.5 * p.splitting
            expect_dressed = (TermSum.single(half), TermSum.single(-half), zero, zero)
            for got, expect in zip(unit + dressed, expect_unit + expect_dressed):
                assert termwise_dev(got, expect) <= 1e-15

    def test_rotation_follows_dressing(self):
        # stage_unitary(p, f) is S times exp(-i f tau sigma_z / 2)
        p = StageParams(k=1, detuning=-0.6, chi=0.3 - 0.2j, mode_shift=2, dm_next=1)
        s = stage_unitary(p, 0.0)
        w = stage_unitary(p, 3.0)
        rot = (TermSum.single(1.0, -3.0), TermSum.single(1.0, 3.0))
        for r in range(2):
            for c in range(2):
                assert w[r][c] == s[r][c] * rot[c]


class TestStageZero:
    def test_single_mode(self):
        cfg = ModeConfig(j=3, m=(0,), omega=(0.5,), delta0=1.0)
        v = stage_zero(cfg)
        assert len(v) == 2
        assert v[0] == TermSum.single(0.5)
        assert v[1] == TermSum.single(0.25, 0.0, 3)
        assert v[1].conjugate_mirror() == TermSum.single(0.25, 0.0, -3)

    def test_fig1_sigma_plus(self):
        v = stage_zero(fig1())
        assert v[1] == TermSum([Term(0.25, 0.0, 1), Term(0.25, -4.0, 3)])

    def test_all_zero_couplings(self):
        cfg = ModeConfig(j=1, m=(0, 1), omega=(0.0, 0.0), delta0=0.5)
        v = stage_zero(cfg)
        assert v[1] == TermSum()


class TestBuildM:
    def test_no_coupling_is_frame_rotation(self):
        p = StageParams(k=1, detuning=0.7, chi=0.0, mode_shift=1, dm_next=2)
        m = build_M(p)
        # rows up-up (sigma_z) and up-down (sigma_+) over the four entries
        assert [len(row) for row in m] == [4, 4]
        assert m[0][0] == TermSum.single(1.0)
        assert m[1][2] == TermSum.single(1.0, 4.0, 0)
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 3)):
            assert m[i][j].max_abs_amp() == 0.0
        # the unbuilt sigma_- row is the mirror of the sigma_+ row
        w = stage_unitary(p, p.dm_next)
        minus_row = sandwich(dagger(w), w)[3][3]
        assert minus_row == m[1][2].conjugate_mirror() == TermSum.single(1.0, -4.0, 0)

    def test_fig1_stage1_entries(self):
        p = StageParams(k=1, detuning=1.0, chi=0.5, mode_shift=1, dm_next=2)
        m = build_M(p)
        # the image of sigma_z, the up-up entry less the down-down one
        assert (m[0][0] - m[0][1]).amp_at(0.0, 0) == pytest.approx(0.894427190999916)
        t = (m[1][0] - m[1][1]).terms[0]
        assert t.amp == pytest.approx(-0.4472135954999579)
        assert t.halffreq == 4.0
        assert t.shift == 1

    def test_degenerate_stage_raises(self):
        p = StageParams(k=1, detuning=0.0, chi=0.0, mode_shift=1, dm_next=1)
        with pytest.raises(DegenerateStageError):
            build_M(p)


class TestNextStage:
    def test_fig1_recursion(self):
        cfg = fig1()
        v0 = stage_zero(cfg)
        p1 = StageParams(k=1, detuning=1.0, chi=0.5, mode_shift=1, dm_next=2)
        v1, p2 = next_stage(p1, v0, cfg)
        assert len(v1) == 2
        assert p2.detuning == pytest.approx(SQ125 - 2.0)
        assert p2.chi == pytest.approx(0.5 * 0.5 * (1 + SQ125) / SQ125)
        assert p2.rabi == pytest.approx(1.0010831353466154)

    def test_decoupled_second_mode(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.0), delta0=1.0)
        cr = run_cascade(cfg)
        assert cr.stages[1].chi == 0
        assert cr.stages[1].rabi == pytest.approx(abs(cr.stages[1].detuning))

    @pytest.mark.parametrize("tiny", [1e-15, 1e-14])
    def test_negligible_coupling_dressed_as_uncoupled(self, tiny):
        # the static term of so weak a coupling does not outlive canonicalization
        taus = np.linspace(0.0, 4.0 * math.pi, 50)
        runs = [
            run_cascade(ModeConfig(j=1, m=(0, 1), omega=(0.1, om), delta0=1.0))
            for om in (tiny, 0.0)
        ]
        assert runs[0].stages == runs[1].stages
        assert runs[0].stages[1].chi == 0
        pe = [excitation_probability(undress(cr), taus).values for cr in runs]
        assert np.array_equal(pe[0], pe[1])

    def test_missing_term_of_resolvable_coupling_raises(self, monkeypatch):
        # a coupling canonicalization keeps must leave its static term behind
        def losing(m, v):
            vz, plus = mat_vec(m, v)
            plus = TermSum(t for t in plus if not (t.shift == 2 and abs(t.halffreq) <= 1e-12))
            return vz, plus

        monkeypatch.setattr(cascade, "mat_vec", losing)
        with pytest.raises(ChiExtractionError, match="ladder shift 2"):
            run_cascade(ModeConfig(j=1, m=(0, 1), omega=(0.1, 1e-13), delta0=1.0))

    def test_resonance_condition(self):
        # choose delta0 so the first dressed splitting equals the mode gap
        m2 = 2
        om1 = 0.5
        delta0 = math.sqrt(m2**2 - om1**2)
        cfg = ModeConfig(j=1, m=(0, m2), omega=(om1, 0.3), delta0=delta0)
        cr = run_cascade(cfg)
        assert cr.stages[1].detuning == pytest.approx(0.0, abs=1e-12)

    def test_sigma_z_constant_tracks_detuning(self):
        # after each stage the static sigma_z entry must be detuning/2
        cfg = ModeConfig(j=1, m=(0, 1, 3), omega=(0.3, 0.25, 0.2), delta0=3.0)
        v = stage_zero(cfg)
        p = StageParams(k=1, detuning=3.0, chi=0.3, mode_shift=1, dm_next=1)
        for _ in range(2):
            v, p = next_stage(p, v, cfg)
            assert v[0].amp_at(0.0, 0) == pytest.approx(0.5 * p.detuning, abs=1e-12)

    def test_final_stage_has_no_next(self):
        cr = run_cascade(fig1())
        with pytest.raises(ValueError, match="cascade already complete"):
            next_stage(cr.stages[-1], cr.v_final, fig1())


class TestRunCascade:
    def test_single_mode_no_iterations(self):
        cfg = ModeConfig(j=1, m=(0,), omega=(0.5,), delta0=1.0)
        cr = run_cascade(cfg)
        assert len(cr.stages) == 1
        assert cr.stages[0].detuning == 1.0
        assert cr.stages[0].chi == 0.5
        assert cr.truncation_report == ()

    def test_first_stage_seeded_from_config(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            om = tuple(
                complex(rng.uniform(0.05, 0.5), rng.uniform(-0.3, 0.3)) for _ in range(2)
            )
            cfg = ModeConfig(j=1, m=(0, 2), omega=om, delta0=rng.uniform(1.4, 2.6))
            cr = run_cascade(cfg)
            assert cr.stages[0].detuning == cfg.delta0
            assert cr.stages[0].chi == cfg.omega[0]

    def test_coupling_scales_linearly_at_stage1(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.3, 0.2), delta0=2.0)
        lam = 1.7
        scaled = ModeConfig(j=1, m=(0, 2), omega=(0.3 * lam, 0.2 * lam), delta0=2.0)
        a, b = run_cascade(cfg), run_cascade(scaled)
        assert b.stages[0].chi == pytest.approx(lam * a.stages[0].chi)
        assert b.stages[0].detuning == a.stages[0].detuning

    def test_single_mode_dressed_values_with_silent_modes(self):
        cfg = ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.0), delta0=1.0)
        cr = run_cascade(cfg)
        assert cr.stages[0].rabi == pytest.approx(SQ125)

    def test_resonance_order_stages(self):
        with pytest.warns(ResonanceOrderWarning):
            cfg = ModeConfig(j=1, m=(0, 1, 2), omega=(1 / 7,) * 3, delta0=6 / 7)
        cr = run_cascade(cfg)
        anchor, *dressing = cr.stages
        # the frame anchor: zero coupling at the lowest mode, gap to mode m=2
        assert (anchor.k, anchor.detuning, anchor.chi) == (0, cfg.delta0, 0)
        assert (anchor.mode_shift, anchor.dm_next) == (1, 2)
        # modes m = 2, 0, 1 with signed gaps, nearest resonance last
        assert [p.k for p in dressing] == [1, 2, 3]
        assert [p.mode_shift for p in dressing] == [3, 1, 2]
        assert [p.dm_next for p in dressing] == [-2, 1, 0]
        assert dressing[0].detuning == pytest.approx(6 / 7 - 2)
        for p, q in zip(dressing, dressing[1:]):
            assert q.detuning == p.splitting - p.dm_next
        assert all(abs(p.chi) > 0.1 for p in dressing)
        assert abs(cr.stages[-1].detuning) < abs(dressing[0].detuning)

    def test_three_mode_truncation_report(self):
        cfg = ModeConfig(j=1, m=(0, 1, 2), omega=(1 / 7,) * 3, delta0=2.0)
        cr = run_cascade(cfg)
        assert cr.truncation_report
        # kept static resonant pair must not appear among dropped terms
        for entry in cr.truncation_report:
            assert not (
                entry.halffreq == 0.0
                and abs(entry.shift) == cr.stages[-1].mode_shift
                and entry.component != "sigma_z"
            )
        # relative magnitudes are measured against the kept coupling
        chi = abs(cr.stages[-1].chi)
        for entry in cr.truncation_report:
            assert entry.relative == pytest.approx(entry.magnitude / chi)


with warnings.catch_warnings():
    warnings.simplefilter("ignore", ResonanceOrderWarning)  # fig3a's 6/7 detuning
    PRESET_EXPERIMENTS = [exp for name in PRESETS for exp in preset_experiments(name)]


class TestThreeComponentReference:
    """The (sigma_z, sigma_+) cascade against the recursion that carries sigma_- too."""

    @staticmethod
    def check(cfg):
        chain = ref_cascade_chain(cfg)
        # every reference sigma_- is the mirror of its sigma_+
        for _, (_, plus, minus) in chain:
            assert minus == plus.conjugate_mirror()
        # stage by stage, bit for bit
        p, v = chain[0][0], stage_zero(cfg)
        assert v == chain[0][1][:2]
        for p_ref, v_ref in chain[1:]:
            v, p = next_stage(p, v, cfg)
            assert p == p_ref
            assert v == v_ref[:2]
        cr = run_cascade(cfg)
        assert cr.stages[-len(chain) :] == tuple(q for q, _ in chain)
        assert cr.v_final == chain[-1][1][:2]
        # the report lists sigma_z and sigma_+ once; each dropped sigma_- mirrors a sigma_+
        ref = ref_truncation_report(*chain[-1])
        assert list(cr.truncation_report) == [e for e in ref if e.component != "sigma_minus"]
        mirrored = Counter(
            (-e.halffreq, -e.shift, e.magnitude, e.relative)
            for e in ref
            if e.component == "sigma_minus"
        )
        plus = Counter(
            (e.halffreq, e.shift, e.magnitude, e.relative)
            for e in ref
            if e.component == "sigma_plus"
        )
        assert mirrored == plus

    @pytest.mark.parametrize("exp", PRESET_EXPERIMENTS, ids=lambda e: e.name)
    def test_presets(self, exp):
        self.check(exp.config)

    @settings(max_examples=150)
    @given(combs(max_modes=8))
    def test_combs(self, cfg):
        # complex couplings, j <= 0 and out-of-order dressing included
        self.check(cfg)


class TestLazyTruncationReport:
    """The truncation report is built on its first read, and by no run that does not read it."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The list of every TruncatedTerm the cascade module constructs from here on."""
        made = []

        def counting(**fields):
            made.append(TruncatedTerm(**fields))
            return made[-1]

        monkeypatch.setattr(cascade, "TruncatedTerm", counting)
        return made

    def test_cli_runs_build_none(self, built, tmp_path):
        # fig3b runs the factored chain; a Gaussian-weighted comb undresses the terms
        fig3b = next(e for e in PRESET_EXPERIMENTS if e.name == "fig3b")
        cfg = ModeConfig(
            j=1,
            m=(0, 1, 2),
            omega=(cmath.rect(0.12, 1.0), cmath.rect(0.08, 2.5), cmath.rect(0.15, -0.7)),
            delta0=2.2,
        )
        scan = Experiment(
            name="scan",
            config=cfg,
            engine="cascade",
            tau=(0.0, 4.0 * math.pi, 100),
            weights=(cmath.rect(2.0, 0.3), cmath.rect(1.5, 2.0), cmath.rect(3.0, -1.0)),
            channels=cfg.mode_shifts,
        )
        for exp in (fig3b, scan):
            cli.run(exp, tmp_path)
        assert built == []
        # both runs drop terms, so a report built eagerly would have shown
        assert all(run_cascade(exp.config).truncation_report for exp in (fig3b, scan))

    @pytest.mark.parametrize("exp", PRESET_EXPERIMENTS, ids=lambda e: e.name)
    def test_first_read_builds_the_report(self, built, exp):
        cr = run_cascade(exp.config)
        assert built == []
        report = cr.truncation_report
        ref = ref_truncation_report(*ref_cascade_chain(exp.config)[-1])
        assert list(report) == [e for e in ref if e.component != "sigma_minus"]
        assert list(report) == built
        assert cr.truncation_report is report
