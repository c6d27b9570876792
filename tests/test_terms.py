import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyrabi import cli, run_cascade, undress
from polyrabi.terms import (
    AMP_DROP_TOL,
    Term,
    TermSum,
    _unit_gaps,
    dagger,
    mat_vec,
    sandwich,
)

from conftest import (
    assert_traced,
    bits,
    ref_canonical,
    ref_mat_vec_row,
    ref_products,
    ref_sandwich_entry,
    term_bits,
    termwise_dev,
)


def random_term(rng):
    amp = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return Term(amp, rng.choice([-4.0, -1.5, 0.0, 0.25, 2.0]), int(rng.integers(-3, 4)))


def random_sum(rng, n=6):
    return TermSum(random_term(rng) for _ in range(n))


def at(ts, tau):
    return ts.trace(np.array([tau]))[0][0]


def term_mul(a, b):
    """The one term of the product of two single-term sums."""
    (t,) = (TermSum.single(*a) * TermSum.single(*b)).terms
    return t


class TestTermMul:
    def test_identity_element(self):
        one = Term(1.0, 0.0, 0)
        t = Term(0.3 - 0.1j, 2.5, -1)
        assert term_mul(one, t) == t
        assert term_mul(t, one) == t

    def test_inverse_pair(self):
        a = Term(1.0, -4.0, 2)
        b = Term(1.0, 4.0, -2)
        assert term_mul(a, b) == Term(1.0, 0.0, 0)

    def test_componentwise_rule(self):
        got = term_mul(Term(0.5, -4.0, 2), Term(0.9472, 2.0, 0))
        assert got.amp == pytest.approx(0.4736)
        assert got.halffreq == -2.0
        assert got.shift == 2

    def test_associative_commutative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c = (random_term(rng) for _ in range(3))
            ab_c = term_mul(term_mul(a, b), c)
            a_bc = term_mul(a, term_mul(b, c))
            assert abs(ab_c.amp - a_bc.amp) < 1e-12
            assert ab_c.halffreq == pytest.approx(a_bc.halffreq, abs=1e-12)
            assert ab_c.shift == a_bc.shift
            assert term_mul(a, b).shift == term_mul(b, a).shift
            assert abs(term_mul(a, b).amp - term_mul(b, a).amp) < 1e-12


class TestCanonicalize:
    def test_like_terms_merge(self):
        ts = TermSum([Term(0.3, 0.0, 1), Term(0.2, 0.0, 1)])
        assert ts.terms == (Term(0.5, 0.0, 1),)

    def test_cancellation(self):
        ts = TermSum([Term(0.5, 0.0, 1), Term(-0.5, 0.0, 1)])
        assert ts.terms == ()

    def test_freq_merge_tolerance(self):
        ts = TermSum([Term(1.0, 1.0, 0), Term(1.0, 1.0 + 1e-15, 0)])
        assert len(ts) == 1
        assert ts.terms[0].amp == 2.0
        assert ts.terms[0].halffreq == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ts = random_sum(rng, 10)
            assert TermSum(ts.terms) == ts

    def test_drop_threshold(self):
        ts = TermSum([Term(1e-15, 0.0, 0), Term(1.0, 2.0, 0)])
        assert len(ts) == 1

    def test_termwise_dev_sees_residues_below_threshold(self):
        # a canonicalized difference drops the residue; the helper keeps it
        a = TermSum([Term(0.25, 1.5, 2), Term(0.5, -1.0, 0)])
        b = TermSum([Term(0.25 + 5e-15, 1.5, 2), Term(0.5, -1.0, 0)])
        assert (a - b).max_abs_amp() == 0.0
        assert termwise_dev(a, b) == pytest.approx(5e-15, rel=1e-2)
        assert termwise_dev(b, a) == termwise_dev(a, b)
        assert termwise_dev(a, TermSum()) == 0.5


class TestEvaluate:
    def test_constant(self):
        assert at(TermSum.single(1.0), 3.7) == 1.0

    def test_cosine_identity(self):
        ts = TermSum([Term(0.5, 2.0, 0), Term(0.5, -2.0, 0)])
        assert at(ts, math.pi) == pytest.approx(-1.0)
        assert at(ts, 0.0) == pytest.approx(1.0)

    def test_single_exponential(self):
        rabi = 1.0011
        ts = TermSum.single(-0.4736j, rabi, 0)
        got = at(ts, math.pi / rabi)
        assert got == pytest.approx(-0.4736j * np.exp(0.5j * math.pi))

    def test_linearity_after_trace(self):
        rng = np.random.default_rng(3)
        taus = rng.uniform(0, 10, size=30)
        for _ in range(30):
            a = random_sum(rng)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = (c * a).trace(taus)[0]
            assert np.allclose(lhs, c * a.trace(taus)[0], rtol=0, atol=1e-12)

    def test_evaluate_many_matches_scalar(self):
        # each point is summed on its own, whatever grid it sits in
        rng = np.random.default_rng(4)
        ts = random_sum(rng, 8)
        taus = np.linspace(0, 7, 13)
        many = ts.trace(taus)[0]
        for t, v in zip(taus, many):
            assert v == at(ts, t)
        # and so is each point of every shift row
        rows = ts.trace(taus)[2]
        for t, v in zip(taus, rows.T):
            assert np.array_equal(v, ts.trace(np.array([t]))[2][:, 0])


class TestFieldTrace:
    def test_shifts_collapse_and_merge(self):
        ts = TermSum([Term(0.3, 0.0, 5), Term(0.2, 0.0, -3)])
        taus = np.array([0.0, 1.3, 4.0])
        assert np.array_equal(ts.trace(taus)[0], np.full(3, 0.5 + 0j))

    def test_empty(self):
        got = TermSum().trace(np.linspace(0, 1, 4))[0]
        assert got.dtype == complex and np.array_equal(got, np.zeros(4))

    def test_commutes_with_addition(self):
        rng = np.random.default_rng(5)
        taus = rng.uniform(0, 10, size=20)
        for _ in range(50):
            a, b = random_sum(rng), random_sum(rng)
            lhs = (a + b).trace(taus)[0]
            rhs = a.trace(taus)[0] + b.trace(taus)[0]
            assert np.allclose(lhs, rhs, rtol=0, atol=1e-13)


class TestTraceByShift:
    def test_rows_equal_fsum_of_each_group(self):
        # exactly at tau = 0, within a few ulps per term elsewhere
        rng = np.random.default_rng(11)
        taus = np.linspace(0, 9, 41)
        for n in (1, 2, 6, 25):
            ts = random_sum(rng, n)
            # a group that cancels exactly at tau = 0
            ts = ts + TermSum([Term(0.3 - 0.2j, 1.5, 7), Term(-0.3 + 0.2j, -2.5, 7)])
            total, shifts, rows = ts.trace(taus)
            groups = ts.by_shift()
            assert shifts == ts.shifts()
            for s, row in zip(shifts, rows):
                assert_traced(groups[s], taus, row)
                assert np.array_equal(row, groups[s].trace(taus)[0])
            assert np.array_equal(total, ts.trace(taus)[0])
            assert_traced(ts, taus, total)
            assert rows[shifts.index(7)][0] == 0.0

    def test_empty(self):
        total, shifts, rows = TermSum().trace(np.linspace(0, 1, 4))
        assert np.array_equal(total, np.zeros(4)) and total.dtype == complex
        assert shifts == () and rows.shape == (0, 4) and rows.dtype == complex


class TestStructure:
    def test_conjugate_mirror_involution(self):
        rng = np.random.default_rng(6)
        ts = random_sum(rng, 9)
        assert ts.conjugate_mirror().conjugate_mirror() == ts

    def test_mirror_of_product(self):
        rng = np.random.default_rng(7)
        a, b = random_sum(rng, 4), random_sum(rng, 4)
        assert (a * b).conjugate_mirror() == a.conjugate_mirror() * b.conjugate_mirror()

    def test_by_shift_partitions(self):
        rng = np.random.default_rng(8)
        ts = random_sum(rng, 12)
        groups = ts.by_shift()
        total = TermSum()
        for g in groups.values():
            total = total + g
        assert total == ts

    def test_mat_vec_distributes(self):
        rng = np.random.default_rng(9)
        m = tuple(tuple(random_sum(rng, 2) for _ in range(3)) for _ in range(3))
        v = tuple(random_sum(rng, 2) for _ in range(3))
        w = tuple(random_sum(rng, 2) for _ in range(3))
        left = mat_vec(m, tuple(a + b for a, b in zip(v, w)))
        right = tuple(a + b for a, b in zip(mat_vec(m, v), mat_vec(m, w)))
        for x, y in zip(left, right):
            assert (x - y).max_abs_amp() < 1e-12


def mat2(a, b):
    """Product of two 2x2 matrices over TermSum entries."""
    return tuple(
        tuple(a[r][0] * b[0][c] + a[r][1] * b[1][c] for c in range(2)) for r in range(2)
    )


def random_mat2(rng, n=2):
    # entries of order one
    return tuple(tuple(0.25 * random_sum(rng, n) for _ in range(2)) for _ in range(2))


# the unit matrices at the entries up-up, down-down, up-down and down-up
UNITS = tuple(np.outer(np.eye(2)[r], np.eye(2)[c]) for r, c in ((0, 0), (1, 1), (0, 1), (1, 0)))


def numeric(m, tau):
    return np.array([[at(e, tau) for e in row] for row in m])


class TestSandwich:
    def test_matches_numpy(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            # evaluation reads every shift as unity, so it commutes with products
            a = random_mat2(rng)
            b = random_mat2(rng)
            x = tuple(random_sum(rng, 3) for _ in range(4))
            y = mat_vec(sandwich(a, b), x)
            for tau in rng.uniform(0, 10, size=3):
                xm = sum(at(c, tau) * e for c, e in zip(x, UNITS))
                ym = sum(at(c, tau) * e for c, e in zip(y, UNITS))
                expect = numeric(a, tau) @ xm @ numeric(b, tau)
                assert np.max(np.abs(ym - expect)) < 1e-13

    def test_dagger_is_adjoint(self):
        rng = np.random.default_rng(13)
        a = random_mat2(rng)
        assert dagger(dagger(a)) == a
        tau = 1.7
        assert np.array_equal(numeric(dagger(a), tau), numeric(a, tau).conj().T)

    def test_composes(self):
        # a1.(a2.X.b2).b1 is (a1.a2).X.(b2.b1), ladder shifts included
        rng = np.random.default_rng(10)
        a1, a2, b1, b2 = (random_mat2(rng) for _ in range(4))
        x = tuple(random_sum(rng, 2) for _ in range(4))
        left = mat_vec(sandwich(a1, b1), mat_vec(sandwich(a2, b2), x))
        right = mat_vec(sandwich(mat2(a1, a2), mat2(b2, b1)), x)
        for p, q in zip(left, right):
            assert (p - q).max_abs_amp() < 1e-10


# Raw terms that stress the merge: amplitudes that cancel exactly, sit at the
# drop threshold or carry signed-zero parts, full-mantissa amplitudes whose
# products a fused multiply-add rounds differently, and half-frequencies in
# runs 4e-13 apart, so a run inside FREQ_MERGE_TOL and one spanning it (and
# 0.0 next to -0.0) both occur.
AMPS = st.one_of(
    st.sampled_from(
        [
            0.5 + 0j,
            -0.5 + 0j,
            0.25 + 0.75j,
            -0.25 - 0.75j,
            complex(AMP_DROP_TOL, 0.0),
            complex(0.0, -AMP_DROP_TOL),
            complex(math.nextafter(AMP_DROP_TOL, 1.0), 0.0),
            complex(0.5 * AMP_DROP_TOL, 0.5 * AMP_DROP_TOL),
            complex(0.0, 1.5),
            complex(-0.0, 1.5),
            complex(1.5, -0.0),
            complex(-0.0, -0.0),
        ]
    ),
    st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
)
FREQS = st.sampled_from([-0.0] + [b + k * 4e-13 for b in (0.0, 1.0, -2.5) for k in range(6)])
RAW = st.lists(st.tuples(AMPS, FREQS, st.integers(-2, 2)), max_size=24)
SUMS = RAW.map(TermSum)
SMALL_SUMS = st.lists(st.tuples(AMPS, FREQS, st.integers(-2, 2)), max_size=3).map(TermSum)


def assert_matches(ts, ref):
    assert term_bits(ts.terms) == term_bits(ref)


class TestMatchesReference:
    """The array algebra equals the one-term-at-a-time reference, bit for bit."""

    @settings(max_examples=300)
    @given(RAW)
    def test_canonical(self, raw):
        assert_matches(TermSum(raw), ref_canonical(raw))

    @settings(max_examples=200)
    @given(SUMS, SUMS)
    def test_sum_and_difference(self, a, b):
        assert_matches(a + b, ref_canonical([*a.terms, *b.terms]))
        minus_b = [(-t.amp, t.halffreq, t.shift) for t in b.terms]
        assert_matches(-b, ref_canonical(minus_b))
        assert_matches(a - b, ref_canonical([*a.terms, *ref_canonical(minus_b)]))

    @settings(max_examples=200)
    @given(SUMS, SUMS, AMPS)
    def test_products(self, a, b, c):
        assert_matches(a * b, ref_canonical(ref_products(a.terms, b.terms)))
        assert_matches(a * c, ref_canonical([(t.amp * c, t.halffreq, t.shift) for t in a.terms]))
        two = complex(2)  # a real scale multiplies as a complex number
        assert_matches(2 * a, ref_canonical([(t.amp * two, t.halffreq, t.shift) for t in a.terms]))

    @settings(max_examples=200)
    @given(SUMS)
    def test_mirror(self, a):
        mirror = [(t.amp.conjugate(), -t.halffreq, -t.shift) for t in a.terms]
        assert_matches(a.conjugate_mirror(), ref_canonical(mirror))

    @settings(max_examples=100)
    @given(st.lists(SMALL_SUMS, min_size=16, max_size=16), st.lists(SUMS, min_size=4, max_size=4))
    def test_mat_vec(self, entries, v):
        m = tuple(tuple(entries[4 * r : 4 * r + 4]) for r in range(4))
        for row, got in zip(m, mat_vec(m, tuple(v))):
            assert_matches(got, ref_mat_vec_row(row, v))
        m3 = tuple(row[:3] for row in m[:3])
        for row, got in zip(m3, mat_vec(m3, tuple(v[:3]))):
            assert_matches(got, ref_mat_vec_row(row, v[:3]))

    @settings(max_examples=100)
    @given(st.lists(SMALL_SUMS, min_size=8, max_size=8))
    def test_sandwich(self, entries):
        a = ((entries[0], entries[1]), (entries[2], entries[3]))
        b = ((entries[4], entries[5]), (entries[6], entries[7]))
        t = sandwich(a, b)
        for i in range(4):
            for j in range(4):
                assert_matches(t[i][j], ref_sandwich_entry(a, b, i, j))

    @pytest.mark.parametrize("seed", range(6))
    def test_many_groups(self, seed):
        # hundreds of merged groups, each summed by math.fsum
        rng = np.random.default_rng(seed)
        n = 800
        amp = rng.normal(size=n) + 1j * rng.normal(size=n)
        amp[n // 2 :] = -amp[: n // 2]  # every other pair cancels where it meets
        freq = rng.choice([0.0, 4e-13, 8e-13, 1.2e-12, 1.6e-12, 2.0], size=n)
        shift = rng.integers(-60, 60, size=n)
        raw = list(zip(amp.tolist(), freq.tolist(), shift.tolist()))
        assert_matches(TermSum(raw), ref_canonical(raw))
        a, b = TermSum(raw[:300]), TermSum(raw[300:340])
        assert_matches(a * b, ref_canonical(ref_products(a.terms, b.terms)))
        row = (a, b, b)
        v = (b, a, TermSum.single(0.5))
        assert_matches(mat_vec((row,), v)[0], ref_mat_vec_row(row, v))

    def test_products_round_as_python(self):
        # numpy's complex multiply may fuse multiply and add; the algebra must not
        rng = np.random.default_rng(14)
        amps = (rng.uniform(-2, 2, 4000) + 1j * rng.uniform(-2, 2, 4000)).tolist()
        a = TermSum(Term(x, 0.0, k) for k, x in enumerate(amps))
        for c in (rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8)).tolist():
            got = (a * TermSum.single(c)).terms
            assert term_bits(got) == term_bits([Term(x * c, 0.0, k) for k, x in enumerate(amps)])


def benchmark_experiments(group):
    """Every preset, the benchmark's coherent scans for seeds 0 and 1, or its N-sweep."""
    if group == "presets":
        return [e for p in cli.PRESETS for e in cli.preset_experiments(p)]
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    if not hasattr(workloads, "coherent_scan"):
        spec.loader.exec_module(workloads)  # its dataclasses look their module up by name
    if group == "sweep":
        return workloads.comb_experiments((4, 8, 12, 16, 20), False)
    return workloads.coherent_scan(int(group.removeprefix("scan")), False).experiments


def per_term_gaps(ts, taus):
    """exp(i*halffreq*tau/2) - 1 with one ``sin`` pair per term, in the same operation order."""
    theta = 0.5 * np.multiply.outer(ts.halffreq, taus)
    return -2.0 * np.sin(0.5 * theta) ** 2, np.sin(theta)


class TestFrequencyTable:
    # Computing the factor once per distinct half-frequency must leave every
    # term's factor bits as a per-term table gives them; that holds per
    # element only if numpy's sin returns the same bits wherever an input
    # sits in an array, which also makes each point independent of its grid.
    @pytest.mark.filterwarnings("ignore::UserWarning")  # fig3a's 6/7 detuning
    @pytest.mark.parametrize("group", ["presets", "scan0", "scan1", "sweep"])
    def test_factor_bits_equal_per_term_sin(self, group):
        gathered = False
        for exp in benchmark_experiments(group):
            plus = undress(run_cascade(exp.config)).sigma_plus
            taus = exp.taugrid()
            freqs, col = np.unique(plus.halffreq, return_inverse=True)
            for got, want in zip(_unit_gaps(freqs, taus), per_term_gaps(plus, taus)):
                assert np.array_equal(bits(got[col]), bits(want)), exp.name
            gathered |= len(freqs) < len(plus)
        assert gathered

    def test_zero_at_tau_zero(self):
        freqs = np.array([-3.5, -0.0, 0.0, 0.25, 7.0])
        re, im = _unit_gaps(freqs, np.array([0.0, 1.0]))
        assert bits(re[:, 0]).tolist() == bits(np.full(5, -0.0)).tolist()
        assert not im[:, 0].any()
        assert np.allclose(re[:, 1] + 1j * im[:, 1], np.expm1(0.5j * freqs), rtol=0, atol=1e-15)
