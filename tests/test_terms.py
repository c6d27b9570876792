import math

import numpy as np
import pytest

from polyrabi.terms import (
    Term,
    TermSum,
    UntracedShiftError,
    term_mul,
    dagger,
    mat_vec,
    sandwich,
)


def random_term(rng):
    amp = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return Term(amp, rng.choice([-4.0, -1.5, 0.0, 0.25, 2.0]), int(rng.integers(-3, 4)))


def random_sum(rng, n=6):
    return TermSum(random_term(rng) for _ in range(n))


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


class TestEvaluate:
    def test_constant(self):
        assert TermSum.constant(1.0).evaluate(3.7) == 1.0

    def test_cosine_identity(self):
        ts = TermSum([Term(0.5, 2.0, 0), Term(0.5, -2.0, 0)])
        assert ts.evaluate(math.pi) == pytest.approx(-1.0)
        assert ts.evaluate(0.0) == pytest.approx(1.0)

    def test_single_exponential(self):
        rabi = 1.0011
        ts = TermSum.single(-0.4736j, rabi, 0)
        got = ts.evaluate(math.pi / rabi)
        assert got == pytest.approx(-0.4736j * np.exp(0.5j * math.pi))

    def test_shift_raises(self):
        ts = TermSum.single(1.0, 0.0, 2)
        with pytest.raises(UntracedShiftError):
            ts.evaluate(0.1)
        with pytest.raises(UntracedShiftError):
            ts.evaluate_many(np.array([0.0, 0.1]))

    def test_linearity_after_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a, b = random_sum(rng), random_sum(rng)
            tau = rng.uniform(0, 10)
            lhs = (a + b).field_trace().evaluate(tau)
            rhs = a.field_trace().evaluate(tau) + b.field_trace().evaluate(tau)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_evaluate_many_matches_scalar(self):
        rng = np.random.default_rng(4)
        ts = random_sum(rng, 8).field_trace()
        taus = np.linspace(0, 7, 13)
        many = ts.evaluate_many(taus)
        for t, v in zip(taus, many):
            assert v == ts.evaluate(t)


class TestFieldTrace:
    def test_shifts_collapse_and_merge(self):
        ts = TermSum([Term(0.3, 0.0, 5), Term(0.2, 0.0, -3)])
        assert ts.field_trace().terms == (Term(0.5, 0.0, 0),)

    def test_empty(self):
        assert TermSum.zero().field_trace() == TermSum.zero()

    def test_commutes_with_addition(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = random_sum(rng), random_sum(rng)
            lhs = (a + b).field_trace()
            rhs = TermSum((a.field_trace() + b.field_trace()).terms)
            assert (lhs - rhs).max_abs_amp() < 1e-13


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
        total = TermSum.zero()
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


def random_mat2(rng, n=2, shifts=True):
    def entry():
        ts = 0.25 * random_sum(rng, n)  # entries of order one
        return ts if shifts else ts.field_trace()

    return tuple(tuple(entry() for _ in range(2)) for _ in range(2))


# (1, sigma_z, sigma_+, sigma_-) over rows and columns (up, down)
PAULI = (
    np.eye(2),
    np.diag([1.0, -1.0]),
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.array([[0.0, 0.0], [1.0, 0.0]]),
)


def numeric(m, tau):
    return np.array([[e.evaluate(tau) for e in row] for row in m])


class TestSandwich:
    def test_matches_numpy(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = random_mat2(rng, shifts=False)
            b = random_mat2(rng, shifts=False)
            x = tuple(random_sum(rng, 3).field_trace() for _ in range(4))
            y = mat_vec(sandwich(a, b), x)
            for tau in rng.uniform(0, 10, size=3):
                xm = sum(c.evaluate(tau) * e for c, e in zip(x, PAULI))
                ym = sum(c.evaluate(tau) * e for c, e in zip(y, PAULI))
                expect = numeric(a, tau) @ xm @ numeric(b, tau)
                assert np.max(np.abs(ym - expect)) < 1e-13

    def test_dagger_is_adjoint(self):
        rng = np.random.default_rng(13)
        a = random_mat2(rng, shifts=False)
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
