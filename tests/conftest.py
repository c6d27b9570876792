import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from polyrabi import ModeConfig, ResonanceOrderWarning, build_hamiltonian, evolve
from polyrabi.cascade import StageParams, TruncatedTerm, stage_unitary
from polyrabi.terms import AMP_DROP_TOL, FREQ_MERGE_TOL, Term, TermSum, dagger, mat_vec, sandwich

# Every property test runs a fixed set of examples with no deadline, so a run
# repeats exactly and a slow shared host cannot time it out.
settings.register_profile("polyrabi", derandomize=True, deadline=None)
settings.load_profile("polyrabi")


@st.composite
def combs(draw, max_modes=4):
    """Combs of 1 to ``max_modes`` modes, j in -2..2, real or complex couplings, any dressing order."""
    n = draw(st.integers(1, max_modes))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
    m = tuple(itertools.accumulate(gaps, initial=0))
    part = st.floats(-0.5, 0.5, allow_subnormal=False)
    omega = []
    for _ in range(n):
        re = draw(part.filter(lambda x: abs(x) >= 0.05))
        im = draw(st.one_of(st.just(0.0), part))
        omega.append(complex(re, im))
    delta0 = draw(st.floats(-2.0, m[-1] + 2.0, allow_subnormal=False))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResonanceOrderWarning)
        return ModeConfig(j=draw(st.integers(-2, 2)), m=m, omega=tuple(omega), delta0=delta0)


@pytest.fixture(scope="session")
def fig1_cfg():
    return ModeConfig(j=1, m=(0, 2), omega=(0.5, 0.5), delta0=1.0)


@pytest.fixture(scope="session")
def taus_4pi():
    return np.linspace(0.0, 4.0 * math.pi, 1000)


@pytest.fixture(scope="session")
def fig1_oracle(fig1_cfg, taus_4pi):
    h, basis = build_hamiltonian(fig1_cfg, 200)
    return evolve(h, basis, taus_4pi, channels=[1, 3, -1])


def dominant_peak(tau, values):
    """Angular frequency of the largest nonzero-frequency Fourier line."""
    spec = np.abs(np.fft.rfft(values - np.mean(values)))
    k = int(np.argmax(spec[1:])) + 1
    width = 2.0 * math.pi / (tau[-1] - tau[0])
    return k * width, width


def termwise_dev(a, b):
    """Largest |amplitude difference| over the keys of either TermSum.

    Reads the stored amplitudes directly, so residues below the drop
    threshold of a canonicalized difference still count.
    """
    keys = {(t.halffreq, t.shift) for t in (*a, *b)}
    return max((abs(a.amp_at(f, s) - b.amp_at(f, s)) for f, s in keys), default=0.0)


def fsum_trace(ts, taus):
    """Reference trace: each point's addends ``amp * exp(i*halffreq*tau/2)`` summed by ``math.fsum``.

    The sum is correctly rounded from the addends, one ``exp`` per term.
    """
    amps = np.array([t.amp for t in ts])
    freqs = np.array([t.halffreq for t in ts])
    contrib = amps[None, :] * np.exp(0.5j * np.outer(taus, freqs))
    return np.array(
        [complex(math.fsum(r), math.fsum(i)) for r, i in zip(contrib.real, contrib.imag)],
        dtype=complex,
    ).reshape(len(taus))


def assert_traced(ts, taus, got):
    """``got`` is ``ts`` traced on ``taus`` within the evaluation's contract.

    Where tau == 0 it is the ``math.fsum`` of the amplitudes, bit for bit;
    elsewhere it lies within 4 (n + 2) eps sum|amp| of :func:`fsum_trace`,
    n the term count.
    """
    taus = np.asarray(taus, dtype=float)
    zero = taus == 0.0
    at_zero = complex(math.fsum(ts.amp.real), math.fsum(ts.amp.imag))
    assert np.array_equal(bits(got[zero]), bits(np.full(np.count_nonzero(zero), at_zero)))
    bound = 4 * (len(ts) + 2) * np.finfo(float).eps * float(np.sum(np.abs(ts.amp)))
    assert np.max(np.abs(got - fsum_trace(ts, taus)), initial=0.0) <= bound


def bits(x):
    """The float64 bit patterns of a real or complex array, for exact comparison."""
    return np.ascontiguousarray(x).view(np.int64)


# -- a pure-Python reference for the term algebra's merge ----------------------

# The (row, col) over (up, down) of each entry of a 2x2 operator, in the
# order the algebra holds them: up-up, down-down, up-down, down-up.
ENTRIES = ((0, 0), (1, 1), (0, 1), (1, 0))


def ref_canonical(raw):
    """Canonical terms of a raw (amp, halffreq, shift) list, one term at a time.

    Stable sort by (shift, halffreq); a group runs while the shift is equal
    and the half-frequency within FREQ_MERGE_TOL of the group's first, which
    keeps its half-frequency; a group of one keeps its amplitude untouched,
    a larger one is summed by ``math.fsum`` per part; moduli at or below
    AMP_DROP_TOL are dropped.
    """
    items = sorted(raw, key=lambda t: (t[2], t[1]))
    out, i = [], 0
    while i < len(items):
        amp, freq, shift = items[i]
        j = i + 1
        while j < len(items) and items[j][2] == shift and items[j][1] - freq <= FREQ_MERGE_TOL:
            j += 1
        if j > i + 1:
            group = items[i:j]
            amp = complex(math.fsum(t[0].real for t in group), math.fsum(t[0].imag for t in group))
        if abs(amp) > AMP_DROP_TOL:
            out.append(Term(amp, freq, shift))
        i = j
    return out


def ref_products(a, b):
    """Raw products of every term of ``a`` with every term of ``b``, ``a`` outermost."""
    return [
        (ta.amp * tb.amp, ta.halffreq + tb.halffreq, ta.shift + tb.shift) for ta in a for tb in b
    ]


def ref_mat_vec_row(row, v):
    """One entry of a matrix-vector product, canonicalized from all its raw products."""
    return ref_canonical([t for entry, comp in zip(row, v) for t in ref_products(entry, comp)])


def ref_sandwich_entry(a, b, i, j):
    """Entry i of a.E_j.b, E_j the unit matrix at entry j: the canonical product a[p][k]*b[l][q]."""
    (p, q), (k, l) = ENTRIES[i], ENTRIES[j]
    return ref_canonical(ref_products(a[p][k], b[l][q]))


def term_bits(terms):
    """Terms as exact tokens: signed-zero-aware hex of every float, and the shift."""
    return [
        (complex(t[0]).real.hex(), complex(t[0]).imag.hex(), float(t[1]).hex(), int(t[2]))
        for t in terms
    ]


# -- a pure-Python reference for the CSV writer --------------------------------


def ref_write_series_csv(path, series):
    """Reference series writer: every value formatted by ``repr``, one at a time."""
    cols = list(series.channels or ())
    columns = [series.tau, series.values, *(series.channels[s] for s in cols)]
    text = [map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    header = "tau,pe" + "".join(f",channel_{s}" for s in cols)
    with open(path, "w") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*text)), ""]))


# -- an independent reference for the undressed propagator ---------------------


def _stage_matrix(p, halffreq, taus, thetas):
    """A stage's 2x2 per (theta, tau), over (up, down), from its StageParams alone.

    ((c e-, -x b_s e+), (conj(x) b_-s e-, c e+)) with c = sqrt((1 + detuning_norm)/2),
    x = chi_norm/(2c), e+- = exp(+-i*halffreq*tau/2) and b_s = exp(-i*s*theta).
    """
    c = math.sqrt(0.5 * (1.0 + p.detuning_norm))
    x = p.chi_norm / (2.0 * c)
    e = np.exp(0.5j * halffreq * taus)
    b = np.exp(-1j * p.mode_shift * thetas)
    out = np.empty(np.broadcast(e, b).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c / e
    out[..., 0, 1] = -x * b * e
    out[..., 1, 0] = np.conj(x) / (b * e)
    out[..., 1, 1] = c * e
    return out


def stage_chain_plus(cr, taus, thetas=(0.0,)):
    """<up|U|down> of the undressed propagator, one row per phase theta, one column per tau.

    U = W_1 ... W_{f-1} (W_f S_f^dag) S_{f-1}^dag ... S_1^dag over the stages
    of ``cr``, anchor included, with S a stage's dressing, W = S R its
    dressing and rotation at ``dm_next`` (at ``splitting`` for the final
    stage f), and every ladder displacement b_s read as exp(-i*s*theta), so
    theta = 0 is the equal-weight trace and a Fourier series over theta
    splits it by shift.  Shares no code with the term algebra.
    """
    taus = np.asarray(taus, dtype=float)[None, :]
    thetas = np.asarray(thetas, dtype=float)[:, None]
    final = cr.stages[-1]
    u = np.eye(2)
    for p in reversed(cr.stages):
        w = _stage_matrix(p, final.splitting if p is final else p.dm_next, taus, thetas)
        u = w @ u @ _stage_matrix(p, 0.0, taus, thetas).conj().swapaxes(-1, -2)
    return u[..., 0, 1]


# -- the cascade with its sigma_- coefficient carried --------------------------


def ref_cascade_chain(cfg):
    """The cascade's stages, each with its (sigma_z, sigma_+, sigma_-) interaction.

    The recursion with all three coefficients carried, each read from its
    own entry of the conjugation W^dag X W of the traceless interaction
    X = (sigma_z, -sigma_z, sigma_+, sigma_-) over the entries (up-up,
    down-down, up-down, down-up), built from the public stage unitary and
    term algebra alone.  Returns the stages in dressing order, the frame
    anchor not included, and the interaction before each stage: entry k
    pairs the (k+1)-th stage dressed with the interaction it dresses.
    """
    order = cfg.dressing_order
    offsets = [cfg.m[k] for k in order]
    gaps = [b - a for a, b in zip(offsets, offsets[1:])] + [0]
    ma = offsets[0]
    vz = TermSum.single(0.5 * (cfg.delta0 - ma))
    plus = TermSum(Term(0.5 * om, -2.0 * (mk - ma), cfg.j + mk) for mk, om in zip(cfg.m, cfg.omega))
    v = (vz, plus, plus.conjugate_mirror())
    p = StageParams(
        k=1, detuning=cfg.delta0 - ma, chi=cfg.omega[order[0]], mode_shift=cfg.j + ma,
        dm_next=gaps[0],
    )
    chain = [(p, v)]
    for k in range(1, cfg.n_modes):
        w = stage_unitary(p, p.dm_next)
        conj = sandwich(dagger(w), w)
        v = mat_vec((conj[0], conj[2], conj[3]), (v[0], -v[0], v[1], v[2]))
        v = (v[0] + TermSum.single(-0.5 * p.dm_next), v[1], v[2])
        shift = cfg.j + offsets[k]
        p = StageParams(
            k=k + 1, detuning=p.splitting - p.dm_next, chi=2.0 * v[1].amp_at(0.0, shift),
            mode_shift=shift, dm_next=gaps[k],
        )
        chain.append((p, v))
    return chain


def ref_truncation_report(final, v):
    """Every term of the final interaction ``v`` but the static two-level part, all three components.

    Kept are the constant sigma_z term and the static terms at the final
    mode's shift in sigma_+ and at its negative in sigma_-; the others are
    listed component by component in canonical order.
    """
    names = ("sigma_z", "sigma_plus", "sigma_minus")
    kept = (0, final.mode_shift, -final.mode_shift)
    chi = abs(final.chi)
    return [
        TruncatedTerm(
            component=name,
            halffreq=t.halffreq,
            shift=t.shift,
            magnitude=float(np.hypot(t.amp.real, t.amp.imag)),
            relative=float(np.hypot(t.amp.real, t.amp.imag)) / chi if chi else math.inf,
        )
        for name, keep, comp in zip(names, kept, v)
        for t in comp
        if t.shift != keep or abs(t.halffreq) > FREQ_MERGE_TOL
    ]
