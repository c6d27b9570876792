"""Canonical phase-term algebra.

Every operator coefficient in the dressed-state calculation is a finite sum
of elements ``c * exp(i*f*tau/2) * b_s`` where ``c`` is a complex amplitude,
``f`` a real half-frequency (in units of the comb base frequency) and ``b_s``
a ladder displacement of ``s`` steps on the non-degenerate field lattice.
Displacements compose additively and commute with everything, so products
close on the same form:

    (c1, f1, s1) * (c2, f2, s2) = (c1*c2, f1+f2, s1+s2)

Negative ``s`` is a raising displacement (``b_{-n} = b_n^dag`` in the
mean-field lattice), which makes counter-rotating mode configurations
first-class citizens of the algebra.

A :class:`TermSum` stores its terms as three parallel arrays (``amp``,
``halffreq``, ``shift``) and is kept canonical: sorted by (shift,
halffreq), terms whose half-frequencies lie within ``FREQ_MERGE_TOL`` of
their group's first merged into one, amplitudes at or below
``AMP_DROP_TOL`` removed.  A result is canonicalized once, from all of its
raw term products: one ``np.lexsort``, then each merged group summed by
``math.fsum``, so a group whose true sum is zero cancels exactly.  Products
are formed with separate real multiplies and adds, as Python's complex
product forms them (numpy's complex multiply may fuse them and round
differently).
Spin operators are 2x2 matrices of sums over (up, down); :func:`sandwich`
turns a pair of them into the 4x4 transfer matrix of X -> a.X.b on the
operator's four entries, in the order (up-up, down-down, up-down,
down-up), so that entries 2 and 3 are its sigma_+ and sigma_-
coefficients.  :func:`mat_vec` and :func:`sandwich` build every entry they
return in one such pass.
All values are immutable; every operation returns a new object.

A sum is evaluated on a time grid with its shifts traced out (read as
unity), as its value at tau = 0 plus a part that vanishes there:
sum_f a_f * (exp(i*f*tau/2) - 1) over its distinct half-frequencies, in
one pass for the total and each shift's row (:meth:`TermSum.trace`).  The
value at tau = 0 is the ``math.fsum`` of the amplitudes, so a sum that
cancels there evaluates to exactly zero; elsewhere each value is within a
few ulps per term of the exact sum, and does not depend on the grid.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "AMP_DROP_TOL",
    "FREQ_MERGE_TOL",
    "Term",
    "TermSum",
    "mat_vec",
    "dagger",
    "sandwich",
]

# Half-frequency keys closer than this are treated as the same key; amplitudes
# at or below the drop threshold are removed on canonicalization.  Both sit far
# below any physical scale of the problem (frequencies are O(1) comb units).
FREQ_MERGE_TOL = 1e-12
AMP_DROP_TOL = 1e-14


class Term(NamedTuple):
    """One element ``amp * exp(i*halffreq*tau/2) * b_shift``."""

    amp: complex
    halffreq: float
    shift: int


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _cmul(a, b) -> np.ndarray:
    """Complex product with each real multiply and add rounded on its own."""
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _anchor_starts(f: np.ndarray, starts: np.ndarray, wide: np.ndarray) -> np.ndarray:
    """Split runs wider than the tolerance into groups anchored at their first key.

    ``starts`` opens every run of keys each within ``FREQ_MERGE_TOL`` of the
    one before; ``wide`` indexes the runs whose first and last keys are
    not.  A new group opens at the first key past the tolerance from its
    group's first key, as a walk through the sorted keys would open it.
    """
    ends = [*starts[1:].tolist(), len(f)]
    extra = []
    for g in wide.tolist():
        a, b = int(starts[g]), ends[g]
        keys = f[a:b].tolist()
        anchor = keys[0]
        for i, key in enumerate(keys[1:], start=a + 1):
            if key - anchor > FREQ_MERGE_TOL:
                extra.append(i)
                anchor = key
    return np.sort(np.concatenate((starts, extra)).astype(np.intp))


def _fsums(amp: np.ndarray, starts, stops) -> list[complex]:
    """``math.fsum`` of each run ``amp[a:b]``, real and imaginary parts apart."""
    re, im = amp.real.tolist(), amp.imag.tolist()
    return [complex(math.fsum(re[a:b]), math.fsum(im[a:b])) for a, b in zip(starts, stops)]


def _unit_gaps(freqs: np.ndarray, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(i*f*tau/2) - 1 for every half-frequency f (rows) and point tau (columns).

    Returned as its real and imaginary parts, -2 sin^2(theta/2) and
    sin(theta) with theta = f*tau/2, both accurate to a few ulps even where
    theta is small; (-0.0, 0.0) at tau = 0.
    """
    theta = 0.5 * np.multiply.outer(freqs, taus)
    return -2.0 * np.sin(0.5 * theta) ** 2, np.sin(theta)


def _group_sums(amp: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each group's amplitude: its one term untouched, or the ``math.fsum`` of its terms."""
    stops = np.append(starts[1:], len(amp))
    out = amp[starts]
    multi = (stops - starts > 1).nonzero()[0]
    if len(multi):
        out[multi] = _fsums(amp, starts[multi].tolist(), stops[multi].tolist())
    return out


def _canonical(amp, f, s, key=None):
    """Canonical arrays of a raw term list, optionally partitioned by ``key``.

    Sorts by (key, shift, halffreq) with a stable sort, merges each group of
    equal key and shift whose half-frequencies lie within ``FREQ_MERGE_TOL``
    of the group's first (the first keeps its half-frequency), and drops the
    amplitudes whose modulus is at or below ``AMP_DROP_TOL``.
    """
    n = len(amp)
    if n > 1:
        order = np.lexsort((f, s) if key is None else (f, s, key))
        amp, f, s = amp[order], f[order], s[order]
        new = np.empty(n, dtype=bool)
        new[0] = True
        np.not_equal(s[1:], s[:-1], out=new[1:])
        new[1:] |= f[1:] - f[:-1] > FREQ_MERGE_TOL
        if key is not None:
            key = key[order]
            new[1:] |= key[1:] != key[:-1]
        starts = new.nonzero()[0]
        if len(starts) < n:
            last = np.empty_like(starts)
            last[:-1] = starts[1:] - 1
            last[-1] = n - 1
            wide = (f[last] - f[starts] > FREQ_MERGE_TOL).nonzero()[0]
            if len(wide):
                starts = _anchor_starts(f, starts, wide)
            amp = _group_sums(amp, starts)
            f, s = f[starts], s[starts]
            if key is not None:
                key = key[starts]
    return _drop(amp, f, s, key)


def _drop(amp, f, s, key=None):
    """The terms whose amplitude modulus exceeds ``AMP_DROP_TOL``, read-only."""
    keep = np.hypot(amp.real, amp.imag) > AMP_DROP_TOL
    if not keep.all():
        amp, f, s = amp[keep], f[keep], s[keep]
        key = None if key is None else key[keep]
    return (*_frozen(amp, f, s), key)


def _termsum(amp: np.ndarray, f: np.ndarray, s: np.ndarray) -> TermSum:
    """A TermSum around canonical, read-only arrays."""
    ts = object.__new__(TermSum)
    object.__setattr__(ts, "amp", amp)
    object.__setattr__(ts, "halffreq", f)
    object.__setattr__(ts, "shift", s)
    return ts


class TermSum:
    """Canonical finite sum of :class:`Term` elements.

    The terms are held as parallel read-only arrays ``amp`` (complex),
    ``halffreq`` (float) and ``shift`` (int), in canonical order; ``terms``
    and iteration give them as :class:`Term` tuples.
    Supports ``+``, ``-``, ``*`` (by scalar or TermSum), unary ``-``,
    hermitian mirroring and numeric evaluation with the field shifts traced
    out.
    Instances are immutable and safe to share between workers.
    """

    __slots__ = ("amp", "halffreq", "shift")

    def __init__(self, terms: Iterable[Term] = ()):
        items = list(terms)
        amp, f, s, _ = _canonical(
            np.array([complex(t[0]) for t in items], dtype=complex),
            np.array([float(t[1]) for t in items], dtype=float),
            np.array([int(t[2]) for t in items], dtype=np.int64),
        )
        object.__setattr__(self, "amp", amp)
        object.__setattr__(self, "halffreq", f)
        object.__setattr__(self, "shift", s)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TermSum is immutable")

    def __reduce__(self):
        # rebuild through __init__: the guard above refuses slot restores, and
        # canonical terms canonicalize to themselves
        return (TermSum, (self.terms,))

    # -- constructors -------------------------------------------------------

    @classmethod
    def single(cls, amp: complex, halffreq: float = 0.0, shift: int = 0) -> TermSum:
        amp = complex(amp)
        if not abs(amp) > AMP_DROP_TOL:
            return _ZERO
        return _termsum(
            *_frozen(np.array([amp]), np.array([float(halffreq)]), np.array([int(shift)]))
        )

    @classmethod
    def cosine(cls, halffreq: float) -> TermSum:
        """cos(halffreq * tau / 2) expanded into its two exponentials."""
        return cls((Term(0.5, halffreq, 0), Term(0.5, -halffreq, 0)))

    @classmethod
    def sine(cls, halffreq: float) -> TermSum:
        """sin(halffreq * tau / 2) expanded into its two exponentials."""
        return cls((Term(-0.5j, halffreq, 0), Term(0.5j, -halffreq, 0)))

    @classmethod
    def ladder(cls, shift: int) -> TermSum:
        """Pure displacement b_shift."""
        return cls.single(1.0, 0.0, shift)

    # -- algebra -------------------------------------------------------------

    @property
    def terms(self) -> tuple[Term, ...]:
        return tuple(map(Term, self.amp.tolist(), self.halffreq.tolist(), self.shift.tolist()))

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.amp)

    def __bool__(self) -> bool:
        return len(self.amp) > 0

    def __add__(self, other: TermSum) -> TermSum:
        if not isinstance(other, TermSum):
            return NotImplemented
        amp, f, s, _ = _canonical(
            np.concatenate((self.amp, other.amp)),
            np.concatenate((self.halffreq, other.halffreq)),
            np.concatenate((self.shift, other.shift)),
        )
        return _termsum(amp, f, s)

    def __sub__(self, other: TermSum) -> TermSum:
        if not isinstance(other, TermSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> TermSum:
        return _termsum(*_frozen(-self.amp), self.halffreq, self.shift)

    def __mul__(self, other):
        if isinstance(other, TermSum):
            return mat_vec(((self,),), (other,))[0]
        if isinstance(other, (int, float, complex)):
            # the keys stay canonical; only amplitudes can fall below the threshold
            amp, f, s, _ = _drop(_cmul(self.amp, complex(other)), self.halffreq, self.shift)
            return _termsum(amp, f, s)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TermSum)
            and np.array_equal(self.amp, other.amp)
            and np.array_equal(self.halffreq, other.halffreq)
            and np.array_equal(self.shift, other.shift)
        )

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self) -> str:
        body = ", ".join(f"({t.amp:.6g}, {t.halffreq:.6g}, {t.shift})" for t in self.terms)
        return f"TermSum[{body}]"

    def conjugate_mirror(self) -> TermSum:
        """Hermitian image: conjugate amplitudes, negate phases and shifts.

        Canonical keys lie more than ``FREQ_MERGE_TOL`` apart, so the image
        only needs re-sorting.
        """
        amp, f, s = self.amp.conj(), -self.halffreq, -self.shift
        if len(amp) > 1:
            order = np.lexsort((f, s))
            amp, f, s = amp[order], f[order], s[order]
        return _termsum(*_frozen(amp, f, s))

    # -- queries -------------------------------------------------------------

    def amp_at(self, halffreq: float, shift: int) -> complex:
        """Amplitude stored at a (halffreq, shift) key, 0 if absent."""
        hit = (
            (self.shift == shift) & (np.abs(self.halffreq - halffreq) <= FREQ_MERGE_TOL)
        ).nonzero()[0]
        return complex(self.amp[hit[0]]) if len(hit) else 0.0 + 0.0j

    def max_abs_amp(self) -> float:
        return float(np.hypot(self.amp.real, self.amp.imag).max()) if len(self) else 0.0

    def shifts(self) -> tuple[int, ...]:
        return tuple(np.unique(self.shift).tolist())

    def by_shift(self) -> dict[int, "TermSum"]:
        """Split into sub-sums sharing the same ladder displacement."""
        shifts, first = np.unique(self.shift, return_index=True)
        bounds = [*first.tolist(), len(self)]
        return {
            s: _termsum(self.amp[a:b], self.halffreq[a:b], self.shift[a:b])
            for s, a, b in zip(shifts.tolist(), bounds, bounds[1:])
        }

    # -- evaluation -----------------------------------------------------------

    def trace(self, taus: np.ndarray) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
        """The traced total, the shifts in ascending order and one row per shift.

        Every displacement is read as unity, on a one-dimensional grid.  Each
        value is its group's value at tau = 0, the ``math.fsum`` of its
        amplitudes, plus sum_f a_f (exp(i*f*tau/2) - 1) over the distinct
        half-frequencies in ascending order, added point by point, so a
        point's value does not depend on its grid; for the total, a_f sums
        over the shifts.
        """
        taus = np.asarray(taus, dtype=float)
        if taus.ndim != 1:
            raise ValueError(f"tau grid must be one-dimensional, got shape {taus.shape}")
        freqs, col = np.unique(self.halffreq, return_inverse=True)
        shifts, first, row = np.unique(self.shift, return_index=True, return_inverse=True)
        # the total, then one row per shift: a canonical sum holds at most one
        # term per (shift, half-frequency)
        coef = np.zeros((len(shifts) + 1, len(freqs)), dtype=complex)
        coef[row + 1, col] = self.amp
        coef[0] = coef[1:].sum(axis=0)
        bounds = first.tolist()
        k = np.array(_fsums(self.amp, [0, *bounds], [len(self), *bounds[1:], len(self)]))
        re = np.repeat(k.real[:, None], len(taus), axis=1)
        im = np.repeat(k.imag[:, None], len(taus), axis=1)
        # _cmul's real multiplies and adds, on contiguous real arrays
        for a, g_re, g_im in zip(coef.T[:, :, None], *_unit_gaps(freqs, taus)):
            re += a.real * g_re - a.imag * g_im
            im += a.real * g_im + a.imag * g_re
        out = np.empty(re.shape, dtype=complex)
        out.real, out.imag = re, im
        return out[0], tuple(shifts.tolist()), out[1:]


_ZERO = TermSum()


# -- dense containers ----------------------------------------------------------


def _product_sums(a, b, blocks, n_out: int) -> tuple[TermSum, ...]:
    """Canonical sums of term products, each output from all of its raw products.

    ``a`` and ``b`` are flat lists of TermSums.  ``blocks`` is a constant
    table of arrays (ia, ib, out): block k contributes every product
    ``ta * tb`` of a term ``ta`` of ``a[ia[k]]`` with a term ``tb`` of
    ``b[ib[k]]`` to output ``out[k]``.  Products are taken in block order,
    ``a``'s terms outermost, and the whole set is canonicalized in one pass
    keyed by output.
    """
    ia, ib, out = blocks
    la = np.array([len(x) for x in a], dtype=np.intp)
    lb = np.array([len(x) for x in b], dtype=np.intp)
    nb = lb[ib]
    count = la[ia] * nb
    total = int(count.sum())
    if not total:
        return (_ZERO,) * n_out
    # block of each product, and the product's index within its block
    blk = np.arange(len(count)).repeat(count)
    qa, qb = np.divmod(np.arange(total) - (count.cumsum() - count)[blk], nb[blk])
    ta = (la.cumsum() - la)[ia][blk] + qa
    tb = (lb.cumsum() - lb)[ib][blk] + qb
    amp, f, s, key = _canonical(
        _cmul(np.concatenate([x.amp for x in a])[ta], np.concatenate([x.amp for x in b])[tb]),
        np.concatenate([x.halffreq for x in a])[ta] + np.concatenate([x.halffreq for x in b])[tb],
        np.concatenate([x.shift for x in a])[ta] + np.concatenate([x.shift for x in b])[tb],
        out[blk],
    )
    bounds = key.searchsorted(np.arange(n_out + 1)).tolist()
    return tuple(_termsum(amp[i:j], f[i:j], s[i:j]) for i, j in zip(bounds, bounds[1:]))


@lru_cache(maxsize=64)
def _mat_vec_blocks(n_cols: tuple[int, ...]):
    """Block table of an (n_rows x row length) matrix times a vector, row-major."""
    ia, ib, out = [], [], []
    offset = 0
    for r, n in enumerate(n_cols):
        for c in range(n):
            ia.append(offset + c)
            ib.append(c)
            out.append(r)
        offset += n
    return _frozen(np.array(ia, np.intp), np.array(ib, np.intp), np.array(out, np.intp))


def mat_vec(m: tuple, v: tuple) -> tuple:
    """Matrix-vector product over TermSum entries.

    Each output entry is canonicalized once from all of its raw term
    products, so each merged group is summed by a single exact sum; all
    entries are built in one pass.
    """
    n_cols = tuple(min(len(row), len(v)) for row in m)
    a = [e for row, n in zip(m, n_cols) for e in row[:n]]
    return _product_sums(a, v, _mat_vec_blocks(n_cols), len(m))


# The (row, col) of each entry of a 2x2 operator, in the order it is held:
# (up-up, down-down, up-down, down-up).
_ENTRIES = ((0, 0), (1, 1), (0, 1), (1, 0))
# Block table of X -> a.X.b on flat 2x2 operands: entry (p, q) of the image
# takes a[p][k] * b[l][q] from entry (k, l) of X, one product per output.
_SANDWICH_BLOCKS = _frozen(
    np.array([2 * p + k for p, q in _ENTRIES for k, l in _ENTRIES], np.intp),
    np.array([2 * l + q for p, q in _ENTRIES for k, l in _ENTRIES], np.intp),
    np.arange(16, dtype=np.intp),
)


def dagger(a: tuple) -> tuple:
    """Adjoint of a 2x2 matrix over TermSum entries (transpose and mirror)."""
    return tuple(tuple(a[c][r].conjugate_mirror() for c in range(2)) for r in range(2))


def sandwich(a: tuple, b: tuple) -> tuple:
    """4x4 matrix of the map X -> a.X.b on the entries (up-up, down-down, up-down, down-up).

    ``a`` and ``b`` are 2x2 matrices over TermSum entries, rows and columns
    (up, down).  Entry (i, j) maps entry (k, l) of X, the j-th of the
    order, to entry (p, q) of the image, the i-th: the single product
    a[p][k] * b[l][q].  All sixteen are built in one pass.
    """
    flat = _product_sums([*a[0], *a[1]], [*b[0], *b[1]], _SANDWICH_BLOCKS, 16)
    return tuple(flat[k : k + 4] for k in range(0, 16, 4))
