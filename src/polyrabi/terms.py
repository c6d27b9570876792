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
:func:`exact_sum`, equal to ``math.fsum`` of the group bit for bit, so a
group whose true sum is zero cancels exactly.  Products are formed with
separate real multiplies and adds, as Python's complex product forms them
(numpy's complex multiply may fuse them and round differently).
Spin operators are 2x2 matrices of sums over (up, down); :func:`sandwich`
turns a pair of them into the 4x4 transfer matrix of X -> a.X.b over the
coefficient basis (1, sigma_z, sigma_+, sigma_-).  :func:`mat_vec` and
:func:`sandwich` build every entry they return in one such pass.
All values are immutable; every operation returns a new object.

A sum is evaluated on a time grid with its shifts traced out (read as
unity).  Each value is the correctly rounded sum of the raw terms' values,
equal to ``math.fsum`` bit for bit, so sums that cancel exactly evaluate to
exactly zero; :func:`exact_sum` computes it for a whole grid at once with
error-free transformations, and calls ``fsum`` only at points where the
second error tree leaves a residue.
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
    "TermMatrix",
    "TermVector",
    "mat_vec",
    "exact_sum",
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


# Up to this many merged groups, summing each by ``math.fsum`` directly is
# cheaper than the fixed cost of the exact_sum trees; both give the same bits.
_FSUM_GROUPS = 32


def _group_sums(amp: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each group's amplitude: its one term untouched, or the exact sum of its terms.

    The terms of the groups with more than one are laid out zero-padded in
    a (slot, group) array and summed along the slots by :func:`exact_sum`
    (a few groups go straight to ``math.fsum``).
    """
    sizes = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=sizes[:-1])
    sizes[-1] = len(amp) - starts[-1]
    out = amp[starts]
    multi = (sizes > 1).nonzero()[0]
    if len(multi) > _FSUM_GROUPS:
        k = sizes[multi]
        group = np.arange(len(multi)).repeat(k)
        slot = np.arange(len(group)) - (k.cumsum() - k)[group]
        padded = np.zeros((k.max(), len(multi), 2))
        padded[slot, group] = amp.view(float).reshape(-1, 2)[starts[multi][group] + slot]
        out[multi] = exact_sum(padded).view(complex)[:, 0]
    elif len(multi):
        re, im = amp.real.tolist(), amp.imag.tolist()
        bounds = [*starts.tolist(), len(amp)]
        out[multi] = [
            complex(math.fsum(re[a:b]), math.fsum(im[a:b]))
            for a, b in ((bounds[g], bounds[g + 1]) for g in multi.tolist())
        ]
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

    def _addends(self, taus: np.ndarray) -> np.ndarray:
        """``amp * exp(i*halffreq*tau/2)``, one row per term, one column per point.

        The exponentials are computed once per distinct half-frequency bit
        pattern (a sum carries far fewer of them than terms) and gathered
        into the term rows.
        """
        freqs, row = np.unique(self.halffreq.view(np.int64), return_inverse=True)
        z = 0.5j * np.outer(freqs.view(float), taus)
        np.exp(z, out=z)
        z = z[row]
        return np.multiply(self.amp[:, None], z, out=z)

    def _shift_rows(self, addends: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
        """Each shift group's addends summed exactly, one row per group."""
        shifts, first = np.unique(self.shift, return_index=True)
        bounds = [*first.tolist(), len(self)]
        rows = np.empty((len(shifts), addends.shape[1]), dtype=complex)
        # the terms are sorted by shift, so each group is one contiguous run
        for row, a, b in zip(rows, bounds, bounds[1:]):
            row[:] = exact_sum(addends[a:b].view(float)).view(complex)
        return tuple(shifts.tolist()), rows

    def trace_evaluate_many(self, taus: np.ndarray) -> np.ndarray:
        """Values sum(amp * exp(i*halffreq*tau/2)) over a time grid.

        Every ladder displacement is read as unity (the equal-weight trace
        over the field lattice).  The raw terms are summed per point by
        :func:`exact_sum`, correctly rounded (equal to ``math.fsum`` of the
        addends), without merging across shift groups first, so sums that
        cancel do so exactly (merging would round once per merged key and
        can leave dust of order 1e-17 where the true value is zero).
        """
        taus = np.asarray(taus, dtype=float)
        if not self:
            return np.zeros(taus.shape, dtype=complex)
        return exact_sum(self._addends(taus).view(float)).view(complex)

    def trace_by_shift(self, taus: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
        """Every shift group's traced values, one row per shift, in one pass.

        Returns the shifts in ascending order and a (shifts, points) array
        whose row s equals ``self.by_shift()[s].trace_evaluate_many(taus)``
        bit for bit.  The addends of all terms are computed once, and each
        group's run of them is summed by :func:`exact_sum`.
        """
        taus = np.asarray(taus, dtype=float).ravel()
        if not self:
            return (), np.zeros((0, taus.size), dtype=complex)
        return self._shift_rows(self._addends(taus))

    def trace_with_shifts(
        self, taus: np.ndarray
    ) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
        """``trace_evaluate_many`` and ``trace_by_shift`` from one set of addends.

        Returns the traced total, the shifts and the shift rows, each equal
        bit for bit to what the two methods return on their own.
        """
        taus = np.asarray(taus, dtype=float).ravel()
        if not self:
            return np.zeros(taus.shape, dtype=complex), (), np.zeros((0, taus.size), complex)
        z = self._addends(taus)
        return exact_sum(z.view(float)).view(complex), *self._shift_rows(z)


_ZERO = TermSum()

# Columns are summed in blocks of about this many elements, which keeps the
# temporaries of both trees in cache; whole-array passes measured 2-3x slower.
_BLOCK_ELEMENTS = 1 << 15


def _two_sum_tree(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Pairwise sum of ``x`` along axis 0 and every rounding error it made.

    Each addition is Knuth's TwoSum, which yields the rounded sum and its
    error exactly, so ``sum(x) == hi + sum(errors)`` holds exactly.
    """
    errors = []
    while len(x) > 1:
        h = len(x) // 2
        a, b = x[:h], x[h : 2 * h]
        s = a + b
        z = s - a
        e = s - z
        np.subtract(a, e, out=e)
        np.subtract(b, z, out=z)
        errors.append(np.add(e, z, out=e))
        x = np.concatenate((s, x[2 * h :])) if len(x) % 2 else s
    return x[0], errors


def _exact_block(cols: np.ndarray) -> np.ndarray:
    hi, errors = _two_sum_tree(cols)
    lo, residues = _two_sum_tree(np.concatenate(errors)) if errors else (0.0, [])
    out = hi + lo
    if residues:
        for j in np.flatnonzero(np.concatenate(residues).any(axis=0)):
            out[j] = math.fsum(cols[:, j])
    return out


def exact_sum(x: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of ``x`` along axis 0: ``math.fsum`` of each column.

    Error-free transformations (Ogita, Rump & Oishi, SIAM J. Sci. Comput.
    26, 1955 (2005)): a TwoSum tree gives ``hi`` and its errors ``e``, a
    second tree on ``e`` gives ``lo`` and residues ``r``, so the exact sum
    is ``hi + lo + sum(r)``.  Where every residue is zero, the IEEE add
    ``hi + lo`` is the correctly rounded (half-to-even) sum; the points
    where a residue is not zero are summed by ``math.fsum``.  Like ``fsum``,
    the result is never -0.0: TwoSum errors never are, so neither is ``lo``.
    Inputs are finite.
    """
    x = np.asarray(x, dtype=float)
    cols = x.reshape(len(x), math.prod(x.shape[1:]))
    out = np.zeros(cols.shape[1])
    step = max(1, _BLOCK_ELEMENTS // max(1, len(cols)))
    if len(cols):
        for j in range(0, cols.shape[1], step):
            out[j : j + step] = _exact_block(cols[:, j : j + step])
    return out.reshape(x.shape[1:])


# -- dense containers ----------------------------------------------------------

TermVector = tuple  # tuple[TermSum, ...]
TermMatrix = tuple  # tuple[tuple[TermSum, ...], ...]


def _product_sums(a, b, blocks, n_out: int) -> tuple[TermSum, ...]:
    """Canonical sums of term products, each output from all of its raw products.

    ``a`` and ``b`` are flat lists of TermSums.  ``blocks`` is a constant
    table of arrays (ia, ib, scale, out): block k contributes every product
    ``scale[k] * ta * tb`` of a term ``ta`` of ``a[ia[k]]`` with a term
    ``tb`` of ``b[ib[k]]`` to output ``out[k]``; ``scale`` is None for unit
    scales.  Products are taken in block order, ``a``'s terms outermost,
    and the whole set is canonicalized in one pass keyed by output.
    """
    ia, ib, scale, out = blocks
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
    a_amp = np.concatenate([x.amp for x in a])[ta]
    if scale is not None:
        a_amp = _cmul(scale[blk], a_amp)
    amp, f, s, key = _canonical(
        _cmul(a_amp, np.concatenate([x.amp for x in b])[tb]),
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
    ia, ib, out = _frozen(np.array(ia, np.intp), np.array(ib, np.intp), np.array(out, np.intp))
    return ia, ib, None, out


def mat_vec(m: TermMatrix, v: TermVector) -> TermVector:
    """Matrix-vector product over TermSum entries.

    Each output entry is canonicalized once from all of its raw term
    products, so each merged group is summed by a single exact sum; all
    entries are built in one pass.
    """
    n_cols = tuple(min(len(row), len(v)) for row in m)
    a = [e for row, n in zip(m, n_cols) for e in row[:n]]
    return _product_sums(a, v, _mat_vec_blocks(n_cols), len(m))


# The spin basis (1, sigma_z, sigma_+, sigma_-) of 2x2 matrices over (up,
# down): each basis element as its nonzero entries (row, col, value), and each
# component as the entries (row, col, weight) it is read from.  The elements
# are orthogonal, so the read weights are the dual basis, each value over its
# element's squared norm: (Y00 + Y11)/2, (Y00 - Y11)/2, Y01 and Y10.
_BASIS = (
    ((0, 0, 1.0), (1, 1, 1.0)),
    ((0, 0, 1.0), (1, 1, -1.0)),
    ((0, 1, 1.0),),
    ((1, 0, 1.0),),
)
_READ = tuple(
    tuple((r, c, v / sum(e * e for *_, e in element)) for r, c, v in element)
    for element in _BASIS
)


@lru_cache(maxsize=None)
def _sandwich_blocks(rows: tuple[int, ...], cols: tuple[int, ...]):
    """Block table of the entries rows x cols of X -> a.X.b, flat 2x2 operands."""
    ia, ib, scale, out = [], [], [], []
    for i in rows:
        for j in cols:
            for p, q, w in _READ[i]:
                for r, t, e in _BASIS[j]:
                    ia.append(2 * p + r)
                    ib.append(2 * t + q)
                    scale.append(w * e)
                    out.append(len(cols) * rows.index(i) + cols.index(j))
    return _frozen(
        np.array(ia, np.intp), np.array(ib, np.intp), np.array(scale, complex), np.array(out, np.intp)
    )


def dagger(a: TermMatrix) -> TermMatrix:
    """Adjoint of a 2x2 matrix over TermSum entries (transpose and mirror)."""
    return tuple(tuple(a[c][r].conjugate_mirror() for c in range(2)) for r in range(2))


def sandwich(
    a: TermMatrix, b: TermMatrix, rows=range(4), cols=range(4)
) -> TermMatrix:
    """4x4 matrix of the map X -> a.X.b over the basis (1, sigma_z, sigma_+, sigma_-).

    ``a`` and ``b`` are 2x2 matrices over TermSum entries, rows and columns
    (up, down).  Entry (i, j) is component i of a.E_j.b for the basis
    element E_j, canonicalized once from all of its raw term products
    ``w * e * ta * tb`` (w the read weight, e the basis value), so each
    merged group is summed by a single exact sum.  Only the entries in
    ``rows`` x ``cols`` are built, all in one pass, as a len(rows) x
    len(cols) matrix.
    """
    rows, cols = tuple(rows), tuple(cols)
    flat = _product_sums(
        [*a[0], *a[1]], [*b[0], *b[1]], _sandwich_blocks(rows, cols), len(rows) * len(cols)
    )
    return tuple(flat[k : k + len(cols)] for k in range(0, len(flat), len(cols)))
