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

Sums are kept canonical: like-keyed terms merged, half-frequency keys within
``FREQ_MERGE_TOL`` identified, amplitudes below ``AMP_DROP_TOL`` removed.
Spin operators are 2x2 matrices of sums over (up, down); :func:`sandwich`
turns a pair of them into the 4x4 transfer matrix of X -> a.X.b over the
coefficient basis (1, sigma_z, sigma_+, sigma_-).
All values are immutable; every operation returns a new object.

A sum is evaluated on a time grid with its shifts traced out (read as
unity).  Each value is the correctly rounded sum of the raw terms' values,
equal to ``math.fsum`` bit for bit, so sums that cancel exactly evaluate to
exactly zero; :func:`exact_sum` computes it for a whole grid at once with
error-free transformations, and calls ``fsum`` only where it cannot
certify the rounding.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "AMP_DROP_TOL",
    "FREQ_MERGE_TOL",
    "Term",
    "TermSum",
    "TermMatrix",
    "TermVector",
    "term_mul",
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


def term_mul(a: Term, b: Term) -> Term:
    """Product of two terms: amplitudes multiply, phases and shifts add."""
    return Term(a.amp * b.amp, a.halffreq + b.halffreq, a.shift + b.shift)


def _merge_sorted(terms: list[Term]) -> tuple[Term, ...]:
    """Merge a (shift, halffreq)-sorted term list into canonical form.

    Group amplitudes are combined with ``math.fsum`` so that a group whose
    true sum is exactly zero cancels exactly, independent of addend order.
    The analytic excitation probability at tau=0 relies on this.
    """
    out: list[Term] = []
    i = 0
    n = len(terms)
    while i < n:
        shift = terms[i].shift
        freq = terms[i].halffreq
        j = i + 1
        while j < n and terms[j].shift == shift and terms[j].halffreq - freq <= FREQ_MERGE_TOL:
            j += 1
        if j == i + 1:
            amp = terms[i].amp
        else:
            amp = complex(
                math.fsum(t.amp.real for t in terms[i:j]),
                math.fsum(t.amp.imag for t in terms[i:j]),
            )
        if abs(amp) > AMP_DROP_TOL:
            out.append(Term(amp, freq, shift))
        i = j
    return tuple(out)


class TermSum:
    """Canonical finite sum of :class:`Term` elements.

    Supports ``+``, ``-``, ``*`` (by scalar, Term or TermSum), unary ``-``,
    hermitian mirroring and numeric evaluation with the field shifts traced
    out.
    Instances are immutable and safe to share between workers.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Term] = ()):
        items = [Term(complex(t[0]), float(t[1]), int(t[2])) for t in terms]
        items.sort(key=lambda t: (t.shift, t.halffreq))
        object.__setattr__(self, "terms", _merge_sorted(items))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TermSum is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> TermSum:
        return cls(())

    @classmethod
    def single(cls, amp: complex, halffreq: float = 0.0, shift: int = 0) -> TermSum:
        return cls((Term(amp, halffreq, shift),))

    @classmethod
    def constant(cls, amp: complex) -> TermSum:
        return cls.single(amp)

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

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: TermSum) -> TermSum:
        if not isinstance(other, TermSum):
            return NotImplemented
        return TermSum(self.terms + other.terms)

    def __sub__(self, other: TermSum) -> TermSum:
        if not isinstance(other, TermSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> TermSum:
        return TermSum(Term(-t.amp, t.halffreq, t.shift) for t in self.terms)

    def __mul__(self, other):
        if isinstance(other, TermSum):
            return TermSum(
                term_mul(a, b) for a in self.terms for b in other.terms
            )
        if isinstance(other, Term):
            return TermSum(term_mul(t, other) for t in self.terms)
        if isinstance(other, (int, float, complex)):
            return TermSum(Term(t.amp * other, t.halffreq, t.shift) for t in self.terms)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, TermSum) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self) -> str:
        body = ", ".join(f"({t.amp:.6g}, {t.halffreq:.6g}, {t.shift})" for t in self.terms)
        return f"TermSum[{body}]"

    def conjugate_mirror(self) -> TermSum:
        """Hermitian image: conjugate amplitudes, negate phases and shifts."""
        return TermSum(Term(t.amp.conjugate(), -t.halffreq, -t.shift) for t in self.terms)

    # -- queries -------------------------------------------------------------

    def amp_at(self, halffreq: float, shift: int) -> complex:
        """Amplitude stored at a (halffreq, shift) key, 0 if absent."""
        for t in self.terms:
            if t.shift == shift and abs(t.halffreq - halffreq) <= FREQ_MERGE_TOL:
                return t.amp
        return 0.0 + 0.0j

    def max_abs_amp(self) -> float:
        return max((abs(t.amp) for t in self.terms), default=0.0)

    def shifts(self) -> tuple[int, ...]:
        return tuple(sorted({t.shift for t in self.terms}))

    def by_shift(self) -> dict[int, "TermSum"]:
        """Split into sub-sums sharing the same ladder displacement."""
        groups: dict[int, list[Term]] = {}
        for t in self.terms:
            groups.setdefault(t.shift, []).append(t)
        return {s: TermSum(ts) for s, ts in groups.items()}

    # -- evaluation -----------------------------------------------------------

    def _addends(self, taus: np.ndarray) -> np.ndarray:
        """``amp * exp(i*halffreq*tau/2)``, one row per term, one column per point."""
        amps = np.array([t.amp for t in self.terms])
        freqs = np.array([t.halffreq for t in self.terms])
        z = 0.5j * np.outer(freqs, taus)
        np.exp(z, out=z)
        return np.multiply(amps[:, None], z, out=z)

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
        if not self.terms:
            return np.zeros(taus.shape, dtype=complex)
        return exact_sum(self._addends(taus).view(float)).view(complex)

    def trace_by_shift(self, taus: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
        """Every shift group's traced values, one row per shift, in one pass.

        Returns the shifts in ascending order and a (shifts, points) array
        whose row s equals ``self.by_shift()[s].trace_evaluate_many(taus)``
        bit for bit.  The addends of all terms are laid out in one
        zero-padded (slot, group, point) array and summed by
        :func:`exact_sum` along the slots.
        """
        taus = np.asarray(taus, dtype=float).ravel()
        if not self.terms:
            return (), np.zeros((0, taus.size), dtype=complex)
        shifts, group, counts = np.unique(
            [t.shift for t in self.terms], return_inverse=True, return_counts=True
        )
        # the terms are sorted by shift, so each group is one contiguous run
        slot = np.arange(len(self.terms)) - (np.cumsum(counts) - counts)[group]
        padded = np.zeros((counts.max(), len(shifts), taus.size), dtype=complex)
        padded[slot, group] = self._addends(taus)
        return tuple(shifts.tolist()), exact_sum(padded.view(float)).view(complex)


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
        r = np.concatenate(residues)
        mag = np.abs(r).sum(axis=0)
        open_ = np.flatnonzero(mag)  # columns whose residues are not all zero
        hi, lo = hi[open_], lo[open_]
        # bounds |sum(r)| whatever order the abs-sum was accumulated in
        bound = np.nextafter(mag[open_] * (1.0 + 4 * (len(r) + 2) * 2.0**-53), np.inf)
        below = hi + np.nextafter(lo - bound, -np.inf)
        above = hi + np.nextafter(lo + bound, np.inf)
        for j in open_[below != above]:
            out[j] = math.fsum(cols[:, j])
    return out


def exact_sum(x: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of ``x`` along axis 0: ``math.fsum`` of each column.

    Error-free transformations (Ogita, Rump & Oishi, SIAM J. Sci. Comput.
    26, 1955 (2005)): a TwoSum tree gives ``hi`` and its errors ``e``, a
    second tree on ``e`` gives ``lo`` and residues ``r``, so the exact sum
    is ``hi + lo + sum(r)``.  Where every residue is zero, the IEEE add
    ``hi + lo`` is the correctly rounded (half-to-even) sum.  Elsewhere the
    point is certified when ``hi`` plus either end of an outward-rounded
    enclosure of ``lo + sum(r)`` rounds to the same double; only points
    that cannot be certified are summed by ``math.fsum``.  Like ``fsum``,
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


def mat_vec(m: TermMatrix, v: TermVector) -> TermVector:
    """Matrix-vector product over TermSum entries."""
    out = []
    for row in m:
        acc = TermSum.zero()
        for entry, comp in zip(row, v):
            if entry and comp:
                acc = acc + entry * comp
        out.append(acc)
    return tuple(out)


# The spin basis (1, sigma_z, sigma_+, sigma_-) of 2x2 matrices over (up,
# down): each basis element as its nonzero entries (row, col, value), and each
# component as the entries (row, col, weight) it is read from,
# (Y00 + Y11)/2, (Y00 - Y11)/2, Y01 and Y10.
_BASIS = (
    ((0, 0, 1.0), (1, 1, 1.0)),
    ((0, 0, 1.0), (1, 1, -1.0)),
    ((0, 1, 1.0),),
    ((1, 0, 1.0),),
)
_READ = (
    ((0, 0, 0.5), (1, 1, 0.5)),
    ((0, 0, 0.5), (1, 1, -0.5)),
    ((0, 1, 1.0),),
    ((1, 0, 1.0),),
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
    element E_j, canonicalized once from all of its raw term products, so
    each merged group is summed by a single ``fsum``.  Only the entries in
    ``rows`` x ``cols`` are built, as a len(rows) x len(cols) matrix.
    """
    return tuple(
        tuple(
            TermSum(
                (w * e * ta.amp * tb.amp, ta.halffreq + tb.halffreq, ta.shift + tb.shift)
                for p, q, w in _READ[i]
                for r, t, e in _BASIS[j]
                for ta in a[p][r]
                for tb in b[t][q]
            )
            for j in cols
        )
        for i in rows
    )
