"""Exact linear algebra over the rationals.

Sparse matrices with exact rational entries, reduced row echelon form,
canonical nullspace bases, exact linear solves, and incrementally
maintained subspace bases keyed by arbitrary orderable labels.  All
arithmetic is exact, so every algebraic identity downstream is a decidable
equality.

A scalar is canonical: a Python ``int`` when it is integral, else a
lowest-terms ``Fraction`` with denominator > 1 (:func:`scalar`).  ints and
Fractions compare and hash equal and mix exactly, and every writer here
stores through that rule, so the integral coefficients (the 1s of
coproducts and counits, and most of what elimination makes of them) never
build a Fraction.  The pivot inverse in :meth:`SpanBasis.insert` is the one
true division, and it goes through ``Fraction``: an int quotient would be
a float.

:func:`mat_mul` runs over Python ints: it scales each operand to integer
numerators over the lcm of its denominators, sums the integer products on
one common denominator, and makes each nonzero sum one canonical scalar.

Elimination has one implementation, :class:`SpanBasis`, in exact rational
arithmetic.  Its rows are fixed at insert (echelon, not inter-reduced) and
the canonical reduced basis is built only when it is read.  :func:`rref`
adds a matrix's rows to a SpanBasis whose pivot is a row's smallest column
and reads the canonical basis back as the reduced row echelon form;
:func:`kernel_basis` reads the null space off that form, and :func:`solve`
reads both the solution and its uniqueness off the form of [m | rhs].

Sparse vectors are plain dicts ``key -> Scalar`` with no stored zeros.
This module is the only one that writes the cancel-and-drop step: every
sparse sum elsewhere goes through :func:`vec_add_scaled` or the kernels,
whose inline loops (and that of ``SpanBasis.reduce``) are this module's own.
"""

from __future__ import annotations

import heapq
import operator
from fractions import Fraction
from math import lcm

Scalar = int | Fraction

ZERO = 0
ONE = 1


def scalar(x) -> Scalar:
    """The canonical value of the rational x: an int when x is integral,
    else a lowest-terms Fraction.  Writers test ``type(x) is int`` inline
    first and call this for the rest."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def vec_add_scaled(dst: dict, src: dict, coeff: Scalar) -> dict:
    """In place dst += coeff * src, dropping entries that cancel to zero.

    Equal to the loop ``dst[k] = dst.get(k, ZERO) + coeff * v`` with zeros
    dropped and each stored value canonical, on two fast paths: a
    coefficient of 1 skips the multiply, and a key absent from dst stores
    ``coeff * v`` without adding it to zero."""
    if not coeff:
        return dst
    unit = coeff == 1
    for k, v in src.items():
        if not unit:
            v = coeff * v
        old = dst.get(k)
        if old is None:
            if v:
                dst[k] = v if type(v) is int else scalar(v)
            continue
        w = old + v
        if w:
            dst[k] = w if type(w) is int else scalar(w)
        else:
            del dst[k]
    return dst


def vec_clean(v: dict) -> dict:
    """Copy of v without zero entries, coefficients made canonical."""
    return {k: c if type(c) is int else scalar(c) for k, c in v.items() if c}


class Matrix:
    """Sparse exact-rational matrix; zero entries are never stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        clean = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
            if type(v) is not int:
                v = scalar(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def trusted(cls, rows: int, cols: int, entries: dict) -> "Matrix":
        """Adopt entries that are already clean: in range, nonzero, canonical.

        For the kernels of this package that build entries by exact
        arithmetic on clean matrices; the dict is taken, not copied.  Every
        other caller goes through the checking constructor."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

    def get(self, r: int, c: int) -> Scalar:
        return self.entries.get((r, c), ZERO)

    def row_maps(self) -> list:
        """Row-major view: list of dicts col -> value."""
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


def integer_view(entries: dict):
    """(den, numerators): den is the lcm of the entries' denominators, and
    numerators lists each entry times den, in the entries' order."""
    ratios = [v.as_integer_ratio() for v in entries.values()]
    den = lcm(*{q for _, q in ratios})
    if den == 1:
        return 1, [p for p, _ in ratios]
    return den, [p * (den // q) for p, q in ratios]


def _entries_over(sums, den: int) -> dict:
    """Entries (r, c) -> s / den, canonical, of the integer sums given as
    ((r, c), s) pairs, dropping the sums that cancelled to zero; equal sums
    share one value."""
    values = {}
    entries = {}
    for rc, s in sums:
        if s:
            v = values.get(s)
            if v is None:
                v = values[s] = s if den == 1 else scalar(Fraction(s, den))
            entries[rc] = v
    return entries


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product a b.  Each operand is scaled to integer numerators over
    the lcm of its denominators; the products are summed over the integers,
    and each nonzero sum s becomes s / (da * db)."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    da, na = integer_view(a.entries)
    db, nb = integer_view(b.entries)
    b_rows = [[] for _ in range(b.rows)]
    for (k, c), y in zip(b.entries, nb):
        b_rows[k].append((c, y))
    acc = {}
    for (r, k), x in zip(a.entries, na):
        row = b_rows[k]
        if row:
            out = acc.get(r)
            if out is None:
                out = acc[r] = {}
            for c, y in row:
                out[c] = out.get(c, 0) + x * y
    return Matrix.trusted(a.rows, b.cols, _entries_over(
        (((r, c), s) for r, out in acc.items() for c, s in out.items()), da * db))


class SpanBasis:
    """Incrementally grown basis of a subspace of sparse vectors.

    Vectors are dicts ``key -> Scalar`` over arbitrary hashable keys; the
    pivot of a row is its largest key under ``keyfunc``.  Each row is
    written once: stored as inserted, monic at its pivot and holding no
    pivot of an earlier row.  The pivots are thus the span's leading keys,
    so the representative of a vector that holds no pivot (:meth:`reduce`)
    and the canonical reduced basis (:meth:`basis`, built when read) are
    unique, whatever the insertion order.
    """

    def __init__(self, keyfunc=None):
        self._key = keyfunc if keyfunc is not None else (lambda k: k)
        self._rows = []      # (pivot key, row dict) in insertion order
        self._index = {}     # pivot key -> position in _rows
        self._basis = None   # canonical rows in increasing pivot order, until an insert

    @property
    def dim(self) -> int:
        return len(self._rows)

    def pivots(self) -> list:
        return sorted(self._index, key=self._key)

    def basis(self) -> list:
        """The canonical reduced rows in increasing pivot order (shared
        dicts, not to be written to).  Built newest row first: row i minus
        c times the canonical row of each later pivot it holds with
        coefficient c, a row that holds no other pivot."""
        if self._basis is None:
            canon = {}
            for p, row in reversed(self._rows):
                later = [k for k in row if k in canon]
                canon[p] = out = dict(row) if later else row
                for k in later:
                    vec_add_scaled(out, canon[k], -row[k])
            self._basis = [canon[p] for p in self.pivots()]
        return list(self._basis)

    def reduce(self, vec: dict) -> dict:
        """Canonical representative of vec modulo the current span: the one
        that holds no pivot key.  A row holds no pivot of an earlier row, so
        the rows are subtracted in increasing insertion order, through a
        heap of the positions of the pivots vec holds."""
        v = vec_clean(vec)
        index, rows = self._index, self._rows
        heap = [index[k] for k in v if k in index]
        heapq.heapify(heap)
        while heap:
            p, row = rows[heapq.heappop(heap)]
            coeff = v.pop(p, None)
            if coeff is None:  # cancelled since it was pushed
                continue
            for k2, c2 in row.items():
                if k2 == p:
                    continue
                w = v.get(k2, ZERO) - coeff * c2
                if w:
                    if k2 in index and k2 not in v:
                        heapq.heappush(heap, index[k2])
                    v[k2] = w if type(w) is int else scalar(w)
                else:
                    del v[k2]
        return v

    def add(self, vec: dict) -> bool:
        """Add a vector to the span; True iff it added a new direction."""
        v = self.reduce(vec)
        if v:
            self.insert(v)
        return bool(v)

    def insert(self, v: dict) -> None:
        """Add a nonzero vector that is already reduced (canonical values, no
        key a pivot) as a new row; the dict is taken, not copied."""
        p = max(v, key=self._key)
        if v[p] != 1:
            # the one true division: Fraction, since an int quotient is a float
            inv = Fraction(1, v[p])
            v = {k: scalar(c * inv) for k, c in v.items()}
        self._index[p] = len(self._rows)
        self._rows.append((p, v))
        self._basis = None

    def __repr__(self):
        return f"SpanBasis(dim={self.dim})"


def rref(m: Matrix):
    """Reduced row echelon form and pivot column indices; exact.

    The rows go into a :class:`SpanBasis` whose pivot is a row's smallest
    column, and its canonical basis (leading 1s, fully inter-reduced) is
    read back in increasing pivot order, followed by the zero rows: the
    reduced row echelon form, which is unique."""
    span = SpanBasis(operator.neg)
    for row in m.row_maps():
        span.add(row)
    rows = span.basis()[::-1]
    entries = {(r, c): v for r, row in enumerate(rows) for c, v in row.items()}
    return Matrix.trusted(m.rows, m.cols, entries), span.pivots()[::-1]


def kernel_basis(m: Matrix) -> list:
    """Canonical basis of the null space, as sparse dicts col -> Scalar.

    One basis vector per free column, in increasing free-column order, with
    coefficient 1 at the free column (the vector's leading coefficient), and
    minus that column of the :func:`rref` row at each pivot: one pass over
    the echelon entries puts an entry v at (k, f), f free, as -v at pivot k
    of the vector of f.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = {f: {f: ONE} for f in range(m.cols) if f not in pivot_set}
    for (k, f), v in red.entries.items():
        vec = basis.get(f)
        if vec is not None:
            vec[pivots[k]] = -v
    return list(basis.values())


def solve(m: Matrix, rhs: dict):
    """(x, unique) with m x = rhs, or None when there is no solution.

    rhs is a sparse dict row -> Scalar.  One :func:`rref` of [m | rhs]
    decides both: a pivot in the rhs column means no solution; otherwise x
    is the canonical particular solution (free variables set to 0, pivot
    variables read off the rhs column), deterministic for a given matrix,
    and unique is True iff m has no free column.
    """
    aug = m.cols
    entries = dict(m.entries)
    for r, v in rhs.items():
        if v:
            if not (0 <= r < m.rows):
                raise IndexError("rhs index out of range")
            entries[(r, aug)] = v if type(v) is int else scalar(v)
    red, pivots = rref(Matrix.trusted(m.rows, aug + 1, entries))
    if pivots and pivots[-1] == aug:
        return None
    sol = {}
    for k, p in enumerate(pivots):
        val = red.get(k, aug)
        if val:
            sol[p] = val
    return sol, len(pivots) == aug
