"""Finite-dimensional coalgebras presented by structure constants.

A coalgebra is closed finite data here: a basis, the expansion of the
coproduct on each basis element, and the counit values.  Both axioms
(coassociativity and the counit laws) are finite exact checks, performed by
:func:`verify_coalgebra`.

The two stock constructions are the dual of a finite-dimensional associative
algebra (coproduct dual to the product, counit dual to the unit) and the
coalgebras dual to the upper-triangular matrix algebras, with

    delta(l[i,j]) = sum over j <= k <= i of  l[k,j] (x) l[i,k]
    eps(l[i,j])   = 1 if i == j else 0

on the basis l[i,j], j <= i.  Finite direct sums of the latter are the
cotriangular coalgebras used by the antipode machinery.

Everything is finite-dimensional by construction, which makes the
finiteness/regularity side conditions of the underlying theory hold
automatically; the code treats that as a standing assumption rather than
modelling infinite-dimensional coalgebras.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import InvalidAlgebraError
from .exactlin import ONE, ZERO, Scalar, vec_add_scaled, vec_clean
from .reportkit import CheckReport


class BasisId(tuple):
    """Label of a coalgebra basis vector: the triple (block, i, j).

    Triangular ids carry the matrix position (i, j) with 1 <= j <= i and a
    block index; plain ids (j == 0) index an abstract basis, e.g. the dual
    basis of a presented algebra.  The field order gives the global,
    deterministic sort used everywhere (sparse iteration, word bases,
    monomial orders).

    Every word and monomial is a tuple of ids, so each dict lookup of a word
    hashes and compares its letters.  As a tuple subclass an id hashes,
    compares and sorts in C, with the value and order of the plain triple;
    an id therefore equals the plain triple ``(block, i, j)``.
    """

    __slots__ = ()

    def __new__(cls, block: int, i: int, j: int = 0):
        if j < 0 or i < 0 or block < 0:
            raise ValueError(f"bad basis id ({block},{i},{j})")
        if j > i:
            raise ValueError(f"triangular id needs j <= i, got ({i},{j})")
        return tuple.__new__(cls, (block, i, j))

    # in the class body so that it can be read and patched on the class
    __hash__ = tuple.__hash__

    block = property(itemgetter(0))
    i = property(itemgetter(1))
    j = property(itemgetter(2))

    def __getnewargs__(self):
        # tuple's own passes the triple to __new__ as one argument
        return tuple(self)

    def __repr__(self):
        return f"BasisId(block={self.block!r}, i={self.i!r}, j={self.j!r})"

    @staticmethod
    def plain(i: int, block: int = 0) -> "BasisId":
        return BasisId(block, i, 0)

    @staticmethod
    def tri(i: int, j: int, block: int = 0) -> "BasisId":
        if j < 1:
            raise ValueError("triangular indices are 1-based")
        return BasisId(block, i, j)

    @property
    def is_triangular(self) -> bool:
        return self.j > 0

    def __str__(self):
        prefix = f"{self.block}:" if self.block else ""
        if self.is_triangular:
            return f"{prefix}l[{self.i},{self.j}]"
        return f"{prefix}f[{self.i}]"


# Sparse vector in a coalgebra: BasisId -> Scalar.
Vect = dict


class AlgebraPresentation:
    """Associative unital algebra given by structure constants.

    ``structure[(l, m)]`` is the sparse expansion of e^l . e^m on the basis
    (absent pairs multiply to zero); ``unit`` holds the coordinates of the
    algebra unit.  Basis indices run 0..dim-1; ``names`` are display labels.
    """

    def __init__(self, dim: int, structure: dict, unit: dict, names: tuple = None):
        self.dim = dim
        self.structure = structure
        self.unit = unit
        self.names = names

    def basis_product(self, l: int, m: int) -> dict:
        return self.structure.get((l, m), {})

    def product(self, a: dict, b: dict) -> dict:
        out = {}
        for l, ca in a.items():
            for m, cb in b.items():
                vec_add_scaled(out, self.basis_product(l, m), ca * cb)
        return out

    def validate(self) -> list:
        """Exhaustive associativity and unit-law check; returns failure texts."""
        failures = []
        rng = range(self.dim)
        for a in rng:
            for b in rng:
                for c in rng:
                    left = self.product(self.basis_product(a, b), {c: ONE})
                    right = self.product({a: ONE}, self.basis_product(b, c))
                    if left != right:
                        failures.append(f"associativity fails on (e{a},e{b},e{c})")
        for a in rng:
            e = {a: ONE}
            if self.product(self.unit, e) != e:
                failures.append(f"left unit law fails on e{a}")
            if self.product(e, self.unit) != e:
                failures.append(f"right unit law fails on e{a}")
        return failures

    def name_of(self, i: int) -> str:
        if self.names and i < len(self.names):
            return self.names[i]
        return f"e{i}"


def ground_field() -> AlgebraPresentation:
    """The base field as a one-dimensional algebra."""
    return AlgebraPresentation(1, {(0, 0): {0: ONE}}, {0: ONE}, ("1",))


def dual_numbers() -> AlgebraPresentation:
    """C[t]/(t^2) on the basis {1, t}."""
    structure = {
        (0, 0): {0: ONE},
        (0, 1): {1: ONE},
        (1, 0): {1: ONE},
    }
    return AlgebraPresentation(2, structure, {0: ONE}, ("1", "t"))


def diagonal_algebra(n: int) -> AlgebraPresentation:
    """C^n with componentwise product (n orthogonal idempotents)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    structure = {(k, k): {k: ONE} for k in range(n)}
    unit = {k: ONE for k in range(n)}
    return AlgebraPresentation(n, structure, unit, tuple(f"p{k+1}" for k in range(n)))


def triangular_units(n: int) -> list:
    """Index order of the matrix units of the upper-triangular algebra: (row, col), row <= col."""
    return [(r, c) for r in range(1, n + 1) for c in range(r, n + 1)]


def upper_triangular_algebra(n: int) -> AlgebraPresentation:
    """The algebra of upper-triangular n x n matrices on its matrix units."""
    if n < 1:
        raise ValueError("n must be >= 1")
    units = triangular_units(n)
    index = {u: k for k, u in enumerate(units)}
    structure = {}
    for (a, b) in units:
        for (c, d) in units:
            if b == c:
                structure[(index[(a, b)], index[(c, d)])] = {index[(a, d)]: ONE}
    unit = {index[(r, r)]: ONE for r in range(1, n + 1)}
    names = tuple(f"e[{r},{c}]" for (r, c) in units)
    return AlgebraPresentation(len(units), structure, unit, names)


def _norm_delta(delta: dict) -> dict:
    out = {}
    for b, terms in delta.items():
        acc = {}
        for (p, q, c) in terms:
            vec_add_scaled(acc, {(p, q): ONE}, c)
        out[b] = tuple((p, q, c) for (p, q), c in sorted(acc.items()))
    return out


class Coalgebra:
    """Coalgebra as structure constants: delta(b) = sum of c * p (x) q per basis b.

    Two coalgebras are equal when their basis, coproduct and counit are."""

    def __init__(self, basis: tuple, delta: dict, epsilon: dict):
        self.basis = basis
        self.delta = delta
        self.epsilon = epsilon

    def __eq__(self, other):
        return (isinstance(other, Coalgebra) and self.basis == other.basis
                and self.delta == other.delta and self.epsilon == other.epsilon)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def delta_terms(self, b: BasisId) -> tuple:
        return self.delta.get(b, ())

    def eps(self, b: BasisId) -> Scalar:
        return self.epsilon.get(b, ZERO)


def make_coalgebra(basis, delta, epsilon) -> Coalgebra:
    """The coalgebra with every id of delta and epsilon replaced by the
    equal object of the basis, so that every word built from coproduct
    terms shares the basis's objects (one object per letter; lookups of
    such words short-cut on identity before comparing)."""
    basis = tuple(sorted(basis))
    own = {b: b for b in basis}
    delta = {own.get(b, b): [(own.get(p, p), own.get(q, q), c) for p, q, c in terms]
             for b, terms in delta.items()}
    epsilon = {own.get(b, b): v for b, v in epsilon.items()}
    return Coalgebra(basis, _norm_delta(delta), vec_clean(epsilon))


def dual_coalgebra(e: AlgebraPresentation) -> Coalgebra:
    """Dual coalgebra of a presented algebra on the dual basis.

    delta(f_i) picks up one term c * f_l (x) f_m for every structure constant
    c of e^l . e^m on e^i; eps(f_i) is the i-th coordinate of the unit.
    """
    failures = e.validate()
    if failures:
        raise InvalidAlgebraError(failures)
    basis = [BasisId.plain(i) for i in range(e.dim)]
    delta = {b: [] for b in basis}
    for (l, m), expansion in e.structure.items():
        for i, c in expansion.items():
            delta[BasisId.plain(i)].append((BasisId.plain(l), BasisId.plain(m), c))
    epsilon = {BasisId.plain(i): c for i, c in e.unit.items()}
    return make_coalgebra(basis, delta, epsilon)


def triangular_coalgebra(n: int, block: int = 0) -> Coalgebra:
    """The coalgebra dual to the upper-triangular n x n matrix algebra."""
    if n < 1:
        raise ValueError("n must be >= 1")
    basis = [BasisId.tri(i, j, block) for i in range(1, n + 1) for j in range(1, i + 1)]
    delta = {}
    epsilon = {}
    for b in basis:
        delta[b] = [
            (BasisId.tri(k, b.j, block), BasisId.tri(b.i, k, block), ONE)
            for k in range(b.j, b.i + 1)
        ]
        if b.i == b.j:
            epsilon[b] = ONE
    return make_coalgebra(basis, delta, epsilon)


def _retag(b: BasisId, block: int) -> BasisId:
    return BasisId(block, b.i, b.j)


def direct_sum(cs) -> Coalgebra:
    """Direct sum of coalgebras; basis ids are retagged with consecutive block indices."""
    cs = list(cs)
    if not cs:
        raise ValueError("direct_sum needs at least one summand")
    basis = []
    delta = {}
    epsilon = {}
    next_block = 0
    for c in cs:
        blocks = sorted({b.block for b in c.basis})
        remap = {old: next_block + k for k, old in enumerate(blocks)}
        next_block += len(blocks)
        for b in c.basis:
            nb = _retag(b, remap[b.block])
            basis.append(nb)
            delta[nb] = [
                (_retag(p, remap[p.block]), _retag(q, remap[q.block]), coeff)
                for (p, q, coeff) in c.delta_terms(b)
            ]
            if c.eps(b):
                epsilon[nb] = c.eps(b)
    return make_coalgebra(basis, delta, epsilon)


AXIOMS = ("coassociativity", "left counit law", "right counit law")


def axioms_at(c: Coalgebra, b: BasisId) -> tuple:
    """Whether each of the :data:`AXIOMS` holds at b, as a tuple of bools:
    (delta (x) id) delta(b) = (id (x) delta) delta(b), and both counit laws
    sum c eps(p) q = b = sum c eps(q) p over delta(b) = sum c p (x) q."""
    left = {}
    right = {}
    lcounit = {}
    rcounit = {}
    for (p, q, coeff) in c.delta_terms(b):
        vec_add_scaled(left, {(p1, p2, q): c2 for (p1, p2, c2) in c.delta_terms(p)}, coeff)
        vec_add_scaled(right, {(p, q1, q2): c2 for (q1, q2, c2) in c.delta_terms(q)}, coeff)
        vec_add_scaled(lcounit, {q: coeff}, c.eps(p))
        vec_add_scaled(rcounit, {p: coeff}, c.eps(q))
    return left == right, lcounit == {b: ONE}, rcounit == {b: ONE}


def verify_coalgebra(c: Coalgebra) -> CheckReport:
    """Exact per-basis-element check of coassociativity and both counit laws."""
    report = CheckReport("coalgebra axioms")
    for b in c.basis:
        for ok, law in zip(axioms_at(c, b), AXIOMS):
            report.record(ok, "{} on {}".format, law, b)
    return report


def grouplikes(c: Coalgebra) -> list:
    """Basis elements b with delta(b) = b (x) b and eps(b) = 1."""
    out = []
    for b in c.basis:
        terms = c.delta_terms(b)
        if terms == ((b, b, ONE),) and c.eps(b) == ONE:
            out.append(b)
    return out


def triangular_blocks(c: Coalgebra) -> dict:
    """Map block index -> size n if the coalgebra is cotriangular, else None.

    Cotriangular means: every basis id is triangular, and the ids, coproduct
    and counit of each block are those of ``triangular_coalgebra(n, block)``
    for its largest row index n.
    """
    if not all(b.is_triangular for b in c.basis):
        return None
    sizes = {}
    for b in c.basis:
        sizes[b.block] = max(sizes.get(b.block, 0), b.i)
    blocks = [triangular_coalgebra(n, block) for block, n in sorted(sizes.items())]
    if tuple(sorted(b for t in blocks for b in t.basis)) != c.basis:
        return None
    for t in blocks:
        for b in t.basis:
            if c.delta_terms(b) != t.delta_terms(b) or c.eps(b) != t.eps(b):
                return None
    return sizes


def is_cotriangular(c: Coalgebra) -> bool:
    return triangular_blocks(c) is not None
