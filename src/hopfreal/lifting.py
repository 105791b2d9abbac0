"""Lifting a coalgebra map into right-invariant operators on T(F).

Given a coalgebra L, a truncated tensor context over F, and a linear map x
sending basis elements of L to regular right-invariant operators on F, each
l in L lifts to a unique grade-preserving operator X(l) on T(F):

  * X(l)(1) = eps_L(l) . 1,
  * X(l) = x(l) on F,
  * X(l)(w1 . w2) = sum X(l') (w1) . X(l'') (w2) over delta(l).

:func:`lift_operator` builds X(l) by the last rule with w1 a letter: block
n is X_n(l) = sum c * kron(x(p), X_{n-1}(q)) over delta(l), so each block
is one Kronecker sum of blocks already built.  The rule on all other
splittings then follows from the coassociativity of L, which
``coalgebra.verify_coalgebra`` decides, and :func:`verify_lift` checks it
block by block.  The tests build X(l) twice more (``tests/oracles.py``):
by the same recursion in independent code, and letter by letter through
the (n-1)-fold iterated coproduct, sum x(l_(1))(f_1) (x) ... (x)
x(l_(n))(f_n); both must agree bit-exactly with :func:`lift_operator`.

:func:`split_witness` checks the splitting rule exactly on the T(F)
blocks, for lifted operators and (in the tests) for pi of monomials;
the antipode coproduct laws are decided on classes in ``hopf``.  Word bases
are lex-ordered products, so the rule on all word pairs of degrees
(n1, n2) is one block identity: the degree n1 + n2 block of the outer
operator against one Kronecker sum (:func:`~hopfreal.exactlin.kron_sums`)
of blocks n1 and n2 (as are the lifted blocks).

Each distinct lifted operator is built and verified once.  x(b) is
interned by content, so letters with equal x share one Matrix.  Block n of
X(b) is read off its signature: eps(b) at n = 0, the interned x(b) at
n = 1, and the tuple of (id(x(p)), id(X_{n-1}(q)), c) over delta(b) above
that; :func:`lift_basis_block` reads nothing else, so equal signatures give
equal blocks, and sharing the block is exact.  By induction on n, letters
with equal lifts get the same blocks, and then the same dict.  The
splitting and right-invariance checks of :func:`verify_lift` read only
X(b) and the (X(p), X(q), c) of delta(b), so they are decided once per
key of those objects' ids, each object pinned by the spec's cache.  The
cache is pure (same key, same value) and nothing in it is written to after
it is built.
"""

from __future__ import annotations

from .coalgebra import BasisId, Coalgebra, grouplikes
from .errors import ValidationError
from .exactlin import Matrix, ONE, kron_combination, kron_sums, mat_mul
from .fmt import format_id
from .free_tensor import TensorContext
from .invariant import op_from_form, verify_right_invariance
from .reportkit import CheckReport


class RealizationSpec:
    """The full datum of a realization: L, the truncated context over F, the
    map x on the basis of L, and (optionally) the diagonal inverse pairs
    (l, l') with x(l) o x(l') = id used by the triangular antipode.  The
    spec keeps its own copies: x as a dict, the pairs as a tuple or None."""

    def __init__(self, l_coalg: Coalgebra, f_ctx: TensorContext, x_map: dict,
                 diag_pairs=None):
        self.l_coalg = l_coalg
        self.f_ctx = f_ctx
        self.x_map = dict(x_map)  # BasisId -> RIOp (a raw degree-1 Matrix is accepted for tests)
        self.diag_pairs = None if diag_pairs is None else tuple(diag_pairs)
        self._cache = {}

    @property
    def max_degree(self) -> int:
        return self.f_ctx.max_degree

    def x_matrix(self, b: BasisId) -> Matrix:
        """x(b) on F, interned by content: letters with equal x share it."""
        key = ("xmat", b)
        if key not in self._cache:
            x = self.x_map[b]
            if not isinstance(x, Matrix):
                x = op_from_form(self.f_ctx.f, x)
            content = ("xmat", x.rows, x.cols, frozenset(x.entries.items()))
            self._cache[key] = self._cache.setdefault(content, x)
        return self._cache[key]

    def validate(self, labels: dict = None) -> list:
        """Every failure of the datum, each basis element of L named by its
        label in labels, or by str(b) when it has none."""
        def name(b):
            return format_id(b, labels)

        failures = []
        missing = [b for b in self.l_coalg.basis if b not in self.x_map]
        for b in missing:
            failures.append(f"x is not defined on basis element {name(b)}")
        if missing:
            return failures
        if self.diag_pairs is not None:
            glikes = set(grouplikes(self.l_coalg))
            n = self.f_ctx.f.dim
            for (l, lp) in self.diag_pairs:
                if l not in glikes:
                    failures.append(f"diag pair element {name(l)} is not grouplike")
                elif lp not in glikes:
                    failures.append(f"diag pair element {name(lp)} is not grouplike")
                elif mat_mul(self.x_matrix(l), self.x_matrix(lp)) != Matrix.identity(n):
                    failures.append(f"x({name(l)}) o x({name(lp)}) is not the identity on F")
        return failures


def make_spec(l_coalg, f_ctx, x_map, diag_pairs=None) -> RealizationSpec:
    spec = RealizationSpec(l_coalg, f_ctx, x_map, diag_pairs)
    failures = spec.validate()
    if failures:
        raise ValidationError(failures)
    return spec


def lift_basis_block(spec: RealizationSpec, b: BasisId, n: int, lower: dict) -> Matrix:
    """Degree-n block of X(b): eps(b) at n = 0, x(b) at n = 1, and above that
    sum c * kron(x(p), X_{n-1}(q)) over delta(b), read from ``lower``, the
    degree n - 1 blocks of every basis element of L."""
    if n == 0:
        return Matrix(1, 1, {(0, 0): spec.l_coalg.eps(b)})
    if n == 1:
        return spec.x_matrix(b)
    size = spec.f_ctx.f.dim ** n
    return kron_combination(size, size, [((spec.x_matrix(p), lower[q]), c)
                                         for p, q, c in spec.l_coalg.delta_terms(b)])


def lift_operator(spec: RealizationSpec, b: BasisId) -> dict:
    """X(b) on T(F) up to the truncation degree, for a basis element b of L,
    as a dict from degree to block.

    The first call lifts all of L, degree by degree, since block n of X(b)
    reads block n - 1 of every X(q) with q in delta(b), and the triangular
    delta(b) contains b itself.  Each level builds one block per distinct
    signature (module docstring), and letters with the same blocks share
    one dict.  Memoized per spec; no dict or Matrix is written to after it
    is built.
    """
    key = ("X", b)
    if key not in spec._cache:
        coalg, x, levels, lower = spec.l_coalg, spec.x_matrix, [], None
        for n in range(spec.max_degree + 1):
            made, level = {}, {}
            for l in coalg.basis:
                if n == 0:
                    sig = coalg.eps(l)
                elif n == 1:
                    sig = id(x(l))
                else:
                    sig = tuple((id(x(p)), id(lower[q]), c) for p, q, c in coalg.delta_terms(l))
                if sig not in made:
                    made[sig] = lift_basis_block(spec, l, n, lower)
                level[l] = made[sig]
            levels.append(level)
            lower = level
        ops = {}
        for l in coalg.basis:
            blocks = tuple(level[l] for level in levels)
            spec._cache["X", l] = ops.setdefault(tuple(map(id, blocks)), dict(enumerate(blocks)))
    return spec._cache[key]


def split_witness(ctx: TensorContext, outer: dict, parts, bound: int):
    """Check outer(w1 . w2) = sum c * left(w1) . right(w2) over the parts
    (left, right, c), operators given as dicts from degree to block, for
    every word pair with deg w1 + deg w2 <= min(bound, N).

    Word bases are lex-ordered products, so idx(w1 . w2) = idx(w1) * dim^n2 +
    idx(w2), and the check for all pairs of degrees (n1, n2) is the exact
    block identity  outer_{n1+n2} = sum c * kron(left_{n1}, right_{n2}).
    Returns None when every identity holds, else the last failing (w1, w2) in
    (n1, n2, w1, w2) order: the largest differing column of the last failing
    block.  Each identity is read off the integer sums of
    :func:`~hopfreal.exactlin.kron_sums`: its nonzero sums are the differing
    entries, so no Fraction is built.  A block's integer view is computed
    once per call, however many pairs it appears in.
    """
    bound = min(bound, ctx.max_degree)
    witness = None
    views = {}
    for n1 in range(bound + 1):
        for n2 in range(bound + 1 - n1):
            block = outer[n1 + n2]
            _, sums = kron_sums(block.rows, block.cols, [((block,), -ONE)] + [
                ((left[n1], right[n2]), c) for left, right, c in parts], views)
            cols = block.cols
            col = max((k % cols for k, s in sums.items() if s), default=None)
            if col is not None:
                size = len(ctx.word_basis(n2))
                witness = (ctx.word_basis(n1)[col // size], ctx.word_basis(n2)[col % size])
    return witness


def verify_lift(spec: RealizationSpec, b: BasisId) -> CheckReport:
    """Exhaustive exact check of the five lifted-operator properties of the
    memoized X(b) up to the truncation: the unit action, agreement with x on
    F, the splitting rule on all word pairs, grade preservation, and
    right-invariance on every word of T(F) (one block identity per degree,
    see :func:`~hopfreal.invariant.verify_right_invariance`).

    The unit and degree-1 checks read b itself and run per element.  The
    splitting and right-invariance checks read only the operators, so
    they are decided once per distinct (X(b), its delta(b) parts), keyed
    by the ids of those shared objects, and memoized per spec.
    """
    ctx = spec.f_ctx
    report = CheckReport("lifted operator properties")
    x = lift_operator(spec, b)

    report.record(x[0] == Matrix(1, 1, {(0, 0): spec.l_coalg.eps(b)}),
                  "unit action X(l)(1) = eps(l) 1".format)

    report.record(x[1] == spec.x_matrix(b), "degree-1 action agrees with x".format)

    split_ops = [(lift_operator(spec, p), lift_operator(spec, q), coeff)
                 for p, q, coeff in spec.l_coalg.delta_terms(b)]
    key = ("verified", id(x), tuple((id(p), id(q), c) for p, q, c in split_ops))
    if key not in spec._cache:
        spec._cache[key] = (split_witness(ctx, x, split_ops, ctx.max_degree),
                            verify_right_invariance(ctx, x))
    witness, (ok_inv, w) = spec._cache[key]
    report.record(witness is None, "splitting rule on word pairs (witness {})".format, witness)

    graded = all(m.rows == m.cols == ctx.f.dim ** n for n, m in x.items())
    report.record(graded, "grade preservation (square block per degree)".format)

    report.record(ok_inv, "right-invariance on T(F) (witness {})".format, w)
    return report
