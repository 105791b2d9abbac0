"""Lifting a coalgebra map into right-invariant operators on T(F).

Given a coalgebra L, a truncated tensor context over F, and a linear map x
sending basis elements of L to regular right-invariant operators on F, each
l in L lifts to a unique grade-preserving operator X(l) on T(F):

  * X(l)(1) = eps_L(l) . 1,
  * X(l) = x(l) on F,
  * on a degree-n word, X(l) acts through the (n-1)-fold iterated coproduct
    of l, letter by letter:  sum  x(l_(1))(f_1) (x) ... (x) x(l_(n))(f_n).

The same operator is characterized by the product-splitting rule
X(l)(w1 . w2) = sum X(l') (w1) . X(l'') (w2) over delta(l).  The tests
build it that way too, one letter at a time, and require bit-exact
agreement with :func:`lift_operator` (``tests/oracles.py``).

:func:`split_witness` checks the splitting rule exactly on the T(F)
blocks, for lifted operators and (in the tests) for pi of monomials;
the antipode coproduct laws are decided on classes in ``hopf``.  Word bases
are lex-ordered products, so the rule on all word pairs of degrees
(n1, n2) is one block identity: the degree n1 + n2 block of the outer
operator against one :func:`~hopfreal.exactlin.kron_combination` of blocks
n1 and n2 (as are the lifted blocks).

Lifted blocks and the operators X(b) are memoized per spec and basis
element; the caches are pure (same key, same value) so concurrent use is
safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coalgebra import BasisId, Coalgebra, grouplikes
from .errors import InternalInconsistencyError, ValidationError
from .exactlin import Matrix, ONE, kron_combination, mat_mul, vec_add_scaled
from .free_tensor import TensorContext
from .invariant import LinOp, op_from_form, verify_right_invariance
from .reportkit import CheckReport


@dataclass
class RealizationSpec:
    """The full datum of a realization: L, the truncated context over F, the
    map x on the basis of L, and (optionally) the diagonal inverse pairs
    (l, l') with x(l) o x(l') = id used by the triangular antipode."""

    l_coalg: Coalgebra
    f_ctx: TensorContext
    x_map: dict  # BasisId -> RIOp (a raw degree-1 Matrix is accepted for tests)
    diag_pairs: tuple = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def max_degree(self) -> int:
        return self.f_ctx.max_degree

    def x_matrix(self, b: BasisId) -> Matrix:
        key = ("xmat", b)
        if key not in self._cache:
            x = self.x_map[b]
            if isinstance(x, Matrix):
                self._cache[key] = x
            else:
                self._cache[key] = op_from_form(self.f_ctx.f, x)
        return self._cache[key]

    def validate(self) -> list:
        failures = []
        missing = [b for b in self.l_coalg.basis if b not in self.x_map]
        for b in missing:
            failures.append(f"x is not defined on basis element {b}")
        if missing:
            return failures
        if self.diag_pairs is not None:
            glikes = set(grouplikes(self.l_coalg))
            n = self.f_ctx.f.dim
            for (l, lp) in self.diag_pairs:
                if l not in glikes:
                    failures.append(f"diag pair element {l} is not grouplike")
                elif lp not in glikes:
                    failures.append(f"diag pair element {lp} is not grouplike")
                elif mat_mul(self.x_matrix(l), self.x_matrix(lp)) != Matrix.identity(n):
                    failures.append(f"x({l}) o x({lp}) is not the identity on F")
        return failures


def make_spec(l_coalg, f_ctx, x_map, diag_pairs=None) -> RealizationSpec:
    spec = RealizationSpec(l_coalg, f_ctx, dict(x_map),
                           tuple(diag_pairs) if diag_pairs is not None else None)
    failures = spec.validate()
    if failures:
        raise ValidationError(failures)
    return spec


def _iterate_last(c: Coalgebra, terms: dict, steps: int) -> dict:
    for _ in range(steps):
        nxt = {}
        for tup, coeff in terms.items():
            head, last = tup[:-1], tup[-1]
            vec_add_scaled(nxt, {head + (p, q): cc for (p, q, cc) in c.delta_terms(last)}, coeff)
        terms = nxt
    return terms


def _iterate_first(c: Coalgebra, terms: dict, steps: int) -> dict:
    for _ in range(steps):
        nxt = {}
        for tup, coeff in terms.items():
            first, tail = tup[0], tup[1:]
            vec_add_scaled(nxt, {(p, q) + tail: cc for (p, q, cc) in c.delta_terms(first)}, coeff)
        terms = nxt
    return terms


def iterated_coproduct(l_coalg: Coalgebra, v: dict, n: int) -> dict:
    """n-fold iterated coproduct of a sparse vector, as (n+1)-tuples -> Fraction.

    Computed by expanding the last tensor factor at each step and checked
    against the first-factor recursion; coassociativity makes the two agree,
    and a disagreement means the coalgebra data is corrupt.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    start = {(b,): Fraction(c) for b, c in v.items() if c}
    left = _iterate_last(l_coalg, start, n)
    right = _iterate_first(l_coalg, start, n)
    if left != right:
        raise InternalInconsistencyError(
            "iterated coproduct recursions disagree (coalgebra is not coassociative)")
    return left


def lift_basis_block(spec: RealizationSpec, b: BasisId, n: int) -> Matrix:
    """Degree-n block of X(b) via the iterated-coproduct construction."""
    key = ("lift", b, n)
    if key in spec._cache:
        return spec._cache[key]
    size = spec.f_ctx.f.dim ** n
    if n == 0:
        block = Matrix(1, 1, {(0, 0): spec.l_coalg.eps(b)})
    else:
        block = kron_combination(size, size, [
            ([spec.x_matrix(p) for p in tup], coeff)
            for tup, coeff in iterated_coproduct(spec.l_coalg, {b: ONE}, n - 1).items()])
    spec._cache[key] = block
    return block


def lift_operator(spec: RealizationSpec, b: BasisId) -> LinOp:
    """X(b) on T(F) up to the truncation degree, for a basis element b of L.

    Memoized per spec and shares the memoized blocks; no LinOp or Matrix is
    written to after it is built.
    """
    key = ("X", b)
    if key not in spec._cache:
        spec._cache[key] = LinOp({n: lift_basis_block(spec, b, n)
                                  for n in range(spec.max_degree + 1)})
    return spec._cache[key]


def split_witness(ctx: TensorContext, outer: LinOp, parts, bound: int):
    """Check outer(w1 . w2) = sum c * left(w1) . right(w2) over the parts
    (left, right, c) for every word pair with deg w1 + deg w2 <= min(bound, N).

    Word bases are lex-ordered products, so idx(w1 . w2) = idx(w1) * dim^n2 +
    idx(w2), and the check for all pairs of degrees (n1, n2) is the exact
    block identity  outer_{n1+n2} = sum c * kron(left_{n1}, right_{n2}).
    Returns None when every identity holds, else the last failing (w1, w2) in
    (n1, n2, w1, w2) order: the largest differing column of the last failing
    block.  A block's integer view is computed once per call, however many
    pairs it appears in.
    """
    bound = min(bound, ctx.max_degree)
    witness = None
    views = {}
    for n1 in range(bound + 1):
        for n2 in range(bound + 1 - n1):
            block = outer.blocks[n1 + n2]
            diff = kron_combination(block.rows, block.cols, [((block,), -ONE)] + [
                ((left.blocks[n1], right.blocks[n2]), c) for left, right, c in parts], views)
            if diff.entries:
                col = max(c for _, c in diff.entries)
                size = len(ctx.word_basis(n2))
                witness = (ctx.word_basis(n1)[col // size], ctx.word_basis(n2)[col % size])
    return witness


def verify_lift(spec: RealizationSpec, b: BasisId) -> CheckReport:
    """Exhaustive exact check of the five lifted-operator properties of the
    memoized X(b) up to the truncation: the unit action, agreement with x on
    F, the splitting rule on all word pairs, grade preservation, and
    right-invariance on every word of T(F) (one block identity per degree,
    see :func:`~hopfreal.invariant.verify_right_invariance`).
    """
    ctx = spec.f_ctx
    report = CheckReport("lifted operator properties")
    x = lift_operator(spec, b)

    report.record("unit action X(l)(1) = eps(l) 1",
                  x.blocks[0] == Matrix(1, 1, {(0, 0): spec.l_coalg.eps(b)}))

    report.record("degree-1 action agrees with x", x.blocks[1] == spec.x_matrix(b))

    split_ops = [(lift_operator(spec, p), lift_operator(spec, q), coeff)
                 for p, q, coeff in spec.l_coalg.delta_terms(b)]
    witness = split_witness(ctx, x, split_ops, ctx.max_degree)
    report.record(
        "splitting rule on word pairs" + ("" if witness is None else f" (witness {witness})"),
        witness is None)

    graded = all(m.rows == m.cols == ctx.f.dim ** n for n, m in x.blocks.items())
    report.record("grade preservation (square block per degree)", graded)

    ok_inv, w = verify_right_invariance(ctx, x)
    report.record(
        "right-invariance on T(F)" + ("" if ok_inv else f" (witness {w})"), ok_inv)
    return report
