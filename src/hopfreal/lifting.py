"""Lifting a coalgebra map into right-invariant operators on T(F).

Given a coalgebra L, a truncated tensor context over F, and a linear map x
sending basis elements of L to regular right-invariant operators on F, each
l in L lifts to a unique grade-preserving operator X(l) on T(F):

  * X(l)(1) = eps_L(l) . 1,
  * X(l) = x(l) on F,
  * X(l)(w1 . w2) = sum X(l') (w1) . X(l'') (w2) over delta(l).

Word bases are lex-ordered products, so the last rule with w1 a letter
gives X(b) block by block: X_0(b) = eps(b), X_1(b) = x(b), and for n >= 2

    X_n(b) = sum c * kron(x(p), X_{n-1}(q))  over delta(b) = sum c p (x) q.

No report builds these blocks: the image walk (``realization``) reads the
same recursion on classes, and the tests build the blocks in
``tests/oracles.py``, by this recursion and through the iterated
coproduct.  :func:`verify_lift` decides the lift's properties from the data
the recursion reads, by two inductions on the degree; N is the truncation.

Right-invariance.  The coproduct of degree-(m + 1) words is
D_{m+1} = sigma (D_1 (x) D_m), sigma the swap of the two middle tensor
factors.  If A on F and B on F^m are right-invariant, D_1 A = (A (x) I) D_1
and D_m B = (B (x) I) D_m, then

    D_{m+1} kron(A, B) = sigma (A (x) I (x) B (x) I) (D_1 (x) D_m)
                       = (kron(A, B) (x) I) D_{m+1},

so kron(A, B) is right-invariant, and so is a sum of such products.  X_0(b)
is a scalar on degree 0, and X_1(r) = x(r), so by induction on n every
block of X(b) is right-invariant once each x(l) the recursion reads is:
the check is the degree-1 identity on those letters.  Each X_n(b) is
likewise square of side dim F^n once those x(l) are dim F x dim F.

Splitting.  The rule on the words of degrees (n1, n2) is the block identity
X_{n1+n2}(b) = sum c kron(X_{n1}(p), X_{n2}(q)) over delta(b).  By
induction on n1:

  * n1 = 0: the right side is X_{n2}(sum c eps(p) q), which is X_{n2}(b)
    by the left counit law at b; n2 = 0 likewise by the right counit law;
  * n1 = 1, n2 >= 1: the identity is the recursion;
  * n1 >= 2, n2 >= 1: the recursion, then the rule at each q for
    (n1 - 1, n2), write the left side as the sum of
    c c' kron(x(p), X_{n1-1}(q'), X_{n2}(q'')) over (id (x) delta) delta(b);
    expanding X_{n1}(p) by the recursion writes the right side as the same
    sum over (delta (x) id) delta(b).  They agree where delta is
    coassociative at b.

The rule at q is called for only at elements whose own coproduct the
recursion reads.  So both counit laws and coassociativity at those
elements, b among them, give the rule on every word pair of degree <= N.
An L that fails them there fails the check, even where the blocks happen
to agree: the lift's theorems need a coalgebra.
"""

from __future__ import annotations

from .coalgebra import AXIOMS, BasisId, Coalgebra, axioms_at, grouplikes
from .errors import ValidationError
from .exactlin import Matrix, mat_mul
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
        """x(b) on F as a matrix, built once per letter."""
        key = ("xmat", b)
        if key not in self._cache:
            x = self.x_map[b]
            self._cache[key] = x if isinstance(x, Matrix) else op_from_form(self.f_ctx.f, x)
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


def _read_by_lift(spec: RealizationSpec, b: BasisId):
    """(split, letters): the elements of L whose coproduct the recursion of
    X(b) up to the truncation reads, and the letters l whose x(l) it reads,
    b first, each list in the order first met.

    An element r at depth k from b along the second legs of coproducts has
    its blocks up to X_{N-k}(r) read: X_1(r) = x(r) at k <= N - 1, and the
    higher ones through its coproduct, whose first legs are letters too, at
    k <= N - 2."""
    top = spec.max_degree
    order, depth, letters = [b], {b: 0}, {b: None}
    for r in order:
        if depth[r] <= top - 2:
            for p, q, _ in spec.l_coalg.delta_terms(r):
                letters[p] = letters[q] = None
                if q not in depth:
                    depth[q] = depth[r] + 1
                    order.append(q)
    return [r for r in order if depth[r] <= top - 2], list(letters)


def verify_lift(spec: RealizationSpec, b: BasisId) -> CheckReport:
    """Exact check of the five lifted-operator properties of X(b) up to the
    truncation, decided from the data its recursion reads (module
    docstring): the unit action and the agreement with x on F, which hold
    by the recursion's definition; the splitting rule on all word pairs,
    from the coalgebra axioms at the elements whose coproduct it reads
    (the first failing law names its element); grade preservation, from the
    shape of each x(l) it reads; and right-invariance on every word of
    T(F), from the degree-1 identity on those x(l), b first (a failure
    names its word, and its letter when that is not b).  No T(F) block is
    built, so the cost does not grow with dim F^N."""
    report = CheckReport("lifted operator properties")
    split, letters = _read_by_lift(spec, b)
    # X_0(b) = eps(b) and X_1(b) = x(b) define the lift
    report.record(True, "unit action X(l)(1) = eps(l) 1".format)
    report.record(True, "degree-1 action agrees with x".format)

    broken = ()
    for r in split or [b]:
        laws = [law for ok, law in zip(axioms_at(spec.l_coalg, r), AXIOMS) if not ok]
        if laws:
            broken = (laws[0], r)
            break
    report.record(not broken, "splitting rule on word pairs ({} fails on {})".format, *broken)

    dim = spec.f_ctx.f.dim
    square = [l for l in letters if spec.x_matrix(l).rows == spec.x_matrix(l).cols == dim]
    report.record(len(square) == len(letters),
                  "grade preservation (square block per degree)".format)

    failed = ()
    for l in square:
        ok, w = verify_right_invariance(spec.f_ctx, {1: spec.x_matrix(l)})
        if not ok:
            failed = (w, "" if l == b else f" of x({l})")
            break
    report.record(not failed, "right-invariance on T(F) (witness {}{})".format, *failed)
    return report
