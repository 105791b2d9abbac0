"""Reference implementations that the tests compare the package against.

No report runs these.  Each computes by the direct route an object the
package decides another way: pi(w) as composed T(F) blocks (against the
image walk), the lift on T(F) twice, by the splitting recursion and
through the iterated coproduct, with the splitting and right-invariance
checks on its blocks (against verify-lift, which decides them from
degree-1 data), sums of Kronecker products by a Fraction loop, the form
convolution algebra (against composing the X_omega), the T(F)/T(E)
duality pairing, relabelled coalgebras, the pivots and rows of a bounded
ideal (against an enumerated span), the relation kernels
of a window by elimination (against reading them off the image walk), and
the reduced echelon form by Gauss-Jordan elimination (against
``SpanBasis``).  Linear combinations of blocks and operators, which the
package no longer forms, dense-row conversions of matrices, the zero test
of a matrix and membership in a ``SpanBasis`` live here too.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hopfreal.coalgebra import (
    AlgebraPresentation, BasisId, Coalgebra, dual_coalgebra, make_coalgebra, triangular_units)
from hopfreal.errors import HopfrealError, InternalInconsistencyError, UnsupportedStructureError
from hopfreal.exactlin import (
    Matrix, ONE, ZERO, SpanBasis, kernel_basis, mat_mul, solve, vec_add_scaled, vec_clean)
from hopfreal.free_tensor import TensorContext, graded_key, word_coproduct
from hopfreal.invariant import RIOp, op_from_form, verify_right_invariance
from hopfreal.lifting import RealizationSpec
from hopfreal.realization import BoundedIdeal, image_walk, l_context, monomials, monomials_upto
from hopfreal.reportkit import CheckReport


class InvarianceError(HopfrealError):
    """An operator expected to be right-invariant is not; carries a witness."""

    def __init__(self, witness, message="operator is not right-invariant"):
        self.witness = witness
        super().__init__(f"{message} (witness: {witness})")


def from_rows(data) -> Matrix:
    """The matrix of a dense list of rows."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    return Matrix(rows, cols, {(r, c): v for r, row in enumerate(data)
                               for c, v in enumerate(row) if v})


def matrix_is_zero(m: Matrix) -> bool:
    return not m.entries


def span_contains(span: SpanBasis, vec: dict) -> bool:
    """Membership in a span: vec reduces to zero modulo its basis."""
    return not span.reduce(vec)


def to_rows(m: Matrix) -> list:
    """The dense list of rows of a matrix."""
    out = [[ZERO] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        out[r][c] = v
    return out


def gauss_jordan_rref(m: Matrix):
    """Reduced row echelon form and pivot columns by column-by-column
    Gauss-Jordan elimination, independent of ``SpanBasis``: the same pair
    :func:`hopfreal.exactlin.rref` returns, since the form is unique."""
    rows = m.row_maps()
    pivots = []
    pr = 0
    nrows = len(rows)
    for c in range(m.cols):
        pivot = None
        for r in range(pr, nrows):
            if c in rows[r]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = Fraction(1, rows[pr][c])
        rows[pr] = {k: v * inv for k, v in rows[pr].items()}
        lead = rows[pr]
        for r in range(nrows):
            if r != pr and c in rows[r]:
                vec_add_scaled(rows[r], lead, -rows[r][c])
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    entries = {(r, c): v for r, row in enumerate(rows) for c, v in row.items()}
    return Matrix(m.rows, m.cols, entries), pivots


def kron_combination(rows: int, cols: int, terms) -> Matrix:
    """sum coeff * kron(m_1, ..., m_k) over the (mats, coeff) terms, k >= 1,
    by a Fraction loop: kron(a, m)[r_a * m.rows + r_m, c_a * m.cols + c_m] =
    a[r_a, c_a] m[r_m, c_m].  ValueError unless each product is rows x cols."""
    acc = {}
    for mats, coeff in terms:
        shape, kron = (1, 1), {(0, 0): ONE}
        for m in mats:
            kron = {(row * m.rows + r, col * m.cols + c): value * v
                    for (row, col), value in kron.items() for (r, c), v in m.entries.items()}
            shape = (shape[0] * m.rows, shape[1] * m.cols)
        if not mats or shape != (rows, cols):
            raise ValueError("shape mismatch")
        vec_add_scaled(acc, kron, coeff)
    return Matrix(rows, cols, acc)


def mat_combination(rows: int, cols: int, terms) -> Matrix:
    """sum coeff * m over the (m, coeff) terms, each m rows x cols: the
    one-factor case of :func:`kron_combination`."""
    return kron_combination(rows, cols, [((m,), coeff) for m, coeff in terms])


def op_combination(ctx: TensorContext, terms) -> dict:
    """sum coeff * op over (op, coeff) terms, block by block; the zero
    operator when there are no terms.  An operator is a dict from degree
    to block."""
    terms = list(terms)
    blocks = {}
    for n in range(ctx.max_degree + 1):
        size = len(ctx.word_basis(n))
        blocks[n] = mat_combination(size, size, [(op[n], coeff) for op, coeff in terms])
    return blocks


def delta_vect(c: Coalgebra, v: dict) -> dict:
    """Coproduct of a sparse vector, as (BasisId, BasisId) -> Fraction."""
    out = {}
    for b, coeff in v.items():
        vec_add_scaled(out, {(p, q): cc for (p, q, cc) in c.delta_terms(b)}, coeff)
    return out


def op_identity(ctx: TensorContext) -> dict:
    return {n: Matrix.identity(len(ctx.word_basis(n))) for n in range(ctx.max_degree + 1)}


def op_compose(a: dict, b: dict) -> dict:
    """a o b (apply b first)."""
    return {n: mat_mul(m, b[n]) for n, m in a.items()}


def op_vector(op: dict) -> dict:
    """Flatten to a sparse vector keyed (degree, row, col), for span work."""
    out = {}
    for n, m in sorted(op.items()):
        for (r, c), v in m.entries.items():
            out[(n, r, c)] = v
    return out


def op_is_zero(op: dict) -> bool:
    return all(matrix_is_zero(m) for m in op.values())


def right_invariance_on_f(f: Coalgebra, m: Matrix):
    """The right-invariance check of a degree-1 operator on F, with a basis
    element of F as the witness: the package's check on TensorContext(F, 1)."""
    ok, w = verify_right_invariance(TensorContext(f, 1), {1: m})
    return ok, (w[0] if w else None)


def with_truncation(spec: RealizationSpec, max_degree: int) -> RealizationSpec:
    """Same realization data at another truncation degree (fresh caches)."""
    ctx = TensorContext(spec.f_ctx.f, max_degree)
    return RealizationSpec(spec.l_coalg, ctx, spec.x_map, spec.diag_pairs)


def represent_word(spec: RealizationSpec, w: tuple) -> dict:
    """pi on a single monomial: composition of the lifted generators
    (memoized per spec)."""
    key = ("pi", w)
    if key in spec._cache:
        return spec._cache[key]
    if not w:
        op = op_identity(spec.f_ctx)
    else:
        op = op_compose(represent_word(spec, w[:-1]), lift_operator_recursive(spec, w[-1]))
    spec._cache[key] = op
    return op


def represent(spec: RealizationSpec, w) -> dict:
    """pi extended linearly to sparse combinations of monomials."""
    if isinstance(w, tuple):
        w = {w: ONE}
    return op_combination(spec.f_ctx, [
        (represent_word(spec, mono), coeff)
        for mono, coeff in sorted(w.items(), key=lambda kv: graded_key(kv[0]))
    ])


def window_kernel(spec: RealizationSpec, degree: int, top: int, upto: bool = False) -> list:
    """Canonical basis of ker pi on blocks 0 .. top, over the monomials of
    degree d (of degree <= d if upto), by one elimination: the kernel of the
    matrix whose columns are their coordinates on the basis of
    pi_top(T(L)), with one row per basis word."""
    walk = image_walk(spec)
    mons = monomials_upto(spec.l_coalg, degree) if upto else monomials(spec.l_coalg, degree)
    entries = {(k, j): c for j, w in enumerate(mons) for k, c in walk.coordinates(w, top).items()}
    matrix = Matrix.trusted(len(walk.basis(top, degree)), len(mons), entries)
    return [{mons[j]: c for j, c in vec.items()} for vec in kernel_basis(matrix)]


def split_witness(ctx: TensorContext, outer: dict, parts, bound: int):
    """Check outer(w1 . w2) = sum c * left(w1) . right(w2) over the parts
    (left, right, c), operators given as dicts from degree to block, for
    every word pair with deg w1 + deg w2 <= min(bound, N).  Returns None
    when every pair holds, else the last failing (w1, w2) in
    (n1, n2, w1, w2) order.

    Word bases are lex-ordered products, so idx(w1 . w2) = idx(w1) * dim^n2
    + idx(w2), and the rule on all word pairs of degrees (n1, n2) is the
    block identity outer_{n1+n2} = sum c * kron(left_{n1}, right_{n2}): one
    :func:`kron_combination` per degree pair, whose largest nonzero column
    is the last failing pair."""
    bound = min(bound, ctx.max_degree)
    witness = None
    for n1 in range(bound + 1):
        for n2 in range(bound + 1 - n1):
            block = outer[n1 + n2]
            diff = kron_combination(block.rows, block.cols, [((block,), -ONE)] + [
                ((left[n1], right[n2]), c) for left, right, c in parts])
            if diff.entries:
                col = max(c for _, c in diff.entries)
                size = len(ctx.word_basis(n2))
                witness = (ctx.word_basis(n1)[col // size], ctx.word_basis(n2)[col % size])
    return witness


def lift_checks(spec: RealizationSpec, b: BasisId) -> tuple:
    """(splitting, grade, right-invariance) of X(b), each True when it holds,
    decided on the blocks of :func:`lift_operator_recursive` up to the
    truncation: :func:`split_witness` against the parts of delta(b), square
    blocks of side dim F^n, and
    :func:`~hopfreal.invariant.verify_right_invariance` on every degree."""
    x = lift_operator_recursive(spec, b)
    parts = [(lift_operator_recursive(spec, p), lift_operator_recursive(spec, q), c)
             for p, q, c in spec.l_coalg.delta_terms(b)]
    ctx = spec.f_ctx
    return (split_witness(ctx, x, parts, ctx.max_degree) is None,
            all(m.rows == m.cols == ctx.f.dim ** n for n, m in x.items()),
            verify_right_invariance(ctx, x)[0])


def verify_splitting(spec: RealizationSpec, w: tuple, bound: int) -> bool:
    """pi(w)(w1 . w2) = sum pi(w')(w1) . pi(w'')(w2) over the letterwise
    coproduct of w, for deg w1 + deg w2 <= min(bound, N)."""
    splits = [(represent_word(spec, w1), represent_word(spec, w2), coeff)
              for (w1, w2), coeff in sorted(word_coproduct(l_context(spec), w).items())]
    return split_witness(spec.f_ctx, represent_word(spec, w), splits, bound) is None


def counit_check(spec: RealizationSpec, w) -> Fraction:
    """Value of pi(w) on the unit word; the counit of the operator bialgebra."""
    return represent(spec, w)[0].get(0, 0)


def ideal_pivots(ideal: BoundedIdeal) -> list:
    """The words of length <= b that are not standard: the leading words of
    S_b, in graded-lex order (the pivots of a ``SpanBasis(graded_key)``)."""
    return [w for k in range(ideal.bound + 1) for w in itertools.product(ideal._letters, repeat=k)
            if ideal._reducer(w) is not None]


def ideal_basis(ideal: BoundedIdeal) -> list:
    """The canonical reduced rows p - NF(p) of S_b in increasing pivot order."""
    rows = []
    for p in ideal_pivots(ideal):
        row = {p: ONE}
        vec_add_scaled(row, ideal.normal_form(p), -ONE)
        rows.append(row)
    return rows


def _recursive_block(spec: RealizationSpec, b: BasisId, n: int) -> Matrix:
    key = ("rec", b, n)
    if key in spec._cache:
        return spec._cache[key]
    dim = spec.f_ctx.f.dim
    if n == 0:
        block = Matrix(1, 1, {(0, 0): spec.l_coalg.eps(b)})
    elif n == 1:
        block = spec.x_matrix(b)
    else:
        sub = dim ** (n - 1)
        acc = {}
        for (p, q, coeff) in spec.l_coalg.delta_terms(b):
            first = spec.x_matrix(p)
            rest = _recursive_block(spec, q, n - 1)
            for (r1, c1), v1 in first.entries.items():
                vec_add_scaled(acc, {(r1 * sub + r2, c1 * sub + c2): v2
                                     for (r2, c2), v2 in rest.entries.items()}, coeff * v1)
        block = Matrix(dim ** n, dim ** n, acc)
    spec._cache[key] = block
    return block


def iterated_coproduct(l_coalg: Coalgebra, v: dict, n: int) -> dict:
    """n-fold iterated coproduct of a sparse vector, as (n+1)-tuples -> Scalar,
    by expanding the last tensor factor n times."""
    terms = {(b,): c for b, c in v.items() if c}
    for _ in range(n):
        nxt = {}
        for tup, coeff in terms.items():
            vec_add_scaled(nxt, {tup[:-1] + (p, q): cc
                                 for p, q, cc in l_coalg.delta_terms(tup[-1])}, coeff)
        terms = nxt
    return terms


def lift_operator_iterated(spec: RealizationSpec, b: BasisId) -> dict:
    """X(b) letter by letter: block n is sum c * kron(x(l_1), ..., x(l_n))
    over the (n-1)-fold iterated coproduct of b.  Must agree with
    :func:`lift_operator_recursive`."""
    blocks = {0: Matrix(1, 1, {(0, 0): spec.l_coalg.eps(b)})}
    for n in range(1, spec.max_degree + 1):
        size = spec.f_ctx.f.dim ** n
        blocks[n] = kron_combination(size, size, [
            ([spec.x_matrix(p) for p in tup], coeff)
            for tup, coeff in iterated_coproduct(spec.l_coalg, {b: ONE}, n - 1).items()])
    return blocks


def lift_operator_recursive(spec: RealizationSpec, l) -> dict:
    """X(l) from the product-splitting rule, peeling one letter at a time:
    X_n(b) = sum c * kron(x(p), X_{n-1}(q)) over delta(b), the recursion
    :func:`hopfreal.lifting.verify_lift` reasons about.  Each block is
    memoized per spec."""
    if isinstance(l, BasisId):
        l = {l: ONE}
    sizes = {n: spec.f_ctx.f.dim ** n for n in range(spec.max_degree + 1)}
    return {n: mat_combination(size, size, [(_recursive_block(spec, b, n), coeff)
                                            for b, coeff in l.items()])
            for n, size in sizes.items()}


def form_of_op(f: Coalgebra, m: Matrix) -> dict:
    """eps o X for a right-invariant degree-1 operator X; the inverse of
    op_from_form on such operators.  Raises on a non-invariant input."""
    ok, witness = right_invariance_on_f(f, m)
    if not ok:
        raise InvarianceError(witness)
    basis = list(f.basis)
    form = {}
    for (r, c), v in m.entries.items():
        vec_add_scaled(form, {basis[c]: v}, f.eps(basis[r]))
    return form


def convolution(f: Coalgebra, a: dict, b: dict) -> dict:
    """(a * b)(v) = sum a(v') b(v'') over delta(v)."""
    out = {}
    for v in f.basis:
        total = ZERO
        for (p, q, c) in f.delta_terms(v):
            ca = a.get(p)
            if ca:
                cb = b.get(q)
                if cb:
                    total += c * ca * cb
        if total:
            out[v] = total
    return out


def convolution_inverse(f: Coalgebra, a: dict):
    """Two-sided convolution inverse of a, or None: solves a * b = eps
    exactly and verifies b * a = eps as well."""
    basis = list(f.basis)
    index = {b: k for k, b in enumerate(basis)}
    entries = {}
    for row, v in enumerate(basis):
        for (p, q, c) in f.delta_terms(v):
            vec_add_scaled(entries, {(row, index[q]): c}, a.get(p, ZERO))
    m = Matrix(len(basis), len(basis), entries)
    eps = vec_clean(f.epsilon)
    solved = solve(m, {index[b]: c for b, c in eps.items()})
    if solved is None:
        return None
    b = {basis[k]: v for k, v in solved[0].items()}
    if convolution(f, a, b) != eps or convolution(f, b, a) != eps:
        return None
    return b


def transpose_left_mult(e: AlgebraPresentation, elem: dict) -> Matrix:
    """Transpose of left multiplication by elem, as an operator on dual(e),
    cross-checked against op_from_form with the evaluation form at elem."""
    # (elem.)^t f_c = sum_i f_c(elem . e^i) f_i, so column c of the matrix
    # collects, over i, the coefficient of e^c in elem . e^i at row i.
    entries = {}
    for i in range(e.dim):
        for c, v in e.product(elem, {i: ONE}).items():
            entries[(i, c)] = v
    m = Matrix(e.dim, e.dim, entries)
    eval_form = {BasisId.plain(i): Fraction(c) for i, c in elem.items() if c}
    expected = op_from_form(dual_coalgebra(e), RIOp.from_form(eval_form))
    if m != expected:
        raise InternalInconsistencyError(
            "transposed left multiplication disagrees with its form operator")
    return m


def duality_pairing(e: AlgebraPresentation, w: tuple, t: tuple) -> Fraction:
    """<f_{i1}...f_{in}, e^{j1}(x)...(x)e^{jn}> = prod delta(i_k, j_k).

    w is a word over the basis of dual(e); t a pure basis tensor of the same
    rank given by algebra basis indices.  UnsupportedStructureError when a
    letter of w is not a basis element of dual(e).
    """
    if any(letter not in {BasisId.plain(k) for k in range(e.dim)} for letter in w):
        raise UnsupportedStructureError(
            f"duality pairing needs a word over the dual of the algebra, got {w}")
    if len(w) != len(t):
        raise ValueError(f"rank mismatch: word degree {len(w)} vs tensor rank {len(t)}")
    for letter, idx in zip(w, t):
        if letter.i != idx:
            return ZERO
    return ONE


def pairing_bilinear(e: AlgebraPresentation, elem: dict, tens: dict) -> Fraction:
    """Bilinear extension of the pairing to sparse combinations on both sides."""
    total = ZERO
    for w, cw in elem.items():
        for t, ct in tens.items():
            if len(t) == len(w):
                total += cw * ct * duality_pairing(e, w, t)
    return total


def tensor_power_product(e: AlgebraPresentation, t1: tuple, t2: tuple) -> dict:
    """Componentwise product of two pure basis tensors in the n-th tensor
    power of the algebra, expanded on basis tensors."""
    if len(t1) != len(t2):
        raise ValueError("rank mismatch")
    acc = {(): ONE}
    for a, b in zip(t1, t2):
        expansion = e.basis_product(a, b)
        nxt = {}
        for prefix, coeff in acc.items():
            vec_add_scaled(nxt, {prefix + (i,): c for i, c in expansion.items()}, coeff)
        acc = nxt
    return acc


def verify_pairing(ctx: TensorContext, e: AlgebraPresentation) -> CheckReport:
    """Check <delta(w), t1 (x) t2> = <w, t1 . t2> on all basis words of degree
    <= min(N, 2) and all pairs of basis tensors of the matching rank, for F
    the dual of the algebra e."""
    report = CheckReport("duality pairing intertwines coproduct and product")
    for n in range(min(2, ctx.max_degree) + 1):
        tensors = list(itertools.product(range(e.dim), repeat=n))
        for w in ctx.word_basis(n):
            pairs = word_coproduct(ctx, w)
            for t1 in tensors:
                for t2 in tensors:
                    lhs = ZERO
                    for (w1, w2), coeff in pairs.items():
                        lhs += coeff * duality_pairing(e, w1, t1) * duality_pairing(e, w2, t2)
                    rhs = pairing_bilinear(e, {w: ONE}, tensor_power_product(e, t1, t2))
                    report.record(lhs == rhs, "pairing identity on w={}, t1={}, t2={}".format,
                                  w, t1, t2)
    return report


def relabel(c: Coalgebra, mapping: dict) -> Coalgebra:
    """Rename basis ids along a bijection (structure transported verbatim)."""
    basis = [mapping[b] for b in c.basis]
    delta = {
        mapping[b]: [(mapping[p], mapping[q], coeff) for (p, q, coeff) in terms]
        for b, terms in c.delta.items()
    }
    epsilon = {mapping[b]: v for b, v in c.epsilon.items()}
    return make_coalgebra(basis, delta, epsilon)


def dual_triangular_relabeling(n: int) -> dict:
    """Canonical bijection dual(M_n+) basis -> triangular basis: e[r,c]* -> l[c,r]."""
    units = triangular_units(n)
    return {
        BasisId.plain(k): BasisId.tri(c, r)
        for k, (r, c) in enumerate(units)
    }
