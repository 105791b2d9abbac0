import operator
import re
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings
from conftest import canonical, mat_vec
from oracles import from_rows, gauss_jordan_rref, mat_combination, span_contains, to_rows

import hopfreal
from hopfreal.exactlin import (
    ONE,
    Matrix,
    SpanBasis,
    kernel_basis,
    kron_combination,
    mat_mul,
    rref,
    solve,
    vec_add_scaled,
    vec_clean,
)


def dense(v, n):
    return tuple(v.get(i, F(0)) for i in range(n))


# --- frozen examples ---------------------------------------------------------


def test_rref_rank_one():
    m = from_rows([[2, 4], [1, 2]])
    red, pivots = rref(m)
    assert to_rows(red) == [[1, 2], [0, 0]]
    assert pivots == [0]


def test_rref_identity():
    m = Matrix.identity(3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == [0, 1, 2]


def test_rref_invertible_2x2():
    # hand Gaussian elimination: [[1,2],[3,4]] row-reduces to the identity
    red, pivots = rref(from_rows([[1, 2], [3, 4]]))
    assert red == Matrix.identity(2)
    assert pivots == [0, 1]


def test_kernel_one_relation():
    ker = kernel_basis(from_rows([[1, 1]]))
    assert ker == [{0: F(-1), 1: F(1)}]


def test_kernel_injective():
    assert kernel_basis(Matrix.identity(2)) == []


def test_kernel_by_substitution():
    # [[1,2],[2,4]]: x0 = -2 x1
    ker = kernel_basis(from_rows([[1, 2], [2, 4]]))
    assert ker == [{0: F(-2), 1: F(1)}]


def span_of(vectors):
    basis = SpanBasis()
    for v in vectors:
        basis.add(v)
    return basis


def test_membership_zero_vector():
    assert span_contains(span_of([{0: F(1)}]), {})
    assert span_contains(span_of([]), {})


def test_membership_full_space():
    assert span_contains(span_of([{0: F(1)}, {1: F(1)}]), {0: F(1), 1: F(1)})


def test_membership_solved_system():
    # (1,2,3) = (1,0,1) + 2*(0,1,1)
    span = span_of([{0: F(1), 2: F(1)}, {1: F(1), 2: F(1)}])
    assert span_contains(span, {0: F(1), 1: F(2), 2: F(3)})
    assert not span_contains(span, {0: F(1), 1: F(2), 2: F(4)})


def test_solve_particular():
    m = from_rows([[1, 2], [3, 4]])
    assert solve(m, {0: F(5), 1: F(11)}) == ({0: F(1), 1: F(2)}, True)
    assert solve(from_rows([[1, 1]]), {0: F(2)}) == ({0: F(2)}, False)
    assert solve(from_rows([[1, 1], [1, 1]]), {0: F(0), 1: F(1)}) is None


# --- properties --------------------------------------------------------------

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_fracs, min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(from_rows)
        )
    )


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    red, _ = rref(m)
    red2, _ = rref(red)
    assert red2 == red


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate_and_rank_nullity(m):
    ker = kernel_basis(m)
    for v in ker:
        assert mat_vec(m, v) == {}
    assert len(rref(m)[1]) + len(ker) == m.cols


@given(matrices(3), st.lists(st.lists(small_fracs, min_size=3, max_size=3), max_size=3))
@settings(max_examples=40, deadline=None)
def test_membership_matches_rank_oracle(m, extra):
    # independent oracle: v in span(S) iff rank([S]) == rank([S | v])
    span = [
        {i: c for i, c in enumerate(row) if c}
        for row in to_rows(m)
    ]
    for row in extra:
        v = {i: c for i, c in enumerate(row) if c}
        cols = 3
        s_mat = Matrix(len(span), cols, {(r, c): x for r, vec in enumerate(span)
                                         for c, x in vec.items()})
        aug = Matrix(len(span) + 1, cols,
                     dict(s_mat.entries) | {(len(span), c): x for c, x in v.items()})
        assert span_contains(span_of(span), v) == (len(rref(s_mat)[1]) == len(rref(aug)[1]))


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_spanbasis_dim_equals_row_rank(m):
    sb = SpanBasis()
    for row in m.row_maps():
        sb.add(row)
    assert sb.dim == len(rref(m)[1])
    # every row reduces to zero against the accumulated basis
    for row in m.row_maps():
        assert span_contains(sb, row)


@given(matrices(3), matrices(3))
@settings(max_examples=30, deadline=None)
def test_spanbasis_canonical_under_insertion_order(a, b):
    if a.cols != b.cols:
        return
    vecs = a.row_maps() + b.row_maps()
    sb1 = SpanBasis()
    sb2 = SpanBasis()
    for v in vecs:
        sb1.add(v)
    for v in reversed(vecs):
        sb2.add(v)
    assert sb1.basis() == sb2.basis()


def test_spanbasis_copy_stays_independent_after_add():
    # adding e0 inter-reduces the row e0 + e1 and drops it from the index of
    # key 0; a copy that shared rows or index sets would change the original
    sb = SpanBasis()
    sb.add({0: ONE, 1: ONE})
    twin = sb.copy()
    assert twin.add({0: ONE})
    assert sb.basis() == [{0: ONE, 1: ONE}]
    assert twin.basis() == [{0: ONE}, {1: ONE}]
    assert sb.add({0: F(2)})
    assert sb.basis() == twin.basis()


@given(matrices(3), matrices(3))
@settings(max_examples=30, deadline=None)
def test_spanbasis_copy_matches_a_rebuild(a, b):
    if a.cols != b.cols:
        return
    sb = SpanBasis()
    for v in a.row_maps():
        sb.add(v)
    before, twin, both = sb.basis(), sb.copy(), SpanBasis()
    for v in a.row_maps() + b.row_maps():
        both.add(v)
    for v in b.row_maps():
        twin.add(v)
    assert sb.basis() == before and twin.basis() == both.basis()
    for v in b.row_maps():
        sb.add(v)
    assert sb.basis() == both.basis()


@given(matrices(3))
@settings(max_examples=40, deadline=None)
def test_solve_solutions_verify(m):
    # construct a solvable rhs, solve, and substitute back
    x = {i: F(i + 1) for i in range(m.cols)}
    rhs = mat_vec(m, x)
    solved = solve(m, rhs)
    assert solved is not None
    sol, unique = solved
    assert mat_vec(m, sol) == rhs
    assert unique == (len(rref(m)[1]) == m.cols)


def test_mat_mul_against_dense():
    a = from_rows([[1, 2], [0, 1]])
    b = from_rows([[3, 0], [1, 1]])
    assert to_rows(mat_mul(a, b)) == [[5, 2], [1, 1]]


def assert_clean(m):
    """Entries a checked constructor would keep unchanged: in range, nonzero,
    canonical (an int iff integral, else a lowest-terms Fraction)."""
    assert all(0 <= r < m.rows and 0 <= c < m.cols for r, c in m.entries)
    assert all(canonical(v) and v for v in m.entries.values())
    assert m == Matrix(m.rows, m.cols, m.entries)


@given(matrices(), matrices(), st.integers(-2, 2))
@settings(max_examples=80, deadline=None)
def test_trusted_products_and_echelon_forms_match_checked_path(a, b, shift):
    # b is cut or padded to a.cols rows, and some entries cancel in the product
    b = from_rows([[v + shift for v in row] for row in (to_rows(b) * a.cols)[:a.cols]])
    prod = mat_mul(a, b)
    dense_prod = [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*to_rows(b))]
                  for row in to_rows(a)]
    assert prod == from_rows(dense_prod)
    assert_clean(prod)
    red, pivots = rref(a)
    assert_clean(red)
    assert red == Matrix(a.rows, a.cols, {(r, c): v for r, row in enumerate(to_rows(red))
                                          for c, v in enumerate(row)})
    assert sorted(pivots) == pivots


# --- one elimination engine ----------------------------------------------------
# rref, kernel_basis and solve read the reduced echelon form off a SpanBasis;
# the column-by-column Gauss-Jordan loop is their independent oracle.


@st.composite
def linear_systems(draw, max_dim=5):
    """(m, rhs): rows of m mix random rows, zero rows, repeats and
    combinations of earlier rows; rhs is m x for a random x or a random
    vector (often inconsistent)."""
    cols = draw(st.integers(1, max_dim))
    rows = []
    for _ in range(draw(st.integers(1, max_dim + 1))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combination"]))
        if kind == "zero":
            rows.append([F(0)] * cols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(small_fracs)
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(small_fracs, min_size=cols, max_size=cols)))
    m = from_rows(rows)
    if draw(st.booleans()):
        rhs = mat_vec(m, {i: draw(small_fracs) for i in range(cols)})
    else:
        rhs = {r: draw(small_fracs) for r in range(len(rows))}
    return m, rhs


@given(linear_systems())
@settings(max_examples=150, deadline=None)
def test_rref_kernel_basis_and_solve_match_gauss_jordan(system):
    m, rhs = system
    red, pivots = gauss_jordan_rref(m)
    assert rref(m) == (red, pivots)
    assert_clean(rref(m)[0])

    kernel = [{f: ONE} | {p: -red.get(k, f) for k, p in enumerate(pivots) if red.get(k, f)}
              for f in range(m.cols) if f not in pivots]
    assert kernel_basis(m) == kernel

    aug = m.cols
    aug_red, aug_pivots = gauss_jordan_rref(
        Matrix(m.rows, aug + 1, m.entries | {(r, aug): v for r, v in rhs.items()}))
    if aug_pivots and aug_pivots[-1] == aug:
        assert solve(m, rhs) is None
    else:
        x = {p: aug_red.get(k, aug) for k, p in enumerate(aug_pivots) if aug_red.get(k, aug)}
        assert solve(m, rhs) == (x, not kernel)
        assert mat_vec(m, x) == {r: v for r, v in rhs.items() if v}


def test_rref_kernel_basis_and_solve_eliminate_in_spanbasis(monkeypatch):
    added = []
    add = SpanBasis.add
    monkeypatch.setattr(SpanBasis, "add", lambda self, vec: added.append(vec) or add(self, vec))
    m = from_rows([[1, 2], [2, 4]])
    for run in (lambda: rref(m), lambda: kernel_basis(m), lambda: solve(m, {0: F(1), 1: F(2)})):
        added.clear()
        run()
        assert len(added) == m.rows


def reduce_by_largest_pivot(span, vec):
    """The loop SpanBasis.reduce replaced: eliminate the largest pivot vec
    still holds until none is left."""
    v = {k: F(c) for k, c in vec.items() if c}
    while True:
        reducible = [k for k in v if k in span._rows]
        if not reducible:
            return v
        k = max(reducible, key=span._key)
        coeff = v.pop(k)
        vec_add_scaled(v, {k2: c2 for k2, c2 in span._rows[k].items() if k2 != k}, -coeff)


sparse_vectors = st.dictionaries(st.integers(0, 5), small_fracs, max_size=4)


@given(st.sampled_from([None, operator.neg]), st.lists(sparse_vectors, max_size=8),
       st.lists(sparse_vectors, max_size=4))
@settings(max_examples=150, deadline=None)
def test_spanbasis_rows_stay_inter_reduced_and_reduce_in_one_pass(keyfunc, added, probes):
    sb = SpanBasis(keyfunc)
    for v in added:
        sb.add(v)
        pivots = set(sb.pivots())
        for p, row in zip(sb.pivots(), sb.basis()):
            assert row[p] == 1 and not pivots & (row.keys() - {p})
    for v in added + probes:
        assert sb.reduce(v) == reduce_by_largest_pivot(sb, v)


# --- integer-scaled block kernels ----------------------------------------------
#
# mat_mul and mat_combination sum over the integers on one common
# denominator; these are the Fraction loops they replaced, kept as oracles.


def fraction_mat_mul(a, b):
    b_rows = b.row_maps()
    out = {}
    for (r, k), v in a.entries.items():
        for c, w in b_rows[k].items():
            key = (r, c)
            s = out.get(key, F(0)) + v * w
            if s:
                out[key] = s
            else:
                del out[key]
    return Matrix.trusted(a.rows, b.cols, out)


def fraction_combination(rows, cols, terms):
    acc = {}
    for m, coeff in terms:
        vec_add_scaled(acc, m.entries, coeff)
    return Matrix.trusted(rows, cols, acc)


# p/q with q up to 13, so operands carry several coprime denominators
MIXED = st.sampled_from([F(p, q) for p in (-5, -2, -1, 1, 3, 7) for q in (1, 2, 3, 7, 12, 13)])


def mixed_matrices(rows, cols):
    return st.dictionaries(
        st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)) if rows and cols
        else st.nothing(), MIXED, max_size=rows * cols,
    ).map(lambda entries: Matrix(rows, cols, entries))


@st.composite
def cancelling_products(draw):
    """(a, b) with a = [A | k A | C] and b = [B ; -B / k ; D], so that
    a b = C D: the first two column blocks cancel entry by entry."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    i, j = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    k = draw(MIXED)
    A, B = draw(mixed_matrices(r, i)), draw(mixed_matrices(i, c))
    C, D = draw(mixed_matrices(r, j)), draw(mixed_matrices(j, c))
    a = {**A.entries, **{(x, y + i): k * v for (x, y), v in A.entries.items()},
         **{(x, y + 2 * i): v for (x, y), v in C.entries.items()}}
    b = {**B.entries, **{(x + i, y): -v / k for (x, y), v in B.entries.items()},
         **{(x + 2 * i, y): v for (x, y), v in D.entries.items()}}
    return Matrix(r, 2 * i + j, a), Matrix(2 * i + j, c, b), fraction_mat_mul(C, D)


@given(cancelling_products())
@settings(max_examples=150, deadline=None)
@example((Matrix(1, 2, {(0, 0): F(1, 2), (0, 1): F(1, 3)}),
          Matrix(2, 1, {(0, 0): F(2, 3), (1, 0): F(-1, 2)}),
          Matrix(1, 1, {(0, 0): F(1, 6)})))
def test_mat_mul_matches_fraction_loop(case):
    a, b, cd = case
    prod = mat_mul(a, b)
    assert prod == fraction_mat_mul(a, b) == cd
    assert_clean(prod)


@st.composite
def combinations(draw):
    """A shape and (m, coeff) terms with mixed denominators, zero
    coefficients, and negated copies of earlier terms that cancel them."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    terms = draw(st.lists(st.tuples(mixed_matrices(r, c), MIXED | st.just(F(0))), max_size=5))
    for m, coeff in draw(st.lists(st.sampled_from(terms), max_size=2) if terms else st.just([])):
        terms.append((m, -coeff))
    return r, c, draw(st.permutations(terms))


@given(combinations())
@settings(max_examples=150, deadline=None)
@example((1, 1, [(Matrix(1, 1, {(0, 0): F(1, 2)}), F(1, 3))]))
def test_mat_combination_matches_fraction_loop(case):
    rows, cols, terms = case
    total = mat_combination(rows, cols, terms)
    assert total == fraction_combination(rows, cols, terms)
    assert_clean(total)
    assert mat_combination(rows, cols, []) == Matrix(rows, cols)


# kron_combination sums Kronecker products the same way; this is the
# Fraction loop it replaced (the old lifting._kron_entries, accumulated by
# vec_add_scaled), kept as an oracle.


def fraction_kron_combination(rows, cols, terms):
    acc = {}
    for mats, coeff in terms:
        kron = mats[0].entries
        for m in mats[1:]:
            kron = {(row * m.rows + r, col * m.cols + c): value * v
                    for (row, col), value in kron.items() for (r, c), v in m.entries.items()}
        vec_add_scaled(acc, kron, coeff)
    return Matrix.trusted(rows, cols, acc)


def _dense_kron(mats):
    out = [[F(1)]]
    for m in mats:
        rows = to_rows(m)
        out = [[a * b for a in ra for b in rb] for ra in out for rb in rows]
    return out


def test_kron_combination_uses_each_factor_shape():
    # row counts multiply (1 * 2) and column counts multiply (2 * 1), so a
    # 1x2 row (x) a 2x1 column is the 2x2 outer product col . row
    row = Matrix(1, 2, {(0, 0): F(1), (0, 1): F(2)})
    col = Matrix(2, 1, {(0, 0): F(3), (1, 0): F(5)})
    assert kron_combination(2, 2, [([row, col], F(1))]).entries == {
        (0, 0): F(3), (1, 0): F(5), (0, 1): F(6), (1, 1): F(10)}

    # against a naive dense Kronecker product: 1-3 factors, non-square and
    # all-zero factors; adding the negative back cancels to no stored entry
    wide = Matrix(2, 3, {(0, 0): F(2), (0, 2): F(-1), (1, 1): F(1, 3)})
    square = from_rows([[1, 0], [-2, 5]])
    zero = Matrix(2, 3)
    for mats in ([wide], [col, row], [wide, square], [col, wide, square],
                 [zero], [wide, zero], [square, zero, row]):
        dense_kron = _dense_kron(mats)
        rows, cols = len(dense_kron), len(dense_kron[0])
        want = {(r, c): F(3, 2) * v for r, line in enumerate(dense_kron)
                for c, v in enumerate(line) if v}
        assert kron_combination(rows, cols, [(mats, F(3, 2))]).entries == want
        assert kron_combination(rows, cols, [(mats, F(3, 2)), (mats, F(-3, 2))]).entries == {}


@st.composite
def kron_combinations(draw):
    """A rows x cols shape and (mats, coeff) terms: each term is 1-3 factors
    with the drawn shapes (now and then one with 0 rows or columns) or one
    rows x cols factor, with mixed denominators, zero coefficients, and negated copies of
    earlier terms that cancel them."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3))
    if draw(st.integers(0, 7)) == 0:
        i = draw(st.integers(0, len(shapes) - 1))
        shapes[i] = draw(st.sampled_from([(0, shapes[i][1]), (shapes[i][0], 0)]))
    rows = cols = 1
    for r, c in shapes:
        rows, cols = rows * r, cols * c
    factors = st.tuples(*(mixed_matrices(r, c) for r, c in shapes)).map(list)
    flat = mixed_matrices(rows, cols).map(lambda m: [m])
    terms = draw(st.lists(st.tuples(factors | flat, MIXED | st.just(F(0))), max_size=4))
    for mats, coeff in draw(st.lists(st.sampled_from(terms), max_size=2) if terms else st.just([])):
        terms.append((mats, -coeff))
    return rows, cols, draw(st.permutations(terms))


@given(kron_combinations())
@settings(max_examples=150, deadline=None)
@example((2, 1, [([Matrix(1, 1, {(0, 0): F(1, 2)}), Matrix(2, 1, {(1, 0): F(2, 3)})], F(3))]))
@example((2, 2, [([Matrix(1, 2, {(0, 1): F(1, 2)}), Matrix(2, 1, {(1, 0): F(2, 3)})], c)
                 for c in (F(3, 7), F(0), F(-3, 7))]))
def test_kron_combination_matches_fraction_loop(case):
    rows, cols, terms = case
    total = kron_combination(rows, cols, terms)
    assert total == fraction_kron_combination(rows, cols, terms)
    assert_clean(total)
    if terms:
        with pytest.raises(ValueError):
            kron_combination(rows + 1, cols, terms)
        with pytest.raises(ValueError):
            kron_combination(rows, cols + 1, [(mats, F(0)) for mats, _ in terms])


def test_block_kernels_cancel_to_clean_zero_and_check_shapes():
    m = Matrix(2, 2, {(0, 0): F(1, 3), (1, 0): F(-5, 13), (1, 1): F(7, 12)})
    assert mat_combination(2, 2, [(m, F(2, 7)), (m, F(-2, 7))]).entries == {}
    assert mat_combination(2, 2, [(m, F(0))]).entries == {}
    assert mat_mul(Matrix(0, 2), m) == Matrix(0, 2)
    assert mat_mul(Matrix(2, 0), Matrix(0, 3)) == Matrix(2, 3)
    with pytest.raises(ValueError):
        mat_mul(m, Matrix(3, 2))
    with pytest.raises(ValueError):
        mat_combination(2, 2, [(m, F(1)), (Matrix(2, 3), F(1))])
    with pytest.raises(ValueError):
        mat_combination(2, 3, [(m, F(0))])


def test_checked_constructor_still_rejects_bad_entries():
    with pytest.raises(IndexError):
        Matrix(2, 2, {(2, 0): F(1)})
    m = Matrix(2, 2, {(0, 0): 0, (1, 1): F(6, 2), (1, 0): F(2, 4)})
    assert m.entries == {(1, 1): 3, (1, 0): F(1, 2)}
    assert all(canonical(v) for v in m.entries.values())


# --- the sparse sum ------------------------------------------------------------

SPARSE = st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool).map(F), max_size=6)


@settings(max_examples=200, deadline=None)
@given(dst=SPARSE, src=SPARSE, coeff=st.integers(-2, 2).map(F))
def test_vec_add_scaled_matches_dense_sum(dst, src, coeff):
    before = dict(dst)
    assert vec_add_scaled(dst, src, coeff) is dst
    assert dense(dst, 6) == tuple(a + coeff * b for a, b in zip(dense(before, 6), dense(src, 6)))
    assert all(dst.values())
    if not coeff:
        assert dst == before


def reference_add_scaled(dst, src, coeff):
    for k, v in src.items():
        w = dst.get(k, F(0)) + coeff * v
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)
    return dst


# dst is canonical (a writer made it), ints and proper Fractions mixed; src
# may hold zeros, ints and integral Fractions; coeff covers 0, 1 and -1 as
# ints and Fractions
CANONICAL_SPARSE = st.dictionaries(st.integers(0, 5), st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(-3, 3, max_denominator=4).filter(lambda f: f.denominator > 1)), max_size=6)
SRC_VALUES = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
ADD_COEFFS = st.one_of(st.sampled_from([0, 1, -1, F(0), F(1), F(-1)]),
                       st.fractions(-3, 3, max_denominator=4))


@settings(max_examples=300, deadline=None)
@given(dst=CANONICAL_SPARSE, src=st.dictionaries(st.integers(0, 5), SRC_VALUES, max_size=6),
       coeff=ADD_COEFFS)
@example(dst={0: 2, 1: -1}, src={0: 1, 1: F(-1, 2)}, coeff=F(-2))
@example(dst={0: F(1, 2)}, src={0: F(1, 2), 1: F(4, 2)}, coeff=1)
@example(dst={}, src={0: 2, 1: 0}, coeff=1)
def test_vec_add_scaled_matches_reference_loop(dst, src, coeff):
    # the fast paths (coeff 1, absent keys) against the plain loop
    want = reference_add_scaled(dict(dst), src, coeff)
    assert vec_add_scaled(dst, src, coeff) is dst
    assert dst == want
    assert all(canonical(v) and v for v in dst.values())


# --- canonical scalars ---------------------------------------------------------
# Every writer stores an int when the value is integral and a lowest-terms
# Fraction otherwise, whatever mix of ints and (integral) Fractions it is fed.

SCALARS = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=4))
SCALAR_VECTORS = st.dictionaries(st.integers(0, 3), SCALARS, max_size=4)


@settings(max_examples=150, deadline=None)
@given(vectors=st.lists(SCALAR_VECTORS, min_size=1, max_size=5), probe=SCALAR_VECTORS,
       coeff=SCALARS)
@example(vectors=[{0: F(1, 2), 1: F(3, 2)}, {0: F(1, 2)}], probe={1: F(1)}, coeff=F(2))
def test_every_writer_stores_canonical_scalars(vectors, probe, coeff):
    def check(values):
        values = list(values)
        assert all(canonical(v) and v for v in values), values

    # a pivot coefficient 2 (or 3) is divided out exactly: pivot 1, tail 1/2
    # (or 1/3, which a float quotient would miss)
    for pivot in (2, 3):
        sb = SpanBasis()
        sb.add({0: 1, 1: pivot})
        row = sb.basis()[0]
        assert row == {0: F(1, pivot), 1: 1} and type(row[1]) is int and type(row[0]) is F

    acc = {}
    for v in vectors:
        vec_add_scaled(acc, v, coeff)
        check(acc.values())
    check(vec_clean(probe).values())
    span = SpanBasis()
    for v in vectors:
        span.add(v)
        for row in span.basis():
            check(row.values())
    check(span.reduce(probe).values())

    m = Matrix(len(vectors), 4, {(r, c): x for r, v in enumerate(vectors) for c, x in v.items()})
    check(m.entries.values())
    check(mat_mul(m, Matrix(4, 2, {(c, c % 2): x for c, x in probe.items()})).entries.values())
    check(kron_combination(len(vectors), 4, [([m], coeff), ([m], F(1, 2))]).entries.values())
    check(rref(m)[0].entries.values())
    for v in kernel_basis(m):
        check(v.values())
    solved = solve(m, {r: x for r, x in probe.items() if r < m.rows})
    if solved is not None:
        check(solved[0].values())


def test_sparse_sums_live_in_exactlin():
    # the cancel-and-drop step is written once, in exactlin; every other
    # module sums sparse dicts through vec_add_scaled
    pattern = re.compile(r"\.get\(.*, ZERO\) [-+]")
    hits = []
    for path in sorted(Path(hopfreal.__file__).parent.glob("*.py")):
        if path.name == "exactlin.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if pattern.search(line):
                hits.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not hits, "hand-written sparse sums outside exactlin:\n" + "\n".join(hits)
