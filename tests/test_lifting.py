import random
import time
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (
    canonical, example_w_spec, non_coassociative_coalgebra, three_block_spec, tri, trivial_spec)
from hopfreal.coalgebra import BasisId, direct_sum, make_coalgebra, triangular_coalgebra, verify_coalgebra
from hopfreal.errors import ValidationError
from hopfreal.exactlin import Matrix, vec_add_scaled
from hopfreal.free_tensor import TensorContext
from hopfreal.inputdoc import build_spec, parse_input
from hopfreal.invariant import RIOp, verify_right_invariance
from hopfreal.lifting import (
    RealizationSpec,
    make_spec,
    verify_lift,
)
from oracles import (
    apply_to_word, iterated_coproduct, lift_checks, lift_operator_iterated, lift_operator_recursive,
    op_combination, op_identity, op_is_zero, per_word_invariance, split_witness, word_index)
from test_realization import SPECS

ONE = F(1)


def f(i):
    return BasisId.plain(i)


def test_iterated_coproduct_zero_steps():
    c = triangular_coalgebra(2)
    v = {tri(2, 1): F(3)}
    assert iterated_coproduct(c, v, 0) == {(tri(2, 1),): F(3)}


def test_iterated_coproduct_grouplike_powers():
    c = triangular_coalgebra(2)
    g = tri(1, 1)
    for n in range(4):
        assert iterated_coproduct(c, {g: ONE}, n) == {(g,) * (n + 1): ONE}


def test_iterated_coproduct_l21_twice():
    c = triangular_coalgebra(2)
    a, z, b = tri(1, 1), tri(2, 1), tri(2, 2)
    assert iterated_coproduct(c, {z: ONE}, 2) == {
        (a, a, z): ONE,
        (a, z, b): ONE,
        (z, b, b): ONE,
    }


def test_lift_identity_for_grouplike_with_identity_action(example_w):
    x = lift_operator_recursive(example_w, tri(1, 1))
    assert x == op_identity(example_w.f_ctx)


def test_lift_leibniz_on_degree_two(example_w):
    # X(l[2,1]) acts on degree 2 as D (x) id + id (x) D
    x = lift_operator_recursive(example_w, tri(2, 1))
    out = apply_to_word(example_w.f_ctx, x, (f(1), f(1)))
    assert out == {(f(2), f(1)): ONE, (f(1), f(2)): ONE}
    out2 = apply_to_word(example_w.f_ctx, x, (f(1), f(0)))
    assert out2 == {(f(2), f(0)): ONE}


def test_lift_unit_action(example_w):
    x = lift_operator_recursive(example_w, tri(2, 1))
    assert x[0] == Matrix(1, 1)
    y = lift_operator_recursive(example_w, tri(2, 2))
    assert y[0] == Matrix(1, 1, {(0, 0): ONE})


def test_lift_agrees_with_recursive_oracle_example_w(example_w):
    # the lift through the iterated coproduct against the recursion
    for b in example_w.l_coalg.basis:
        assert lift_operator_iterated(example_w, b) == lift_operator_recursive(example_w, b)


def test_lift_agrees_with_recursive_oracle_trivial(trivial):
    for b in trivial.l_coalg.basis:
        assert lift_operator_iterated(trivial, b) == lift_operator_recursive(trivial, b)


def test_trusted_lift_blocks_and_combinations_are_clean():
    # the oracle's lifted blocks and op_combination: a checked copy must be
    # equal, and every entry nonzero and canonical
    spec = three_block_spec()
    ops = [lift_operator_recursive(spec, b) for b in spec.l_coalg.basis]
    sums = [op_combination(spec.f_ctx, [(ops[0], ONE), (ops[0], -ONE)]),
            op_combination(spec.f_ctx, [(op, F(k - 2, 3)) for k, op in enumerate(ops)])]
    for op in ops + sums:
        for m in op.values():
            assert all(canonical(v) and v for v in m.entries.values())
            assert m == Matrix(m.rows, m.cols, m.entries)
    assert op_is_zero(sums[0])


def test_verify_lift_all_properties_example_w(example_w):
    for b in example_w.l_coalg.basis:
        report = verify_lift(example_w, b)
        assert report.ok, report.failures()


def test_verify_lift_trivial_diagonal(trivial):
    assert verify_lift(trivial, tri(1, 1)).ok


def test_verify_lift_fails_on_non_invariant_x():
    # plant a raw non-right-invariant matrix as x(l[2,1])
    from hopfreal.lifting import RealizationSpec
    from hopfreal.free_tensor import TensorContext

    l_coalg = triangular_coalgebra(2)
    ctx = TensorContext(triangular_coalgebra(2), 2)
    bad = Matrix(3, 3, {(1, 0): ONE})
    spec = RealizationSpec(l_coalg, ctx, {
        tri(1, 1): RIOp.identity(),
        tri(2, 2): RIOp.identity(),
        tri(2, 1): bad,
    })
    report = verify_lift(spec, tri(2, 1))
    # the first failing letter of F: bad sends l[1,1] to l[2,1]
    assert report.failures() == ["right-invariance on T(F) (witness l[1,1])"]


def test_letters_with_different_x_share_no_block():
    # x = id and x = 2 id on two grouplikes: equal counits, so only the
    # degree-0 blocks are equal; both lifts pass, by either check
    l_coalg = direct_sum([triangular_coalgebra(1), triangular_coalgebra(1)])
    a, b = l_coalg.basis
    ctx = TensorContext(triangular_coalgebra(2), 3)
    spec = make_spec(l_coalg, ctx, {a: RIOp.identity(), b: RIOp(F(2), {})})
    xa, xb = lift_operator_recursive(spec, a), lift_operator_recursive(spec, b)
    assert xa[0] == xb[0]
    assert all(xa[n] != xb[n] for n in range(1, 4))
    for l, x in ((a, xa), (b, xb)):
        assert x == lift_operator_iterated(spec, l)
        assert verify_lift(spec, l).ok and lift_checks(spec, l) == (True, True, True)


def test_letters_whose_coproducts_differ_in_a_coefficient_share_no_higher_block(example_w):
    # delta(a) = g(x)a + a(x)g + p(x)p and delta(b) = g(x)b + b(x)g + 2 p(x)p
    # (g grouplike, p primitive), all of a, b, p sent to the same x: their
    # degree-2 signatures differ only in the coefficient of p(x)p
    g, p, a, b = (BasisId.plain(k) for k in range(4))
    delta = {g: [(g, g, ONE)], p: [(g, p, ONE), (p, g, ONE)]}
    for l, c in ((a, ONE), (b, F(2))):
        delta[l] = [(g, l, ONE), (l, g, ONE), (p, p, c)]
    l_coalg = make_coalgebra([g, p, a, b], delta, {g: ONE})
    assert verify_coalgebra(l_coalg).ok
    d = RIOp.from_eval(BasisId.plain(1))
    spec = make_spec(l_coalg, example_w.f_ctx, {g: RIOp.identity(), p: d, a: d, b: d})
    xa, xb = lift_operator_recursive(spec, a), lift_operator_recursive(spec, b)
    assert xa[1] == xb[1] and xa[2] != xb[2]
    for l in (a, b):
        assert lift_operator_iterated(spec, l) == lift_operator_recursive(spec, l)
        assert verify_lift(spec, l).ok and lift_checks(spec, l) == (True, True, True)


def test_planted_non_invariant_x_fails_for_its_letter_alone():
    # three grouplikes: x = id as a form, x = id as a raw Matrix, and a raw
    # non-right-invariant Matrix; the witness is the exhaustive check's
    l_coalg = direct_sum([triangular_coalgebra(1)] * 3)
    a, b, c = l_coalg.basis
    ctx = TensorContext(triangular_coalgebra(2), 2)
    bad = Matrix(3, 3, {(0, 0): ONE, (1, 0): ONE, (1, 1): ONE, (2, 2): ONE})
    spec = RealizationSpec(l_coalg, ctx, {a: RIOp.identity(), b: bad,
                                          c: Matrix.identity(3)})
    assert lift_operator_recursive(spec, a) == lift_operator_recursive(spec, c)
    assert verify_lift(spec, a).ok and verify_lift(spec, c).ok
    x = lift_operator_recursive(spec, b)
    witness = split_witness(ctx, x, _split_parts(spec, b), ctx.max_degree)
    ok, w = per_word_invariance(ctx, x)
    assert witness is None and not ok and len(w) == 1
    assert verify_lift(spec, b).failures() == [f"right-invariance on T(F) (witness {w[0]})"]
    assert verify_lift(spec, a).ok


def test_grouplike_lift_is_letterwise_power(example_w):
    # for grouplike l, the degree-n block is the n-fold Kronecker power of x(l)
    spec = example_w
    g = tri(2, 2)
    x = lift_operator_recursive(spec, g)
    base = spec.x_matrix(g)
    dim = spec.f_ctx.f.dim
    for n in range(spec.max_degree + 1):
        expected = Matrix.identity(1)
        for _ in range(n):
            acc = {}
            for (r1, c1), v1 in expected.entries.items():
                for (r2, c2), v2 in base.entries.items():
                    acc[(r1 * dim + r2, c1 * dim + c2)] = v1 * v2
            expected = Matrix(expected.rows * dim, expected.cols * dim, acc)
        assert x[n] == expected


small_fracs = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@given(small_fracs, small_fracs)
@settings(max_examples=20, deadline=None)
def test_lift_linear_in_l(ca, cb):
    spec = example_w_spec(truncation=2)
    a, b = tri(2, 1), tri(2, 2)
    combo = {}
    if ca:
        combo[a] = ca
    if cb:
        combo[b] = cb
    lifted = lift_operator_recursive(spec, combo)
    for n in range(spec.max_degree + 1):
        expect = {}
        for (key, v) in lift_operator_recursive(spec, a)[n].entries.items():
            expect[key] = expect.get(key, F(0)) + ca * v
        for (key, v) in lift_operator_recursive(spec, b)[n].entries.items():
            expect[key] = expect.get(key, F(0)) + cb * v
        assert lifted[n] == Matrix(
            spec.f_ctx.f.dim ** n, spec.f_ctx.f.dim ** n, expect)


def test_make_spec_validates_missing_x():
    l_coalg = triangular_coalgebra(2)
    ctx = TensorContext(triangular_coalgebra(2), 2)
    with pytest.raises(ValidationError) as err:
        make_spec(l_coalg, ctx, {tri(1, 1): RIOp.identity()})
    assert any("l[2,1]" in f or "l[2,2]" in f for f in err.value.failures)


def test_make_spec_validates_diag_pairs():
    l_coalg = triangular_coalgebra(2)
    ctx = TensorContext(triangular_coalgebra(2), 2)
    x_map = {
        tri(1, 1): RIOp.identity(),
        tri(2, 2): RIOp.zero(),
        tri(2, 1): RIOp.zero(),
    }
    with pytest.raises(ValidationError):
        make_spec(l_coalg, ctx, x_map, [(tri(2, 2), tri(2, 2))])


def _split_parts(spec, b):
    return [(lift_operator_recursive(spec, p), lift_operator_recursive(spec, q), c)
            for p, q, c in spec.l_coalg.delta_terms(b)]


def test_split_witness_passes_on_lifted_operators(example_w):
    ctx = example_w.f_ctx
    for b in example_w.l_coalg.basis:
        x = lift_operator_recursive(example_w, b)
        assert split_witness(ctx, x, _split_parts(example_w, b), ctx.max_degree) is None


@pytest.mark.parametrize("b, n, cells", [
    (tri(2, 1), 1, [(2, 1)]),
    (tri(2, 1), 2, [(0, 4)]),
    (tri(1, 1), 3, [(5, 26)]),
    (tri(2, 2), 3, [(0, 13)]),
    (tri(2, 1), 0, [(0, 0)]),
    (tri(2, 1), 2, [(3, 7), (8, 2)]),
])
def test_split_witness_names_planted_defect(example_w, b, n, cells):
    # a perturbed column c of block n fails every split (n1, n2) with
    # n1 + n2 = n; the last of those in sweep order is (n, 0), and within it
    # the witness is the largest perturbed column
    ctx = example_w.f_ctx
    x = lift_operator_recursive(example_w, b)
    entries = dict(x[n].entries)
    for cell in cells:
        entries[cell] = entries.get(cell, F(0)) + 1
    bad = {**x, n: Matrix(x[n].rows, x[n].cols, entries)}
    witness = split_witness(ctx, bad, _split_parts(example_w, b), ctx.max_degree)
    assert witness == (ctx.word_basis(n)[max(c for _, c in cells)], ())


def per_word_split_witness(ctx, outer, parts, bound):
    """split_witness word pair by word pair: outer(w1 . w2) against
    sum c * left(w1) . right(w2) in T(F), the last failing pair kept."""
    witness = None
    for n1 in range(bound + 1):
        for n2 in range(bound + 1 - n1):
            for w1 in ctx.word_basis(n1):
                for w2 in ctx.word_basis(n2):
                    want = {}
                    for left, right, c in parts:
                        tail = apply_to_word(ctx, right, w2)
                        for u, a in apply_to_word(ctx, left, w1).items():
                            vec_add_scaled(want, {u + v: a * t for v, t in tail.items()}, c)
                    if apply_to_word(ctx, outer, w1 + w2) != want:
                        witness = (w1, w2)
    return witness


@pytest.mark.parametrize("make", [example_w_spec, three_block_spec])
def test_split_witness_names_planted_defect_in_a_part(make):
    # a defect in a block of a part operator, replaced in every part that
    # shares it (as left and as right), reaches every degree pair that reads
    # the block; the block identities must give the per-word-pair witness
    spec = make()
    ctx = spec.f_ctx
    rng = random.Random(make.__name__)
    witnesses = []
    for b in spec.l_coalg.basis:
        x, parts = lift_operator_recursive(spec, b), _split_parts(spec, b)
        for op in {id(op): op for left, right, _ in parts for op in (left, right)}.values():
            for n, m in op.items():
                cell = (rng.randrange(m.rows), rng.randrange(m.cols))
                entries = dict(m.entries)
                entries[cell] = entries.get(cell, F(0)) + F(2, 3)
                bad = {**op, n: Matrix(m.rows, m.cols, entries)}
                bad_parts = [(bad if left is op else left, bad if right is op else right, c)
                             for left, right, c in parts]
                got = split_witness(ctx, x, bad_parts, ctx.max_degree)
                want = per_word_split_witness(ctx, x, bad_parts, ctx.max_degree)
                assert got == want, (b, n, cell)
                witnesses.append(got)
    assert None in witnesses and len(set(witnesses)) > 10


def test_word_index_is_lex_product(example_w):
    # the block oracles index words by their position in word_basis
    ctx = example_w.f_ctx
    dim = ctx.f.dim
    for n1 in range(4):
        for n2 in range(4 - n1):
            for w1 in ctx.word_basis(n1):
                for w2 in ctx.word_basis(n2):
                    assert word_index(ctx, n1 + n2)[w1 + w2] == (
                        word_index(ctx, n1)[w1] * dim ** n2 + word_index(ctx, n2)[w2])


# --- verify-lift against the exhaustive checks on the T(F) blocks -----------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
REALIZATIONS = sorted(p.stem for p in FIXTURES.glob("*.hra") if not p.name.startswith("bad_"))
RECORDS = ("splitting rule", "grade preservation", "right-invariance")


def verdicts(report):
    """(splitting, grade, right-invariance) of a verify-lift report, each
    True when its record passed."""
    assert report.summary().endswith(f"(5 checks, {len(report.failures())} failed)")
    return tuple(not any(f.startswith(r) for f in report.failures()) for r in RECORDS)


def assert_verify_lift_matches_block_checks(spec):
    for b in spec.l_coalg.basis:
        assert verdicts(verify_lift(spec, b)) == lift_checks(spec, b), b


@pytest.mark.parametrize("name", REALIZATIONS)
def test_verify_lift_matches_block_checks_on_fixtures(name):
    doc = parse_input((FIXTURES / f"{name}.hra").read_text(encoding="utf-8"))
    spec = build_spec(doc)
    assert_verify_lift_matches_block_checks(spec)
    assert all(verify_lift(spec, b).ok for b in spec.l_coalg.basis)


@settings(max_examples=30, deadline=None)
@given(make=SPECS, truncation=st.integers(1, 4))
def test_verify_lift_matches_block_checks_on_specs(make, truncation):
    assert_verify_lift_matches_block_checks(make(truncation))


def planted_spec(truncation, x11, x21, x22, l_coalg=None):
    """triangular 2 acting on the 3-dimensional F = triangular 2."""
    ctx = TensorContext(triangular_coalgebra(2), truncation)
    return RealizationSpec(l_coalg or triangular_coalgebra(2), ctx,
                           {tri(1, 1): x11, tri(2, 1): x21, tri(2, 2): x22})


NON_INVARIANT = Matrix(3, 3, {(1, 0): ONE})


@pytest.mark.parametrize("truncation", [2, 3])
def test_non_invariant_letter_reached_through_a_delta_leg(truncation):
    # x(l[1,1]) is not right-invariant; X(l[2,1]) reads it as the first leg
    # of delta(l[2,1]) = l[1,1] (x) l[2,1] + l[2,1] (x) l[2,2], and
    # X(l[2,2]) never reads it: both checks agree on every letter
    spec = planted_spec(truncation, NON_INVARIANT, RIOp.identity(), RIOp.identity())
    assert_verify_lift_matches_block_checks(spec)
    _, w = verify_right_invariance(spec.f_ctx.f, NON_INVARIANT)
    assert verify_lift(spec, tri(1, 1)).failures() == [f"right-invariance on T(F) (witness {w})"]
    assert verify_lift(spec, tri(2, 1)).failures() == [
        f"right-invariance on T(F) (witness {w} of x(l[1,1]))"]
    assert verify_lift(spec, tri(2, 2)).ok
    # at N = 1, X(l[2,1]) is x(l[2,1]) alone
    assert verify_lift(planted_spec(1, NON_INVARIANT, RIOp.identity(), RIOp.identity()),
                       tri(2, 1)).ok


def test_non_invariant_letter_whose_effect_cancels_fails():
    # with x(l[2,1]) = 0 every block of X(l[2,1]) is 0, kron(x(l[1,1]), 0)
    # included, so the blocks pass both exhaustive checks.  verify-lift still
    # fails: the lift's theorems take x into the right-invariant operators,
    # and x(l[1,1]) is not one
    spec = planted_spec(3, NON_INVARIANT, RIOp.zero(), RIOp.identity())
    assert lift_checks(spec, tri(2, 1)) == (True, True, True)
    assert all(not m.entries for m in lift_operator_recursive(spec, tri(2, 1)).values())
    _, w = verify_right_invariance(spec.f_ctx.f, NON_INVARIANT)
    assert verify_lift(spec, tri(2, 1)).failures() == [
        f"right-invariance on T(F) (witness {w} of x(l[1,1]))"]


def test_non_square_letter_fails_grade_preservation():
    # a raw 3 x 2 x(l[2,2]): no block of a lift that reads it is square,
    # and the check says so without building one
    spec = planted_spec(3, RIOp.identity(), RIOp.identity(), Matrix(3, 2, {(0, 0): ONE}))
    for b in (tri(2, 1), tri(2, 2)):
        report = verify_lift(spec, b)
        assert report.summary() == "lifted operator properties: FAIL (5 checks, 1 failed)"
        assert report.failures() == ["grade preservation (square block per degree)"]
    assert verify_lift(spec, tri(1, 1)).ok


@pytest.mark.parametrize("truncation", [1, 2, 3])
def test_non_coassociative_l_fails_splitting(truncation):
    # the blocks of X(a) first disagree with the splitting rule at degree 3,
    # on the word pairs of degrees (2, 1).  verify-lift fails at every N: the
    # lift's theorems take L to be a coalgebra, and it is not one at a
    l_coalg = non_coassociative_coalgebra()
    g, q, a = l_coalg.basis
    assert verify_coalgebra(l_coalg).failures() == ["coassociativity on f[2]"]
    d = RIOp.from_eval(BasisId.plain(1))
    spec = RealizationSpec(l_coalg, TensorContext(example_w_spec().f_ctx.f, truncation),
                           {g: RIOp.identity(), q: d, a: d})
    assert lift_checks(spec, a) == (truncation < 3, True, True)
    assert verify_lift(spec, a).failures() == [
        "splitting rule on word pairs (coassociativity fails on f[2])"]
    assert verify_lift(spec, g).ok and verify_lift(spec, q).ok


def test_verify_lift_on_a_large_window_builds_no_block():
    # example_w at N = 12: the blocks would be 3^12 square
    spec = example_w_spec(truncation=12)
    start = time.perf_counter()
    assert all(verify_lift(spec, b).ok for b in spec.l_coalg.basis)
    assert time.perf_counter() - start < 1.0
