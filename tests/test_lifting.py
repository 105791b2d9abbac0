import random
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import apply_to_word, canonical, example_w_spec, three_block_spec, tri, trivial_spec
from hopfreal.coalgebra import BasisId, triangular_coalgebra
from hopfreal.errors import ValidationError
from hopfreal.exactlin import Matrix, kron_combination
from hopfreal.free_tensor import TensorContext
from hopfreal.invariant import RIOp
from hopfreal.lifting import (
    lift_operator,
    make_spec,
    split_witness,
    verify_lift,
)
from oracles import (
    iterated_coproduct, lift_operator_recursive, op_combination, op_identity, op_is_zero)

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
    x = lift_operator(example_w, tri(1, 1))
    assert x == op_identity(example_w.f_ctx)


def test_lift_leibniz_on_degree_two(example_w):
    # X(l[2,1]) acts on degree 2 as D (x) id + id (x) D
    x = lift_operator(example_w, tri(2, 1))
    out = apply_to_word(example_w.f_ctx, x, (f(1), f(1)))
    assert out == {(f(2), f(1)): ONE, (f(1), f(2)): ONE}
    out2 = apply_to_word(example_w.f_ctx, x, (f(1), f(0)))
    assert out2 == {(f(2), f(0)): ONE}


def test_lift_unit_action(example_w):
    x = lift_operator(example_w, tri(2, 1))
    assert x[0] == Matrix(1, 1)
    y = lift_operator(example_w, tri(2, 2))
    assert y[0] == Matrix(1, 1, {(0, 0): ONE})


def test_lift_agrees_with_recursive_oracle_example_w(example_w):
    for b in example_w.l_coalg.basis:
        assert lift_operator(example_w, b) == lift_operator_recursive(example_w, b)


def test_lift_agrees_with_recursive_oracle_trivial(trivial):
    for b in trivial.l_coalg.basis:
        assert lift_operator(trivial, b) == lift_operator_recursive(trivial, b)


def test_lift_operator_of_basis_element_is_memoized(example_w):
    for b in example_w.l_coalg.basis:
        x = lift_operator(example_w, b)
        assert lift_operator(example_w, b) is x


def test_trusted_lift_blocks_and_combinations_are_clean():
    # lifted blocks and op_combination adopt their entries unchecked; a
    # checked copy must be equal, and every entry nonzero and canonical
    spec = three_block_spec()
    ops = [lift_operator(spec, b) for b in spec.l_coalg.basis]
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
    # the first failing word in (degree, index) order: bad sends l[1,1] to l[2,1]
    assert report.failures() == [f"right-invariance on T(F) (witness {(tri(1, 1),)})"]


def test_grouplike_lift_is_letterwise_power(example_w):
    # for grouplike l, the degree-n block is the n-fold Kronecker power of x(l)
    spec = example_w
    g = tri(2, 2)
    x = lift_operator(spec, g)
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
        for (key, v) in lift_operator(spec, a)[n].entries.items():
            expect[key] = expect.get(key, F(0)) + ca * v
        for (key, v) in lift_operator(spec, b)[n].entries.items():
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
    return [(lift_operator(spec, p), lift_operator(spec, q), c)
            for p, q, c in spec.l_coalg.delta_terms(b)]


def test_split_witness_passes_on_lifted_operators(example_w):
    ctx = example_w.f_ctx
    for b in example_w.l_coalg.basis:
        x = lift_operator(example_w, b)
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
    x = lift_operator(example_w, b)
    entries = dict(x[n].entries)
    for cell in cells:
        entries[cell] = entries.get(cell, F(0)) + 1
    bad = {**x, n: Matrix(x[n].rows, x[n].cols, entries)}
    witness = split_witness(ctx, bad, _split_parts(example_w, b), ctx.max_degree)
    assert witness == (ctx.word_basis(n)[max(c for _, c in cells)], ())


def kron_split_witness(ctx, outer, parts, bound):
    """split_witness as it was before block views were shared: one
    kron_combination per degree pair, each computing its own views."""
    bound = min(bound, ctx.max_degree)
    witness = None
    for n1 in range(bound + 1):
        for n2 in range(bound + 1 - n1):
            block = outer[n1 + n2]
            diff = kron_combination(block.rows, block.cols, [((block,), -ONE)] + [
                ((left[n1], right[n2]), coeff) for left, right, coeff in parts])
            if diff.entries:
                col = max(c for _, c in diff.entries)
                size = len(ctx.word_basis(n2))
                witness = (ctx.word_basis(n1)[col // size], ctx.word_basis(n2)[col % size])
    return witness


@pytest.mark.parametrize("make", [example_w_spec, three_block_spec])
def test_split_witness_names_planted_defect_in_a_part(make):
    # a defect in a block of a part operator, replaced in every part that
    # shares it (as left and as right), reaches every degree pair that reads
    # the block; the shared views must give the per-pair path's witness
    spec = make()
    ctx = spec.f_ctx
    rng = random.Random(make.__name__)
    witnesses = []
    for b in spec.l_coalg.basis:
        x, parts = lift_operator(spec, b), _split_parts(spec, b)
        for op in {id(op): op for left, right, _ in parts for op in (left, right)}.values():
            for n, m in op.items():
                cell = (rng.randrange(m.rows), rng.randrange(m.cols))
                entries = dict(m.entries)
                entries[cell] = entries.get(cell, F(0)) + F(2, 3)
                bad = {**op, n: Matrix(m.rows, m.cols, entries)}
                bad_parts = [(bad if left is op else left, bad if right is op else right, c)
                             for left, right, c in parts]
                got = split_witness(ctx, x, bad_parts, ctx.max_degree)
                assert got == kron_split_witness(ctx, x, bad_parts, ctx.max_degree), (b, n, cell)
                witnesses.append(got)
    assert None in witnesses and len(set(witnesses)) > 10


def test_word_index_is_lex_product(example_w):
    ctx = example_w.f_ctx
    dim = ctx.f.dim
    for n1 in range(4):
        for n2 in range(4 - n1):
            for w1 in ctx.word_basis(n1):
                for w2 in ctx.word_basis(n2):
                    assert ctx.word_index(n1 + n2)[w1 + w2] == (
                        ctx.word_index(n1)[w1] * dim ** n2 + ctx.word_index(n2)[w2])
