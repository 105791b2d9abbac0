import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from conftest import BROKEN_COALGEBRAS, scaled_coalgebra
from test_exactlin import MIXED, assert_clean, fraction_combination, mixed_matrices

from hopfreal.coalgebra import (
    BasisId,
    Coalgebra,
    dual_coalgebra,
    dual_numbers,
    direct_sum,
    make_coalgebra,
    triangular_coalgebra,
    upper_triangular_algebra,
    verify_coalgebra,
)
from hopfreal.exactlin import Matrix, mat_mul, vec_clean
from hopfreal.free_tensor import TensorContext
from hopfreal.inputdoc import build_spec, parse_input
from hopfreal.invariant import RIOp, op_from_form, verify_right_invariance
from hopfreal.lifting import RealizationSpec, verify_lift
from oracles import (
    InvarianceError,
    convolution,
    convolution_inverse,
    form_of_op,
    kron_combination,
    lift_operator_recursive,
    op_combination,
    op_is_zero,
    per_basis_invariance,
    per_word_invariance,
    transpose_left_mult,
    with_truncation,
)

ONE = F(1)


def tri(i, j):
    return BasisId.tri(i, j)


def eval_form(b):
    return {b: ONE}


def test_counit_form_gives_identity():
    f = triangular_coalgebra(2)
    m = op_from_form(f, RIOp.from_form(vec_clean(f.epsilon)))
    assert m == Matrix.identity(3)


def test_identity_riop():
    f = dual_coalgebra(dual_numbers())
    assert op_from_form(f, RIOp.identity()) == Matrix.identity(2)


def test_op_from_form_dual_numbers():
    # t-evaluation: f_t -> f_1, f_1 -> 0
    f = dual_coalgebra(dual_numbers())
    m = op_from_form(f, RIOp.from_eval(BasisId.plain(1)))
    assert m.entries == {(0, 1): ONE}


def test_op_from_form_l2():
    # evaluation at l[2,1]: l[2,1] -> l[2,2], others -> 0
    f = triangular_coalgebra(2)
    m = op_from_form(f, RIOp.from_eval(tri(2, 1)))
    basis = list(f.basis)  # sorted: l[1,1], l[2,1], l[2,2]
    assert basis == [tri(1, 1), tri(2, 1), tri(2, 2)]
    assert m.entries == {(2, 1): ONE}


def test_form_of_op_round_trip():
    f = triangular_coalgebra(2)
    for b in f.basis:
        m = op_from_form(f, RIOp.from_eval(b))
        assert form_of_op(f, m) == eval_form(b)
    assert form_of_op(f, Matrix.identity(3)) == vec_clean(f.epsilon)


def test_form_of_op_rejects_non_invariant():
    f = triangular_coalgebra(2)
    # l[1,1] -> l[2,1] is not right-invariant
    bad = Matrix(3, 3, {(1, 0): ONE})
    with pytest.raises(InvarianceError) as err:
        form_of_op(f, bad)
    assert err.value.witness in f.basis


def test_op_from_form_outputs_are_invariant():
    f = triangular_coalgebra(3)
    for b in f.basis:
        ok, witness = verify_right_invariance(f, op_from_form(f, RIOp.from_eval(b)))
        assert ok and witness is None


def test_convolution_unit():
    f = triangular_coalgebra(2)
    eps = vec_clean(f.epsilon)
    a = {tri(2, 1): F(3), tri(1, 1): F(-1, 2)}
    assert convolution(f, eps, a) == a
    assert convolution(f, a, eps) == a


def test_convolution_nilpotent_dual_numbers():
    f = dual_coalgebra(dual_numbers())
    n = eval_form(BasisId.plain(1))
    assert convolution(f, n, n) == {}


def test_convolution_l2_examples():
    f = triangular_coalgebra(2)
    z = eval_form(tri(2, 1))
    a = eval_form(tri(1, 1))
    assert convolution(f, z, z) == {}
    assert convolution(f, a, z) == z


def test_anti_isomorphism_on_m3_dual():
    # op_from_form(a) o op_from_form(b) == op_from_form(b * a), all 36 pairs
    f = dual_coalgebra(upper_triangular_algebra(3))
    ops = {b: op_from_form(f, RIOp.from_eval(b)) for b in f.basis}
    for a, b in itertools.product(f.basis, repeat=2):
        composed = mat_mul(ops[a], ops[b])
        conv = convolution(f, eval_form(b), eval_form(a))
        assert composed == op_from_form(f, RIOp.from_form(conv))


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def forms_on(c: Coalgebra):
    return st.lists(small_fracs, min_size=c.dim, max_size=c.dim).map(
        lambda cs: {b: v for b, v in zip(c.basis, cs) if v}
    )


L3 = triangular_coalgebra(3)


@given(forms_on(L3), forms_on(L3))
@settings(max_examples=40, deadline=None)
def test_anti_isomorphism_random_forms(a, b):
    composed = mat_mul(op_from_form(L3, RIOp.from_form(a)), op_from_form(L3, RIOp.from_form(b)))
    assert composed == op_from_form(L3, RIOp.from_form(convolution(L3, b, a)))


@given(forms_on(L3), forms_on(L3), forms_on(L3))
@settings(max_examples=40, deadline=None)
def test_convolution_associative(a, b, c):
    left = convolution(L3, convolution(L3, a, b), c)
    right = convolution(L3, a, convolution(L3, b, c))
    assert left == right


def test_convolution_inverse_of_unit():
    f = triangular_coalgebra(2)
    eps = vec_clean(f.epsilon)
    assert convolution_inverse(f, eps) == eps


def test_convolution_inverse_unipotent():
    f = dual_coalgebra(dual_numbers())
    eps = vec_clean(f.epsilon)
    n = eval_form(BasisId.plain(1))
    a = dict(eps)
    a[BasisId.plain(1)] = ONE
    inv = convolution_inverse(f, a)
    assert inv == {BasisId.plain(0): ONE, BasisId.plain(1): F(-1)}
    assert convolution(f, a, inv) == eps
    assert convolution(f, inv, a) == eps


def test_convolution_inverse_nilpotent_has_none():
    f = dual_coalgebra(dual_numbers())
    assert convolution_inverse(f, eval_form(BasisId.plain(1))) is None


def test_convolution_inverse_subalgebra_pattern():
    # u + (eps - eps_B) with u = 2*e1 invertible in B = span{e1}: inverse is
    # u^{-1} + (eps - eps_B) = (1/2) e1 + e2
    f = direct_sum([triangular_coalgebra(1), triangular_coalgebra(1)])
    g1, g2 = f.basis
    a = {g1: F(2), g2: ONE}
    assert convolution_inverse(f, a) == {g1: F(1, 2), g2: ONE}


def test_transpose_left_mult_unit_is_identity():
    e = upper_triangular_algebra(2)
    assert transpose_left_mult(e, dict(e.unit)) == Matrix.identity(3)


def test_transpose_left_mult_dual_numbers():
    e = dual_numbers()
    m = transpose_left_mult(e, {1: ONE})  # elem = t
    assert m.entries == {(0, 1): ONE}


def test_transpose_left_mult_matches_form_operator():
    # elem = e[1,2] in M_2+: same matrix as the l[2,1]-evaluation operator
    e = upper_triangular_algebra(2)
    m = transpose_left_mult(e, {1: ONE})
    f = dual_coalgebra(e)
    assert m == op_from_form(f, RIOp.from_eval(BasisId.plain(1)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transpose_left_mult_all_basis_elements(n):
    e = upper_triangular_algebra(n)
    f = dual_coalgebra(e)
    for i in range(e.dim):
        m = transpose_left_mult(e, {i: ONE})
        assert m == op_from_form(f, RIOp.from_eval(BasisId.plain(i)))
        assert verify_right_invariance(f, m)[0]


def test_verify_right_invariance_false_with_witness():
    f = triangular_coalgebra(2)
    bad = Matrix(3, 3, {(1, 0): ONE})
    ok, witness = verify_right_invariance(f, bad)
    assert not ok and witness is not None


# --- operator sums ---------------------------------------------------------------

CTX = TensorContext(triangular_coalgebra(2), 2)  # blocks of size 1, 3 and 9


def fraction_op_combination(ctx, terms):
    """The Fraction loop op_combination replaced, block by block."""
    sizes = {n: len(ctx.word_basis(n)) for n in range(ctx.max_degree + 1)}
    return {n: fraction_combination(k, k, [(op[n], c) for op, c in terms])
            for n, k in sizes.items()}


def linops(ctx):
    sizes = [len(ctx.word_basis(n)) for n in range(ctx.max_degree + 1)]
    return st.tuples(*(mixed_matrices(k, k) for k in sizes)).map(
        lambda blocks: dict(enumerate(blocks)))


@st.composite
def op_terms(draw):
    """Terms with mixed denominators and zero coefficients; a negated copy of
    an earlier term cancels it block by block."""
    terms = draw(st.lists(st.tuples(linops(CTX), MIXED | st.just(F(0))), max_size=4))
    if terms and draw(st.booleans()):
        op, coeff = draw(st.sampled_from(terms))
        terms.insert(draw(st.integers(0, len(terms))), (op, -coeff))
    return terms


@given(op_terms())
@settings(max_examples=60, deadline=None)
def test_op_combination_matches_fraction_loop(terms):
    total = op_combination(CTX, iter(terms))
    assert total == fraction_op_combination(CTX, terms)
    for m in total.values():
        assert_clean(m)
    assert op_is_zero(op_combination(CTX, []))


# --- right-invariance letter by letter, against the per-basis and per-word loops --

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SHIPPED = sorted(p.stem for p in FIXTURES.glob("*.hra") if not p.name.startswith("bad_"))


def planted(m, r, c, delta):
    """m with delta added at (r, c): a single-entry perturbation."""
    entries = dict(m.entries)
    entries[(r, c)] = entries.get((r, c), F(0)) + delta
    return Matrix(m.rows, m.cols, entries)


def fixture_spec(name):
    return build_spec(parse_input((FIXTURES / f"{name}.hra").read_text(encoding="utf-8")))


def assert_matches_per_basis_loop(f, ops, deltas):
    """verify_right_invariance against the per-basis loop on each operator
    and on each single-entry perturbation of it by each delta; returns the
    verdicts of the perturbed operators."""
    outcomes = []
    for m in ops:
        assert verify_right_invariance(f, m) == per_basis_invariance(f, m), m
        for r, c in itertools.product(range(f.dim), repeat=2):
            for delta in deltas:
                bad = planted(m, r, c, delta)
                got = verify_right_invariance(f, bad)
                assert got == per_basis_invariance(f, bad), (m, r, c, delta)
                outcomes.append(got[0])
    return outcomes


@pytest.mark.parametrize("name", SHIPPED)
def test_degree_one_check_matches_per_basis_loop_on_planted_defects(name):
    spec = fixture_spec(name)
    f = spec.f_ctx.f
    ops = [spec.x_matrix(b) for b in spec.l_coalg.basis]
    assert all(verify_right_invariance(f, m) == (True, None) for m in ops)
    assert False in assert_matches_per_basis_loop(f, ops, [F(2, 3)])


def tensor_powers(ctx, x):
    """x^(x)n in every degree n: the lift of a grouplike that acts by x,
    right-invariant on T(F) whenever x is on F."""
    return {n: kron_combination(ctx.f.dim ** n, ctx.f.dim ** n, [([x] * n, ONE)])
            if n else Matrix.identity(1) for n in range(ctx.max_degree + 1)}


SCALED_FORMS = [
    RIOp(F(1, 3), {BasisId.plain(0): F(2, 5), BasisId.plain(2): F(-3, 2)}),
    RIOp(F(0), {BasisId.plain(3): F(5, 7), BasisId.plain(4): F(2)}),
    RIOp(F(-4, 9), {BasisId.plain(1): F(1, 2), BasisId.plain(3): F(3)}),
]


def test_right_invariance_carries_non_unit_coproduct_coefficients():
    # the scaled coalgebra's coproduct has coefficients 1/2 and 8/3, so a
    # check that dropped or misplaced one would disagree with the per-basis
    # loop; defects carry denominators 2, 3 and 7.  verify-lift's verdict on
    # a grouplike acting by such an operator equals the per-word loop on its
    # lift, the tensor powers of the operator
    f = scaled_coalgebra()
    assert verify_coalgebra(f).ok
    ops = [op_from_form(f, form) for form in SCALED_FORMS]
    assert all(verify_right_invariance(f, m) == (True, None) for m in ops)
    outcomes = assert_matches_per_basis_loop(f, ops, [F(1, 2), F(-2, 3), F(5, 7)])
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 100
    ctx = TensorContext(f, 2)
    g = triangular_coalgebra(1).basis[0]
    rng = random.Random("scaled")
    for m in ops:
        for r, c in [(rng.randrange(f.dim), rng.randrange(f.dim)) for _ in range(3)]:
            bad = planted(m, r, c, F(5, 7))
            spec = RealizationSpec(triangular_coalgebra(1), ctx, {g: bad})
            ok, w = per_word_invariance(ctx, tensor_powers(ctx, bad))
            assert verify_lift(spec, g).ok == ok
            if not ok:
                assert verify_lift(spec, g).failures() == [
                    f"right-invariance on T(F) (witness {w[0]})"]


@pytest.mark.parametrize("name", sorted(BROKEN_COALGEBRAS))
def test_degree_one_check_matches_per_basis_loop_on_broken_coalgebras(name):
    # the identity at a letter needs no coalgebra laws, so both loops agree
    # on every operator of a form over an F that breaks one
    f = BROKEN_COALGEBRAS[name]()
    assert not verify_coalgebra(f).ok
    ops = [op_from_form(f, RIOp.from_eval(b)) for b in f.basis] + [Matrix.identity(f.dim)]
    outcomes = assert_matches_per_basis_loop(f, ops, [ONE, F(-3, 2)])
    assert True in outcomes and False in outcomes


def letter_replaced(spec, l, m):
    """spec with x(l) replaced by the raw matrix m (a fresh spec cache)."""
    return RealizationSpec(spec.l_coalg, spec.f_ctx, {**spec.x_map, l: m}, spec.diag_pairs)


@pytest.mark.parametrize("name", SHIPPED)
def test_verify_lift_matches_per_word_loop_on_planted_defects(name):
    # a single-entry defect planted in one x(l) at a time (at the top right
    # corner and at a random entry), at N <= 3: for every letter b,
    # verify-lift's right-invariance verdict is the per-word loop's on the
    # blocks of X(b), and so is its witness where l is b.  The degree-1 check
    # is stricter where X(b) reads a non-invariant x(l) whose effect cancels
    # in the blocks (an x(l) beside a zero block, say): it fails there,
    # because the lift's theorems take x into the right-invariant operators
    spec = fixture_spec(name)
    spec = with_truncation(spec, min(spec.max_degree, 3))
    f, ctx = spec.f_ctx.f, spec.f_ctx
    rng = random.Random(name)
    outcomes = set()
    for l, (r, c) in itertools.product(spec.l_coalg.basis, [
            (0, f.dim - 1), (rng.randrange(f.dim), rng.randrange(f.dim))]):
        bad = letter_replaced(spec, l, planted(spec.x_matrix(l), r, c, F(1, 2)))
        for b in bad.l_coalg.basis:
            report = verify_lift(bad, b)
            got = not any(t.startswith("right-invariance") for t in report.failures())
            ok, w = per_word_invariance(ctx, lift_operator_recursive(bad, b))
            if got != ok:
                assert ok and not got, (l, b)
                assert not verify_right_invariance(f, bad.x_matrix(l))[0]
            elif not ok and l == b:
                assert f"right-invariance on T(F) (witness {w[0]})" in report.failures()
            outcomes.add((got, ok))
    assert (False, False) in outcomes
